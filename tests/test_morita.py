"""Direct tests of the Morita layer: symplectic equivalences and transfer."""

from fractions import Fraction

from diraclab.coisotropic import identity_datum
from diraclab.courant import ThreeFormFiber, TwoFormFiber
from diraclab.groupoid import GroupoidFiberBundle, MorphismFiber, identity_morphism
from diraclab.linalg import LinMap
from diraclab.morita import gauge_twist_equivalence, symplectic_morita_check, transfer
from diraclab.report import FAIL, PASS

F = Fraction


def statuses(rep, check_id):
    return [r.status for r in rep.records if r.check_id == check_id]


def torus_twist(torus1):
    datum = torus1.ham.datum
    g = datum.g_bundle
    gamma = [TwoFormFiber(LinMap.from_rows([[0, 1], [-1, 0]])) for _ in g.objects]
    dgamma = [ThreeFormFiber.zero(2) for _ in g.objects]
    return datum, gauge_twist_equivalence(datum, gamma, dgamma)


def test_torus_twist_is_a_symplectic_equivalence(torus1):
    _, m = torus_twist(torus1)
    rep = symplectic_morita_check(m.phi1, m.phi2, list(m.gamma), list(m.dgamma))
    assert rep.passed, rep.failures()
    for check_id in ("morita.form", "morita.threeform", "morita.bijective"):
        assert statuses(rep, check_id) and set(statuses(rep, check_id)) == {PASS}


def test_torus_transfer_and_round_trip(torus1):
    datum, m = torus_twist(torus1)
    result = transfer(m, list(datum.dirac), check_strong=True)
    assert result.report.passed, result.report.failures()
    assert statuses(result.report, "transfer.roundtrip") == [PASS]
    assert statuses(result.report, "transfer.strong") == [PASS]
    assert len(result.dirac) == len(datum.c_bundle.objects)


def test_reversed_twice_is_the_identity(torus1):
    _, m = torus_twist(torus1)
    assert m.reversed().reversed() == m
    assert m.reversed().gamma[0] == m.gamma[0].neg()


def test_corrupted_gamma_fails_the_form_identity(pair_bundle):
    # on the pair groupoid s_* != t_*, so t*gamma - s*gamma sees gamma; the
    # identity legs need gamma = 0 (on the torus base s_* = t_*, and the
    # form identity holds for every gamma)
    n = pair_bundle.objects[0].dim
    dgamma = [ThreeFormFiber.zero(n) for _ in pair_bundle.objects]
    gamma = [TwoFormFiber.zero(n) for _ in pair_bundle.objects]
    m = gauge_twist_equivalence(identity_datum(pair_bundle), gamma, dgamma)
    assert symplectic_morita_check(m.phi1, m.phi2, gamma, dgamma).passed

    bad = list(gamma)
    rows = [[0] * n for _ in range(n)]
    rows[0][1], rows[1][0] = 1, -1
    bad[0] = TwoFormFiber(LinMap.from_rows(rows))
    rep = symplectic_morita_check(m.phi1, m.phi2, bad, dgamma)
    assert FAIL in statuses(rep, "morita.form")
    assert set(statuses(rep, "morita.threeform")) == {PASS}


def test_zeroed_algebroid_leg_fails_bijectivity(torus1):
    # a nonzero cA is forced by translation equivariance at every sampled
    # arrow, so the legs live on the objects-only atlas of the base
    g = torus1.ham.datum.g_bundle
    objects_only = GroupoidFiberBundle(g.objects, (), (), name="objects")
    ident = identity_morphism(objects_only)
    zeroed = MorphismFiber(objects_only, objects_only, ident.obj_map, ident.c0,
                           tuple(LinMap.zero(o.adim, o.adim) for o in g.objects),
                           (), ())
    gamma = [TwoFormFiber(LinMap.from_rows([[0, 1], [-1, 0]])) for _ in g.objects]
    dgamma = [ThreeFormFiber.zero(2) for _ in g.objects]
    assert symplectic_morita_check(ident, ident, gamma, dgamma).passed
    rep = symplectic_morita_check(zeroed, ident, gamma, dgamma)
    assert set(statuses(rep, "morita.bijective")) == {FAIL}
    assert set(statuses(rep, "morita.threeform")) == {PASS}
