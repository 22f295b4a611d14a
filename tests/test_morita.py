"""Direct tests of the Morita layer: symplectic equivalences, descent,
transfer and the composition of two transfers."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from diraclab import coisotropic, morita, scenarios as sc
from diraclab.coisotropic import CoisotropicDatum, identity_datum
from diraclab.courant import (ThreeFormFiber, TwoFormFiber, dirac_sum, gauge, graph_bivector,
                              pullback, tangent_dirac)
from diraclab.groupoid import GroupoidFiberBundle, MorphismFiber, identity_morphism
from diraclab.linalg import LinMap, random_antisymmetric, random_matrix, solve
from diraclab.morita import (
    ChainSample,
    NatTransFiber,
    _pushed_back,
    curvature_defect_check,
    descend_dirac,
    gauged_pullback,
    homotopy_identities,
    identity_leg_equivalence,
    random_connection,
    sigma_ad_check,
    symplectic_morita_check,
    transfer,
    transfer_composition_check,
)
from diraclab.records import replace
from diraclab.report import FAIL, PASS, VerificationReport

F = Fraction


def statuses(rep, check_id):
    return [r.status for r in rep.records if r.check_id == check_id]


def torus_twist(torus1):
    datum = torus1.datum
    g = datum.g_bundle
    gamma = [TwoFormFiber(LinMap.from_rows([[0, 1], [-1, 0]])) for _ in g.objects]
    dgamma = [ThreeFormFiber.zero(2) for _ in g.objects]
    c = datum.morphism
    return datum, identity_leg_equivalence(c, identity_morphism(c.dom), c, gamma, dgamma)


def test_torus_twist_is_a_symplectic_equivalence(torus1):
    _, m = torus_twist(torus1)
    rep = symplectic_morita_check(m.phi1, m.phi2, list(m.gamma), list(m.dgamma))
    assert rep.passed, rep.failures()
    for check_id in ("morita.form", "morita.threeform", "morita.bijective"):
        assert statuses(rep, check_id) and set(statuses(rep, check_id)) == {PASS}


def test_torus_transfer_and_round_trip(torus1):
    datum, m = torus_twist(torus1)
    result = transfer(m, list(datum.dirac), datum)
    assert result.report.passed, result.report.failures()
    assert statuses(result.report, "transfer.roundtrip") == [PASS]
    assert statuses(result.report, "transfer.strong") == [PASS]
    assert len(result.dirac) == len(datum.c_bundle.objects)


def test_transfer_reads_the_input_compatibility_from_the_datum(torus1, monkeypatch):
    # the caller's datum already holds its per-arrow compatibility records,
    # so the strong check on the input adds no compatibility_check call
    datum, m = torus_twist(torus1)
    datum = CoisotropicDatum(datum.morphism, datum.dirac, name=datum.name)
    assert len(datum.compatibility) == len(datum.c_bundle.arrows)
    calls = []
    real = coisotropic.compatibility_check
    monkeypatch.setattr(coisotropic, "compatibility_check",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    checked = transfer(m, list(datum.dirac), datum)
    with_datum = len(calls)
    calls.clear()
    plain = transfer(m, list(datum.dirac))
    assert with_datum == len(calls) > 0
    assert statuses(checked.report, "transfer.strong") == [PASS]
    assert statuses(plain.report, "transfer.strong") == []


def test_transfer_runs_one_transfer_and_one_descent(torus1, monkeypatch):
    # the round trip pushes the transferred fibers back itself, without a
    # second, reverse transfer and its descent
    datum, m = torus_twist(torus1)
    calls = Counter()
    for name in ("transfer", "descend_dirac"):
        real = getattr(morita, name)
        monkeypatch.setattr(morita, name, lambda *a, _name=name, _real=real, **k:
                            calls.update([_name]) or _real(*a, **k))
    result = morita.transfer(m, list(datum.dirac), datum)
    assert statuses(result.report, "transfer.roundtrip") == [PASS]
    assert calls == {"transfer": 1, "descend_dirac": 1}


def reverse_transfer_oracle(m, l2):
    """The round trip as a whole reverse run computes it: the transfer of l2
    through the reversed equivalence, per C1-object."""
    return transfer(m.reversed(), l2, roundtrip=False).dirac


def reduction_equivalence(monkeypatch):
    """The quotient weak Morita equivalence run_reduction transfers along on
    circle n = 1, with the fibers it transfers."""
    seen = []
    real = morita.transfer
    with monkeypatch.context() as mp:
        mp.setattr(morita, "transfer", lambda m, l1, *a, **k:
                   seen.append((m, l1)) or real(m, l1, *a, **k))
        sc.run_reduction(sc.circle_reduction(1, F(1, 2)))
    return seen[0]


@pytest.mark.parametrize("case", ["torus", "reduction"])
def test_identity_leg_equivalences_sit_on_unit_arrows(torus1, monkeypatch, case):
    # psi1 = id_K, g = c1, phi1 = phi2 = id_G, theta on G's unit arrows over
    # c1 and delta = -c1*gamma; the reduction's gamma = 0 over the point gives
    # theta(x) = 0 into the point's one unit arrow and delta = 0
    if case == "torus":
        _, m = torus_twist(torus1)
        assert m.psi2 == m.psi1 and m.c2 == m.c1
    else:
        m, _ = reduction_equivalence(monkeypatch)
        assert m.c2.cod is m.c1.cod and len(m.c1.cod.objects) == 1
        assert m.theta1 == {x: NatTransFiber(0, LinMap.zero(0, o.dim))
                            for x, o in enumerate(m.c1.dom.objects)}
        assert m.delta == tuple(TwoFormFiber.zero(o.dim) for o in m.c1.dom.objects)
    c1, g_bundle = m.c1, m.c1.cod
    assert m.psi1 == identity_morphism(c1.dom) and m.g is c1
    assert m.phi1 is m.phi2 and m.phi1 == identity_morphism(g_bundle)
    assert m.theta1 is m.theta2
    for x, fib in m.theta1.items():
        ar = g_bundle.arrows[fib.arrow]
        assert ar.unit and ar.src == c1.obj_map[x]
        assert fib.theta_star == ar.u_star @ c1.c0[x]
        assert m.delta[x] == m.gamma[c1.obj_map[x]].pullback(c1.c0[x]).neg()


@pytest.mark.parametrize("case", ["torus", "reduction"])
def test_the_round_trip_fibers_are_the_reverse_transfer(torus1, monkeypatch, case):
    if case == "torus":
        datum, m = torus_twist(torus1)
        l1 = list(datum.dirac)
    else:
        m, l1 = reduction_equivalence(monkeypatch)
    forward = transfer(m, l1, roundtrip=False)
    l2 = [forward.dirac[i] for i in range(len(forward.dirac))]
    oracle = reverse_transfer_oracle(m, l2)
    back = _pushed_back(m, l2)
    assert len(back) == len(m.psi1.dom.objects)
    assert back == [oracle[i] for i in m.psi1.obj_map]
    assert back == [l1[i] for i in m.psi1.obj_map]


def test_a_failing_symplectic_equivalence_names_its_failing_checks():
    # the identity span of the pair groupoid is a symplectic equivalence only
    # for gamma = 0; gamma nonzero at object 0 breaks the form identity at
    # the 5 arrows that touch object 0, and bijectivity at object 0
    bundle = sc.build_pair_groupoid(2, 3)
    datum = identity_datum(bundle)
    gamma = [TwoFormFiber.zero(2) for _ in bundle.objects]
    gamma[0] = TwoFormFiber(LinMap.from_rows([[0, 1], [-1, 0]]))
    c = datum.morphism
    m = identity_leg_equivalence(c, identity_morphism(c.dom), c, gamma,
                                 [ThreeFormFiber.zero(2) for _ in bundle.objects])
    result = transfer(m, list(datum.dirac), datum)
    summary, *rest = result.report.records
    assert (summary.check_id, summary.status) == ("transfer.symplectic_morita", FAIL)
    assert summary.witness == {"failing": {"morita.form": 5, "morita.bijective": 1}}
    sm = symplectic_morita_check(m.phi1, m.phi2, list(m.gamma), list(m.dgamma))
    assert rest == sm.records
    assert result.dirac == ()


def test_transfer_rejects_a_datum_of_another_structure(torus1):
    datum, m = torus_twist(torus1)
    other = list(datum.dirac)
    other[0] = tangent_dirac(other[0].n)
    with pytest.raises(ValueError, match="input_datum"):
        transfer(m, other, datum)


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
    c = identity_datum(pair_bundle).morphism
    m = identity_leg_equivalence(c, identity_morphism(c.dom), c, gamma, dgamma)
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
    g = torus1.datum.g_bundle
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


def torus_chain(torus1):
    """The torus composition: the twist by gamma, then by gamma / 3, with one
    chain sample per C-arrow (as the torus transfer suite builds it)."""
    datum, m1 = torus_twist(torus1)
    g = datum.g_bundle
    third = LinMap.from_rows([[0, F(1, 3)], [F(-1, 3), 0]])
    c = datum.morphism
    m2 = identity_leg_equivalence(c, identity_morphism(c.dom), c,
                                  [TwoFormFiber(third) for _ in g.objects],
                                  [ThreeFormFiber.zero(2) for _ in g.objects])
    chain = [ChainSample(ar.src, ar.tgt, ar.s_star, ar.t_star,
                         a, LinMap.identity(ar.dim), c.arrow_map[a], c.c1[a])
             for a, ar in enumerate(c.dom.arrows)]
    return datum, m1, m2, chain


def test_composition_passes_on_the_torus_chain(torus1):
    datum, m1, m2, chain = torus_chain(torus1)
    l1 = list(datum.dirac)
    leg1 = transfer(m1, l1, roundtrip=False)
    rep = transfer_composition_check(m1, m2, chain, l1, leg1)
    assert rep.passed, rep.failures()
    assert set(statuses(rep, "composition.delta_hat")) == {PASS}
    assert set(statuses(rep, "composition.gauge")) == {PASS}
    assert statuses(rep, "composition.leg1") == []


def test_composition_stops_at_a_failing_first_leg(torus1):
    datum, m1, m2, chain = torus_chain(torus1)
    # the tangent fibers are not compatible with the torus 2-forms, so the
    # first leg's descent fails
    bad = [tangent_dirac(l.n) for l in datum.dirac]
    leg1 = transfer(m1, bad, roundtrip=False)
    assert not leg1.report.passed
    rep = transfer_composition_check(m1, m2, chain, bad, leg1)
    assert statuses(rep, "composition.leg1") == [FAIL]
    assert statuses(rep, "composition.leg2") == []
    assert statuses(rep, "composition.gauge") == []
    assert rep.records[-len(leg1.report.records):] == leg1.report.records
    # the FAIL names the first leg's failing checks, with their counts
    leg = next(r for r in rep.records if r.check_id == "composition.leg1")
    assert leg.witness == {"failing": dict(Counter(r.check_id
                                                   for r in leg1.report.failures()))}
    assert leg.witness["failing"]


def test_composition_stops_at_a_failing_second_leg(torus1):
    # the second equivalence's stored connecting form is shifted at K-object
    # 0, so its transfer.delta check fails there while the first leg passes
    datum, m1, m2, chain = torus_chain(torus1)
    n = m2.delta[0].dim
    shift = [[0] * n for _ in range(n)]
    shift[0][1], shift[1][0] = 1, -1
    bad_delta = m2.delta[0].add(TwoFormFiber(LinMap.from_rows(shift)))
    m2 = replace(m2, delta=(bad_delta,) + m2.delta[1:])
    l1 = list(datum.dirac)
    leg1 = transfer(m1, l1, roundtrip=False)
    assert leg1.report.passed
    leg2 = transfer(m2, list(leg1.dirac), roundtrip=False)
    assert "transfer.delta" in {r.check_id for r in leg2.report.failures()}
    rep = transfer_composition_check(m1, m2, chain, l1, leg1)
    assert statuses(rep, "composition.leg1") == []
    assert statuses(rep, "composition.leg2") == [FAIL]
    assert statuses(rep, "composition.gauge") == []
    assert rep.records[-len(leg2.report.records):] == leg2.report.records
    leg = next(r for r in rep.records if r.check_id == "composition.leg2")
    assert leg.witness == {"failing": dict(Counter(r.check_id
                                                   for r in leg2.report.failures()))}


def descent_data(torus1):
    """The psi2 leg of the torus twist (the identity of C) and the forms
    transfer descends with: the C-arrow pullbacks c*omega."""
    datum, m = torus_twist(torus1)
    forms = [datum.morphism.pullback_two_form(k)
             for k in range(len(datum.c_bundle.arrows))]
    return datum, m.psi2, forms


def test_descend_dirac_along_the_identity_leg(torus1):
    datum, psi2, forms = descent_data(torus1)
    pushed, rep = descend_dirac(psi2, list(datum.dirac), forms)
    assert rep.passed, rep.failures()
    for check_id in ("descend.hypothesis", "descend.invariance", "descend.roundtrip"):
        assert statuses(rep, check_id) and set(statuses(rep, check_id)) == {PASS}
    assert pushed == dict(enumerate(datum.dirac))


def test_descend_dirac_with_a_swapped_fiber_fails_the_hypothesis(torus1):
    # every torus fiber is the same graph; object 0's is swapped for the
    # tangent Lagrangian, so the hypothesis fails exactly at the arrows
    # that touch object 0
    datum, psi2, forms = descent_data(torus1)
    dirac = list(datum.dirac)
    dirac[0] = tangent_dirac(dirac[0].n)
    _, rep = descend_dirac(psi2, dirac, forms)
    touched = [0 in (ar.src, ar.tgt) for ar in datum.c_bundle.arrows]
    assert any(touched) and not all(touched)
    assert statuses(rep, "descend.hypothesis") == \
        [FAIL if t else PASS for t in touched]
    # each failure carries compatibility_check's witness
    assert all(r.witness for r in rep.records
               if r.check_id == "descend.hypothesis" and r.status == FAIL)


# ---------------------------------------------------------------------------
# the homotopy identities on the circle's rotation-by-one fixture

def homotopy_report(fx, theta):
    """The identities under two independently drawn connections, as the
    circle homotopy suite runs them."""
    rep = VerificationReport("homotopy")
    for seed in (0, 1):
        rng = random.Random(seed)
        conn = {k: random_connection(fx.f.cod, k, rng)
                for k in range(len(fx.f.cod.arrows))}
        rep.merge(homotopy_identities(fx.f, fx.g, theta, fx.eta, conn,
                                      fx.inverse_pairs))
    return rep


def test_homotopy_identities_hold_on_the_circle_fixture():
    fx = sc.circle_nat_trans_fixture(F(1, 2))
    rep = homotopy_report(fx, fx.theta)
    assert rep.passed, rep.failures()
    ids = {r.check_id for r in rep.records}
    assert ids == {"homotopy.structure", "homotopy.prop.tangent",
                   "homotopy.prop.algebroid", "homotopy.sigma_ad",
                   "homotopy.theta_form", "homotopy.inverse"}
    assert len(rep.records) == 2 * len(ids) * len(fx.theta)


def test_a_corrupted_theta_star_fails_the_structure_identity():
    # one entry of theta(0)_* shifted: s theta_* = f_* breaks, and with it
    # the two identities that read theta-dot against f_* and g_*; sigma_ad
    # does not involve theta_*, and the other objects are untouched
    fx = sc.circle_nat_trans_fixture(F(1, 2))
    rows = [list(r) for r in fx.theta[0].theta_star.entries]
    rows[0][0] += 1
    theta = dict(fx.theta)
    theta[0] = replace(theta[0], theta_star=LinMap.from_rows(rows))
    rep = homotopy_report(fx, theta)
    failed = {(r.check_id, r.detail.split(":")[0])
              for r in rep.records if r.status != PASS}
    assert failed == {("homotopy.structure", "object 0"),
                      ("homotopy.prop.tangent", "object 0"),
                      ("homotopy.inverse", "object 0")}


# ---------------------------------------------------------------------------
# the adjoints are views kept on each connection

def pair_connections(bundle, seed=0):
    rng = random.Random(seed)
    return {k: random_connection(bundle, k, rng) for k in range(len(bundle.arrows))}


def test_the_adjoints_are_views_kept_on_the_connection(pair_bundle):
    for k, cf in pair_connections(pair_bundle).items():
        ar = pair_bundle.arrows[k]
        rho = pair_bundle.objects[ar.src].rho
        assert (cf.arrow, cf.fiber, cf.src_rho) == (k, ar, rho)
        views = (cf.ad_T, cf.ad_A, cf.sigma_check)
        # a second read returns the same objects, each equal to a fresh
        # computation from the arrow fiber
        assert all(a is b for a, b in zip((cf.ad_T, cf.ad_A, cf.sigma_check), views))
        assert views == (ar.t_star @ cf.tau,
                         solve(ar.right, ar.left + cf.tau @ rho),
                         solve(ar.right, LinMap.identity(ar.dim) - cf.tau @ ar.s_star))


def test_the_adjoint_suite_solves_once_per_connection_and_map(monkeypatch):
    # the pair n = 2 bundle of the shipped adjoint suite, run as the CLI runs
    # it: each connection's Ad_A and sigma-check map are solved for at most
    # once, and K(g, h) is computed once per pair
    bundle = sc.build_pair_groupoid(2, num_objects=4)
    conn = pair_connections(bundle)
    solves, curvatures = [], []
    monkeypatch.setattr(morita, "solve", lambda f, b: solves.append(1) or solve(f, b))
    curvature = morita.basic_curvature
    monkeypatch.setattr(morita, "basic_curvature",
                        lambda bd, i, c: curvatures.append(i) or curvature(bd, i, c))
    rep = sigma_ad_check(bundle, conn)
    for i in range(len(bundle.pairs)):
        rep.merge(curvature_defect_check(bundle, i, conn))
    assert rep.passed, rep.failures()
    assert 0 < len(solves) <= 2 * len(conn)
    assert curvatures == list(range(len(bundle.pairs)))


@pytest.mark.parametrize("seed", range(30))
def test_gauged_pullback_is_the_gauge_of_the_pullback(seed):
    from test_linalg import recorded_products
    rng = random.Random(seed)
    n, m = rng.randint(1, 3), rng.randint(1, 3)
    l = gauge(graph_bivector(random_antisymmetric(rng, n, 4)),
              TwoFormFiber(random_antisymmetric(rng, n, 4)))
    f = random_matrix(rng, n, m, 4)
    delta = TwoFormFiber(random_antisymmetric(rng, m, 4))
    products = []
    for lift in (gauged_pullback, lambda f, l, delta: gauge(pullback(f, l), delta)):
        pullback.cache_clear()
        dirac_sum.cache_clear()
        with recorded_products() as seen:
            products.append((lift(f, l, delta), seen))
    assert products[0] == products[1]