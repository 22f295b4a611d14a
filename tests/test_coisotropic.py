import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from diraclab import scenarios as sc
from diraclab.coisotropic import (
    CoisotropicDatum,
    chain_map_check,
    identity_datum,
    infinitesimal_coisotropic_check,
    is_coisotropic,
    is_strong,
    nondeg_assembly,
    orbit_lagrangian,
    strong_injectivity,
    strong_kernel,
    zero_shifted_poisson_check,
)
from diraclab.courant import (
    ThreeFormFiber,
    TwoFormFiber,
    cotangent_dirac,
    graph_two_form,
    lagrangian,
    pullback,
    std_symplectic,
    tangent_dirac,
)
from diraclab.groupoid import (
    GroupoidFiberBundle,
    MorphismFiber,
    ObjectFiber,
    compatibility_check,
    identity_morphism,
    induced_dirac,
    unit_groupoid,
)
from diraclab.linalg import (
    LinMap,
    basis_vec,
    canonicalize,
    image,
    kernel,
    random_matrix,
    solve,
    vec_concat,
    vstack,
)

from diraclab.records import replace
from diraclab.report import FAIL, HYPOTHESIS_VIOLATED, PASS, CheckRecord, witness_difference

F = Fraction


def test_identity_datum_pair_is_coisotropic(pair_bundle):
    rep = is_coisotropic(identity_datum(pair_bundle))
    assert rep.passed


def test_identity_datum_pair_is_strong(pair_bundle):
    # ker rho = 0 for the pair groupoid, so the identity datum is strong
    assert is_strong(identity_datum(pair_bundle)).passed


def test_identity_datum_circle(circle1):
    rep = is_strong(identity_datum(circle1.datum.g_bundle))
    assert rep.passed


def test_hamiltonian_datum_strong(circle1):
    assert is_strong(circle1.datum).passed


def test_nondeg_map_bijective_for_identity(pair_bundle):
    idd = identity_datum(pair_bundle)
    a = nondeg_assembly(idd, 0)
    assert a.escape is None and a.onto
    assert image(a.mat) == a.im == a.fp
    assert kernel(a.mat).dim == 0
    assert nondeg_assembly(idd, 0).mat == a.mat


def test_corrupted_dirac_fails_nondeg(circle1):
    datum = circle1.datum
    bad = CoisotropicDatum(datum.morphism,
                           tuple(tangent_dirac(2) for _ in datum.dirac),
                           name="bad")
    rep = is_coisotropic(bad)
    assert not rep.passed
    assert any(r.check_id in ("coiso.nondeg", "coiso.compat")
               for r in rep.failures())


def test_nondeg_map_reports_an_escaping_column(circle1):
    datum = circle1.datum
    bad = CoisotropicDatum(datum.morphism,
                           tuple(tangent_dirac(2) for _ in datum.dirac),
                           name="bad")
    for i in range(len(bad.c_bundle.objects)):
        a = nondeg_assembly(bad, i)
        assert not bad.dirac[i].space.contains(a.escape)
        assert (a.obj, a.fp, a.im, a.onto) == (i, None, None, False)


ESCAPES = Path(__file__).parent / "escape-circle-n1-tangent.json"


def test_every_reader_reports_an_escaping_image_as_before(circle1):
    # no shipped command reaches the escape path, so its reports are pinned
    # here: the ids, statuses, details and witnesses of the three readers of
    # the non-degeneracy map on circle n = 1 with tangent fibers, where the
    # image of (rho_C, c*sigma c_*) leaves L at every object
    datum = circle1.datum
    bad = CoisotropicDatum(datum.morphism, tuple(tangent_dirac(2) for _ in datum.dirac),
                           name=datum.name)
    got = {"is_coisotropic": is_coisotropic(bad).to_json(),
           "chain_map_check": [chain_map_check(bad, i).to_json()
                               for i in range(len(bad.c_bundle.objects))],
           "hamiltonian_check": sc.hamiltonian_check(bad).to_json()}
    assert json.loads(json.dumps(got)) == json.loads(ESCAPES.read_text())


@pytest.mark.parametrize("tangent", [False, True])
def test_each_object_is_assembled_once_per_datum(circle1, monkeypatch, tangent):
    # is_coisotropic, chain_map_check and the Hamiltonian check read the
    # datum's assemblies, so each object's map is assembled once, including
    # an object where a column of (rho_C, c*sigma c_*) leaves L
    from diraclab import coisotropic
    datum = circle1.datum
    dirac = tuple(tangent_dirac(2) for _ in datum.dirac) if tangent else datum.dirac
    fresh = CoisotropicDatum(datum.morphism, dirac, name=datum.name)
    calls = []
    monkeypatch.setattr(coisotropic, "nondeg_assembly",
                        lambda d, i: calls.append(i) or nondeg_assembly(d, i))
    objects = range(len(fresh.c_bundle.objects))
    assert is_strong(fresh).passed != tangent
    assert is_coisotropic(fresh).passed != tangent
    assert sc.hamiltonian_check(fresh).passed != tangent
    for i in objects:
        chain_map_check(fresh, i)
    assert calls == list(objects)
    escaped = [a.escape is not None for a in fresh.assemblies]
    assert escaped == [tangent] * len(objects)


@pytest.mark.parametrize("tangent", [False, True])
def test_each_assembled_map_is_tested_for_surjectivity_once(circle1, torus1, monkeypatch,
                                                            tangent):
    # is_coisotropic (twice, as is_strong and transfer run it), chain_map_check
    # and the Hamiltonian check read the datum's assemblies, so image(mat)
    # is computed once per assembled map, in nondeg_assembly, and not at all
    # where a column of (rho_C, c*sigma c_*) leaves L.  image is patched
    # before the first read of assemblies, and every map it sees is kept, so
    # no id is reused
    from diraclab import coisotropic
    datum = (circle1 if tangent else torus1).datum
    dirac = tuple(tangent_dirac(2) for _ in datum.dirac) if tangent else datum.dirac
    fresh = CoisotropicDatum(datum.morphism, dirac, name=datum.name)
    imaged = []
    monkeypatch.setattr(coisotropic, "image",
                        lambda f, *s: imaged.append(f) or image(f, *s))
    assert is_strong(fresh).passed != tangent
    assert is_coisotropic(fresh).passed != tangent
    assert sc.hamiltonian_check(fresh).passed != tangent
    for i in range(len(fresh.c_bundle.objects)):
        chain_map_check(fresh, i)
    counts = Counter(map(id, imaged))
    assert ([counts[id(a.mat)] for a in fresh.assemblies]
            == [0 if tangent else 1] * len(fresh.c_bundle.objects))


@pytest.mark.parametrize("tangent", [False, True])
def test_assemblies_are_a_view_kept_on_the_datum(circle1, tangent):
    datum = circle1.datum
    dirac = tuple(tangent_dirac(2) for _ in datum.dirac) if tangent else datum.dirac
    fresh = CoisotropicDatum(datum.morphism, dirac, name=datum.name)
    assemblies = fresh.assemblies
    assert fresh.assemblies is assemblies
    for i, a in enumerate(assemblies):
        assert a == nondeg_assembly(fresh, i) and a.obj == i
        if a.escape is None:
            assert (a.im, a.onto) == (image(a.mat), image(a.mat) == a.fp)
        else:
            assert (a.fp, a.im, a.onto) == (None, None, False)
    assert [a.escape is not None for a in assemblies] == [tangent] * len(assemblies)


def test_chain_map_two_characterizations(pair_bundle, circle1):
    for datum in (identity_datum(pair_bundle), circle1.datum):
        for i in range(min(2, len(datum.c_bundle.objects))):
            rep = chain_map_check(datum, i)
            assert rep.passed, rep.failures()


def test_chain_map_check_rejects_a_top_row_that_is_not_a_complex():
    # rho_C = sigma_C = 0 and c0 = cA = I into the pair groupoid, with the
    # cotangent fiber: the top row's d2 d1 is -rho_G cA = -I
    g = sc.build_pair_groupoid(2, num_objects=1)
    zero, ident = LinMap.zero(2, 2), LinMap.identity(2)
    c = GroupoidFiberBundle((ObjectFiber(2, 2, zero, zero, ThreeFormFiber.zero(2)),), (), ())
    datum = CoisotropicDatum(MorphismFiber(c, g, (0,), (ident,), (ident,), (), ()),
                             (cotangent_dirac(2),))
    with pytest.raises(ValueError, match=r"d2 \. d1 != 0"):
        chain_map_check(datum, 0)


def test_orbit_lagrangian_pair_full_orbit(pair_bundle):
    datum = orbit_lagrangian(identity_morphism(pair_bundle))
    assert datum.dirac[0] == graph_two_form(std_symplectic(2))
    assert is_strong(datum).passed


def test_orbit_lagrangian_circle_point_orbit(circle1):
    datum = sc.circle_orbit_datum(circle1, F(1, 2))
    assert datum.dirac[0].n == 0
    assert is_strong(datum).passed


def test_orbit_well_definedness_rejects_corrupt_input(circle1):
    datum = sc.circle_orbit_datum(circle1, F(1, 2))
    c = datum.morphism
    # corrupt the base sigma so gamma would depend on the anchor preimage:
    # over a point orbit that surfaces as an anchor-image mismatch instead
    bad_cod_objects = list(c.cod.objects)
    ob = bad_cod_objects[c.obj_map[0]]
    from diraclab.records import replace
    bad_cod_objects[c.obj_map[0]] = replace(ob, rho=LinMap.from_rows([[1]]))
    bad_cod = GroupoidFiberBundle(tuple(bad_cod_objects), c.cod.arrows, (),
                                  name="bad")
    with pytest.raises(ValueError):
        bad_morph = MorphismFiber(c.dom, bad_cod, c.obj_map, c.c0, c.cA,
                                  tuple(), tuple())
        orbit_lagrangian(bad_morph)


def test_zero_shifted_poisson_trivial_groupoid():
    bundle = unit_groupoid(2, 2, "unit")
    rep = zero_shifted_poisson_check(bundle, [cotangent_dirac(2)] * 2)
    assert rep.passed


def test_zero_shifted_poisson_transitive(pair_bundle):
    # the tangent Dirac structure is the 0-shifted Poisson structure of a
    # transitive groupoid: im rho = V = ker L
    rep = zero_shifted_poisson_check(pair_bundle,
                                     [tangent_dirac(2)] * len(pair_bundle.objects))
    assert rep.passed


def test_zero_shifted_poisson_fails_without_surjective_anchor(circle1):
    g = circle1.datum.g_bundle
    rep = zero_shifted_poisson_check(g, [tangent_dirac(1)] * len(g.objects))
    assert not rep.passed
    assert any(r.check_id == "zsp.kernel" for r in rep.failures())


def test_zero_shifted_poisson_needs_untwisted():
    ob = ObjectFiber(3, 0, LinMap.zero(3, 0), LinMap.zero(3, 0),
                     ThreeFormFiber.from_dict(3, {(0, 1, 2): F(1)}))
    bundle = GroupoidFiberBundle((ob,), (), (), name="twisted")
    rep = zero_shifted_poisson_check(bundle, [tangent_dirac(3)])
    assert not rep.hypothesis_ok


def test_infinitesimal_identity_constant_rank():
    l = graph_two_form(std_symplectic(2))
    rep = infinitesimal_coisotropic_check(
        [LinMap.identity(2)] * 3, [l] * 3, [l] * 3,
        [ThreeFormFiber.zero(2)] * 3, [ThreeFormFiber.zero(2)] * 3)
    assert rep.passed
    assert rep.records[-1].ranks == (2, 2, 2)


def test_infinitesimal_line_fixture_rank_jump():
    fx = sc.line_bivector_fixture()
    rep = infinitesimal_coisotropic_check(
        list(fx.cmaps), list(fx.l_n), list(fx.l_m),
        [ThreeFormFiber.zero(1)] * len(fx.params),
        [ThreeFormFiber.zero(2)] * len(fx.params))
    assert not rep.passed
    ranks = rep.records[-1].ranks
    assert set(ranks) == {1, 2}
    assert ranks[fx.params.index(F(0))] == 2


def test_infinitesimal_backward_dirac_submersion_constant():
    # c : Q^2 -> Q, first projection, with L_N = c*L_M
    c = LinMap.from_rows([[1, 0]])
    l_m = graph_two_form(TwoFormFiber.zero(1))
    l_n = pullback(c, l_m)
    rep = infinitesimal_coisotropic_check(
        [c] * 3, [l_n] * 3, [l_m] * 3,
        [ThreeFormFiber.zero(2)] * 3, [ThreeFormFiber.zero(1)] * 3)
    assert rep.passed


def test_infinitesimal_twist_mismatch_is_hypothesis_violation():
    phi_m = ThreeFormFiber.from_dict(2, {})
    phi_n = ThreeFormFiber.from_dict(1, {})
    bad_n = ThreeFormFiber.from_dict(1, {})
    l = graph_two_form(TwoFormFiber.zero(2))
    rep = infinitesimal_coisotropic_check(
        [LinMap.identity(2)], [graph_two_form(std_symplectic(2))], [l],
        [ThreeFormFiber.from_dict(2, {})],
        [ThreeFormFiber.from_dict(2, {})])
    assert rep.passed  # zero twists agree; now break them
    ob3 = ThreeFormFiber.from_dict(3, {(0, 1, 2): F(1)})
    l3 = graph_two_form(TwoFormFiber.zero(3))
    rep2 = infinitesimal_coisotropic_check(
        [LinMap.identity(3)], [l3], [l3],
        [ThreeFormFiber.zero(3)], [ob3])
    assert not rep2.hypothesis_ok


# ---------------------------------------------------------------------------
# randomized agreement of the two chain-map characterizations

def qs_object_block(rng) -> ObjectFiber:
    """A random quasi-symplectic object fiber: a pair-groupoid block of a
    random nondegenerate form, plus a torus-cotangent block."""
    n = rng.choice([1, 2])
    k = rng.choice([0, 1, 2])
    from diraclab.linalg import random_antisymmetric
    while True:
        om = random_antisymmetric(rng, 2 * n, bound=4)
        if kernel(om).dim == 0:
            break
    dim, adim = 2 * n + k, 2 * n + k
    rho = LinMap.from_rows(
        [[F(1) if (i == j and i < 2 * n) else F(0) for j in range(adim)]
         for i in range(dim)])
    sig_rows = []
    for i in range(dim):
        row = []
        for j in range(adim):
            if i < 2 * n and j < 2 * n:
                row.append(om.transpose().entries[i][j])
            elif i >= 2 * n and j >= 2 * n and i == j:
                row.append(F(-1))
            else:
                row.append(F(0))
        sig_rows.append(row)
    sigma = LinMap.from_rows(sig_rows)
    return ObjectFiber(dim, adim, rho, sigma, ThreeFormFiber.zero(dim))


def random_chain_datum(seed: int) -> CoisotropicDatum:
    """A random single-object datum honoring the chain-map preconditions:
    the always-isotropic image of (rho_C, c*sigma c_*) is completed to a
    random Lagrangian."""
    rng = random.Random(seed)
    ob_g = qs_object_block(rng)
    m = rng.choice([1, 2, 3])
    r_c = rng.choice([0, 1, 2])
    # surjective random c0
    while True:
        c0 = random_matrix(rng, ob_g.dim, m, bound=3)
        if image(c0).dim == min(ob_g.dim, m):
            break
    cA = random_matrix(rng, ob_g.adim, r_c, bound=3)
    # rho_C solving c0 rho_C = rho_G cA (columnwise, with kernel noise)
    ker_c0 = kernel(c0)
    cols = []
    for j in range(r_c):
        target = ob_g.rho.apply(cA.apply(basis_vec(r_c, j)))
        x = solve(c0, LinMap.from_cols([target], rows_dim=c0.rows))
        if x is None:
            return random_chain_datum(seed + 7919)
        x = x.col_vectors()[0]
        if ker_c0.dim:
            noise = ker_c0.matrix.apply(
                tuple(F(rng.randint(-2, 2)) for _ in range(ker_c0.dim)))
            x = tuple(a + b for a, b in zip(x, noise))
        cols.append(x)
    rho_c = LinMap.from_cols(cols, rows_dim=m)
    ob_c = ObjectFiber(m, r_c, rho_c, LinMap.zero(m, r_c), ThreeFormFiber.zero(m))

    sig_pull = c0.transpose() @ ob_g.sigma @ cA
    iso = canonicalize([vec_concat(rho_c.apply(basis_vec(r_c, j)),
                                   sig_pull.apply(basis_vec(r_c, j)))
                        for j in range(r_c)], 2 * m)
    # complete the isotropic image to a Lagrangian: I + (I-perp cap Lambda)
    # is Lagrangian for any Lagrangian Lambda, so randomize through Lambda
    from diraclab.courant import gauge, graph_bivector
    from diraclab.linalg import random_antisymmetric
    from test_courant import perp
    lam = gauge(graph_bivector(random_antisymmetric(rng, m, bound=3)),
                TwoFormFiber(random_antisymmetric(rng, m, bound=3)))
    space = iso.sum(perp(iso).intersect(lam.space))
    l = lagrangian(space)

    c_bundle = GroupoidFiberBundle((ob_c,), (), (), name="random-c")
    g_bundle = GroupoidFiberBundle((ob_g,), (), (), name="random-g")
    morph = MorphismFiber(c_bundle, g_bundle, (0,), (c0,), (cA,), (), ())
    return CoisotropicDatum(morph, (l,), name=f"random-{seed}")


@pytest.mark.parametrize("seed", range(60))
def test_chain_map_agreement_on_random_fibers(seed):
    datum = random_chain_datum(seed)
    rep = chain_map_check(datum, 0)
    for r in rep.records:
        if r.check_id in ("chain_map.quasi_iso_iff_bijective",
                          "chain_map.middle_iso_iff_surjective"):
            assert r.status == "pass", r.detail


def test_corrupted_target_is_a_qs_hypothesis_violation(pair_bundle):
    idd = identity_datum(pair_bundle)
    c = idd.morphism
    onto_bad = MorphismFiber(c.dom, sc.corrupt_sigma(pair_bundle), c.obj_map,
                             c.c0, c.cA, c.arrow_map, c.c1)
    rep = is_coisotropic(CoisotropicDatum(onto_bad, idd.dirac, name="bad-target"))
    assert [(r.check_id, r.status) for r in rep.records] == \
        [("coiso.qs_target", HYPOTHESIS_VIOLATED)]
    # the verdict belongs to the corrupted bundle only
    assert is_coisotropic(idd).passed


def test_compatibility_records_are_computed_once_per_datum(circle1):
    datum = circle1.datum
    c = datum.morphism
    assert datum.compatibility is datum.compatibility
    assert datum.compatibility == tuple(
        compatibility_check(ar, datum.dirac[ar.src], datum.dirac[ar.tgt],
                            c.pullback_two_form(k))
        for k, ar in enumerate(c.dom.arrows))
    coiso = [r for r in is_coisotropic(datum).records if r.check_id == "coiso.compat"]
    ham = [r for r in sc.hamiltonian_check(circle1.datum).records
           if r.check_id == "ham.compat"]
    assert coiso == [replace(r, detail=f"arrow {k}: {r.detail}")
                     for k, r in enumerate(datum.compatibility)]
    assert ham == [replace(r, check_id="ham.compat") for r in datum.compatibility]


def oracle_compatibility(arrow, l_src, l_tgt, pullback_form):
    """compatibility_check's record with both sides built by the Fraction
    oracles of test_courant on bases of L, so no formula on (E, omega) and
    no memo entry takes part."""
    from test_courant import oracle_dirac_sum, oracle_pullback
    lhs = oracle_pullback(arrow.t_star, l_tgt)
    src = lagrangian(oracle_pullback(arrow.s_star, l_src))
    rhs = oracle_dirac_sum(src, graph_two_form(pullback_form))
    ok = lhs == rhs
    return CheckRecord("coiso.compat", PASS if ok else FAIL,
                       "t*L = s*L + graph(c*omega)",
                       None if ok else witness_difference(lhs, rhs))


def test_compatibility_failure_reaches_both_reports(circle1):
    datum = circle1.datum
    bad = CoisotropicDatum(datum.morphism,
                           (tangent_dirac(2),) + datum.dirac[1:], name="bad")
    failing = [k for k, r in enumerate(bad.compatibility) if r.status == FAIL]
    assert failing
    # each record equals, witness included, the one the oracles give
    c = bad.morphism
    assert bad.compatibility == tuple(
        oracle_compatibility(ar, bad.dirac[ar.src], bad.dirac[ar.tgt],
                               c.pullback_two_form(k))
        for k, ar in enumerate(c.dom.arrows))
    assert all(bad.compatibility[k].witness for k in failing)
    rep = is_coisotropic(bad)
    assert [r.detail.split(":")[0] for r in rep.failures()
            if r.check_id == "coiso.compat"] == [f"arrow {k}" for k in failing]


def test_strong_injectivity_fails_with_a_zero_algebroid_leg(torus1):
    # on the objects-only atlas of the torus base, rho = 0, so a zero c_* on
    # the algebroid leaves ker rho cap ker c_* = A
    g = torus1.datum.g_bundle
    objects_only = GroupoidFiberBundle(g.objects, (), (), name="objects")
    ident = identity_morphism(objects_only)
    zeroed = MorphismFiber(objects_only, objects_only, ident.obj_map, ident.c0,
                           tuple(LinMap.zero(o.adim, o.adim) for o in g.objects),
                           (), ())
    dirac = tuple(induced_dirac(o) for o in g.objects)
    rep = strong_injectivity(CoisotropicDatum(zeroed, dirac, name="zeroed"))
    assert [r.status for r in rep.records] == [FAIL] * len(g.objects)
    assert rep.records[0].witness["basis"]
    assert strong_injectivity(CoisotropicDatum(ident, dirac)).passed


def test_is_strong_is_is_coisotropic_then_strong_injectivity(pair_bundle, circle1):
    for datum in (identity_datum(pair_bundle), circle1.datum):
        rep = is_strong(datum)
        assert rep.records == (is_coisotropic(datum).records
                               + strong_injectivity(datum).records)
        assert rep.suite == is_coisotropic(datum).suite


@pytest.mark.parametrize("seed", range(30))
def test_pullback_sigma_and_strong_kernel_are_the_formulas_they_replace(seed):
    from test_linalg import recorded_products
    c = random_chain_datum(seed).morphism
    with recorded_products() as helper:
        got = c.pullback_sigma(0)
    with recorded_products() as inline:
        want = c.c0[0].transpose() @ c.cod.objects[c.obj_map[0]].sigma
    assert got == want and helper == inline
    assert strong_kernel(c, 0) == kernel(vstack(c.dom.objects[0].rho, c.cA[0]))