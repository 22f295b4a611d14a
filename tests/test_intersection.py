from collections import Counter
from fractions import Fraction

import pytest

from diraclab import scenarios as sc
from diraclab.coisotropic import (identity_datum, is_coisotropic, is_strong,
                                  zero_shifted_poisson_check)
from diraclab.courant import cotangent_dirac, pullback, tangent_dirac
from diraclab.groupoid import point_bundle
from diraclab.intersection import (
    _exact_sequence,
    homotopy_intersection,
    induced_poisson,
    strong_exact_sequence,
    strong_intersection,
)
from diraclab.linalg import LinMap, Subspace, image, kernel, solve, vec_concat
from diraclab.records import replace
from diraclab.report import FAIL, VerificationReport

F = Fraction


def test_pair_identity_self_intersection(pair_bundle):
    # both legs the identity datum: the composite has ker L = im rho = V
    idd = identity_datum(pair_bundle)
    obj_pairs = [(i, i) for i in range(len(pair_bundle.objects))]
    arrow_pairs = [(k, k) for k in range(len(pair_bundle.arrows))]
    si = strong_intersection(idd, idd, obj_pairs, arrow_pairs)
    assert si.report.passed, si.report.failures()
    for entry in si.ledger:
        assert entry["kerL"] == 2
    for f, l in zip(si.fibers, si.dirac):
        assert image(f.tangent.matrix @ f.rho).dim == 2
    seq = strong_exact_sequence(idd, idd, si)
    assert seq.passed


def test_one_factor_zero_dimensional(circle1):
    # intersect the orbit datum with itself over the base: both legs live on
    # a point, the product is a point, and L is the pullback of the other leg
    orbit = sc.circle_orbit_datum(circle1, F(1, 2))
    si = strong_intersection(orbit, orbit, [(0, 0)], [])
    assert si.report.passed
    assert si.dirac[0].n == 0


def test_circle_intersection_free_level(reduction1):
    red = reduction1
    si = strong_intersection(red.orbit, red.scn.datum,
                             list(red.obj_pairs), list(red.arrow_pairs))
    assert si.report.passed
    # locally free action: R-ann = 0 everywhere
    assert all(e["R_ann"] == 0 for e in si.ledger)
    assert all(e["kerL"] == e["L"] for e in si.ledger)
    seq = strong_exact_sequence(red.orbit, red.scn.datum, si)
    assert seq.passed
    assert any(r.check_id == "exact.free_implies_transverse" for r in seq.records)
    assert any(r.check_id == "exact.strong_output" for r in seq.records)
    assert is_strong(si.datum).passed


def test_circle_intersection_n2(strong2, reduction2):
    si = strong2
    assert si.report.passed
    assert all(e["L"] == 3 and e["kerL"] == 1 for e in si.ledger)
    seq = strong_exact_sequence(reduction2.orbit, reduction2.scn.datum, si)
    assert seq.passed
    dims = [r.ranks for r in seq.records if r.check_id == "exact.dimension"]
    assert dims and all(d == (0, 0, 0) for d in dims)


def test_level_zero_middle_dimension():
    # the fixed-point level: 1-dimensional kernel overlap, with the boundary
    # map carrying it isomorphically onto the annihilator of R
    scn = sc.circle_scenario(1, F(0))
    orbit = sc.circle_orbit_datum(scn, F(0))
    obj_pairs = [(0, oi) for p, oi in scn.obj_index.items()]
    si = strong_intersection(orbit, scn.datum, obj_pairs, [])
    assert si.report.passed
    seq = strong_exact_sequence(orbit, scn.datum, si)
    assert seq.passed
    dims = [r.ranks for r in seq.records if r.check_id == "exact.dimension"]
    assert dims and all(d == (1, 0, 1) for d in dims)


@pytest.mark.parametrize("prefix", ["exact", "homotopy.exact"])
def test_a_boundary_map_that_leaves_the_annihilator_fails_into_rann(prefix):
    # no shipped fixture reaches this FAIL: at a fixed-point product point
    # of circle n = 1 the middle term is a line, and a nonzero boundary map
    # from it cannot land in a zero annihilator
    scn = sc.circle_scenario(1, F(0))
    orbit = sc.circle_orbit_datum(scn, F(0))
    i2 = next(iter(scn.obj_index.values()))
    f = strong_intersection(orbit, scn.datum, [(0, i2)], []).fibers[0]
    middle = image(f.algebroid.matrix, kernel(f.rho))
    assert middle.dim == 1
    rep = VerificationReport("exact")
    _exact_sequence(rep, prefix, orbit, 0, scn.datum, i2, middle,
                    LinMap.from_rows([[1]]), Subspace(1, ()), True)
    into = [r for r in rep.records if r.check_id == f"{prefix}.into_rann"]
    assert [r.status for r in into] == [FAIL]
    assert into[0].witness == {"image": {"basis": [["1"]], "ambient_dim": 1},
                               "annihilator": {"basis": [], "ambient_dim": 1}}


def test_transversality_hypothesis_violation(circle1, pair_bundle):
    # break algebroid transversality by shrinking both cA maps to zero
    from diraclab.coisotropic import CoisotropicDatum
    from diraclab.groupoid import GroupoidFiberBundle, MorphismFiber
    datum = sc.circle_orbit_datum(circle1, F(1, 2))
    c = datum.morphism
    # the crippled morphism drops all arrows so it stays structurally valid
    dom = GroupoidFiberBundle(c.dom.objects, (), (), name="no-arrows")
    crippled = MorphismFiber(dom, c.cod, c.obj_map, c.c0,
                             tuple(LinMap.zero(1, 1) for _ in c.cA), (), ())
    bad = CoisotropicDatum(crippled, datum.dirac, name="crippled")
    si = strong_intersection(bad, bad, [(0, 0)], [])
    assert not si.report.hypothesis_ok
    assert si.datum is None


def test_homotopy_matches_strong_at_units(reduction1):
    red = reduction1
    d1, d2 = red.orbit, red.scn.datum
    g = d1.morphism.cod
    triples = []
    for ga, ar in enumerate(g.arrows):
        if ar.src == d1.morphism.obj_map[0] and ar.unit:
            for (o1, o2) in red.obj_pairs:
                if d2.morphism.obj_map[o2] == ar.tgt:
                    triples.append((0, ga, o2))
    hi = homotopy_intersection(d1, d2, triples[:4])
    assert hi.report.passed
    si = strong_intersection(d1, d2, list(red.obj_pairs), list(red.arrow_pairs))
    for k, f in enumerate(hi.fibers):
        i1, ga, i2 = f.base
        ar = g.arrows[ga]
        sk = next(j for j, sf in enumerate(si.fibers) if sf.base == (i1, i2))
        sf = si.fibers[sk]
        n1 = d1.morphism.dom.objects[i1].dim
        cols = []
        for b in sf.tangent.basis:
            u1 = b[:n1]
            w = vec_concat(vec_concat(
                u1, ar.u_star.apply(d1.morphism.c0[i1].apply(u1))), b[n1:])
            x = solve(f.tangent.matrix, LinMap.from_cols([w]))
            assert x is not None
            cols.append(x.col_vectors()[0])
        inc = LinMap.from_cols(cols, rows_dim=f.tangent.dim)
        assert pullback(inc, hi.dirac[k]) == si.dirac[sk]


def test_homotopy_nontrivial_middle_arrow(reduction1):
    red = reduction1
    d1, d2 = red.orbit, red.scn.datum
    g = d1.morphism.cod
    triples = []
    for ga, ar in enumerate(g.arrows):
        if ar.src == d1.morphism.obj_map[0] and not ar.unit:
            for (o1, o2) in red.obj_pairs:
                if d2.morphism.obj_map[o2] == ar.tgt:
                    triples.append((0, ga, o2))
                    break
    hi = homotopy_intersection(d1, d2, triples[:3])
    assert hi.report.passed, hi.report.failures()
    assert all(e["R_ann"] == 0 for e in hi.ledger)


def test_homotopy_over_point_bundle():
    idd = identity_datum(point_bundle())
    hi = homotopy_intersection(idd, idd, [(0, 0, 0)])
    assert hi.report.passed
    assert hi.dirac[0].n == 0


def test_induced_poisson_identity_datum(pair_bundle):
    rep = induced_poisson(identity_datum(pair_bundle))
    assert rep.passed
    assert all(r.status == "pass" for r in rep.records)


def test_induced_poisson_circle_datum(circle1):
    # the circle action on the punctured plane has trivial isotropy at the
    # sampled points, so L - c*L_G is a 0-shifted Poisson structure
    rep = induced_poisson(circle1.datum)
    assert rep.passed, rep.failures()


def line_conormal_datum():
    """The trivial Dirac structure on a line inside the plane bivector
    x d/dx ^ d/dy; the induced fiber jumps at the origin."""
    from diraclab.coisotropic import CoisotropicDatum
    from diraclab.courant import ThreeFormFiber
    from diraclab.groupoid import GroupoidFiberBundle, MorphismFiber, ObjectFiber
    params = [F(1), F(2), F(0)]
    g_objects = []
    c_objects = []
    c0 = []
    cA = []
    for t in params:
        pi_t = LinMap.from_rows([[0, t], [-t, 0]])
        g_objects.append(ObjectFiber(2, 2, pi_t.transpose(), LinMap.identity(2),
                                     ThreeFormFiber.zero(2)))
        c_objects.append(ObjectFiber(1, 1, LinMap.from_rows([[-t]]),
                                     LinMap.zero(1, 1), ThreeFormFiber.zero(1)))
        c0.append(LinMap.from_rows([[1], [0]]))
        cA.append(LinMap.from_rows([[0], [1]]))
    gb = GroupoidFiberBundle(tuple(g_objects), (), (), name="plane-bivector")
    cb = GroupoidFiberBundle(tuple(c_objects), (), (), name="line")
    morph = MorphismFiber(cb, gb, tuple(range(len(params))), tuple(c0),
                          tuple(cA), (), ())
    return CoisotropicDatum(morph, tuple(tangent_dirac(1) for _ in params),
                            name="line-conormal")


def test_induced_poisson_detects_rank_jump():
    rep = induced_poisson(line_conormal_datum())
    assert not rep.passed
    clean = [r for r in rep.records if r.check_id == "induced.clean"]
    assert clean and clean[0].status == "fail"
    assert set(clean[0].ranks) == {0, 1}


@pytest.mark.parametrize("make, strong_r", [(cotangent_dirac, 0), (tangent_dirac, 2)])
def test_rank_ledgers_read_the_tangent_parts_and_the_arrows(pair_bundle, make, strong_r):
    # R = c1(p_T L1) + c2(p_T L2), plus im(s, t) in the homotopy product
    d = replace(identity_datum(pair_bundle),
                dirac=tuple(make(2) for _ in pair_bundle.objects))
    n = len(pair_bundle.objects)
    si = strong_intersection(d, d, [(i, i) for i in range(n)], [])
    assert [e["R"] for e in si.ledger] == [strong_r] * n
    assert [e["R_ann"] for e in si.ledger] == [2 - strong_r] * n
    arrows = pair_bundle.arrows
    hi = homotopy_intersection(d, d, [(a.src, k, a.tgt) for k, a in enumerate(arrows)])
    # on the pair groupoid (s, t) is onto T + T at every arrow
    assert [e["R"] for e in hi.ledger] == [4] * len(arrows)
    assert [e["R_ann"] for e in hi.ledger] == [0] * len(arrows)


def test_exact_sequence_and_kernel_failures_carry_witnesses(pair_bundle):
    # cotangent fibers: R = 0, so R-ann is all of T*, while the middle term
    # and with it the boundary map are zero; and ker L = 0 misses im rho
    d = replace(identity_datum(pair_bundle),
                dirac=tuple(cotangent_dirac(2) for _ in pair_bundle.objects))
    n, arrows = len(pair_bundle.objects), pair_bundle.arrows
    si = strong_intersection(d, d, [(i, i) for i in range(n)], [])
    seq = strong_exact_sequence(d, d, si)
    hi = homotopy_intersection(d, d, [(a.src, k, a.tgt) for k, a in enumerate(arrows)])
    fails = [r for r in seq.records + hi.report.records if r.status == "fail"]
    assert Counter(r.check_id for r in fails) == {
        "exact.rann": n, "exact.free_implies_transverse": n, "homotopy.kernel": len(arrows)}
    whole = {"basis": [["1", "0"], ["0", "1"]], "ambient_dim": 2}
    for r in fails:
        if r.check_id == "exact.rann":
            assert r.witness == {"image": {"basis": [], "ambient_dim": 2},
                                 "annihilator": whole}
        elif r.check_id == "exact.free_implies_transverse":
            assert r.witness == whole
        else:
            assert r.witness["ker_L"] == {"basis": [], "ambient_dim": 8}
            assert len(r.witness["im_rho"]["basis"]) == 4


def test_failures_outside_the_exact_sequence_carry_witnesses(pair_bundle):
    # cotangent fibers on the identity: (rho, sigma) leaves L, s*L != t*L at
    # every arrow and ker L = 0 misses im rho, in the strong intersection's
    # sub-reports, in induced_poisson and in is_coisotropic
    d = replace(identity_datum(pair_bundle),
                dirac=tuple(cotangent_dirac(2) for _ in pair_bundle.objects))
    n, arrows = len(pair_bundle.objects), pair_bundle.arrows
    si = strong_intersection(d, d, [(i, i) for i in range(n)],
                             [(k, k) for k in range(len(arrows))])
    reports = {"strong": si.report, "induced": induced_poisson(d), "coiso": is_coisotropic(d)}
    fails = {name: [r for r in rep.records if r.status == "fail"]
             for name, rep in reports.items()}
    assert all(r.witness is not None for rs in fails.values() for r in rs)
    zsp = {"zsp.invariance": len(arrows), "zsp.kernel.contains": n, "zsp.kernel": n}
    assert Counter(r.check_id for r in fails["induced"]) == {
        **zsp, "induced.zero_shifted_poisson": 1}
    witness = {r.check_id: r.witness for rs in fails.values() for r in rs}
    assert witness["strong.zero_shifted_poisson"] == {"failing": zsp}
    assert witness["induced.zero_shifted_poisson"] == {"failing": zsp}
    assert witness["strong.coisotropic"] == {
        "failing": {"coiso.compat": len(arrows), "coiso.nondeg": n}}
    # the column (rho e_0, sigma e_0) has a tangent part, so it leaves L
    assert {r.check_id: r.witness for r in fails["coiso"]}["coiso.nondeg"] == {
        "vector": ["1", "0", "0", "1"]}
    assert witness["zsp.kernel.contains"] == {
        "im_rho": {"basis": [["1", "0"], ["0", "1"]], "ambient_dim": 2},
        "ker_L": {"basis": [], "ambient_dim": 2}}
    # an invariance witness names its arrow and lies in one of s*L, t*L only
    zsp_rep = zero_shifted_poisson_check(pair_bundle, list(d.dirac))
    invariance = [r for r in zsp_rep.records if r.check_id == "zsp.invariance"]
    assert len(invariance) == len(arrows)
    for k, r in enumerate(invariance):
        ar, v = arrows[k], tuple(F(x) for x in r.witness["vector"])
        assert r.witness["arrow"] == k
        assert (pullback(ar.s_star, d.dirac[ar.src]).space.contains(v)
                != pullback(ar.t_star, d.dirac[ar.tgt]).space.contains(v))


def test_the_homotopy_sequence_at_a_unit_reads_as_the_strong_one(pair_bundle):
    # one exact-sequence checker: at (x, 1_x, x) the homotopy records repeat
    # the strong records at (x, x), id suffix, status, detail and ranks
    d = identity_datum(pair_bundle)
    n = len(pair_bundle.objects)
    si = strong_intersection(d, d, [(i, i) for i in range(n)], [])
    seq = strong_exact_sequence(d, d, si)
    units = [(a.src, k, a.tgt) for k, a in enumerate(pair_bundle.arrows) if a.unit]
    assert len(units) == n
    hi = homotopy_intersection(d, d, units)
    shared = ("into_rann", "left", "middle", "rann", "dimension")

    def sequence(records, prefix):
        return [(r.check_id.removeprefix(prefix), r.status, r.detail, r.ranks)
                for r in records if r.check_id.removeprefix(prefix) in shared]

    strong = sequence(seq.records, "exact.")
    assert len(strong) == len(shared) * n
    assert sequence(hi.report.records, "homotopy.exact.") == strong
