from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab import scenarios as sc
from diraclab.coisotropic import identity_datum
from diraclab.courant import (
    ThreeFormFiber,
    TwoFormFiber,
    cotangent_dirac,
    gauge,
    graph_two_form,
    std_symplectic,
    tangent_dirac,
)
from diraclab.groupoid import (
    compatibility_check,
    gauge_qs,
    identity_morphism,
    induced_dirac,
    multiplicativity_defects,
    point_bundle,
    qs_check,
    unit_groupoid,
)
from diraclab.linalg import LinMap, kernel, solve
from diraclab.morita import NatTransFiber, nat_trans_form_identity, star_composite_form_identity
from diraclab.records import replace
from diraclab.report import HYPOTHESIS_VIOLATED, PASS

F = Fraction


def failing_ids(report):
    return {r.check_id for r in report.failures()}


def test_pair_groupoid_qs_passes(pair_bundle):
    rep = qs_check(pair_bundle)
    assert rep.passed
    ids = {r.check_id for r in rep.records}
    assert {"qs.lemma.item1", "qs.lemma.item2", "qs.lemma.item3",
            "qs.lemma.item4", "qs.dim", "qs.units", "qs.nondeg.units",
            "qs.multiplicative", "qs.pair.translation"} <= ids


def test_circle_base_qs_passes(circle1):
    assert qs_check(circle1.datum.g_bundle).passed


def test_torus_base_qs_passes(torus1):
    assert qs_check(torus1.datum.g_bundle).passed


def test_trivial_point_groupoid_qs():
    assert qs_check(point_bundle()).passed


def test_corrupted_sigma_fails_item1_with_witness(pair_bundle):
    rep = qs_check(sc.corrupt_sigma(pair_bundle))
    assert not rep.passed
    assert "qs.lemma.item1" in failing_ids(rep)
    bad = [r for r in rep.failures() if r.check_id == "qs.lemma.item1"]
    assert bad[0].witness is not None


def test_corrupted_circle_sigma_fails(circle1):
    rep = qs_check(sc.corrupt_sigma(circle1.datum.g_bundle))
    assert not rep.passed


def test_induced_dirac_pair_is_base_graph(pair_bundle):
    assert induced_dirac(pair_bundle.objects[0]) == \
        graph_two_form(std_symplectic(2))


def test_induced_dirac_circle_is_cotangent(circle1):
    ob = circle1.datum.g_bundle.objects[0]
    assert induced_dirac(ob) == cotangent_dirac(1)


def test_induced_dirac_rejects_trivial_groupoid():
    # A = 0 on a positive-dimensional base cannot be quasi-symplectic
    ob = unit_groupoid(2, 2, "unit").objects[0]
    with pytest.raises(ValueError):
        induced_dirac(ob)


def test_compatibility_identity_morphism(pair_bundle):
    idd = identity_datum(pair_bundle)
    c = idd.morphism
    for k, ar in enumerate(pair_bundle.arrows):
        rep = compatibility_check(ar, idd.dirac[ar.src], idd.dirac[ar.tgt],
                                  c.pullback_two_form(k))
        assert rep.passed


def test_compatibility_trivial_forms():
    bundle = unit_groupoid(2, 2, "unit")
    l = tangent_dirac(2)
    ar = bundle.arrows[0]
    rep = compatibility_check(ar, l, l, TwoFormFiber.zero(2))
    assert rep.passed


def test_compatibility_detects_corrupted_target(pair_bundle):
    idd = identity_datum(pair_bundle)
    c = idd.morphism
    ar = pair_bundle.arrows[1]
    bad = gauge(idd.dirac[ar.tgt], std_symplectic(2))
    rep = compatibility_check(ar, idd.dirac[ar.src], bad, c.pullback_two_form(1))
    assert not rep.passed
    assert rep.failures()[0].witness is not None


def test_gauge_qs_roundtrip(pair_bundle):
    gam = [std_symplectic(2) for _ in pair_bundle.objects]
    dg = [ThreeFormFiber.zero(2) for _ in pair_bundle.objects]
    once, rep1 = gauge_qs(pair_bundle, gam, dg)
    assert rep1.passed
    back, rep2 = gauge_qs(once, [g.neg() for g in gam], dg)
    assert rep2.passed
    assert back.objects[0].sigma == pair_bundle.objects[0].sigma
    assert back.arrows[0].omega.matrix == pair_bundle.arrows[0].omega.matrix


def test_gauge_qs_keeps_multiplicativity(pair_bundle):
    # gauging by the full base form collapses omega yet stays quasi-symplectic
    gam = [std_symplectic(2) for _ in pair_bundle.objects]
    dg = [ThreeFormFiber.zero(2) for _ in pair_bundle.objects]
    gauged, rep = gauge_qs(pair_bundle, gam, dg)
    assert rep.passed
    sub = qs_check(gauged)
    assert sub.passed
    assert induced_dirac(gauged.objects[0]) == tangent_dirac(2)


def test_gauge_qs_zero_is_identity(pair_bundle):
    gam = [TwoFormFiber.zero(2) for _ in pair_bundle.objects]
    dg = [ThreeFormFiber.zero(2) for _ in pair_bundle.objects]
    out, rep = gauge_qs(pair_bundle, gam, dg)
    assert rep.passed
    assert out.arrows[0].omega.matrix == pair_bundle.arrows[0].omega.matrix


def nat_fixture():
    return sc.pair_nat_trans_fixture(2)


def test_nat_trans_form_identity_pair():
    fx = nat_fixture()
    rep = nat_trans_form_identity(fx.f, fx.g, fx.theta)
    assert rep.passed and rep.records


def test_nat_trans_form_identity_through_units():
    # theta through units makes both sides vanish
    fx = nat_fixture()
    bundle = fx.f.cod
    unit = next(k for k, a in enumerate(bundle.arrows) if a.unit)
    theta = {0: NatTransFiber(unit, bundle.arrows[unit].u_star)}
    rep = nat_trans_form_identity(fx.f, fx.f, theta)
    assert rep.passed


def test_star_composite_form_identity():
    from diraclab.linalg import vstack
    fx = nat_fixture()
    bundle = fx.f.cod
    p = LinMap.from_rows([[1, 2], [0, 1]])
    q = LinMap.from_rows([[1, 0], [3, 1]])
    theta = {0: NatTransFiber(0, vstack(p, LinMap.identity(2)))}
    eta = {0: NatTransFiber(0, vstack(q @ p, p))}
    comp = {0: NatTransFiber(0, vstack(q @ p, LinMap.identity(2)))}
    rep = star_composite_form_identity(bundle, theta, eta, comp)
    assert rep.passed and rep.records

    # composite of theta with its inverse pulls the form back to zero
    qinv = LinMap.from_rows([[1, 0], [-3, 1]])
    assert (q @ qinv) == LinMap.identity(2)
    eta_inv = {0: NatTransFiber(0, vstack(LinMap.identity(2), q))}
    comp_id = {0: NatTransFiber(0, vstack(LinMap.identity(2), LinMap.identity(2)))}
    theta_q = {0: NatTransFiber(0, vstack(q, LinMap.identity(2)))}
    rep2 = star_composite_form_identity(bundle, theta_q, eta_inv, comp_id)
    assert rep2.passed
    om = bundle.arrows[0].omega
    assert om.pullback(comp_id[0].theta_star).matrix.is_zero()


def test_unit_checks_fail_when_u_star_broken(pair_bundle):
    ar = pair_bundle.arrows
    unit_idx = next(k for k, a in enumerate(ar) if a.unit)
    bad_u = replace(ar[unit_idx], u_star=LinMap.zero(4, 2))
    arrows = tuple(bad_u if k == unit_idx else a for k, a in enumerate(ar))
    import diraclab.groupoid as gp
    bad = gp.GroupoidFiberBundle(pair_bundle.objects, arrows, (), name="bad-units")
    rep = qs_check(bad)
    assert "qs.units" in failing_ids(rep)


def test_pair_tangent_is_fiber_product(pair_bundle):
    p = pair_bundle.pairs[0]
    g, h = pair_bundle.arrows[p.g], pair_bundle.arrows[p.h]
    for b in p.tangent.basis:
        assert g.s_star.apply(b[:g.dim]) == h.t_star.apply(b[g.dim:])


def test_translation_identity_checked_at_unit_pairs(pair_bundle):
    rep = qs_check(pair_bundle)
    assert any(r.check_id == "qs.pair.translation" for r in rep.records)
    assert all(r.status == "pass" for r in rep.records
               if r.check_id == "qs.pair.translation")


def multiplicative_oracle(bundle):
    """qs.multiplicative as the pairwise loop it was before the matrix
    identity: omega_gh(m x, m y) = omega_g(x_g, y_g) + omega_h(x_h, y_h) for
    every pair of tangent basis vectors, coordinates by solve."""
    verdicts = []
    for p in bundle.pairs:
        g, h, gh = (bundle.arrows[i] for i in (p.g, p.h, p.gh))
        basis = p.tangent.basis

        def m(x):
            x = solve(p.tangent.matrix(), LinMap.from_cols([x]))
            return (p.m_star @ x).col_vectors()[0]

        verdicts.append(all(
            gh.omega(m(x), m(y))
            == g.omega(x[:g.dim], y[:g.dim]) + h.omega(x[g.dim:], y[g.dim:])
            for a, x in enumerate(basis) for y in basis[a:]))
    return verdicts


def multiplicative_verdicts(bundle):
    return [r.status == PASS for r in qs_check(bundle).records
            if r.check_id == "qs.multiplicative"]


def with_entry_shifted(rows, i, j, c):
    rows = [list(r) for r in rows]
    rows[i][j] += c
    return rows


small = st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(bool)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_multiplicative_identity_matches_the_pairwise_loop(pair_bundle, circle1, data):
    bundle = data.draw(st.sampled_from([pair_bundle, circle1.datum.g_bundle]))
    assert multiplicative_verdicts(bundle) == multiplicative_oracle(bundle)
    k = data.draw(st.integers(0, len(bundle.pairs) - 1))
    p = bundle.pairs[k]
    c = data.draw(small)
    if data.draw(st.booleans()):
        # one entry of one pair's multiplication differential
        i = data.draw(st.integers(0, p.m_star.rows - 1))
        j = data.draw(st.integers(0, p.m_star.cols - 1))
        m_star = LinMap.from_rows(with_entry_shifted(p.m_star.entries, i, j, c))
        pairs = list(bundle.pairs)
        pairs[k] = replace(p, m_star=m_star)
        bad = replace(bundle, pairs=tuple(pairs))
    else:
        # one antisymmetric entry pair of the 2-form of one arrow of the pair
        a = data.draw(st.sampled_from([p.g, p.h, p.gh]))
        ar = bundle.arrows[a]
        i = data.draw(st.integers(0, ar.dim - 2))
        j = data.draw(st.integers(i + 1, ar.dim - 1))
        rows = with_entry_shifted(ar.omega.matrix.entries, i, j, c)
        rows = with_entry_shifted(rows, j, i, -c)
        arrows = list(bundle.arrows)
        arrows[a] = replace(ar, omega=TwoFormFiber(LinMap.from_rows(rows)))
        bad = replace(bundle, arrows=tuple(arrows))
    assert multiplicative_verdicts(bad) == multiplicative_oracle(bad)


def doubled_m_star(bundle, pair_idx):
    """Negative fixture: one pair's multiplication differential doubled, so
    m*omega picks up a factor 4.  At a pair whose second arrow is not a unit
    nothing else in qs_check reads m_star."""
    p = bundle.pairs[pair_idx]
    if bundle.arrows[p.h].unit:
        raise ValueError("choose a pair whose second arrow is not a unit")
    pairs = list(bundle.pairs)
    pairs[pair_idx] = replace(p, m_star=p.m_star.scale(2))
    return replace(bundle, pairs=tuple(pairs), name="doubled-m-star")


def test_doubled_m_star_fails_only_multiplicativity(pair_bundle):
    rep = qs_check(doubled_m_star(pair_bundle, 1))
    assert [(r.check_id, r.detail) for r in rep.failures()] == \
        [("qs.multiplicative", "pair 1: m*omega = pr1*omega + pr2*omega")]
    assert multiplicative_oracle(doubled_m_star(pair_bundle, 1))[1] is False


def test_quasi_symplectic_is_decided_per_bundle(pair_bundle):
    bad = sc.corrupt_sigma(pair_bundle)
    assert pair_bundle.qs_report.passed is True
    assert bad.qs_report.passed is False
    # the report is computed once per bundle object and shared
    assert pair_bundle.qs_report is pair_bundle.qs_report
    assert pair_bundle.qs_report.records == qs_check(pair_bundle).records
    # a replaced bundle is a new object and is decided afresh
    assert replace(pair_bundle, objects=bad.objects).qs_report.passed is False
    assert replace(bad, objects=pair_bundle.objects).qs_report.passed is True
    # the verdict is no field: equality and hashing ignore it
    assert replace(pair_bundle) == pair_bundle
    assert hash(replace(pair_bundle)) == hash(pair_bundle)


def test_gauge_qs_of_a_corrupted_bundle_is_hypothesis_violated(pair_bundle):
    bad = sc.corrupt_sigma(pair_bundle)
    gam = [TwoFormFiber.zero(2) for _ in bad.objects]
    dg = [ThreeFormFiber.zero(2) for _ in bad.objects]
    out, rep = gauge_qs(bad, gam, dg)
    assert [(r.check_id, r.status) for r in rep.records] == \
        [("gauge.preserves_qs", HYPOTHESIS_VIOLATED)]
    assert out.objects == bad.objects


def test_translation_witness_names_the_first_failing_algebroid_index(pair_bundle):
    # at a pair (g, unit) with g not a unit the identity reads
    # m(v, aR) = v + aL = 0; a shifted m_star breaks it at index 0, and a
    # doubled second column of aR takes that column out of the pair tangent
    b = pair_bundle
    u = next(i for i, p in enumerate(b.pairs)
             if b.arrows[p.h].unit and not b.arrows[p.g].unit)
    p = b.pairs[u]
    shift = LinMap.from_rows([[1] * p.m_star.cols] + [[0] * p.m_star.cols] * 3)
    shifted = replace(b, pairs=tuple(replace(q, m_star=q.m_star + shift) if i == u else q
                                     for i, q in enumerate(b.pairs)))
    col1_doubled = LinMap.from_rows([[1, 0], [0, 2]])
    both = replace(shifted, arrows=tuple(
        replace(a, right=a.right @ col1_doubled) if k == p.h else a
        for k, a in enumerate(b.arrows)))

    def witnesses(bundle):
        return [r.witness for r in qs_check(bundle).failures()
                if r.check_id == "qs.pair.translation"]

    got_want = {"pair": u, "algebroid_index": 0,
                "got": ["1", "0", "0", "0"], "want": ["0", "0", "0", "0"]}
    assert witnesses(shifted) == [got_want]
    # index 0 is still the one named at u; the other pairs through the unit
    # arrow name the column that leaves their tangent
    assert witnesses(both) == [got_want] + [
        {"pair": i, "vector": ["0", "0", "0", "1", "0", "2", "0", "0"]}
        for i, q in enumerate(b.pairs) if q.h == p.h and i != u]


def test_the_shipped_morphisms_are_multiplicative(pair_bundle, circle1, torus1,
                                                  reduction1, reduction2):
    circle2 = sc.circle_scenario(2, F(1, 2))
    for m in (identity_morphism(pair_bundle), circle1.datum.morphism,
              circle2.datum.morphism, torus1.datum.morphism,
              reduction1.orbit.morphism, reduction2.orbit.morphism):
        assert list(multiplicativity_defects(m)) == []


def no_units(bundle):
    return replace(bundle, arrows=tuple(replace(a, unit=False, u_star=None)
                                        for a in bundle.arrows))


def first_pair_to(bundle, gh):
    return replace(bundle, pairs=(replace(bundle.pairs[0], gh=gh),) + bundle.pairs[1:])


@pytest.mark.parametrize("edit, first", [
    (lambda m: replace(m, cod=no_units(m.cod)),
     "unit C-arrow 0 maps to G-arrow 0, which is not a unit"),
    (lambda m: replace(m, cod=replace(m.cod, pairs=m.cod.pairs[1:])),
     "C-pair 0 maps to G-arrows (0, 0), which are no sampled pair"),
    (lambda m: replace(m, cod=first_pair_to(m.cod, 1)),
     "C-pair 0 has product G-arrow 0, the G-pair's is 1"),
    (lambda m: replace(m, dom=doubled_m_star(m.dom, 1)),
     "C-pair 1 does not intertwine c1 with the multiplication")])
def test_multiplicativity_defects_names_the_first_failure(pair_bundle, edit, first):
    m = edit(identity_morphism(pair_bundle))
    assert next(multiplicativity_defects(m)) == first
