"""Scenario builders: the cotangent-torus builder against the closed forms of
T*S^1 and T*T^2, the composable-pair enumerator, the rotation generator, the
rotation builder's one application of each rotation to each point, the
terminal morphism to the point, and the exact rational square root."""

from collections import Counter
from fractions import Fraction

import pytest

from diraclab import scenarios as sc
from diraclab.groupoid import MorphismFiber, morphism_to_point, point_bundle
from diraclab.linalg import LinMap
from diraclab.rotation import (build_cotangent_torus, circle_point, composable, rational_sqrt,
                               rotation_for_circle, sum_blocks)

F = Fraction

# T*T^k in the basis (dtheta, dxi), written out for k = 1 and k = 2; m_of is
# the multiplication (angles_g + angles_h, xi_g) on (v_g, v_h) coordinates
CLOSED_FORMS = {
    1: {"sigma": [[-1]],
        "omega": [[0, -1], [1, 0]],
        "proj": [[0, 1]],
        "trans": [[1], [0]],
        "u_star": [[0], [1]],
        "m_of": [[1, 0, 1, 0], [0, 1, 0, 0]]},
    2: {"sigma": [[-1, 0], [0, -1]],
        "omega": [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]],
        "proj": [[0, 0, 1, 0], [0, 0, 0, 1]],
        "trans": [[1, 0], [0, 1], [0, 0], [0, 0]],
        "u_star": [[0, 0], [0, 0], [1, 0], [0, 1]],
        "m_of": [[1, 0, 0, 0, 1, 0, 0, 0], [0, 1, 0, 0, 0, 1, 0, 0],
                 [0, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0]]},
}

TS = (0, F(1, 2), F(-1, 2), 1)

# the composable pairs of TS: (1/2, 1/2) composes to 4/3 and (1, -1/2) to
# 1/3, neither sampled, and (1, 1) hits the angle-pi chart boundary
TS_PAIRS = [(0, 0, 0), (0, F(1, 2), F(1, 2)), (0, F(-1, 2), F(-1, 2)), (0, 1, 1),
            (F(1, 2), 0, F(1, 2)), (F(1, 2), F(-1, 2), 0),
            (F(-1, 2), 0, F(-1, 2)), (F(-1, 2), F(1, 2), 0), (1, 0, 1)]


def test_composable_keeps_sampled_composites_in_order():
    got = list(composable([(F(t),) for t in TS]))
    assert got == [tuple((F(t),) for t in triple) for triple in TS_PAIRS]


def test_composable_skips_the_chart_boundary_in_any_factor():
    a, b, c, d = [(F(0), F(0)), (F(1), F(0)), (F(1), F(-1)), (F(0), F(-1))]
    # b.b, b.c, c.b, c.c, c.d, d.c and d.d hit t1 * t2 = 1 in some factor
    assert list(composable([a, b, c, d])) == [
        (a, a, a), (a, b, b), (a, c, c), (a, d, d),
        (b, a, b), (b, d, c),
        (c, a, c),
        (d, a, d), (d, b, c)]


@pytest.mark.parametrize("k", [1, 2])
def test_cotangent_torus_is_the_closed_form(k):
    cf = {key: LinMap.from_rows(rows) for key, rows in CLOSED_FORMS[k].items()}
    levels = [(F(1, 2),) * k, (F(2),) * k]
    ts_list = [(F(t),) * k for t in TS]
    bundle, arrow_index = build_cotangent_torus(levels, ts_list, name="t")
    assert arrow_index == {(li, ts): li * len(ts_list) + ti
                           for li in range(len(levels)) for ti, ts in enumerate(ts_list)}
    for ob in bundle.objects:
        assert (ob.dim, ob.adim) == (k, k)
        assert ob.rho == LinMap.zero(k, k)
        assert ob.sigma == cf["sigma"]
        assert ob.phi.is_zero()
    assert len(bundle.arrows) == len(levels) * len(ts_list)
    for a, ar in enumerate(bundle.arrows):
        li, ti = divmod(a, len(ts_list))
        assert (ar.src, ar.tgt, ar.dim) == (li, li, 2 * k)
        assert ar.s_star == ar.t_star == cf["proj"]
        assert ar.omega.matrix == cf["omega"]
        assert ar.left == ar.right == cf["trans"]
        assert ar.unit == (ti == 0)
        assert ar.u_star == (cf["u_star"] if ti == 0 else None)
    index = {ts: i for i, ts in enumerate(ts_list)}
    assert [(p.g, p.h, p.gh) for p in bundle.pairs] == [
        (li * len(ts_list) + index[(F(g),) * k], li * len(ts_list) + index[(F(h),) * k],
         li * len(ts_list) + index[(F(gh),) * k])
        for li in range(len(levels)) for g, h, gh in TS_PAIRS]
    for p in bundle.pairs:
        assert p.m_star == cf["m_of"] @ p.tangent.matrix()
    assert bundle.qs_report.passed


def test_sum_blocks_is_the_rotation_generator_on_its_blocks():
    p = tuple(F(x) for x in (1, 2, 3, 4, 5, 6))
    assert sum_blocks(p, [0, 2]) == (-2, 1, 0, 0, -6, 5)
    assert sum_blocks(p, range(3)) == (-2, 1, -4, 3, -6, 5)
    # the derivative at t = 0 of the rotation by circle_point(t) on block 1
    t = F(1, 10 ** 6)
    rot = rotation_for_circle(*circle_point(t), [1], 6)
    quotient = tuple((x - y) / (2 * t) for x, y in zip(rot.apply(p), p))
    assert all(abs(q - g) < F(1, 10 ** 5)
               for q, g in zip(quotient, sum_blocks(p, [1])))


@pytest.mark.parametrize("build", [sc.circle_scenario, sc.circle_reduction])
def test_each_rotation_is_applied_to_each_point_once(monkeypatch, build):
    applied, apply = Counter(), LinMap.apply

    def counted(self, v):
        applied[(self, tuple(v))] += 1
        return apply(self, v)
    monkeypatch.setattr(LinMap, "apply", counted)
    build(2, F(1, 2))
    assert applied
    assert [key for key, count in applied.items() if count > 1] == []


def test_morphism_to_point_sends_everything_to_the_unit(circle1):
    bundle = circle1.datum.c_bundle
    pt = point_bundle()
    m = morphism_to_point(bundle, pt)
    assert isinstance(m, MorphismFiber) and m.cod is pt
    assert set(m.obj_map) == set(m.arrow_map) == {0}
    assert [c.rows for c in m.c0 + m.cA + m.c1] == [0] * (
        2 * len(bundle.objects) + len(bundle.arrows))
    assert [c.cols for c in m.c0] == [o.dim for o in bundle.objects]
    assert [c.cols for c in m.c1] == [a.dim for a in bundle.arrows]


@pytest.mark.parametrize("e", [0, 1, 15, 16, 26, 40, 59, 60, 100, 120])
def test_rational_sqrt_is_exact_beyond_float_range(e):
    r = 10 ** e + 7
    assert rational_sqrt(r * r) == r
    assert rational_sqrt(r * r + 1) is None
    assert rational_sqrt(r * r - 1) is None
    assert rational_sqrt(-r * r) is None
    # r is odd, so r and r + 2 are coprime
    q = F(r, r + 2)
    assert rational_sqrt(q * q) == q
    assert rational_sqrt(2 * q * q) is None
    assert rational_sqrt(q * q / 2) is None
