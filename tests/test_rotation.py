"""The rotation family's integer helpers and id-keyed builder: moment_of,
sum_blocks, moment_row_sum and chart_jacobian against their Fraction
formulas, on every shipped sample point and on drawn rational points, and
the object, arrow and pair order of build_rotation_hamiltonian and of the
reduction atlas against the order of a build keyed by the points
themselves."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab import scenarios as sc
from diraclab.linalg import LinMap, vec
from diraclab.rotation import (chart_jacobian, circle_point, composable, level_points,
                               moment_of, moment_row_sum, rotation_for_circle, sum_blocks)

F = Fraction


# ---------------------------------------------------------------------------
# the Fraction formulas the integer helpers replace, kept as oracles

def oracle_moment_of(p, circles):
    return tuple(sum((p[2 * b] ** 2 + p[2 * b + 1] ** 2 for b in blocks), F(0)) / 2
                 for blocks in circles)


def oracle_sum_blocks(p, blocks):
    out = [F(0)] * len(p)
    for b in blocks:
        out[2 * b] -= p[2 * b + 1]
        out[2 * b + 1] += p[2 * b]
    return tuple(out)


def oracle_moment_row_sum(p, blocks):
    out = [F(0)] * len(p)
    for b in blocks:
        out[2 * b] += p[2 * b]
        out[2 * b + 1] += p[2 * b + 1]
    return out


def oracle_chart_jacobian(p):
    x1, y1, x2, y2 = p
    r2 = x2 * x2 + y2 * y2
    q1 = x1 * x2 + y1 * y2
    q2 = y1 * x2 - x1 * y2
    row1 = [x2 / r2, y2 / r2,
            (x1 * r2 - q1 * 2 * x2) / (r2 * r2),
            (y1 * r2 - q1 * 2 * y2) / (r2 * r2)]
    row2 = [-y2 / r2, x2 / r2,
            (y1 * r2 - q2 * 2 * x2) / (r2 * r2),
            (-x1 * r2 - q2 * 2 * y2) / (r2 * r2)]
    return LinMap.from_rows([row1, row2])


def all_fractions(values):
    return all(type(x) is F for x in values)


def assert_helpers_match(p, circles):
    """Every helper at p equals its oracle, and returns Fractions; the chart
    differential is checked at points of Q^4 off z2 = 0."""
    moment = moment_of(p, circles)
    assert moment == oracle_moment_of(p, circles) and all_fractions(moment)
    for blocks in circles:
        gen = sum_blocks(p, blocks)
        assert gen == oracle_sum_blocks(p, blocks) and all_fractions(gen)
        row = moment_row_sum(p, blocks)
        assert row == oracle_moment_row_sum(p, blocks) and all_fractions(row)
    if len(p) == 4 and p[2:] != (0, 0):
        assert chart_jacobian(p) == oracle_chart_jacobian(p)


def shipped_scenarios():
    """Every rotation scenario the shipped commands build, with the
    circle n = 1 and n = 2 levels they run at."""
    out = [sc.torus_scenario([(F(3, 5), F(4, 5), 1, 0)])]
    for n in (1, 2):
        for level in (F(1, 2), F(2), F(0)):
            out.append(sc.circle_scenario(n, level))
            if (n, level) != (1, 0):
                out.append(sc.circle_reduction(n, level).scn)
    return out


def test_the_helpers_match_their_fraction_formulas_on_every_shipped_point():
    seen = 0
    for scn in shipped_scenarios():
        circles = [list(b) for b in scn.circles]
        # the sampled points, their rotates and the rotates of those
        for p in scn.obj_index:
            assert_helpers_match(p, circles)
            seen += 1
    assert seen > 100


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=30)


@st.composite
def points_and_blocks(draw):
    """A rational point of Q^2n, n in 1..3, and its blocks split into
    circle factors."""
    n = draw(st.integers(min_value=1, max_value=3))
    p = tuple(draw(st.lists(rationals, min_size=2 * n, max_size=2 * n)))
    order = draw(st.permutations(list(range(n))))
    cut = draw(st.integers(min_value=1, max_value=n))
    circles = [order[:cut], order[cut:]] if cut < n else [order]
    return p, circles


@settings(max_examples=200, deadline=None)
@given(points_and_blocks())
def test_the_helpers_match_their_fraction_formulas_on_drawn_points(pc):
    assert_helpers_match(*pc)


# ---------------------------------------------------------------------------
# the builder's order, against a build keyed by the points themselves

def point_keyed_order(points, circles, ts_tuples):
    """(objects, arrows, ends, pairs) in the order a build keyed by points
    makes them: arrows at the distinct sampled points and then at their
    rotates, each base point's objects in the order (point, its rotates),
    the (source, target) objects of each arrow, and the composable pairs
    per sampled point."""
    n2 = len(points[0])
    rot = {}
    for ts in ts_tuples:
        m = LinMap.identity(n2)
        for blocks, t in zip(circles, ts):
            m = rotation_for_circle(*circle_point(t), blocks, n2) @ m
        rot[ts] = m
    base = []
    for p in (vec(*q) for q in points):
        if p not in base:
            base.append(p)
    sampled = list(base)
    for p in sampled:
        for ts in ts_tuples:
            q = rot[ts].apply(p)
            if q not in base:
                base.append(q)
    objects, arrows, ends = [], [], []
    for p in base:
        for q in [p] + [rot[ts].apply(p) for ts in ts_tuples]:
            if q not in objects:
                objects.append(q)
        for ts in ts_tuples:
            arrows.append((p, ts))
            ends.append((objects.index(p), objects.index(rot[ts].apply(p))))
    pairs = [(arrows.index((rot[ts_tuples[t2]].apply(p), ts_tuples[t1])),
              arrows.index((p, ts_tuples[t2])), arrows.index((p, ts_tuples[t12])))
             for p in sampled for t1, t2, t12 in composable(ts_tuples)]
    return objects, arrows, ends, pairs


def assert_order(scn, points, circles, ts_tuples):
    objects, arrows, ends, pairs = point_keyed_order(points, circles, ts_tuples)
    assert list(scn.obj_index.items()) == [(p, i) for i, p in enumerate(objects)]
    assert list(scn.arrow_at.items()) == [(a, i) for i, a in enumerate(arrows)]
    bundle = scn.datum.c_bundle
    assert [(ar.src, ar.tgt) for ar in bundle.arrows] == ends
    assert [(pr.g, pr.h, pr.gh) for pr in bundle.pairs] == pairs


CIRCLE_TS = [(F(0),), (F(1, 2),), (F(-1, 2),), (F(1),)]
REDUCTION_TS = [(F(0),), (F(1, 2),), (F(-1, 2),)]


@pytest.mark.parametrize("n", [1, 2])
def test_circle_objects_arrows_and_pairs_keep_their_order(n):
    level = F(1, 2)
    scn = sc.circle_scenario(n, level)
    assert_order(scn, level_points(n, level), [list(range(n))], CIRCLE_TS)


@pytest.mark.parametrize("n, level", [(1, F(1, 2)), (2, F(1, 2)), (2, F(2)), (2, F(0))])
def test_the_reduction_atlas_keeps_its_order(n, level):
    red = sc.circle_reduction(n, level)
    circles = [list(range(n))]
    points = level_points(n, level, count=4 if n > 1 else None)
    assert_order(red.scn, points, circles, REDUCTION_TS)
    level_idx = tuple(oi for p, oi in red.scn.obj_index.items()
                      if oracle_moment_of(p, circles) == (level,))
    assert red.obj_pairs == tuple((0, oi) for oi in level_idx)
    assert red.arrow_pairs == tuple(
        (REDUCTION_TS.index(ts), ai) for (p, ts), ai in red.scn.arrow_at.items()
        if red.scn.obj_index[p] in level_idx)
    assert red.obj_pairs and red.arrow_pairs
