import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab.dorfman import (
    FrameNotLagrangian,
    Poly,
    PolyDiracFrame,
    PolyForm,
    PolySection,
    contract,
    d,
    dorfman_bracket,
    involutivity_check,
    lie_bracket,
    pairing,
    zero_poly,
)
from diraclab.linalg import vec

F = Fraction


def section(v, alpha):
    return PolySection(tuple(v), tuple(alpha))


def P(arity, **mono):
    """P(2, xy=3) -> 3*x0*x1 etc., exponents encoded per variable index."""
    data = {}
    for key, c in mono.items():
        exps = [0] * arity
        if key != "c":
            for ch in key.split("_"):
                exps[int(ch)] += 1
        data[tuple(exps)] = F(c)
    return Poly.from_dict(arity, data)


def const_field(arity, *vals):
    return [Poly.const(arity, v) for v in vals]


def test_poly_arithmetic_and_eval():
    x = Poly.var(2, 0)
    y = Poly.var(2, 1)
    p = x * x + y.scale(3)
    assert p.eval(vec(2, 5)) == 19
    assert p.diff(0).eval(vec(2, 5)) == 4
    assert p.diff(1).eval(vec(2, 5)) == 3
    assert (p - p).is_zero()


def test_lie_bracket_coordinate_fields():
    n = 2
    dx = const_field(n, 1, 0)
    dy = const_field(n, 0, 1)
    assert all(p.is_zero() for p in lie_bracket(dx, dy))


def test_lie_bracket_linear_field():
    # [x dy, dx] = -dy by the coordinate formula
    n = 2
    xdy = [zero_poly(n), Poly.var(n, 0)]
    dx = const_field(n, 1, 0)
    br = lie_bracket(xdy, dx)
    assert br[0].is_zero()
    assert br[1] == Poly.const(n, -1)


def test_exterior_derivative_of_x_dy():
    n = 2
    form = PolyForm.from_dict(n, 1, {(1,): Poly.var(n, 0)})
    dd = d(form)
    assert dd.comps == ((((0, 1)), Poly.const(n, 1)),)
    assert d(dd).comps == ()


def test_contract_two_form():
    # i_{dx}(dx ^ dy) = dy
    n = 2
    w = PolyForm.from_dict(n, 2, {(0, 1): Poly.const(n, 1)})
    got = contract(const_field(n, 1, 0), w)
    assert got.comp((1,)) == Poly.const(n, 1)
    assert got.comp((0,)).is_zero()


def test_dorfman_constant_sections_untwisted():
    n = 2
    s1 = section(const_field(n, 1, 0), const_field(n, 0, 0))
    s2 = section(const_field(n, 0, 1), const_field(n, 2, 3))
    br = dorfman_bracket(s1, s2, PolyForm.zero(n, 3))
    assert all(p.is_zero() for p in br.v)
    assert all(p.is_zero() for p in br.alpha)


def test_dorfman_expansion_term_by_term():
    # s1 = (dx, 0), s2 = (0, x dy), phi = 0:
    # i_{dx} d(x dy) + d i_{dx}(x dy) = i_{dx}(dx^dy) + d(0) = dy
    n = 2
    s1 = section(const_field(n, 1, 0), const_field(n, 0, 0))
    s2 = section(const_field(n, 0, 0), [zero_poly(n), Poly.var(n, 0)])
    br = dorfman_bracket(s1, s2, PolyForm.zero(n, 3))
    assert all(p.is_zero() for p in br.v)
    assert br.alpha[0].is_zero()
    assert br.alpha[1] == Poly.const(n, 1)


def so3_frame():
    """Lie-Poisson frame on so(3)*: pi_ij = eps_ijk x_k, sections (pi(dx_i,.), dx_i)."""
    n = 3
    x, y, z = (Poly.var(n, i) for i in range(n))
    zero = zero_poly(n)
    # pi(dx_i, .) rows: contraction in the first slot
    s1 = section([zero, z, y.scale(-1)], const_field(n, 1, 0, 0))
    s2 = section([z.scale(-1), zero, x], const_field(n, 0, 1, 0))
    s3 = section([y, x.scale(-1), zero], const_field(n, 0, 0, 1))
    return PolyDiracFrame((s1, s2, s3), PolyForm.zero(n, 3))


def so3_points():
    rng = random.Random(11)
    pts = []
    while len(pts) < 12:
        p = vec(*[F(rng.randint(-2**16, 2**16), rng.randint(1, 7)) for _ in range(3)])
        if any(x != 0 for x in p):
            pts.append(p)
    return pts


def test_so3_bracket_matches_poisson_oracle():
    # frozen oracle: the bracket of the i,j sections of a Poisson-bivector
    # graph is the section of d{x_i, x_j}; here {x_1, x_2} = x_3 and cyclic
    frame = so3_frame()
    br = dorfman_bracket(frame.sections[0], frame.sections[1], frame.phi)
    expect = frame.sections[2]
    assert br == expect
    br = dorfman_bracket(frame.sections[1], frame.sections[2], frame.phi)
    assert br == frame.sections[0]
    br = dorfman_bracket(frame.sections[2], frame.sections[0], frame.phi)
    assert br == frame.sections[1]


def test_so3_involutivity_passes():
    report = involutivity_check(so3_frame(), so3_points())
    assert report.passed


def graph_frame_with_twist():
    """Frame of graph(omega) on Q^3 with omega = x1^2 dx2^dx3 + x1 dx1^dx2."""
    n = 3
    x1 = Poly.var(n, 0)
    zero = zero_poly(n)
    omega = PolyForm.from_dict(n, 2, {(1, 2): x1 * x1, (0, 1): x1})
    phi = d(omega).scale(-1)
    sections = []
    for i in range(n):
        e = [Poly.const(n, 1 if j == i else 0) for j in range(n)]
        alpha_form = contract(e, omega)
        sections.append(PolySection(tuple(e),
                                    tuple(alpha_form.comp((j,)) for j in range(n))))
    return PolyDiracFrame(tuple(sections), phi)


def test_graph_with_compatible_twist_passes():
    pts = so3_points()
    report = involutivity_check(graph_frame_with_twist(), pts)
    assert report.passed


def test_degenerate_bivector_graph_absorbs_low_rank_twists():
    # a rank-2 bivector graph stays involutive under this twist: the double
    # contraction of the 3-form lands in the cotangent direction the frame
    # already contains
    n = 3
    x1 = Poly.var(n, 0)
    zero = zero_poly(n)
    sq = x1 * x1
    s1 = section([zero, sq, zero], const_field(n, 1, 0, 0))
    s2 = section([sq.scale(-1), zero, zero], const_field(n, 0, 1, 0))
    s3 = section([zero, zero, zero], const_field(n, 0, 0, 1))
    phi = PolyForm.from_dict(n, 3, {(0, 1, 2): x1})
    frame = PolyDiracFrame((s1, s2, s3), phi)
    assert involutivity_check(frame, so3_points()).passed


def mismatched_twist_frame():
    """Frame of graph(omega) whose declared twist is 0 instead of -d(omega)."""
    good = graph_frame_with_twist()
    return PolyDiracFrame(good.sections, PolyForm.zero(3, 3))


def test_mismatched_twist_fails_with_witness():
    report = involutivity_check(mismatched_twist_frame(), so3_points())
    assert not report.passed
    bad = report.failures()
    assert bad and bad[0].witness is not None
    assert "point" in bad[0].witness


def test_involutivity_requires_enough_points():
    with pytest.raises(ValueError):
        involutivity_check(so3_frame(), so3_points()[:5])


def test_non_lagrangian_frame_is_distinct_failure():
    n = 2
    s1 = section(const_field(n, 1, 0), const_field(n, 1, 0))  # <s1,s1> = 2 != 0
    s2 = section(const_field(n, 0, 1), const_field(n, 0, 0))
    frame = PolyDiracFrame((s1, s2), PolyForm.zero(n, 3))
    with pytest.raises(FrameNotLagrangian, match="not isotropic"):
        involutivity_check(frame, [vec(i, 1) for i in range(10)])


def test_rank_deficient_frame_is_not_lagrangian():
    # s2 = x0 s1 spans a line wherever the sections are evaluated
    n = 2
    s1 = section(const_field(n, 1, 0), const_field(n, 0, 0))
    s2 = section([Poly.var(n, 0), zero_poly(n)], [zero_poly(n)] * n)
    frame = PolyDiracFrame((s1, s2), PolyForm.zero(n, 3))
    with pytest.raises(FrameNotLagrangian, match="^frame span has dim 1 at "):
        involutivity_check(frame, [vec(i, 1) for i in range(10)])


rat = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def random_section(n, rng):
    def rp():
        data = {}
        for _ in range(rng.randint(0, 3)):
            exps = [0] * n
            for _ in range(rng.randint(0, 2)):  # degree <= 2
                exps[rng.randrange(n)] += 1
            data[tuple(exps)] = F(rng.randint(-3, 3))
        return Poly.from_dict(n, data)

    return PolySection(tuple(rp() for _ in range(n)), tuple(rp() for _ in range(n)))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_dorfman_pairing_leibniz_identity(seed):
    # <[[s1,s2]], s3> + <s2, [[s1,s3]]> = L_{v1}<s2,s3> as exact polynomials,
    # for any background 3-form
    n = 3
    rng = random.Random(seed)
    s1, s2, s3 = (random_section(n, rng) for _ in range(3))
    phi = PolyForm.from_dict(n, 3, {(0, 1, 2): random_section(n, rng).v[0]})
    lhs = pairing(dorfman_bracket(s1, s2, phi), s3) + \
        pairing(s2, dorfman_bracket(s1, s3, phi))
    h = pairing(s2, s3)
    rhs = zero_poly(n)
    for j in range(n):
        rhs = rhs + s1.v[j] * h.diff(j)
    assert lhs == rhs


def test_involutivity_decides_each_span_without_building_a_fiber(monkeypatch):
    # one elimination per sample point, the frame span's own, and no
    # DiracFiber: the isotropy test is courant.check_lagrangian alone
    from diraclab import courant, linalg
    calls = []
    real = linalg._rref_int
    monkeypatch.setattr(linalg, "_rref_int", lambda mat: calls.append(1) or real(mat))
    monkeypatch.setattr(courant, "DiracFiber",
                        lambda *a: pytest.fail("built a DiracFiber"))
    points = so3_points()
    assert involutivity_check(so3_frame(), points).passed
    assert len(calls) == len(points)