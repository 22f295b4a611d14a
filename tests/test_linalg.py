from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab.linalg import (
    DimensionMismatch,
    LinMap,
    Subspace,
    _rref,
    annihilator,
    basis_vec,
    canonicalize,
    dot,
    image,
    intersect,
    kernel,
    preimage,
    quotient_dim,
    solve,
    span_sum,
    vec,
    zero_subspace,
)

F = Fraction


def test_canonicalize_full_plane():
    s = canonicalize([vec(1, 0), vec(0, 1)])
    assert s.basis == (vec(1, 0), vec(0, 1))


def test_canonicalize_scaling_invariance():
    s = canonicalize([vec(2, 4)])
    assert s.basis == (vec(1, 2),)


def test_canonicalize_dependent_vectors():
    # frozen from a hand Gaussian elimination: {(1,1),(2,2),(1,0)} spans Q^2
    s = canonicalize([vec(1, 1), vec(2, 2), vec(1, 0)])
    assert s.dim == 2
    assert s.basis == (vec(1, 0), vec(0, 1))


def test_canonicalize_ambient_mismatch():
    with pytest.raises(DimensionMismatch):
        canonicalize([vec(1, 0), vec(1, 0, 0)])


def test_intersect_axes_is_zero():
    x = canonicalize([vec(1, 0)])
    y = canonicalize([vec(0, 1)])
    assert intersect(x, y) == zero_subspace(2)


def test_annihilator_diagonal():
    # solving alpha^T v = 0 for v = (1,1) by hand gives span{(1,-1)}
    s = canonicalize([vec(1, 1)])
    assert annihilator(s) == canonicalize([vec(1, -1)])


def test_preimage_projection():
    # F : Q^3 -> Q^2 dropping the last coordinate; solve F x in x-axis by hand
    f = LinMap.from_rows([[1, 0, 0], [0, 1, 0]])
    s = canonicalize([vec(1, 0)])
    assert preimage(f, s) == canonicalize([vec(1, 0, 0), vec(0, 0, 1)])


def test_solve_identity():
    f = LinMap.identity(2)
    assert solve(f, vec(3, 5)) == vec(3, 5)


def test_solve_underdetermined_free_variable_zero():
    # echelon back-substitution with the free variable pinned to zero
    f = LinMap.from_rows([[1, 1]])
    assert solve(f, vec(2)) == vec(2, 0)


def test_solve_inconsistent():
    f = LinMap.from_rows([[0, 0]])
    assert solve(f, vec(1)) is None


def test_quotient_dim_requires_nesting():
    s1 = canonicalize([vec(1, 0), vec(0, 1)])
    s2 = canonicalize([vec(1, 1)])
    assert quotient_dim(s1, s2) == 1
    with pytest.raises(DimensionMismatch):
        quotient_dim(s2, s1)


def test_matmul_apply_agree():
    a = LinMap.from_rows([[1, 2], [3, 4]])
    b = LinMap.from_rows([[0, 1], [1, 0]])
    v = vec(5, 7)
    assert (a @ b).apply(v) == a.apply(b.apply(v))


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=5)


def subspaces(ambient=4, max_gens=4):
    return st.lists(
        st.tuples(*[rationals] * ambient).map(lambda t: tuple(F(x) for x in t)),
        min_size=0, max_size=max_gens,
    ).map(lambda gens: canonicalize(gens, ambient))


@settings(max_examples=60, deadline=None)
@given(subspaces(), subspaces())
def test_dimension_formula(s1, s2):
    assert span_sum(s1, s2).dim + intersect(s1, s2).dim == s1.dim + s2.dim


@settings(max_examples=60, deadline=None)
@given(subspaces())
def test_double_annihilator(s):
    assert annihilator(annihilator(s)) == s


@settings(max_examples=60, deadline=None)
@given(subspaces())
def test_canonicalize_idempotent(s):
    assert canonicalize(list(s.basis), s.ambient_dim) == s


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(3))),
       st.lists(st.tuples(*[rationals] * 3), min_size=3, max_size=3))
def test_canonicalize_permutation_invariant(perm, gens):
    gens = [tuple(F(x) for x in g) for g in gens]
    a = canonicalize(gens, 3)
    b = canonicalize([gens[i] for i in perm], 3)
    assert a == b


@settings(max_examples=60, deadline=None)
@given(subspaces(ambient=3, max_gens=3),
       st.lists(st.tuples(*[rationals] * 3), min_size=2, max_size=2))
def test_image_preimage_adjunction(s, rows):
    f = LinMap.from_rows([list(r) for r in rows], cols=3)
    assert s.issubset(preimage(f, image(f, s)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(*[rationals] * 4), min_size=2, max_size=3),
       st.tuples(*[rationals] * 4))
def test_solve_produces_solutions(rows, x):
    f = LinMap.from_rows([list(r) for r in rows], cols=4)
    b = f.apply(tuple(F(v) for v in x))
    sol = solve(f, b)
    assert sol is not None
    assert f.apply(sol) == b


def test_kernel_matches_rank():
    f = LinMap.from_rows([[1, 2, 3], [2, 4, 6]])
    k = kernel(f)
    assert k.dim == 2
    for v in k.basis:
        assert f.apply(v) == vec(0, 0)


def test_subspace_equality_is_canonical():
    a = canonicalize([vec(1, 1), vec(0, 2)])
    b = canonicalize([vec(3, 5), vec(7, 2)])
    assert a == b  # both are all of Q^2
    assert isinstance(a, Subspace)
    assert a.basis == (basis_vec(2, 0), basis_vec(2, 1))


# ---------------------------------------------------------------------------
# the integer core against a plain Fraction Gauss-Jordan oracle

def oracle_rref(rows):
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    piv_cols = []
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        piv_cols.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], piv_cols


def oracle_kernel(m, cols):
    rows, piv_cols = oracle_rref(m)
    gens = []
    for fc in (c for c in range(cols) if c not in piv_cols):
        v = [F(0)] * cols
        v[fc] = F(1)
        for r, pc in zip(rows, piv_cols):
            v[pc] = -r[fc]
        gens.append(v)
    return tuple(tuple(r) for r in oracle_rref(gens)[0])


def oracle_solve(m, b, cols):
    rows, piv_cols = oracle_rref([list(r) + [x] for r, x in zip(m, b)])
    sol = [F(0)] * cols
    for r, pc in zip(rows, piv_cols):
        if pc == cols:
            return None
        sol[pc] = r[cols]
    return tuple(sol)


def all_fractions(rows):
    return all(type(x) is F for r in rows for x in r)


# mostly zeros and small integers, as in the scenarios, plus denominators
# up to 10**6 and both signs
entries = st.one_of(
    st.just(F(0)),
    st.integers(-9, 9).map(F),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
)


@st.composite
def matrices(draw, max_rows=8, max_cols=16):
    """Random rational matrices with zero, duplicate, negated and
    combined rows mixed in, so rank deficiency is common."""
    cols = draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                         max_size=max_rows))
    for _ in range(draw(st.integers(0, 3))):
        if len(rows) >= max_rows:
            break
        kind = draw(st.sampled_from(["zero", "dup", "neg", "comb"]))
        if kind == "zero" or not rows:
            extra = [F(0)] * cols
        else:
            a = draw(st.sampled_from(rows))
            b = draw(st.sampled_from(rows))
            c = draw(entries)
            extra = {"dup": list(a),
                     "neg": [-x for x in a],
                     "comb": [x + c * y for x, y in zip(a, b)]}[kind]
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return rows, cols


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rref_matches_oracle(mc):
    m, _ = mc
    rows, piv_cols = _rref(m)
    assert (rows, piv_cols) == oracle_rref(m)
    assert all_fractions(rows)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_matches_oracle(mc):
    m, cols = mc
    k = kernel(LinMap.from_rows(m, cols=cols))
    assert k.basis == oracle_kernel(m, cols)
    assert all_fractions(k.basis)


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_solve_matches_oracle(mc, data):
    m, cols = mc
    b = tuple(data.draw(st.lists(entries, min_size=len(m), max_size=len(m))))
    sol = solve(LinMap.from_rows(m, cols=cols), b)
    assert sol == oracle_solve(m, b, cols)
    assert sol is None or all_fractions([sol])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 16).flatmap(
    lambda n: st.tuples(st.lists(entries, min_size=n, max_size=n),
                        st.lists(entries, min_size=n, max_size=n))))
def test_dot_matches_oracle(uv):
    u, v = uv
    d = dot(u, v)
    assert d == sum((a * b for a, b in zip(u, v)), F(0))
    assert type(d) is F


def test_rref_negative_pivots():
    m = [[F(-3), F(6), F(-1, 7)], [F(-2), F(-5), F(0)], [F(-5), F(1), F(-1, 7)]]
    rows, piv_cols = _rref(m)
    assert (rows, piv_cols) == oracle_rref(m)
    assert piv_cols == [0, 1]
    assert rows[0][0] == rows[1][1] == 1


def test_rref_keeps_zero_and_duplicate_rows_out():
    m = [[F(0), F(0)], [F(2, 3), F(4, 5)], [F(0), F(0)], [F(2, 3), F(4, 5)]]
    assert _rref(m) == ([[F(1), F(6, 5)]], [0])


def test_solve_inconsistent_large_denominators():
    f = LinMap.from_rows([[F(1, 999983), F(2, 999979)],
                          [F(2, 999983), F(4, 999979)]])
    assert solve(f, (F(1), F(3))) is None
    assert solve(f, (F(1), F(2))) == (F(999983), F(0))


@pytest.mark.parametrize("call", [
    lambda: dot(vec(1, 2), vec(1, 2, 3)),
    lambda: solve(LinMap.identity(2), vec(1)),
    lambda: LinMap.identity(2).apply(vec(1, 2, 3)),
    lambda: LinMap.identity(2) @ LinMap.identity(3),
    lambda: kernel(LinMap.identity(2)).contains(vec(1)),
    lambda: canonicalize([vec(1, 0), vec(1, 0, 0)]),
])
def test_shape_errors_raise_dimension_mismatch(call):
    with pytest.raises(DimensionMismatch):
        call()
