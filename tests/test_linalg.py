import random
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab import linalg
from diraclab.linalg import (
    DimensionMismatch,
    LinMap,
    Subspace,
    _composite,
    basis_vec,
    block_diag,
    canonicalize,
    congruence,
    fiber_product,
    full_subspace,
    hstack,
    image,
    image_lifts,
    kernel,
    preimage,
    random_matrix,
    solve,
    vec,
    vstack,
)

F = Fraction


def col(*entries):
    """The one-column map with the given entries."""
    return LinMap.from_cols([vec(*entries)], rows_dim=len(entries))


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
    assert x.intersect(y) == Subspace(2, ())


def test_annihilator_diagonal():
    # solving alpha^T v = 0 for v = (1,1) by hand gives span{(1,-1)}
    s = canonicalize([vec(1, 1)])
    assert s.annihilator() == canonicalize([vec(1, -1)])


def test_preimage_projection():
    # F : Q^3 -> Q^2 dropping the last coordinate; solve F x in x-axis by hand
    f = LinMap.from_rows([[1, 0, 0], [0, 1, 0]])
    s = canonicalize([vec(1, 0)])
    assert preimage(f, s) == canonicalize([vec(1, 0, 0), vec(0, 0, 1)])


def test_solve_identity():
    f = LinMap.identity(2)
    assert solve(f, col(3, 5)) == col(3, 5)


def test_solve_underdetermined_free_variable_zero():
    # echelon back-substitution with the free variable pinned to zero
    f = LinMap.from_rows([[1, 1]])
    assert solve(f, col(2)) == col(2, 0)


def test_solve_inconsistent():
    f = LinMap.from_rows([[0, 0]])
    assert solve(f, col(1)) is None


def test_quotient_dim_requires_nesting():
    s1 = canonicalize([vec(1, 0), vec(0, 1)])
    s2 = canonicalize([vec(1, 1)])
    # dim s1/s2 is defined only when s2 is a subspace of s1
    assert s2.issubset(s1) and s1.dim - s2.dim == 1
    assert not s1.issubset(s2)


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
    assert s1.sum(s2).dim + s1.intersect(s2).dim == s1.dim + s2.dim


@settings(max_examples=60, deadline=None)
@given(subspaces())
def test_double_annihilator(s):
    assert s.annihilator().annihilator() == s


@settings(max_examples=60, deadline=None)
@given(subspaces())
def test_matrix_is_a_view_kept_on_the_subspace(s):
    m = s.matrix
    assert s.matrix is m
    assert m == LinMap.from_cols(s.basis, rows_dim=s.ambient_dim)


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
    b = f @ col(*x)
    sol = solve(f, b)
    assert sol is not None
    assert f @ sol == b


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


def rref(m, cols):
    """canonicalize's reduced echelon basis as lists of Fractions, with its
    pivot columns, in the oracle's form."""
    s = canonicalize(m, cols)
    return [list(r) for r in s.basis], list(s.pivots)


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
    m, cols = mc
    rows, piv_cols = rref(m, cols)
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
@given(matrices())
def test_image_lifts_match_the_oracles(mc):
    m, cols = mc
    f = LinMap.from_rows(m, cols=cols)
    got = image_lifts(f)
    assert [list(v) for v in got.image.basis] == oracle_rref([list(c) for c in zip(*m)])[0]
    assert got.kernel.basis == oracle_kernel(m, cols)
    assert got.image == image(f) and got.kernel == kernel(f)
    assert f @ got.lifts == got.image.matrix
    assert_normalised(got.lifts)


def test_a_full_subspace_needs_no_elimination(monkeypatch):
    from diraclab import linalg
    full, s = full_subspace(3), canonicalize([vec(1, 2, 0)], 3)
    f = LinMap.from_rows([[1, 2], [0, 1], [3, 0]])
    monkeypatch.setattr(linalg, "_rref_int", lambda mat: pytest.fail("eliminated"))
    assert full_subspace(3) is full
    assert preimage(f, full) is full_subspace(2)
    assert full.intersect(full) is full
    assert full.coords(f) == f and full.coords(s.matrix) == s.matrix
    assert full.annihilator() == Subspace(3, ())
    assert kernel(LinMap(0, 3, ())) is full


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_solve_matches_oracle(mc, data):
    m, cols = mc
    b = tuple(data.draw(st.lists(entries, min_size=len(m), max_size=len(m))))
    sol = solve(LinMap.from_rows(m, cols=cols), col(*b))
    want = oracle_solve(m, b, cols)
    assert (sol is None) == (want is None)
    assert sol is None or sol.col_vectors() == [want]
    assert sol is None or all_fractions(sol.entries)


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_coords_match_solve_in_the_span(mc, data):
    # v = B c for the basis matrix B: coords reads c back, as solve finds it
    m, cols = mc
    space = canonicalize(m, cols)
    c = tuple(data.draw(st.lists(entries, min_size=space.dim, max_size=space.dim)))
    v = space.matrix @ col(*c)
    assert space.coords(v) == solve(space.matrix, v) == col(*c)
    assert all_fractions(space.coords(v).entries)


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_coords_are_none_off_the_span(mc, data):
    m, cols = mc
    space = canonicalize(m, cols)
    v = col(*data.draw(st.lists(entries, min_size=cols, max_size=cols)))
    assert space.coords(v) == solve(space.matrix, v)
    # a unit vector at a non-pivot column is never in the span
    _, piv_cols = oracle_rref(m)
    for j in range(cols):
        if j not in piv_cols:
            assert space.coords(col(*basis_vec(cols, j))) is None


def test_coords_reject_a_wrong_length():
    with pytest.raises(DimensionMismatch):
        canonicalize([vec(1, 2)]).coords(col(1, 2, 3))


@st.composite
def columns_for(draw, m, rows):
    """0 to 4 columns of length `rows`, each either m applied to a random
    vector (so it lies in the image of m) or random entries."""
    out = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            x = draw(st.lists(entries, min_size=m.cols, max_size=m.cols))
            out.append(m.apply(tuple(x)))
        else:
            out.append(tuple(draw(st.lists(entries, min_size=rows, max_size=rows))))
    return out


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_solve_of_a_map_is_the_oracle_column_by_column(mc, data):
    m, cols = mc
    f = LinMap.from_rows(m, cols=cols)
    bs = data.draw(columns_for(f, len(m)))
    sol = solve(f, LinMap.from_cols(bs, rows_dim=len(m)))
    wants = [oracle_solve(m, b, cols) for b in bs]
    # None exactly when some column is inconsistent
    assert (sol is None) == (None in wants)
    assert sol is None or sol == LinMap.from_cols(wants, rows_dim=cols)


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_coords_of_a_map_are_the_coords_of_each_column(mc, data):
    m, cols = mc
    space = canonicalize(m, cols)
    basis_rows = [list(r) for r in space.matrix.entries]
    vs = data.draw(columns_for(space.matrix, cols))
    x = space.coords(LinMap.from_cols(vs, rows_dim=cols))
    wants = [oracle_solve(basis_rows, v, space.dim) for v in vs]
    # None exactly when some column leaves the span
    assert (x is None) == (None in wants)
    assert x is None or x == LinMap.from_cols(wants, rows_dim=space.dim)


@pytest.mark.parametrize("call", [
    lambda: solve(LinMap.identity(2), LinMap.identity(3)),
    lambda: solve(LinMap.zero(3, 2), LinMap.zero(2, 0)),
    lambda: canonicalize([vec(1, 2)]).coords(LinMap.identity(3)),
    lambda: canonicalize([vec(1, 2)]).coords(LinMap.zero(1, 0)),
])
def test_map_forms_reject_a_row_count_mismatch(call):
    with pytest.raises(DimensionMismatch):
        call()


def test_rref_negative_pivots():
    m = [[F(-3), F(6), F(-1, 7)], [F(-2), F(-5), F(0)], [F(-5), F(1), F(-1, 7)]]
    rows, piv_cols = rref(m, 3)
    assert (rows, piv_cols) == oracle_rref(m)
    assert piv_cols == [0, 1]
    assert rows[0][0] == rows[1][1] == 1


def test_rref_keeps_zero_and_duplicate_rows_out():
    m = [[F(0), F(0)], [F(2, 3), F(4, 5)], [F(0), F(0)], [F(2, 3), F(4, 5)]]
    assert rref(m, 2) == ([[F(1), F(6, 5)]], [0])


def test_solve_inconsistent_large_denominators():
    f = LinMap.from_rows([[F(1, 999983), F(2, 999979)],
                          [F(2, 999983), F(4, 999979)]])
    assert solve(f, col(1, 3)) is None
    assert solve(f, col(1, 2)) == col(999983, 0)


@pytest.mark.parametrize("call", [
    lambda: hstack(LinMap.identity(2), LinMap.identity(3)),
    lambda: solve(LinMap.identity(2), col(1)),
    lambda: LinMap.identity(2).apply(vec(1, 2, 3)),
    lambda: LinMap.identity(2) @ LinMap.identity(3),
    lambda: kernel(LinMap.identity(2)).contains(vec(1)),
    lambda: canonicalize([vec(1, 0), vec(1, 0, 0)]),
])
def test_shape_errors_raise_dimension_mismatch(call):
    with pytest.raises(DimensionMismatch):
        call()


# ---------------------------------------------------------------------------
# the relation primitives against their definitions

def plain_apply(rows, x):
    return tuple(sum((a * b for a, b in zip(r, x)), F(0)) for r in rows)


@st.composite
def relation_pairs(draw):
    """Maps m1 : Q^a -> Q^r and m2 : Q^b -> Q^r; any of r, a, b may be 0."""
    r, a, b = (draw(st.integers(0, 4)) for _ in range(3))
    m1 = draw(st.lists(st.lists(entries, min_size=a, max_size=a),
                       min_size=r, max_size=r))
    m2 = draw(st.lists(st.lists(entries, min_size=b, max_size=b),
                       min_size=r, max_size=r))
    return LinMap.from_rows(m1, cols=a), LinMap.from_rows(m2, cols=b)


@settings(max_examples=200, deadline=None)
@given(relation_pairs())
def test_fiber_product_matches_definition(pair):
    m1, m2 = pair
    a, b = m1.cols, m2.cols
    fp = fiber_product(m1, m2)
    assert fp.ambient_dim == a + b
    # every basis vector (x, y) satisfies m1 x = m2 y ...
    for v in fp.basis:
        assert plain_apply(m1.entries, v[:a]) == plain_apply(m2.entries, v[a:])
    # ... the basis is the canonical one of its span ...
    assert [list(v) for v in fp.basis] == oracle_rref(fp.basis)[0]
    # ... and it spans the whole solution space of m1 x - m2 y = 0
    constraints = [list(r1) + [-x for x in r2]
                   for r1, r2 in zip(m1.entries, m2.entries)]
    assert fp.dim == a + b - len(oracle_rref(constraints)[0])


def test_fiber_product_with_zero_rows_or_columns():
    # no equations: everything is related
    assert fiber_product(LinMap.zero(0, 2), LinMap.zero(0, 3)) == full_subspace(5)
    # an empty left factor: the fiber product is ker m2
    m2 = LinMap.from_rows([[1, 1], [2, 2]])
    assert fiber_product(LinMap.zero(2, 0), m2) == kernel(m2)
    assert fiber_product(LinMap.zero(2, 0), LinMap.identity(2)).dim == 0
    assert fiber_product(LinMap.zero(2, 0), LinMap.zero(2, 0)) == Subspace(0, ())
    # graph of a map: {(x, y) : x = f y}
    f = LinMap.from_rows([[1, 2]])
    assert fiber_product(LinMap.identity(1), f) == canonicalize(
        [vec(1, 1, 0), vec(2, 0, 1)], 3)


def test_block_diag():
    a = LinMap.from_rows([[1, 2]])
    d = LinMap.from_rows([[3], [F(1, 2)]])
    m = block_diag(a, d)
    assert (m.rows, m.cols) == (3, 3)
    assert m.apply(vec(1, 1, 2)) == vec(3, 6, 1)
    assert block_diag(LinMap.zero(0, 2), d).apply(vec(0, 0, 1)) == vec(3, F(1, 2))


# ---------------------------------------------------------------------------
# the integer representation against Fraction-entry oracles: a LinMap is
# integer numerators over one denominator, a Subspace the primitive integer
# rows of its reduced echelon basis

def oracle_mul(a, b, inner, cols):
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), F(0)) for j in range(cols)]
            for i in range(len(a))]


def oracle_transpose(a, cols):
    return [[r[j] for r in a] for j in range(cols)]


def oracle_block_diag(a, a_cols, d, d_cols):
    return ([list(r) + [F(0)] * d_cols for r in a]
            + [[F(0)] * a_cols + list(r) for r in d])


def as_rows(m):
    return [list(r) for r in m.entries]


def assert_normalised(m):
    assert m.den > 0
    assert gcd(m.den, *[x for r in m.nums for x in r]) == 1
    assert len(m.nums) == m.rows and all(len(r) == m.cols for r in m.nums)
    assert all_fractions(m.entries)


def assert_canonical(s):
    assert len(s.rows) == len(s.pivots)
    assert list(s.pivots) == sorted(set(s.pivots))
    for r, p in zip(s.rows, s.pivots):
        assert gcd(*r) == 1
        assert r[p] > 0 and not any(r[:p])
        assert all(other[p] == 0 for other in s.rows if other is not r)


def dense(draw, rows, cols):
    return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_linmap_operations_match_the_fraction_oracle(data):
    r, k, c, e = (data.draw(st.integers(0, 5)) for _ in range(4))
    a, a2 = dense(data.draw, r, k), dense(data.draw, r, k)
    b, h, v = dense(data.draw, k, c), dense(data.draw, r, c), dense(data.draw, e, k)
    x = data.draw(st.lists(entries, min_size=k, max_size=k))
    s = data.draw(entries)
    A, A2 = (LinMap.from_rows(m, cols=k) for m in (a, a2))
    B = LinMap.from_rows(b, cols=c)
    H, V = LinMap.from_rows(h, cols=c), LinMap.from_rows(v, cols=k)
    results = {
        "matmul": (A @ B, oracle_mul(a, b, k, c)),
        "add": (A + A2, [[p + q for p, q in zip(u, w)] for u, w in zip(a, a2)]),
        "sub": (A - A2, [[p - q for p, q in zip(u, w)] for u, w in zip(a, a2)]),
        "scale": (A.scale(s), [[s * p for p in u] for u in a]),
        "transpose": (A.transpose(), oracle_transpose(a, k)),
        "hstack": (hstack(A, H), [list(u) + list(w) for u, w in zip(a, h)]),
        "vstack": (vstack(A, V), a + v),
        "block_diag": (block_diag(A, B), oracle_block_diag(a, k, b, c)),
        "from_cols": (LinMap.from_cols(oracle_transpose(a, k), rows_dim=r), a),
    }
    for name, (m, oracle) in results.items():
        assert as_rows(m) == oracle, name
        assert_normalised(m)
        # the stored form is unique: building from the oracle gives an equal value
        again = LinMap.from_rows(oracle, cols=m.cols)
        assert (m, hash(m)) == (again, hash(again)), name
    assert A.apply(x) == plain_apply(a, x)
    assert all_fractions([A.apply(x)])
    assert A.row_block(0, r // 2) == LinMap.from_rows(a[:r // 2], cols=k)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_subspace_rows_are_primitive_with_the_oracle_basis(mc):
    m, cols = mc
    space = canonicalize(m, cols)
    assert_canonical(space)
    basis = oracle_rref(m)[0]
    assert [list(v) for v in space.basis] == basis
    assert all_fractions(space.basis)
    mat = space.matrix
    assert as_rows(mat) == oracle_transpose(basis, cols) if basis else mat.cols == 0
    assert_normalised(mat)
    for s in (kernel(LinMap.from_rows(m, cols=cols)), space.annihilator(),
              image(LinMap.from_rows(m, cols=cols).transpose())):
        assert_canonical(s)


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_equal_spans_from_other_generators_are_equal_values(mc, data):
    # an invertible recombination of the generators (a permutation, nonzero
    # scalings and adding multiples of one generator to the others) spans
    # the same subspace, so the values and their hashes must agree
    m, cols = mc
    gens = [list(r) for r in data.draw(st.permutations(m))]
    nonzero = entries.filter(lambda x: x != 0)
    gens = [[c * x for x in g] for c, g in zip(data.draw(
        st.lists(nonzero, min_size=len(gens), max_size=len(gens))), gens)]
    if gens:
        c = data.draw(entries)
        gens = [gens[0]] + [[x + c * y for x, y in zip(g, gens[0])] for g in gens[1:]]
    s1, s2 = canonicalize(m, cols), canonicalize(gens, cols)
    assert (s1, hash(s1)) == (s2, hash(s2))
    assert s2.basis == tuple(tuple(r) for r in oracle_rref(m)[0])
    assert image(LinMap.from_cols(gens, rows_dim=cols)) == s1


def test_views_are_built_once():
    m = LinMap.from_rows([[F(1, 2), 0], [3, F(-5, 4)]])
    assert (m.den, m.nums) == (4, ((2, 0), (12, -5)))
    assert m.entries is m.entries
    s = canonicalize([vec(2, 4, F(1, 3))])
    assert (s.rows, s.pivots) == (((6, 12, 1),), (0,))
    assert s.basis is s.basis and s.basis == ((F(1), F(2), F(1, 6)),)


def test_a_subspace_needs_one_pivot_per_row():
    with pytest.raises(DimensionMismatch):
        Subspace(2, ((1, 0),))


# ---------------------------------------------------------------------------
# the fiber_product memo: equal inputs give the identical frozen value

@settings(max_examples=60, deadline=None)
@given(relation_pairs())
def test_fiber_product_memo_matches_the_uncached_function(pair):
    m1, m2 = pair
    fp = fiber_product(m1, m2)
    assert fp == fiber_product.__wrapped__(m1, m2)
    assert fiber_product(m1, m2) is fp
    # an equal map built afresh is the same key
    assert fiber_product(LinMap.from_rows(m1.entries, cols=m1.cols), m2) is fp


def test_fiber_product_raises_on_every_call():
    misses = fiber_product.cache_info().misses
    for _ in range(3):
        with pytest.raises(DimensionMismatch):
            fiber_product(LinMap.identity(2), LinMap.identity(3))
    # nothing was stored, so each call ran the code again
    assert fiber_product.cache_info().misses == misses + 3


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_the_product_memo_matches_the_uncached_product(data):
    r, k, c = (data.draw(st.integers(0, 5)) for _ in range(3))
    draw_matrix = data.draw(st.sampled_from([dense, sparse]))
    a, b = draw_matrix(data.draw, r, k), draw_matrix(data.draw, k, c)
    A, B = LinMap.from_rows(a, cols=k), LinMap.from_rows(b, cols=c)
    prod = A @ B
    assert prod == _composite.__wrapped__(A, B)
    assert as_rows(prod) == oracle_mul(a, b, k, c)
    assert A @ B is prod
    # an equal map built afresh is the same key
    assert LinMap.from_rows(a, cols=k) @ B is prod
    # a shape mismatch is caught before the memo: it raises every time and
    # neither runs nor stores a product
    wrong = LinMap.zero(k + 1, c)
    misses = _composite.cache_info().misses
    for _ in range(3):
        with pytest.raises(DimensionMismatch):
            A @ wrong
    assert _composite.cache_info().misses == misses


# ---------------------------------------------------------------------------
# the sparse product and the one-elimination kernel and image, on the shapes
# the scenarios build: mostly zeros, identity blocks, zero maps and empty
# sides

def sparse(draw, rows, cols):
    """A rows x cols list of Fractions: a zero map, a (rectangular) identity,
    or a few nonzero entries, mostly 1 and -1, at random cells."""
    kind = draw(st.sampled_from(["sparse", "identity", "zero"]))
    m = [[F(0)] * cols for _ in range(rows)]
    if kind == "identity":
        for i in range(min(rows, cols)):
            m[i][i] = F(1)
    elif kind == "sparse" and rows and cols:
        cells = draw(st.sets(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
                             max_size=rows * cols // 2 + 1))
        for i, j in sorted(cells):
            m[i][j] = draw(st.one_of(st.just(F(1)), st.just(F(-1)), entries))
    return m


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_matmul_matches_the_fraction_product_on_sparse_operands(data):
    r, k, c = (data.draw(st.integers(0, 7)) for _ in range(3))
    a, b = sparse(data.draw, r, k), sparse(data.draw, k, c)
    prod = LinMap.from_rows(a, cols=k) @ LinMap.from_rows(b, cols=c)
    oracle = oracle_mul(a, b, k, c)
    assert as_rows(prod) == oracle
    assert_normalised(prod)
    assert prod == LinMap.from_rows(oracle, cols=c)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_image_is_the_span_of_the_images_of_the_basis(data):
    r, k = data.draw(st.integers(0, 6)), data.draw(st.integers(1, 6))
    f = LinMap.from_rows(sparse(data.draw, r, k), cols=k)
    s = canonicalize(sparse(data.draw, data.draw(st.integers(0, 4)), k), k)
    got = image(f, s)
    assert got == canonicalize([f.apply(v) for v in s.basis], r)
    assert_canonical(got)


@pytest.mark.parametrize("m, cols, basis", [
    ([], 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),      # no rows: everything
    ([[], []], 0, []),                                # no columns: Q^0
    ([[1, 2], [3, 4], [5, 6]], 2, []),                # full column rank
    ([[0, 1, 0, 2], [0, 3, 0, 1]], 4, [[1, 0, 0, 0], [0, 0, 1, 0]]),  # zero columns
    ([[0, 2, 4, 0]], 4, [[1, 0, 0, 0], [0, -2, 1, 0], [0, 0, 0, 1]]),
    ([[1, 2, 2]], 3, [[2, 0, -1], [0, 1, -1]]),       # null vectors not yet primitive
    ([[0, 0], [0, 0]], 2, [[1, 0], [0, 1]]),          # the zero map
])
def test_kernel_edge_cases(m, cols, basis):
    k = kernel(LinMap.from_rows(m, cols=cols))
    assert k == canonicalize(basis, cols)
    assert k.basis == oracle_kernel([[F(x) for x in r] for r in m], cols)
    assert_canonical(k)


def test_kernel_and_image_eliminate_once(monkeypatch):
    from diraclab import linalg
    calls, rref_int = [], linalg._rref_int

    def counted(mat):
        calls.append(len(mat))
        return rref_int(mat)
    monkeypatch.setattr(linalg, "_rref_int", counted)
    f = LinMap.from_rows([[1, 2, 3, 0], [2, 4, 7, 1], [0, 0, 1, 1]])
    k = kernel(f)
    assert calls == [3]
    assert k.basis == oracle_kernel(as_rows(f), 4)
    s = canonicalize([vec(1, 0, 0, 0), vec(0, 1, 1, 0)], 4)
    calls.clear()
    im = image(f, s)
    assert calls == [2]
    assert im == canonicalize([f.apply(v) for v in s.basis], 3)


@contextmanager
def recorded_products():
    """The operand pairs of every LinMap product formed inside, in order,
    memo hits included."""
    seen, real = [], linalg._composite

    def recorded(a, b):
        seen.append((a, b))
        return real(a, b)

    linalg._composite = recorded
    try:
        yield seen
    finally:
        linalg._composite = real


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_congruence_forms_the_written_out_chain(seed):
    # the same value from the same products in the same order, so that
    # every memo key of the chains it replaced stays the same
    rng = random.Random(seed)
    n, m = rng.randint(1, 4), rng.randint(1, 4)
    f = random_matrix(rng, n, m, 6)
    a, b = random_matrix(rng, n, n, 6), random_matrix(rng, n, n, 6)
    for middle, chain in (((a,), lambda: f.transpose() @ a @ f),
                          ((a, b), lambda: f.transpose() @ a @ b @ f)):
        with recorded_products() as helper:
            got = congruence(f, *middle)
        with recorded_products() as inline:
            want = chain()
        assert got == want
        assert helper == inline and len(helper) == len(middle) + 1