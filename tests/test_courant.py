import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab.courant import (
    DiracFiber,
    NotLagrangian,
    TwoFormFiber,
    ThreeFormFiber,
    check_lagrangian,
    cotangent_dirac,
    dirac_negate,
    dirac_sum,
    gauge,
    graph_bivector,
    graph_two_form,
    lagrangian,
    pullback,
    pushforward,
    tangent_dirac,
)
from diraclab.linalg import (
    DimensionMismatch,
    LinMap,
    basis_vec,
    block_diag,
    canonicalize,
    fiber_product,
    full_subspace,
    hstack,
    image,
    kernel,
    preimage,
    random_antisymmetric,
    solve,
    vec,
    vec_concat,
    vstack,
    zero_vec,
)

F = Fraction


def antisym(rows):
    return TwoFormFiber(LinMap.from_rows(rows))


def std_symplectic(n2):
    # sum dx_i ^ dy_i on Q^{2m} with coordinates (x1, y1, x2, y2, ...)
    assert n2 % 2 == 0
    rows = [[0] * n2 for _ in range(n2)]
    for i in range(0, n2, 2):
        rows[i][i + 1] = 1
        rows[i + 1][i] = -1
    return antisym(rows)


def test_graph_of_zero_is_tangent():
    assert graph_two_form(TwoFormFiber.zero(2)) == tangent_dirac(2)
    assert tangent_dirac(2).space == canonicalize([vec(1, 0, 0, 0), vec(0, 1, 0, 0)])


def test_graph_std_symplectic_q2():
    # direct contraction: i_{e1} omega = e2*, i_{e2} omega = -e1*
    l = graph_two_form(std_symplectic(2))
    assert l.space == canonicalize([vec(1, 0, 0, 1), vec(0, 1, -1, 0)])


def test_graph_partial_form_q3():
    # omega(e1, e2) = 1 only: contraction oracle gives (e1; e2*), (e2; -e1*), (e3; 0)
    w = antisym([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    l = graph_two_form(w)
    expect = canonicalize([
        vec(1, 0, 0, 0, 1, 0),
        vec(0, 1, 0, -1, 0, 0),
        vec(0, 0, 1, 0, 0, 0),
    ])
    assert l.space == expect


def test_graph_bivector_zero_is_cotangent():
    assert graph_bivector(LinMap.zero(2, 2)) == cotangent_dirac(2)


def test_graph_bivector_rejects_nonantisymmetric():
    with pytest.raises(ValueError):
        graph_bivector(LinMap.from_rows([[1, 0], [0, 0]]))


def bivector_line_example(x):
    # pi = x d/dx ^ d/dy evaluated along the x-axis
    return LinMap.from_rows([[0, x], [-x, 0]])


def test_bivector_graph_at_x_equal_one():
    # graph {(pi(a), a)}: spanned by (dy-direction; dx) and (-dx-direction; dy)
    l = graph_bivector(bivector_line_example(1))
    assert l.space == canonicalize([vec(0, 1, 1, 0), vec(-1, 0, 0, 1)])


def test_bivector_graph_at_x_equal_zero():
    l = graph_bivector(bivector_line_example(0))
    assert l == cotangent_dirac(2)


def test_pullback_line_example_off_origin():
    # inclusion t -> (t, 0); at x = 1 the pullback is the tangent line
    f = LinMap.from_rows([[1], [0]])
    l = pullback(f, graph_bivector(bivector_line_example(1)))
    assert l.space == canonicalize([vec(1, 0)], 2)


def test_pullback_line_example_at_origin():
    # at x = 0 the pullback flips to the cotangent line
    f = LinMap.from_rows([[1], [0]])
    l = pullback(f, graph_bivector(bivector_line_example(0)))
    assert l.space == canonicalize([vec(0, 1)], 2)


def test_dirac_sum_identity_element():
    l = graph_bivector(bivector_line_example(1))
    assert dirac_sum(l, tangent_dirac(2)) == l


def test_dirac_sum_of_graphs_adds_forms():
    rng = random.Random(7)
    for _ in range(5):
        w1 = TwoFormFiber(random_antisymmetric(rng, 3))
        w2 = TwoFormFiber(random_antisymmetric(rng, 3))
        assert dirac_sum(graph_two_form(w1), graph_two_form(w2)) == \
            graph_two_form(w1.add(w2))


def test_cotangent_absorbs_poisson_graphs():
    # (0 + V*) + L = 0 + V* whenever ker L = 0; enumerate via a bivector graph
    pi = LinMap.from_rows([[0, 1], [-1, 0]])
    l = graph_bivector(pi)
    assert l.kernel.dim == 0
    assert dirac_sum(cotangent_dirac(2), l) == cotangent_dirac(2)


def test_gauge_by_zero_and_involution():
    l = graph_bivector(bivector_line_example(1))
    assert gauge(l, TwoFormFiber.zero(2)) == l
    b = std_symplectic(2)
    assert gauge(gauge(l, b), b.neg()) == l


def test_gauge_of_tangent_gives_graph():
    w = std_symplectic(2)
    assert gauge(tangent_dirac(2), w) == graph_two_form(w)


def test_gauge_fixes_cotangent():
    assert gauge(cotangent_dirac(2), std_symplectic(2)) == cotangent_dirac(2)


def test_pullback_identity():
    l = graph_two_form(std_symplectic(2))
    assert pullback(LinMap.identity(2), l) == l


def test_pushforward_identity():
    l = graph_two_form(std_symplectic(2))
    assert pushforward(LinMap.identity(2), l) == l


def test_pushforward_projection_of_symplectic_graph():
    # unfold the definition: (v, f^T a) in graph(omega_std) forces v in ker f...
    f = LinMap.from_rows([[1, 0]])
    l = pushforward(f, graph_two_form(std_symplectic(2)))
    assert l.space == canonicalize([vec(0, 1)], 2)  # 0 + Q*


def test_pushforward_projection_of_tangent():
    f = LinMap.from_rows([[1, 0]])
    assert pushforward(f, tangent_dirac(2)) == tangent_dirac(1)


def test_pushforward_requires_surjectivity():
    # on graphs and on non-graphs alike, square f included, whose section
    # would otherwise be taken as its inverse
    for f in [LinMap.zero(1, 2), LinMap.from_rows([[1, 1], [1, 1]]),
              LinMap.from_rows([[1, 2, 0], [2, 4, 0]])]:
        n = f.cols
        w = TwoFormFiber(random_antisymmetric(random.Random(n), n))
        for l in [tangent_dirac(n), cotangent_dirac(n), graph_two_form(w)]:
            with pytest.raises(ValueError, match="^pushforward requires a surjective map$"):
                pushforward(f, l)


def test_kernel_of_graph_is_form_kernel():
    w = antisym([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    assert graph_two_form(w).kernel == kernel(w.matrix)


def test_nondegeneracy_of_bivector_graphs():
    with pytest.raises(ValueError, match="not the graph of a 2-form"):
        two_form_of(graph_bivector(LinMap.zero(2, 2)))


def test_two_form_roundtrip():
    w = std_symplectic(4)
    assert two_form_of(graph_two_form(w)) == w


def test_not_lagrangian_rejected():
    with pytest.raises(NotLagrangian):
        lagrangian(canonicalize([vec(1, 1)], 2))
    with pytest.raises(NotLagrangian):
        lagrangian(canonicalize([], 2))
    # graph-shaped rows (pivots 0..n-1) whose matrix is not antisymmetric:
    # omega = [[0, 1], [1, 0]], and omega = [[1/2, 0], [0, 0]], with a pivot 2
    for rows in [[vec(1, 0, 0, 1), vec(0, 1, 1, 0)], [vec(2, 0, 1, 0), vec(0, 1, 0, 0)]]:
        space = canonicalize(rows, 4)
        assert space.pivots == (0, 1)
        with pytest.raises(NotLagrangian, match="^basis not isotropic$"):
            lagrangian(space)


def test_a_dirac_fiber_needs_an_even_ambient():
    with pytest.raises(DimensionMismatch):
        lagrangian(canonicalize([vec(1, 0, 0)], 3))


def test_off_diagonal_pairing_is_not_lagrangian():
    # (e_1, 0) and (0, e_1*) each pair to 0 with themselves but to 1 with
    # each other: the row (0, e_1*) does not annihilate E = span(e_1)
    space = canonicalize([vec(1, 0, 0, 0), vec(0, 0, 1, 0)], 4)
    assert space.dim == 2
    with pytest.raises(NotLagrangian, match="^basis not isotropic$"):
        lagrangian(space)
    with pytest.raises(DimensionMismatch):
        DiracFiber(full_subspace(2), TwoFormFiber.zero(1))


def test_three_form_antisymmetry():
    phi = ThreeFormFiber.from_dict(3, {(0, 1, 2): F(2)})
    assert phi.coeff(0, 1, 2) == 2
    assert phi.coeff(1, 0, 2) == -2
    assert phi.coeff(2, 0, 1) == 2
    assert phi.coeff(0, 0, 2) == 0
    u, v, w = vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)
    assert phi(u, v, w) == 2
    assert phi(v, u, w) == -2


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def random_lagrangians(n=2):
    # random Lagrangians built by gauge(graph/pullback chains) so the
    # constructor-closure property is exercised on nontrivial inputs
    def build(seed):
        rng = random.Random(seed)
        l = graph_bivector(random_antisymmetric(rng, n))
        l = gauge(l, TwoFormFiber(random_antisymmetric(rng, n)))
        f = None
        for _ in range(6):
            f = random_invertible(rng, n)
            if f is not None:
                break
        if f is not None:
            l = pullback(f, l)
        return l

    return st.integers(min_value=0, max_value=10**6).map(build)


def random_invertible(rng, n):
    from diraclab.linalg import random_matrix
    m = random_matrix(rng, n, n, 8)
    return m if kernel(m).dim == 0 else None


@settings(max_examples=40, deadline=None)
@given(random_lagrangians(), random_lagrangians())
def test_constructor_closure_and_sum_commutative(l1, l2):
    s = dirac_sum(l1, l2)
    assert s.space.dim == l1.n
    assert perp(s.space) == s.space
    assert dirac_sum(l2, l1) == s


@settings(max_examples=25, deadline=None)
@given(random_lagrangians(), random_lagrangians(), random_lagrangians())
def test_dirac_sum_associative(l1, l2, l3):
    assert dirac_sum(dirac_sum(l1, l2), l3) == dirac_sum(l1, dirac_sum(l2, l3))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_pullback_contravariant(seed):
    rng = random.Random(seed)
    from diraclab.linalg import random_matrix
    f = random_matrix(rng, 2, 3, 8)  # Q^3 -> Q^2
    g = random_matrix(rng, 3, 2, 8)  # Q^2 -> Q^3
    l = gauge(graph_bivector(random_antisymmetric(rng, 2)),
              TwoFormFiber(random_antisymmetric(rng, 2)))
    assert pullback(g, pullback(f, l)) == pullback(f @ g, l)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_pushforward_inverts_pullback_for_bijections(seed):
    rng = random.Random(seed)
    f = None
    while f is None:
        f = random_invertible(rng, 3)
    l = gauge(graph_bivector(random_antisymmetric(rng, 3)),
              TwoFormFiber(random_antisymmetric(rng, 3)))
    assert pushforward(f, pullback(f, l)) == l


def test_perp_of_lagrangian_is_itself():
    for l in [tangent_dirac(3), cotangent_dirac(3),
              graph_two_form(std_symplectic(2))]:
        assert perp(l.space) == l.space
        assert is_lagrangian(l.space)


def test_dirac_negate():
    w = std_symplectic(2)
    assert dirac_negate(graph_two_form(w)) == graph_two_form(w.neg())
    assert dirac_negate(tangent_dirac(2)) == tangent_dirac(2)
    assert dirac_negate(cotangent_dirac(2)) == cotangent_dirac(2)


def test_parts_are_the_basis_components():
    l = gauge(graph_bivector(LinMap.from_rows([[0, 1], [-1, 0]])),
              TwoFormFiber(LinMap.from_rows([[0, 2], [-2, 0]])))
    t, c = l.parts
    assert (t.rows, t.cols, c.rows, c.cols) == (2, 2, 2, 2)
    cols = [vec_concat(t.apply(basis_vec(2, j)), c.apply(basis_vec(2, j)))
            for j in range(2)]
    assert canonicalize(cols, 4) == l.space


def test_three_form_neg():
    phi = ThreeFormFiber.from_dict(4, {(0, 1, 2): F(2), (1, 2, 3): F(-1, 3)})
    assert phi.neg().coeff(0, 1, 2) == -2
    assert phi.add(phi.neg()).is_zero()
    assert phi.neg().neg() == phi


# ---------------------------------------------------------------------------
# Oracle: the 4n-ambient constructions that the relation primitive replaced.
# They embed the inputs into one large ambient space, intersect there through
# annihilators and project back.  They live here only, to cross-check
# dirac_sum, pullback, pushforward, dirac_negate and DiracFiber.kernel, all
# of which compute on (E, omega) and never on a basis of L.

def _embed(s, offset, ambient):
    gens = [zero_vec(offset) + v + zero_vec(ambient - offset - s.ambient_dim)
            for v in s.basis]
    return canonicalize(gens, ambient)


def _block(a, d):
    top = hstack(a, LinMap.zero(a.rows, d.cols))
    bot = hstack(LinMap.zero(d.rows, a.cols), d)
    return LinMap.from_rows(top.entries + bot.entries, cols=a.cols + d.cols)


def oracle_dirac_sum(l1, l2):
    n = l1.n
    amb = 4 * n
    w = _embed(l1.space, 0, amb).sum(_embed(l2.space, 2 * n, amb))
    match_rows = [vec_concat(vec_concat(basis_vec(n, i), zero_vec(n)),
                             vec_concat(tuple(-x for x in basis_vec(n, i)), zero_vec(n)))
                  for i in range(n)]
    matched = w.intersect(kernel(LinMap.from_rows(match_rows, cols=amb)))
    add = LinMap.from_rows(
        [vec_concat(basis_vec(n, i), zero_vec(n)) + zero_vec(2 * n) for i in range(n)]
        + [vec_concat(zero_vec(n), basis_vec(n, i))
           + vec_concat(zero_vec(n), basis_vec(n, i)) for i in range(n)],
        cols=amb)
    return image(add, matched)


def oracle_pullback(f, l):
    rel = preimage(_block(f, LinMap.identity(l.n)), l.space)
    return image(_block(LinMap.identity(f.cols), f.transpose()), rel)


def oracle_pushforward(f, l):
    rel = preimage(_block(LinMap.identity(l.n), f.transpose()), l.space)
    return image(_block(f, LinMap.identity(f.rows)), rel)


def oracle_negate(l):
    n = l.n
    return canonicalize([v[:n] + tuple(-x for x in v[n:]) for v in l.space.basis], 2 * n)


def perp(s):
    """Orthogonal complement for the fixed symmetric pairing: ker S^T P for
    the basis matrix S and the pairing matrix P."""
    if s.ambient_dim % 2 != 0:
        raise DimensionMismatch("perp needs an even ambient")
    n = s.ambient_dim // 2
    z, i = LinMap.zero(n, n), LinMap.identity(n)
    return kernel(s.matrix.transpose() @ vstack(hstack(z, i), hstack(i, z)))


def is_lagrangian(s):
    return perp(s) == s


def two_form_of(l):
    """omega with L = graph(omega), solved from the basis of L; a ValueError
    unless L cap V* = 0, that is unless T is invertible: then C T^-1 is the
    flat matrix omega^T."""
    t, c = l.parts
    x = solve(t, LinMap.identity(l.n))
    if x is None:
        raise ValueError("fiber is not the graph of a 2-form")
    return TwoFormFiber((c @ x).transpose())


def relation_sum(l1, l2):
    """The sum as the image of a relation in the basis coordinates of L1 and
    L2: with (Ti, Ci) = Li.parts, the pairs (x1, x2) with T1 x1 = T2 x2 go
    to (T1 x1, C1 x1 + C2 x2)."""
    n = l1.n
    t1, c1 = l1.parts
    t2, c2 = l2.parts
    out = vstack(hstack(t1, LinMap.zero(n, n)), hstack(c1, c2))
    return image(out, fiber_product(t1, t2))


def relation_negate(l):
    """L under diag(I, -I)."""
    return image(block_diag(LinMap.identity(l.n), LinMap.identity(l.n).scale(-1)), l.space)


def oracle_kernel_of(l):
    n = l.n
    inter = l.space.intersect(_embed(full_subspace(n), 0, 2 * n))
    return canonicalize([v[:n] for v in inter.basis], n)


def oracle_cotangent_trace(l):
    n = l.n
    inter = l.space.intersect(_embed(full_subspace(n), n, 2 * n))
    return canonicalize([v[n:] for v in inter.basis], n)


def matrices(rows, cols):
    return st.lists(st.lists(rationals, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda m: LinMap.from_rows(m, cols=cols))


def antisymmetric(n):
    def build(xs):
        m = [[F(0)] * n for _ in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for (i, j), x in zip(pairs, xs):
            m[i][j], m[j][i] = x, -x
        return LinMap.from_rows(m, cols=n)
    k = n * (n - 1) // 2
    return st.lists(rationals, min_size=k, max_size=k).map(build)


def split_lagrangian(w_gens, b):
    """{(w, i_w B + a) : w in W, a in ann W}; every Lagrangian has this form."""
    n = b.rows
    w = canonicalize(w_gens, n)
    flat = b.transpose()
    gens = [vec_concat(v, flat.apply(v)) for v in w.basis]
    gens += [zero_vec(n) + a for a in w.annihilator().basis]
    return lagrangian(canonicalize(gens, 2 * n))


def dirac_fibers(n):
    gauged = st.tuples(antisymmetric(n), antisymmetric(n))
    return st.one_of(
        antisymmetric(n).map(lambda m: graph_two_form(TwoFormFiber(m))),
        antisymmetric(n).map(graph_bivector),
        gauged.map(lambda p: gauge(graph_bivector(p[0]), TwoFormFiber(p[1]))),
        gauged.map(lambda p: gauge(graph_two_form(TwoFormFiber(p[0])),
                                   TwoFormFiber(p[1]))),
        st.just(tangent_dirac(n)),
        st.just(cotangent_dirac(n)),
        st.tuples(matrices(n, n).map(lambda m: m.col_vectors()),
                  antisymmetric(n)).map(lambda p: split_lagrangian(*p)),
    )


dims = st.integers(min_value=1, max_value=4)


@settings(max_examples=75, deadline=None)
@given(dims.flatmap(lambda n: st.tuples(dirac_fibers(n), dirac_fibers(n))))
def test_dirac_sum_matches_oracle(pair):
    l1, l2 = pair
    assert dirac_sum(l1, l2).space == oracle_dirac_sum(l1, l2) == relation_sum(l1, l2)


@settings(max_examples=75, deadline=None)
@given(dims.flatmap(dirac_fibers))
def test_kernel_of_matches_oracle(l):
    assert l.kernel == oracle_kernel_of(l)


@settings(max_examples=40, deadline=None)
@given(dims.flatmap(dirac_fibers))
def test_kernel_of_is_a_view_kept_on_the_fiber(l):
    ker = l.kernel
    assert l.kernel is ker
    t, c = l.parts
    assert ker == image(t, kernel(c))


@st.composite
def non_bijective_maps(draw, n):
    """f = A B : Q^m -> Q^n of rank at most r < max(m, n), so f is not
    surjective or not injective."""
    m = draw(st.integers(min_value=0, max_value=4))
    r = draw(st.integers(min_value=0, max_value=min(m, n, max(m, n) - 1)))
    return draw(matrices(n, r)) @ draw(matrices(r, m))


@settings(max_examples=75, deadline=None)
@given(dims.flatmap(lambda n: st.tuples(non_bijective_maps(n), dirac_fibers(n))))
def test_pullback_matches_oracle(fl):
    f, l = fl
    assert pullback(f, l).space == oracle_pullback(f, l)


@st.composite
def surjective_maps(draw, n):
    """f = [I_m | X] U P : Q^n -> Q^m with U unipotent upper triangular and
    P a permutation, so f is onto."""
    m = draw(st.integers(min_value=0, max_value=n))
    x = draw(matrices(m, n - m))
    u = draw(matrices(n, n))
    u = LinMap.from_rows([[1 if i == j else (u.entries[i][j] if j > i else 0)
                           for j in range(n)] for i in range(n)], cols=n)
    perm = draw(st.permutations(range(n)))
    p = LinMap.from_cols([basis_vec(n, k) for k in perm], rows_dim=n)
    return hstack(LinMap.identity(m), x) @ u @ p


@settings(max_examples=75, deadline=None)
@given(dims.flatmap(lambda n: st.tuples(surjective_maps(n), dirac_fibers(n))))
def test_pushforward_matches_oracle(fl):
    # a random graph is almost never basic for f, so W is seldom all of E
    f, l = fl
    assert image(f).dim == f.rows
    assert pushforward(f, l).space == oracle_pushforward(f, l)


@st.composite
def basic_graphs(draw, n):
    """(f, w, graph(f*w)) for a surjective f : Q^n -> Q^m and a 2-form w on
    Q^m: a graph whose form is basic for f."""
    f = draw(surjective_maps(n))
    w = TwoFormFiber(draw(antisymmetric(f.rows)))
    return f, w, graph_two_form(w.pullback(f))


@settings(max_examples=75, deadline=None)
@given(dims.flatmap(basic_graphs))
def test_pushforward_of_a_basic_graph_is_the_graph_below(fwl):
    f, w, l = fwl
    got = pushforward(f, l)
    assert got == graph_two_form(w)
    assert got.space == oracle_pushforward(f, l)


@settings(max_examples=75, deadline=None)
@given(dims.flatmap(dirac_fibers))
def test_dirac_negate_matches_oracle_and_relation_path(l):
    got = dirac_negate(l)
    assert got.space == oracle_negate(l) == relation_negate(l)
    assert dirac_negate(got) == l


@settings(max_examples=75, deadline=None)
@given(dims.flatmap(lambda n: st.tuples(dirac_fibers(n), antisymmetric(n))))
def test_gauge_matches_oracle_and_relation_path(args):
    l, m = args
    b = TwoFormFiber(m)
    got = gauge(l, b)
    assert got.space == oracle_dirac_sum(l, graph_two_form(b))
    assert got.space == relation_sum(l, graph_two_form(b))


# ---------------------------------------------------------------------------
# The memo: dirac_sum and pullback return the identical frozen fiber for
# equal inputs, and the value their code computes.

@settings(max_examples=40, deadline=None)
@given(dims.flatmap(lambda n: st.tuples(
    antisymmetric(n), dirac_fibers(n), dirac_fibers(n), non_bijective_maps(n))))
def test_memoized_operations_match_their_uncached_code(args):
    b, l1, l2, f = args
    for op, op_args in [(dirac_sum, (l1, l2)),
                        (pullback, (f, l1))]:
        first = op(*op_args)
        assert first == op.__wrapped__(*op_args)
        assert op(*op_args) is first


def test_failing_operations_raise_on_every_call():
    l = tangent_dirac(2)
    not_onto = LinMap.from_rows([[1, 0], [0, 0]])
    before = pullback.cache_info().misses
    for _ in range(3):
        with pytest.raises(ValueError, match="surjective"):
            pushforward(not_onto, l)
        with pytest.raises(DimensionMismatch):
            pullback(LinMap.identity(3), l)
    # nothing was stored, so each call ran the code again
    assert pullback.cache_info().misses == before + 3


@settings(max_examples=40, deadline=None)
@given(dims.flatmap(dirac_fibers))
def test_cached_parts_are_the_row_blocks_and_leave_equality_alone(l):
    fresh = lagrangian(l.space)
    key = hash(fresh)
    n = l.n
    m = l.space.matrix
    parts = fresh.parts
    assert parts == (m.row_block(0, n), m.row_block(n, 2 * n))
    assert fresh.parts is parts
    assert hash(fresh) == key == hash(l) and fresh == l


# ---------------------------------------------------------------------------
# The pair (E, omega): lagrangian reads it back off any fiber's basis, and on
# graphs of 2-forms (E = V) the formulas eliminate nothing.

@settings(max_examples=75, deadline=None)
@given(dims.flatmap(lambda n: st.tuples(dirac_fibers(n), antisymmetric(n))))
def test_the_pair_is_read_back_from_the_basis(args):
    l, m = args
    n = l.n
    assert lagrangian(l.space) == l
    assert is_lagrangian(l.space)
    assert l.tangent == canonicalize([v[:n] for v in l.space.basis], n)
    if oracle_cotangent_trace(l).dim == 0:
        assert l.tangent == full_subspace(n)
        assert l.omega == two_form_of(l) and graph_two_form(l.omega) == l
    assert (graph_two_form(TwoFormFiber(m)).space
            == image(vstack(LinMap.identity(n), m.transpose())))


def test_closed_forms_on_graphs_run_no_elimination(monkeypatch):
    # on E = V, preimage, intersect and coords skip their eliminations, so
    # each formula is a closed form on the 2-form
    from diraclab import linalg
    calls, rref_int = [], linalg._rref_int

    def counted(mat):
        calls.append(len(mat))
        return rref_int(mat)
    cot = cotangent_dirac(3)
    w1 = antisym([[0, F(1, 2), 3], [F(-1, 2), 0, F(2, 3)], [-3, F(-2, 3), 0]])
    w2 = antisym([[0, -1, 0], [1, 0, F(5, 7)], [0, F(-5, 7), 0]])
    f = LinMap.from_rows([[1, 2], [0, F(1, 3)], [4, -1]])
    space = image(vstack(LinMap.identity(3), w1.matrix.transpose()))
    monkeypatch.setattr(linalg, "_rref_int", counted)
    l1, l2 = graph_two_form(w1), graph_two_form(w2)
    assert pullback.__wrapped__(f, l1) == graph_two_form(w1.pullback(f))
    assert dirac_sum.__wrapped__(l1, l2) == graph_two_form(w1.add(w2))
    b = TwoFormFiber(w1.matrix.scale(F(3, 11)))
    misses = dirac_sum.cache_info().misses
    assert gauge(l2, b) == graph_two_form(w2.add(b))
    assert dirac_sum.cache_info().misses == misses + 1
    assert dirac_negate(l1) == graph_two_form(w1.neg())
    assert calls == []
    # the basis view is one canonicalize of the generator rows
    assert l1.space == space
    # a fiber that is not a graph eliminates
    assert pullback.__wrapped__(f, cot).space == canonicalize(
        [vec(0, 0, 1, 0), vec(0, 0, 0, 1)], 4)
    assert calls


@settings(max_examples=30, deadline=None)
@given(random_lagrangians(n=3))
def test_check_lagrangian_returns_the_pairing_matrix_lagrangian_reads(l):
    n, m = l.n, l.space.matrix
    assert check_lagrangian(l.space) == m.row_block(n, 2 * n).transpose() @ m.row_block(0, n)
    assert lagrangian(l.space) == l


def test_check_lagrangian_raises_as_lagrangian_does():
    for rows, message in (([vec(1, 0, 1, 0), vec(0, 1, 0, 0)], "^basis not isotropic$"),
                          ([vec(1, 0, 0, 0)], "^dim 1 != 2$")):
        for build in (check_lagrangian, lagrangian):
            with pytest.raises(NotLagrangian, match=message):
                build(canonicalize(rows, 4))