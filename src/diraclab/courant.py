"""Pointwise Dirac calculus in V + V* over Q.

A DiracFiber is a Lagrangian subspace of Q^{2n} for the fixed symmetric
pairing <(v,a),(w,b)> = a(w) + b(v), with V in coordinates 0..n-1 and V*
in coordinates n..2n-1.  The four constructions (graph, sum, pullback,
pushforward) are total at the fiber level: each always returns a Lagrangian
subspace.  Smoothness questions ("if L1 + L2 is smooth") are handled at the
bundle level by cross-point rank comparison, not here.

Graphs of 2-forms: a Lagrangian L is graph(omega) for a 2-form omega iff
L cap V* = 0, iff the pivots of its reduced echelon basis are the V
coordinates 0..n-1.  DiracFiber.form reads omega off those rows, and
graph_two_form writes them down, neither with an elimination.  On graphs
every operation here is a formula on the form (Bursztyn, "A brief
introduction to Dirac manifolds", arXiv:1112.5037; Bursztyn, Crainic,
Weinstein and Zhu, arXiv:math/0303180):
- pullback: f*graph(omega) = graph(f^T omega f);
- dirac_sum: graph(w1) + graph(w2) = graph(w1 + w2);
- pushforward: f_* graph(omega) = graph(s^T omega s) for a section s of
  the surjective f (f s = I), when omega is basic, omega = f^T (s^T omega
  s) f; then omega = f*w for w = s*omega, and f_* f^* = id on onto maps.
  A square f is invertible, s = f^-1, and omega is always basic;
- dirac_negate: -graph(omega) = graph(-omega);
- kernel: ker graph(omega) = ker omega;
- the Lagrangian test: the span of the rows (e_j, w_j) is isotropic iff
  the matrix of the w_j is antisymmetric, so DiracFiber.__post_init__ reads
  the form and tests it in place of every pairing of basis vectors.

The relation-image path is the general case, and the reference the closed
forms are tested against: sum, gauge and pullback with a non-graph input,
dirac_negate and the kernel of a non-graph, and pushforward of a non-graph
or of a graph whose form is not basic, are image(out, fiber_product(m1, m2))
or image(out, L), taken in the basis coordinates of L: with (T, C) =
L.parts the tangent and cotangent components of L's basis, an element of L
is (T x, C x) for x in Q^n, so matching conditions are linear equations in
x.  L.kernel, ker L = L cap V, is then the image of a kernel in the same
coordinates, and a fiber that is not a graph is tested for isotropy on each
pair of its basis vectors.

Memo: graph_two_form, dirac_sum and pullback (like linalg.fiber_product)
are pure functions of frozen, hashable values, and a run asks for the same
ones many times (the compatibility at one arrow is checked by several
suites, identity legs repeat their inputs).  Each keeps one functools.cache
per process, unbounded and with no knob; a miss runs the same code, a hit
returns the same frozen fiber, which passed its isotropy check when it was
built, and an exception is raised again on every call, never cached.  The
closed forms on graphs go through graph_two_form, so equal forms share one
fiber.  pushforward has no memo: a run repeats few of its inputs (11 of 46
calls on the torus verify, none on the circle reduction), so a memo there
saves nothing measurable.  DiracFiber.parts, DiracFiber.kernel and
DiracFiber.form are views, read as attributes: each is built on first read
and kept on the frozen fiber, the way a memo keeps its result.
"""

from __future__ import annotations

from functools import cache, cached_property
from math import gcd, lcm
from operator import mul

from .linalg import (
    DimensionMismatch,
    LinMap,
    Subspace,
    Vec,
    ZERO,
    block_diag,
    fiber_product,
    frac,
    hstack,
    image,
    kernel,
    solve,
    vstack,
)
from .records import record


class NotLagrangian(ValueError):
    pass


def pairing(x, y):
    """<(v, a), (w, b)> = a(w) + b(v) on Q^n + (Q^n)*, for vectors of ints
    or Fractions."""
    if len(x) != len(y) or len(x) % 2:
        raise DimensionMismatch("pairing: ambient mismatch")
    n = len(x) // 2
    return sum(map(mul, x[n:], y[:n])) + sum(map(mul, y[n:], x[:n]))


@record
class TwoFormFiber:
    """An antisymmetric bilinear form on Q^n."""

    matrix: LinMap

    def __post_init__(self):
        if not self.matrix.is_antisymmetric():
            raise ValueError("two-form matrix must be antisymmetric")

    @property
    def dim(self) -> int:
        return self.matrix.rows

    @staticmethod
    def zero(n: int) -> "TwoFormFiber":
        return TwoFormFiber(LinMap.zero(n, n))

    def __call__(self, u: Vec, v: Vec):
        return sum(map(mul, u, self.matrix.apply(v)))

    def flat(self) -> LinMap:
        """v -> i_v w as a map Q^n -> (Q^n)*; the matrix is the transpose."""
        return self.matrix.transpose()

    def add(self, other: "TwoFormFiber") -> "TwoFormFiber":
        return TwoFormFiber(self.matrix + other.matrix)

    def neg(self) -> "TwoFormFiber":
        return TwoFormFiber(self.matrix.scale(-1))

    def pullback(self, f: LinMap) -> "TwoFormFiber":
        """f*w for f : Q^m -> Q^n."""
        return TwoFormFiber(f.transpose() @ self.matrix @ f)


def std_symplectic(n2: int) -> TwoFormFiber:
    """The standard symplectic form on Q^n2, n2 even: dx ^ dy on each
    consecutive coordinate pair (x, y)."""
    rows = [[0] * n2 for _ in range(n2)]
    for i in range(0, n2, 2):
        rows[i][i + 1], rows[i + 1][i] = 1, -1
    return TwoFormFiber(LinMap.from_rows(rows))


@record
class ThreeFormFiber:
    """An alternating 3-tensor on Q^n, stored on increasing index triples."""

    dim: int
    coeffs: tuple[tuple[tuple[int, int, int], "frac"], ...]

    @staticmethod
    def zero(n: int) -> "ThreeFormFiber":
        return ThreeFormFiber(n, ())

    @staticmethod
    def from_dict(n: int, data: dict) -> "ThreeFormFiber":
        items = []
        for (i, j, k), c in sorted(data.items()):
            if not (0 <= i < j < k < n):
                raise ValueError("three-form indices must be strictly increasing")
            c = frac(c)
            if c != 0:
                items.append(((i, j, k), c))
        return ThreeFormFiber(n, tuple(items))

    def coeff(self, i: int, j: int, k: int):
        # antisymmetry under all transpositions
        idx = sorted([(i, 0), (j, 1), (k, 2)])
        if idx[0][0] == idx[1][0] or idx[1][0] == idx[2][0]:
            return ZERO
        perm = tuple(p for _, p in idx)
        sign = 1 if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1
        key = (idx[0][0], idx[1][0], idx[2][0])
        for kk, c in self.coeffs:
            if kk == key:
                return c if sign > 0 else -c
        return ZERO

    def __call__(self, u: Vec, v: Vec, w: Vec):
        total = ZERO
        for (i, j, k), c in self.coeffs:
            det = (u[i] * (v[j] * w[k] - v[k] * w[j])
                   - u[j] * (v[i] * w[k] - v[k] * w[i])
                   + u[k] * (v[i] * w[j] - v[j] * w[i]))
            total += c * det
        return total

    def pullback(self, f: LinMap) -> "ThreeFormFiber":
        m = f.cols
        cols = f.col_vectors()
        data = {}
        for i in range(m):
            for j in range(i + 1, m):
                for k in range(j + 1, m):
                    c = self(cols[i], cols[j], cols[k])
                    if c != 0:
                        data[(i, j, k)] = c
        return ThreeFormFiber.from_dict(m, data)

    def add(self, other: "ThreeFormFiber") -> "ThreeFormFiber":
        if self.dim != other.dim:
            raise DimensionMismatch("three-form add: dim mismatch")
        data = dict(self.coeffs)
        for key, c in other.coeffs:
            data[key] = data.get(key, ZERO) + c
        return ThreeFormFiber.from_dict(self.dim, data)

    def neg(self) -> "ThreeFormFiber":
        return ThreeFormFiber(self.dim, tuple((k, -c) for k, c in self.coeffs))

    def is_zero(self) -> bool:
        return not self.coeffs


@record
class DiracFiber:
    """A Lagrangian subspace of Q^n + (Q^n)*, for the pairing above.

    form is the 2-form omega with L = graph(omega), read off the echelon
    basis, or None when L is not a graph (L cap V* != 0).
    """

    space: Subspace

    def __post_init__(self):
        if self.space.ambient_dim % 2:
            raise DimensionMismatch("Dirac fiber must live in an even ambient Q^{2n}")
        n = self.n
        if self.space.dim != n:
            raise NotLagrangian(f"dim {self.space.dim} != {n}")
        # a graph is isotropic iff the matrix read off its rows is
        # antisymmetric, which TwoFormFiber checks as form is built
        try:
            form = self.form
        except ValueError:
            raise NotLagrangian("basis not isotropic") from None
        if form is None and not self.space.is_isotropic(pairing):
            raise NotLagrangian("basis not isotropic")

    @property
    def n(self) -> int:
        return self.space.ambient_dim // 2

    @cached_property
    def parts(self) -> tuple[LinMap, LinMap]:
        """(T, C): the V and V* rows of space.matrix, each an n x n map
        from basis coordinates, so that L = {(T x, C x) : x in Q^n}."""
        n = self.n
        m = self.space.matrix
        return m.row_block(0, n), m.row_block(n, 2 * n)

    @cached_property
    def kernel(self) -> Subspace:
        """ker L = L cap V, as a subspace of Q^n: ker omega for a graph,
        else the image of the kernel of C under T."""
        if self.form is not None:
            return kernel(self.form.matrix)
        t, c = self.parts
        return image(t, kernel(c))

    @cached_property
    def form(self) -> TwoFormFiber | None:
        """The 2-form omega with L = graph(omega), or None if L cap V* != 0.

        L cap V* = 0 iff L projects onto V, iff the pivots of the echelon
        basis are 0..n-1.  Then row j is (p_j e_j, w_j) with p_j > 0, and
        row j of omega is w_j / p_j; over the lcm of the p_j the map is
        normalised, because each row is primitive.  A ValueError if those
        rows are graph-shaped but their matrix is not antisymmetric: they
        span no Lagrangian, so __post_init__ rejects them as one.
        """
        n = self.n
        if self.space.pivots != tuple(range(n)):
            return None
        rows = self.space.rows
        den = lcm(*[r[j] for j, r in enumerate(rows)])
        return TwoFormFiber(LinMap(n, n, tuple(tuple((den // r[j]) * x for x in r[n:])
                                               for j, r in enumerate(rows)), den))


@cache
def graph_two_form(omega: TwoFormFiber) -> DiracFiber:
    """Span of (e_j, i_{e_j} omega), the image of (I, omega-flat);
    non-degenerate by construction.

    Written down in echelon form, with no elimination: with omega =
    nums / den, the row (den e_j | nums[j]) made primitive has its pivot at
    j and is zero at every other pivot column 0..n-1.
    """
    n = omega.dim
    m = omega.matrix
    rows = []
    for j, w in enumerate(m.nums):
        g = gcd(m.den, *w)
        rows.append(tuple(m.den // g if k == j else 0 for k in range(n))
                    + tuple(x // g for x in w))
    return DiracFiber(Subspace(2 * n, tuple(rows), tuple(range(n))))


def graph_bivector(pi: LinMap) -> DiracFiber:
    """Span of (pi(e_i*, .), e_i*), the image of (pi^T, I); its kernel meets
    V only at 0.

    The matrix entry pi[i][j] is the pairing of the bivector with
    (dx_i, dx_j), and contraction happens in the first slot.
    """
    if not pi.is_antisymmetric():
        raise ValueError("bivector matrix must be antisymmetric")
    n = pi.rows
    return DiracFiber(image(vstack(pi.transpose(), LinMap.identity(n))))


def tangent_dirac(n: int) -> DiracFiber:
    return graph_two_form(TwoFormFiber.zero(n))


def cotangent_dirac(n: int) -> DiracFiber:
    return graph_bivector(LinMap.zero(n, n))


@cache
def dirac_sum(l1: DiracFiber, l2: DiracFiber) -> DiracFiber:
    """{(v, a1 + a2) : (v, ai) in Li}; Lagrangian for every input pair.

    Two graphs sum to graph(omega1 + omega2); any other pair is the
    relation image below.
    """
    if l1.n != l2.n:
        raise DimensionMismatch("dirac_sum: base dim mismatch")
    if l1.form is not None and l2.form is not None:
        return graph_two_form(l1.form.add(l2.form))
    t1, c1 = l1.parts
    t2, c2 = l2.parts
    out = vstack(hstack(t1, LinMap.zero(l1.n, l1.n)), hstack(c1, c2))
    return DiracFiber(image(out, fiber_product(t1, t2)))


def dirac_negate(l: DiracFiber) -> DiracFiber:
    """{(v, -a) : (v, a) in L}: graph(-omega) for L = graph(omega), else
    the image of L under diag(I, -I)."""
    if l.form is not None:
        return graph_two_form(l.form.neg())
    n = l.n
    m = block_diag(LinMap.identity(n), LinMap.identity(n).scale(-1))
    return DiracFiber(image(m, l.space))


def gauge(l: DiracFiber, b: TwoFormFiber) -> DiracFiber:
    if l.n != b.dim:
        raise DimensionMismatch("gauge: dim mismatch")
    return dirac_sum(l, graph_two_form(b))


@cache
def pullback(f: LinMap, l: DiracFiber) -> DiracFiber:
    """f*L = {(w, f^T a) : (f w, a) in L} for f : Q^m -> Q^n.

    On a graph, f*graph(omega) = graph(f^T omega f); any other L is the
    relation image below.
    """
    if f.rows != l.n:
        raise DimensionMismatch("pullback: map target must match fiber")
    if l.form is not None:
        return graph_two_form(l.form.pullback(f))
    t, c = l.parts
    out = block_diag(LinMap.identity(f.cols), f.transpose() @ c)
    return DiracFiber(image(out, fiber_product(f, t)))


def pushforward(f: LinMap, l: DiracFiber) -> DiracFiber:
    """f_* L = {(f v, a) : (v, f^T a) in L} for surjective f : Q^n -> Q^m.

    One solve of f s = I decides that f is onto and gives a section s.  On
    L = graph(omega) with omega basic, omega = f*(s*omega), the result is
    graph(s*omega); a square f is invertible, so there omega is basic
    without a test.  Any other L is the relation image below.
    """
    if f.cols != l.n:
        raise DimensionMismatch("pushforward: map source must match fiber")
    s = solve(f, LinMap.identity(f.rows))
    if s is None:
        raise ValueError("pushforward requires a surjective map")
    if l.form is not None:
        down = l.form.pullback(s)
        if f.rows == f.cols or down.pullback(f) == l.form:
            return graph_two_form(down)
    t, c = l.parts
    out = block_diag(f @ t, LinMap.identity(f.rows))
    return DiracFiber(image(out, fiber_product(c, f.transpose())))


def perp(s: Subspace) -> Subspace:
    """Orthogonal complement for the fixed symmetric pairing: ker S^T P for
    the basis matrix S and the pairing matrix P."""
    if s.ambient_dim % 2 != 0:
        raise DimensionMismatch("perp needs an even ambient")
    n = s.ambient_dim // 2
    z, i = LinMap.zero(n, n), LinMap.identity(n)
    return kernel(s.matrix.transpose() @ vstack(hstack(z, i), hstack(i, z)))


def is_lagrangian(s: Subspace) -> bool:
    return perp(s) == s


def two_form_of(l: DiracFiber) -> TwoFormFiber:
    """Recover omega with L = graph(omega); a ValueError unless L cap V* = 0,
    that is unless T is invertible: then C T^-1 is the flat matrix omega^T."""
    t, c = l.parts
    x = solve(t, LinMap.identity(l.n))
    if x is None:
        raise ValueError("fiber is not the graph of a 2-form")
    return TwoFormFiber((c @ x).transpose())
