"""Pointwise Dirac calculus in V + V* over Q.

A DiracFiber is a Lagrangian subspace L of Q^{2n} for the fixed symmetric
pairing <(v,a),(w,b)> = a(w) + b(v), with V in coordinates 0..n-1 and V*
in coordinates n..2n-1.  Every such L is

    L(E, omega) = {(X, xi) : X in E, xi|_E = i_X omega|_E}

for E = pr_V(L) and a 2-form omega on E, and L cap V* = Ann(E) (Courant,
"Dirac manifolds", Trans. AMS 319, 1990; Gualtieri, "Generalized complex
geometry", arXiv:math/0401221).  A DiracFiber is that pair: tangent is E,
a canonical Subspace, and omega is the 2-form on E's echelon basis, so
record equality is equality of L.  The graph of a 2-form is E = V, and the
cotangent structure E = 0.  Each operation is one formula on the pair:
- graph_two_form: L(V, omega);
- dirac_sum: L(E1, w1) + L(E2, w2) = L(E1 cap E2, w1|_E + w2|_E);
- pullback along f : Q^m -> Q^n: f*L(E, w) = L(f^-1 E, f*w);
- pushforward along an onto f: f_*L(E, w) = L(f W, w'), with
  W = {X in E : i_X w vanishes on E cap ker f} and w'(f X, f Y) = w(X, Y);
- dirac_negate: L(E, -w);
- DiracFiber.kernel: ker L = L cap V = ker(w|_E).
Every antisymmetric omega gives a Lagrangian, so a DiracFiber needs no
isotropy test; lagrangian(space), the one constructor from a basis, reads
(E, omega) off the echelon rows once check_lagrangian, the one Lagrangian
test, passes; dorfman runs that test alone on its frame spans at its
sample points.  space, the canonical echelon basis, is one linalg
canonicalize of the pair's generator rows, and parts is a view on it;
linalg builds every echelon basis.  It skips the elimination on a full
subspace in preimage, intersect and coords, so on graphs sum, gauge,
pullback and negation eliminate nothing.

Memo: dirac_sum and pullback are pure functions of frozen, hashable values,
and a run asks for the same ones many times (the compatibility at one arrow
is checked by several suites, identity legs repeat their inputs).  Each
keeps one functools.cache per process, unbounded and with no knob; a miss
runs the same code, a hit returns the same frozen fiber, and an exception
is raised again on every call, never cached.  pushforward repeats few of
its inputs (11 of 46 calls on the torus verify); its work on f alone is
linalg.image_lifts', memoized there.  DiracFiber.space, parts and kernel
are views, read as attributes, built on first read and kept on the fiber.
"""

from __future__ import annotations

from functools import cache, cached_property
from operator import mul

from .linalg import (
    DimensionMismatch,
    LinMap,
    Subspace,
    Vec,
    ZERO,
    canonicalize,
    congruence,
    frac,
    full_subspace,
    image,
    image_lifts,
    kernel,
    preimage,
    vstack,
)
from .records import record


class NotLagrangian(ValueError):
    pass


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
        return TwoFormFiber(congruence(f, self.matrix))


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
    """L(E, omega): tangent is E = pr_V(L), omega the 2-form on E's echelon
    basis.  Build one from a basis with lagrangian."""

    tangent: Subspace
    omega: TwoFormFiber

    def __post_init__(self):
        if self.omega.dim != self.tangent.dim:
            raise DimensionMismatch("omega must be a 2-form on the tangent's basis")

    @property
    def n(self) -> int:
        return self.tangent.ambient_dim

    @cached_property
    def space(self) -> Subspace:
        """L's reduced echelon basis: canonicalize of the rows (b_j, xi_j)
        over E's basis b_j = r_j / r_j[p_j], with xi_j omega's row j at E's
        pivot columns, so that xi_j(b_i) = omega(b_j, b_i), and the rows
        (0, a) of L cap V* = Ann(E)."""
        n, e, w = self.n, self.tangent, self.omega.matrix
        rows = []
        for r, p, x in zip(e.rows, e.pivots, w.nums):
            row = [w.den * y for y in r] + [0] * n
            for q, y in zip(e.pivots, x):
                row[n + q] = r[p] * y
            rows.append(row)
        return canonicalize(rows + [(0,) * n + a for a in e.annihilator().rows], 2 * n)

    @cached_property
    def parts(self) -> tuple[LinMap, LinMap]:
        """(T, C): the V and V* rows of space.matrix, each an n x n map
        from basis coordinates, so that L = {(T x, C x) : x in Q^n}."""
        n = self.n
        m = self.space.matrix
        return m.row_block(0, n), m.row_block(n, 2 * n)

    @cached_property
    def kernel(self) -> Subspace:
        """ker L = L cap V = {X in E : i_X omega = 0}.  L is its own
        orthogonal, so (X, 0) is in L iff the V* part of every basis vector
        vanishes on X: ker C^T, which for E = V is ker omega."""
        return kernel(self.parts[1].transpose())


def check_lagrangian(space: Subspace) -> LinMap:
    """G = C^T T, for (T, C) the V and V* rows of space.matrix, or a
    NotLagrangian if the span is not Lagrangian.  G[i][j] = c_i(t_j), so
    the pairing of basis vectors i and j is G[i][j] + G[j][i]: the span is
    isotropic, so Lagrangian at dim n, iff G is antisymmetric."""
    if space.ambient_dim % 2:
        raise DimensionMismatch("Dirac fiber must live in an even ambient Q^{2n}")
    n = space.ambient_dim // 2
    if space.dim != n:
        raise NotLagrangian(f"dim {space.dim} != {n}")
    m = space.matrix
    g = m.row_block(n, 2 * n).transpose() @ m.row_block(0, n)
    if not g.is_antisymmetric():
        raise NotLagrangian("basis not isotropic")
    return g


def lagrangian(space: Subspace) -> DiracFiber:
    """The Dirac fiber with basis space: check_lagrangian's G, and E the
    canonicalize of the V parts of the d rows that lead in V, which are E's
    echelon basis up to scale.  G's first d rows and columns are omega; the
    other rows are (0, a), and G = 0 on them says that a annihilates E."""
    g = check_lagrangian(space)
    n = space.ambient_dim // 2
    d = sum(p < n for p in space.pivots)
    return DiracFiber(canonicalize([r[:n] for r in space.rows[:d]], n),
                      TwoFormFiber(LinMap.from_rows([r[:d] for r in g.entries[:d]], cols=d)))


def graph_two_form(omega: TwoFormFiber) -> DiracFiber:
    """L(V, omega), the span of (e_j, i_{e_j} omega); non-degenerate by
    construction."""
    return DiracFiber(full_subspace(omega.dim), omega)


def graph_bivector(pi: LinMap) -> DiracFiber:
    """Span of (pi(e_i*, .), e_i*), the image of (pi^T, I); its kernel meets
    V only at 0.

    The matrix entry pi[i][j] is the pairing of the bivector with
    (dx_i, dx_j), and contraction happens in the first slot.
    """
    if not pi.is_antisymmetric():
        raise ValueError("bivector matrix must be antisymmetric")
    n = pi.rows
    return lagrangian(image(vstack(pi.transpose(), LinMap.identity(n))))


def tangent_dirac(n: int) -> DiracFiber:
    return graph_two_form(TwoFormFiber.zero(n))


def cotangent_dirac(n: int) -> DiracFiber:
    return graph_bivector(LinMap.zero(n, n))


@cache
def dirac_sum(l1: DiracFiber, l2: DiracFiber) -> DiracFiber:
    """{(v, a1 + a2) : (v, ai) in Li} = L(E1 cap E2, w1|_E + w2|_E); each
    form is restricted through the coordinates of E's basis in Ei's."""
    if l1.n != l2.n:
        raise DimensionMismatch("dirac_sum: base dim mismatch")
    e = l1.tangent.intersect(l2.tangent)
    return DiracFiber(e, l1.omega.pullback(l1.tangent.coords(e.matrix))
                      .add(l2.omega.pullback(l2.tangent.coords(e.matrix))))


def dirac_negate(l: DiracFiber) -> DiracFiber:
    """{(v, -a) : (v, a) in L} = L(E, -omega)."""
    return DiracFiber(l.tangent, l.omega.neg())


def gauge(l: DiracFiber, b: TwoFormFiber) -> DiracFiber:
    if l.n != b.dim:
        raise DimensionMismatch("gauge: dim mismatch")
    return dirac_sum(l, graph_two_form(b))


@cache
def pullback(f: LinMap, l: DiracFiber) -> DiracFiber:
    """f*L = {(w, f^T a) : (f w, a) in L} for f : Q^m -> Q^n, which is
    L(f^-1 E, f*omega): omega pulled back along f from f^-1 E's basis to
    E's coordinates."""
    if f.rows != l.n:
        raise DimensionMismatch("pullback: map target must match fiber")
    e = preimage(f, l.tangent)
    return DiracFiber(e, l.omega.pullback(l.tangent.coords(f @ e.matrix)))


def pushforward(f: LinMap, l: DiracFiber) -> DiracFiber:
    """f_* L = {(f v, a) : (v, f^T a) in L} for surjective f : Q^n -> Q^m.

    That is L(f W, omega'), W = {X in E : i_X omega vanishes on E cap
    ker f} and omega'(f X, f Y) = omega(X, Y) on W, whatever the lifts.  In
    E's coordinates, image_lifts of F = f on E's basis gives E cap ker f,
    and of F on W's basis, f W and lifts in W; for E = V, F = f, and the
    onto test's memo entry serves all three.
    """
    if f.cols != l.n:
        raise DimensionMismatch("pushforward: map source must match fiber")
    if image_lifts(f).image.dim != f.rows:
        raise ValueError("pushforward requires a surjective map")
    e, w = l.tangent, l.omega
    fe = f @ e.matrix
    k = image_lifts(fe).kernel.matrix
    wk = kernel((w.matrix @ k).transpose()).matrix
    down = image_lifts(fe @ wk)
    return DiracFiber(down.image, w.pullback(wk @ down.lifts))
