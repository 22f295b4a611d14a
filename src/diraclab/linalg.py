"""Exact linear algebra over Q with a canonical subspace representation.

Everything downstream (Dirac fibers, groupoid fibers, reports) is built on
the two value types here: LinMap (a dense rational matrix) and Subspace
(a linear subspace of Q^n stored in reduced row echelon form, so that two
subspaces are equal iff their stored bases are identical tuples).

No floating point is used anywhere.

Integer core: Fraction appears only at the boundary.  Every value a caller
passes in or gets back (LinMap.entries, Subspace.basis, the results of dot,
kernel, solve) is a Fraction, but the two hot primitives work on Python
ints inside.  _rref clears each row's denominators, eliminates without
fractions while keeping every row primitive (its entries have gcd 1), and
divides by the pivot once, at the end; dot sums products of numerators over
a common denominator and builds a single Fraction.  Coordinates in a
Subspace basis are read, not solved: Subspace.coords returns v's entries at
the pivot columns of the echelon basis.

Relations: fiber_product(m1, m2) is the subspace {(x, y) : m1 x = m2 y},
the one primitive from which the Dirac operations and the checkers build
their fiber products; block_diag(a, d) is the map (x, y) -> (a x, d y).
Combined with image, they compose linear relations in the basis
coordinates of their inputs.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

Scalar = Fraction
Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


class DimensionMismatch(ValueError):
    pass


def frac(x) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {x!r}")


def vec(*entries) -> Vec:
    return tuple(frac(e) for e in entries)


def as_vec(entries) -> Vec:
    return tuple(frac(e) for e in entries)


def vec_add(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise DimensionMismatch(f"vec_add: {len(u)} vs {len(v)}")
    return tuple(a + b for a, b in zip(u, v))

def vec_sub(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise DimensionMismatch(f"vec_sub: {len(u)} vs {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v: Vec) -> Vec:
    c = frac(c)
    return tuple(c * a for a in v)


def vec_concat(u: Vec, v: Vec) -> Vec:
    return tuple(u) + tuple(v)


def dot(u: Vec, v: Vec) -> Fraction:
    """Exact u.v: integer products of numerators over a common denominator."""
    if len(u) != len(v):
        raise DimensionMismatch(f"dot: {len(u)} vs {len(v)}")
    num, den = 0, 1
    for a, b in zip(u, v):
        if a and b:
            p = a.numerator * b.numerator
            q = a.denominator * b.denominator
            if q == 1:
                num += p * den
                continue
            if den % q:
                m = q // gcd(den, q)
                num *= m
                den *= m
            num += p * (den // q)
    return Fraction(num, den) if num else ZERO


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def basis_vec(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def is_zero_vec(v: Vec) -> bool:
    return all(a == 0 for a in v)


@dataclass(frozen=True)
class LinMap:
    """A linear map Q^cols -> Q^rows, stored as a dense row-major matrix."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise DimensionMismatch("row count mismatch")
        for r in self.entries:
            if len(r) != self.cols:
                raise DimensionMismatch("col count mismatch")

    @staticmethod
    def from_rows(rows, cols: int | None = None) -> "LinMap":
        rows = tuple(tuple(frac(x) for x in r) for r in rows)
        if rows:
            cols = len(rows[0]) if cols is None else cols
        elif cols is None:
            raise DimensionMismatch("empty matrix needs explicit cols")
        return LinMap(len(rows), cols, rows)

    @staticmethod
    def from_cols(cols, rows_dim: int | None = None) -> "LinMap":
        cols = [as_vec(c) for c in cols]
        if cols:
            n = len(cols[0]) if rows_dim is None else rows_dim
        elif rows_dim is None:
            raise DimensionMismatch("empty matrix needs explicit rows")
        else:
            n = rows_dim
        return LinMap(n, len(cols), tuple(tuple(c[i] for c in cols) for i in range(n)))

    @staticmethod
    def identity(n: int) -> "LinMap":
        return LinMap(n, n, tuple(basis_vec(n, i) for i in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> "LinMap":
        return LinMap(rows, cols, tuple(zero_vec(cols) for _ in range(rows)))

    def apply(self, v: Vec) -> Vec:
        if len(v) != self.cols:
            raise DimensionMismatch(f"apply: map has {self.cols} cols, vector has {len(v)}")
        return tuple(dot(r, v) for r in self.entries)

    def __matmul__(self, other: "LinMap") -> "LinMap":
        if self.cols != other.rows:
            raise DimensionMismatch(f"matmul: {self.cols} vs {other.rows}")
        cols = [self.apply(c) for c in other.col_vectors()]
        return LinMap.from_cols(cols, rows_dim=self.rows)

    def __add__(self, other: "LinMap") -> "LinMap":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix add shape mismatch")
        return LinMap(self.rows, self.cols,
                      tuple(vec_add(a, b) for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "LinMap") -> "LinMap":
        return self + other.scale(-1)

    def scale(self, c) -> "LinMap":
        c = frac(c)
        return LinMap(self.rows, self.cols, tuple(vec_scale(c, r) for r in self.entries))

    def transpose(self) -> "LinMap":
        return LinMap(self.cols, self.rows,
                      tuple(tuple(self.entries[i][j] for i in range(self.rows))
                            for j in range(self.cols)))

    def col_vectors(self) -> list[Vec]:
        return [tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)]

    def is_zero(self) -> bool:
        return all(is_zero_vec(r) for r in self.entries)

    def is_antisymmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(self.entries[i][j] == -self.entries[j][i]
                   for i in range(self.rows) for j in range(self.rows))


def hstack(a: LinMap, b: LinMap) -> LinMap:
    if a.rows != b.rows:
        raise DimensionMismatch("hstack row mismatch")
    return LinMap(a.rows, a.cols + b.cols,
                  tuple(ra + rb for ra, rb in zip(a.entries, b.entries)))


def vstack(a: LinMap, b: LinMap) -> LinMap:
    if a.cols != b.cols:
        raise DimensionMismatch("vstack col mismatch")
    return LinMap(a.rows + b.rows, a.cols, a.entries + b.entries)


def block_diag(a: LinMap, d: LinMap) -> LinMap:
    """diag(a, d): the map (x, y) -> (a x, d y) on concatenated coordinates."""
    return vstack(hstack(a, LinMap.zero(a.rows, d.cols)),
                  hstack(LinMap.zero(d.rows, a.cols), d))


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _rref(rows: Sequence[Vec]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of the nonzero rows; returns (rows, pivot cols).

    Fraction is used only at the boundary.  Each row is scaled by the lcm of
    its denominators to a row of ints, and elimination stays fraction-free:
    row <- (p/g)*row - (f/g)*pivot_row with g = gcd(p, f), after which the
    row is kept primitive (divided by the gcd of its entries).  The division
    by the pivot happens once, at the end.  RREF is unique, so the result is
    the same as Gauss-Jordan elimination over Q.  The input is not modified.
    """
    if not rows:
        return [], []
    mat = []
    for row in rows:
        d = lcm(*(x.denominator for x in row))
        mat.append(_primitive([x.numerator * (d // x.denominator) for x in row]))
    nrows = len(mat)
    piv_cols = []
    r = 0
    for c in range(len(mat[0])):
        pivot = next((i for i in range(r, nrows) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        prow = mat[r]
        p = prow[c]
        for i in range(nrows):
            f = mat[i][c]
            if i != r and f:
                g = gcd(p, f)
                a, b = p // g, f // g
                mat[i] = _primitive([a * x - b * y for x, y in zip(mat[i], prow)])
        piv_cols.append(c)
        r += 1
        if r == nrows:
            break
    out = []
    for row, c in zip(mat, piv_cols):
        p = row[c]
        out.append([Fraction(x, p) if x else ZERO for x in row])
    return out, piv_cols


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^ambient_dim.

    basis holds the unique reduced-echelon spanning set (one vector per row,
    pivot-normalized), so equality of Subspaces is plain tuple equality.
    """

    ambient_dim: int
    basis: tuple[Vec, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _pivots(self) -> list[int]:
        """The pivot column of each basis row, in basis order."""
        return [next(i for i, x in enumerate(row) if x != 0) for row in self.basis]

    def contains(self, v: Vec) -> bool:
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("contains: ambient mismatch")
        res = list(v)
        for row, p in zip(self.basis, self._pivots()):
            if res[p] != 0:
                f = res[p]
                res = [x - f * y for x, y in zip(res, row)]
        return all(x == 0 for x in res)

    def coords(self, v: Vec) -> Vec | None:
        """The coordinates of v in the basis, or None if v is not in the span.

        The basis is in reduced echelon form: each row is 1 at its pivot
        column and every other row is 0 there, so the coefficient of a row
        is v's entry at that row's pivot.  No elimination is needed.
        """
        if not self.contains(v):
            return None
        return tuple(v[p] for p in self._pivots())

    def issubset(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("issubset: ambient mismatch")
        return all(other.contains(v) for v in self.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("sum: ambient mismatch")
        return canonicalize(list(self.basis) + list(other.basis), self.ambient_dim)

    def intersect(self, other: "Subspace") -> "Subspace":
        # kernel of the stacked annihilator constraints of both subspaces
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("intersect: ambient mismatch")
        n1 = self.annihilator()
        n2 = other.annihilator()
        constraints = LinMap.from_rows(list(n1.basis) + list(n2.basis), cols=self.ambient_dim)
        return kernel(constraints)

    def annihilator(self) -> "Subspace":
        """Covectors vanishing on the subspace, as a subspace of the dual."""
        m = LinMap.from_rows(list(self.basis), cols=self.ambient_dim)
        return kernel(m)

    def matrix(self) -> LinMap:
        """Basis vectors as matrix columns (column-echelon representative)."""
        return LinMap.from_cols(list(self.basis), rows_dim=self.ambient_dim)


def canonicalize(vectors, ambient_dim: int | None = None) -> Subspace:
    """The unique echelon representative of the span of the given vectors."""
    vectors = [as_vec(v) for v in vectors]
    if ambient_dim is None:
        if not vectors:
            raise DimensionMismatch("canonicalize of empty list needs ambient_dim")
        ambient_dim = len(vectors[0])
    for v in vectors:
        if len(v) != ambient_dim:
            raise DimensionMismatch("canonicalize: mixed ambient dimensions")
    rows, _ = _rref(vectors)
    return Subspace(ambient_dim, tuple(tuple(r) for r in rows))


def zero_subspace(ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim, ())


def full_subspace(ambient_dim: int) -> Subspace:
    return canonicalize([basis_vec(ambient_dim, i) for i in range(ambient_dim)], ambient_dim)


def span_sum(s1: Subspace, s2: Subspace) -> Subspace:
    return s1.sum(s2)


def intersect(s1: Subspace, s2: Subspace) -> Subspace:
    return s1.intersect(s2)


def annihilator(s: Subspace) -> Subspace:
    return s.annihilator()


def image(f: LinMap, s: Subspace | None = None) -> Subspace:
    if s is None:
        return canonicalize(f.col_vectors(), f.rows)
    if s.ambient_dim != f.cols:
        raise DimensionMismatch("image: ambient mismatch")
    return canonicalize([f.apply(v) for v in s.basis], f.rows)


def preimage(f: LinMap, s: Subspace) -> Subspace:
    """{x : F x in S}, computed as the kernel of ann(S) . F."""
    if s.ambient_dim != f.rows:
        raise DimensionMismatch("preimage: ambient mismatch")
    ann = s.annihilator()
    if ann.dim == 0:
        return full_subspace(f.cols)
    m = LinMap.from_rows(list(ann.basis), cols=f.rows) @ f
    return kernel(m)


def kernel(f: LinMap) -> Subspace:
    rows, piv_cols = _rref(f.entries)
    free_cols = [c for c in range(f.cols) if c not in piv_cols]
    gens = []
    for fc in free_cols:
        v = [ZERO] * f.cols
        v[fc] = ONE
        for r, pc in zip(rows, piv_cols):
            v[pc] = -r[fc]
        gens.append(tuple(v))
    return canonicalize(gens, f.cols)


def fiber_product(m1: LinMap, m2: LinMap) -> Subspace:
    """{(x, y) : m1 x = m2 y} as a subspace of the direct sum of the sources."""
    return kernel(hstack(m1, m2.scale(-1)))


def quotient_dim(s1: Subspace, s2: Subspace) -> int:
    if not s2.issubset(s1):
        raise DimensionMismatch("quotient_dim: subspaces not nested")
    return s1.dim - s2.dim


def solve(f: LinMap, b: Vec) -> Vec | None:
    """One solution of F x = b, or None.

    Deterministic: free variables are set to 0 in echelon order, so every
    lift built on top of solve is reproducible.
    """
    if len(b) != f.rows:
        raise DimensionMismatch("solve: rhs length mismatch")
    aug = [list(r) + [x] for r, x in zip(f.entries, b)]
    rows, piv_cols = _rref(aug)
    sol = [ZERO] * f.cols
    for r, pc in zip(rows, piv_cols):
        if pc == f.cols:  # pivot in the augmented column: inconsistent
            return None
        sol[pc] = r[f.cols]
    return tuple(sol)


def random_fraction(rng, bound: int = 8) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_matrix(rng, rows: int, cols: int, bound: int = 8) -> LinMap:
    return LinMap.from_rows([[random_fraction(rng, bound) for _ in range(cols)]
                             for _ in range(rows)], cols=cols)


def random_antisymmetric(rng, n: int, bound: int = 8) -> LinMap:
    m = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = random_fraction(rng, bound)
            m[i][j] = x
            m[j][i] = -x
    return LinMap.from_rows(m, cols=n)
