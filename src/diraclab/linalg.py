"""Exact linear algebra over Q with a canonical subspace representation.

Everything downstream (Dirac fibers, groupoid fibers, reports) is built on
the two value types here: LinMap (a dense rational matrix) and Subspace
(a linear subspace of Q^n given by its reduced row echelon form, so that two
subspaces are equal iff they are equal as values).

No floating point is used anywhere.

Representation: integer rows inside, Fraction only at the boundary.
- A LinMap holds integer numerators `nums` over one common denominator
  `den` > 0, normalised so that gcd(den, every numerator) = 1.
- A Subspace holds the primitive integer rows of its reduced echelon basis
  (the entries of each row have gcd 1, its pivot entry is positive) and
  their pivot columns.  Dividing such a row by its pivot entry gives the
  reduced echelon row over Q, and back, so the stored form is unique.
Both forms are unique, so record equality and hashing (records.record,
those of the field tuple) are exact.
Values a caller passes in (vector and matrix entries) may be ints,
Fractions or, where frac accepts them, 'p/q' strings; every value it gets
back is a Fraction or a LinMap.  LinMap.entries and Subspace.basis are
Fraction views, and Subspace.matrix the basis as matrix columns; each
is an attribute, built on first read and kept on the frozen object.
apply returns Fractions, solve and coords take and return whole LinMaps.
Products, sums, stacking, image, kernel, fiber_product, solve and the
membership tests run on ints throughout:
- _product, behind both LinMap.__matmul__ and image, multiplies row by row
  and touches only the nonzero entries of its left operand; the maps the
  scenarios build are mostly zeros and identity blocks.
- _rref_int eliminates fraction-free (Bareiss, "Sylvester's identity and
  multistep integer-preserving Gaussian elimination", Math. Comp. 22, 1968)
  and keeps every row primitive.  Each of image, kernel, solve,
  image_lifts and canonicalize eliminates once: kernel eliminates F with
  its columns reversed, which yields the kernel's reduced echelon rows.
Coordinates in a Subspace basis are read, not solved: Subspace.coords
returns M's rows at the pivot columns.  On the whole space nothing is
eliminated: coords returns M, intersect the other subspace, and the
annihilator, the preimage and the kernel of a zero map are written down.

Relations: fiber_product(m1, m2) is the subspace {(x, y) : m1 x = m2 y},
from which the checkers build their fiber products; block_diag(a, d) is the
map (x, y) -> (a x, d y).  With image, they compose linear relations.
congruence(f, M) = f^T M f pulls a form back along f: TwoFormFiber.pullback
and every checker call it, the one place that writes that transpose.

Memo: fiber_product, image_lifts and _composite, the product behind
LinMap.__matmul__, are pure functions of frozen LinMaps, and a run asks for
the same ones many times: a pushforward asks image_lifts about its map up
to three times, and 58-94% of the 388-4,759 products that a torus, pair or
circle verify or reduce command forms repeat an operand pair (an identity
factor returns the other; _composite.cache_info() after one command at
seed 0).  The Dorfman-frame and line commands form 20-25 products.
LinMap.identity and full_subspace are shared the same way.  Each keeps one
functools.cache per process, unbounded and with no knob.  A miss runs the
same code, a hit returns the same frozen value, and an exception is raised
again on every call, never cached; __matmul__ checks the shapes before it
asks the memo.  A kernel memo in place of fiber_product's ran no faster on
circle n = 2 and held more memory.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cache, cached_property, reduce
from math import gcd, lcm
from operator import matmul, mul, neg

from .records import record

Vec = tuple[Fraction, ...]
IntRows = tuple[tuple[int, ...], ...]

ZERO = Fraction(0)
ONE = Fraction(1)


class DimensionMismatch(ValueError):
    pass


def frac(x) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to Fraction.  A bool is not
    an exact scalar, although Python counts it as an int."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {x!r}")


def vec(*entries) -> Vec:
    return tuple(frac(e) for e in entries)


def vec_concat(u: Vec, v: Vec) -> Vec:
    return tuple(u) + tuple(v)


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def basis_vec(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def clear_denominators(v) -> tuple[list[int], int]:
    """(w, d): ints w and d > 0 with v = w / d, for a vector of ints or Fractions."""
    d = lcm(*[x.denominator for x in v])
    if d == 1:
        return [x.numerator for x in v], 1
    return [x.numerator * (d // x.denominator) for x in v], d


def _int_row(v) -> Sequence[int]:
    """A row of ints spanning the same line as v, an exact-scalar vector."""
    if set(map(type, v)) == {int}:
        return v
    return clear_denominators([frac(x) for x in v])[0]


def _transpose(rows: Sequence[Sequence[int]], ncols: int) -> IntRows:
    return tuple(zip(*rows)) if rows else ((),) * ncols


def _product(a: Sequence[Sequence[int]], b: IntRows, ncols: int) -> IntRows:
    """The integer matrix product a b, where b has ncols columns.

    Row by row (Gustavson, "Two fast algorithms for sparse matrices:
    multiplication and permuted transposition", ACM TOMS 4(3), 1978): row i
    of the product is the sum of the rows of b weighted by the nonzero
    entries of row i of a.  A lone weight of 1 shares b's row, and a row of
    a with no nonzero entry gives the one shared zero row.
    """
    zero = (0,) * ncols
    out = []
    for r in a:
        acc = None
        for x, row in zip(r, b):
            if not x:
                continue
            if acc is None:
                acc = row if x == 1 else [x * y for y in row]
            elif x == 1:
                acc = [s + y for s, y in zip(acc, row)]
            else:
                acc = [s + x * y for s, y in zip(acc, row)]
        out.append(zero if acc is None else tuple(acc))
    return tuple(out)


def _rescaled(m: "LinMap", den: int) -> IntRows:
    """m's numerators over den, a multiple of m.den."""
    if m.den == den:
        return m.nums
    k = den // m.den
    return tuple(tuple(k * x for x in r) for r in m.nums)


@cache
def _composite(a: "LinMap", b: "LinMap") -> "LinMap":
    """a . b for maps of matching shapes, normalised: LinMap.__matmul__'s product."""
    if b.den == 1 and b.nums == LinMap.identity(b.cols).nums:
        return a
    if a.den == 1 and a.nums == LinMap.identity(a.cols).nums:
        return b
    return _normalised(a.rows, b.cols, _product(a.nums, b.nums, b.cols), a.den * b.den)


def _normalised(rows: int, cols: int, nums: IntRows, den: int) -> "LinMap":
    """The LinMap nums / den with the common factor of den and nums divided out."""
    if den != 1:
        g = gcd(den, *[gcd(*r) for r in nums])
        if g != 1:
            den //= g
            nums = tuple(tuple(x // g for x in r) for r in nums)
    return LinMap(rows, cols, nums, den)


@record
class LinMap:
    """A linear map Q^cols -> Q^rows: the dense row-major matrix nums / den.

    Invariant: den > 0 and gcd(den, every numerator) = 1, so equal maps are
    equal values.  entries, the matrix as Fractions, is a view built on
    first read.  Build maps with from_rows, from_cols, identity or zero.
    """

    rows: int
    cols: int
    nums: IntRows
    den: int = 1

    @cached_property
    def entries(self) -> tuple[Vec, ...]:
        d = self.den
        return tuple(tuple(Fraction(x, d) if x else ZERO for x in r) for r in self.nums)

    @staticmethod
    def from_rows(rows, cols: int | None = None) -> "LinMap":
        rows = [[frac(x) for x in r] for r in rows]
        if rows:
            cols = len(rows[0]) if cols is None else cols
        elif cols is None:
            raise DimensionMismatch("empty matrix needs explicit cols")
        if any(len(r) != cols for r in rows):
            raise DimensionMismatch("col count mismatch")
        # over the lcm of the denominators, the gcd with den is already 1
        den = lcm(*[x.denominator for r in rows for x in r])
        return LinMap(len(rows), cols,
                      tuple(tuple(x.numerator * (den // x.denominator) for x in r)
                            for r in rows), den)

    @staticmethod
    def from_cols(cols, rows_dim: int | None = None) -> "LinMap":
        cols = list(cols)
        if not cols and rows_dim is None:
            raise DimensionMismatch("empty matrix needs explicit rows")
        return LinMap.from_rows(cols, rows_dim).transpose()

    @staticmethod
    @cache
    def identity(n: int) -> "LinMap":
        return LinMap(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> "LinMap":
        return LinMap(rows, cols, ((0,) * cols,) * rows)

    def apply(self, v: Vec) -> Vec:
        if len(v) != self.cols:
            raise DimensionMismatch(f"apply: map has {self.cols} cols, vector has {len(v)}")
        w, d = clear_denominators(v)
        d *= self.den
        sums = [sum(map(mul, r, w)) for r in self.nums]
        if d == 1:
            return tuple(Fraction(s) if s else ZERO for s in sums)
        return tuple(Fraction(s, d) if s else ZERO for s in sums)

    def __matmul__(self, other: "LinMap") -> "LinMap":
        """The composite self . other: each row of the product is the sum of
        other's rows weighted by the nonzero entries of self's row, over the
        product of the denominators, normalised.

        The product is memoized in _composite, because most of the
        products a command forms repeat an operand pair (module docstring):
        a repeat returns the same frozen LinMap.  The shapes are checked on
        every call, before the memo."""
        if self.cols != other.rows:
            raise DimensionMismatch(f"matmul: {self.cols} vs {other.rows}")
        return _composite(self, other)

    def __add__(self, other: "LinMap") -> "LinMap":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix add shape mismatch")
        den = lcm(self.den, other.den)
        return _normalised(self.rows, self.cols,
                           tuple(tuple(x + y for x, y in zip(r, s)) for r, s in
                                 zip(_rescaled(self, den), _rescaled(other, den))),
                           den)

    def __sub__(self, other: "LinMap") -> "LinMap":
        return self + other.scale(-1)

    def scale(self, c) -> "LinMap":
        c = frac(c)
        p = c.numerator
        return _normalised(self.rows, self.cols,
                           tuple(tuple(p * x for x in r) for r in self.nums),
                           self.den * c.denominator)

    def transpose(self) -> "LinMap":
        return LinMap(self.cols, self.rows, _transpose(self.nums, self.cols), self.den)

    def row_block(self, start: int, stop: int) -> "LinMap":
        """Rows start..stop-1: the map followed by the projection onto them."""
        if not 0 <= start <= stop <= self.rows:
            raise DimensionMismatch(f"row_block: rows {start}:{stop} of {self.rows}")
        return _normalised(stop - start, self.cols, self.nums[start:stop], self.den)

    def col_vectors(self) -> list[Vec]:
        return list(_transpose(self.entries, self.cols))

    def is_zero(self) -> bool:
        return not any(map(any, self.nums))

    def is_antisymmetric(self) -> bool:
        return self.rows == self.cols and all(
            r == tuple(map(neg, c)) for r, c in zip(self.nums, _transpose(self.nums, self.cols)))


def hstack(a: LinMap, b: LinMap) -> LinMap:
    if a.rows != b.rows:
        raise DimensionMismatch("hstack row mismatch")
    # over the lcm of two normalised denominators, the gcd stays 1
    den = lcm(a.den, b.den)
    return LinMap(a.rows, a.cols + b.cols,
                  tuple(ra + rb for ra, rb in zip(_rescaled(a, den), _rescaled(b, den))),
                  den)


def vstack(a: LinMap, b: LinMap) -> LinMap:
    if a.cols != b.cols:
        raise DimensionMismatch("vstack col mismatch")
    den = lcm(a.den, b.den)
    return LinMap(a.rows + b.rows, a.cols, _rescaled(a, den) + _rescaled(b, den), den)


def block_diag(a: LinMap, d: LinMap) -> LinMap:
    """diag(a, d): the map (x, y) -> (a x, d y) on concatenated coordinates."""
    den = lcm(a.den, d.den)
    right, left = (0,) * d.cols, (0,) * a.cols
    return LinMap(a.rows + d.rows, a.cols + d.cols,
                  tuple(r + right for r in _rescaled(a, den))
                  + tuple(left + r for r in _rescaled(d, den)), den)


def congruence(f: LinMap, *middle: LinMap) -> LinMap:
    """f^T M_1 ... M_k f, formed left to right as that chain of @ is."""
    return reduce(matmul, middle, f.transpose()) @ f


def _primitive(row: Sequence[int]) -> Sequence[int]:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _rref_int(mat: Sequence[Sequence[int]]) -> tuple[list[Sequence[int]], list[int]]:
    """Reduced row echelon form of an integer matrix; returns (rows, pivot cols).

    The rows returned are the nonzero rows of the echelon form, each
    primitive with a positive pivot entry, and zero at every other row's
    pivot column.  Elimination is fraction-free:
    row <- (p/g)*row - (f/g)*pivot_row with g = gcd(p, f), after which the
    row is kept primitive (divided by the gcd of its entries).  RREF is
    unique, so dividing each row by its pivot entry gives the same rows as
    Gauss-Jordan elimination over Q.  Neither mat nor its rows are modified.
    """
    if not mat:
        return [], []
    mat = [_primitive(r) for r in mat]
    nrows = len(mat)
    piv_cols = []
    r = 0
    for c in range(len(mat[0])):
        for pivot in range(r, nrows):
            if mat[pivot][c]:
                break
        else:
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
    out = [row if row[c] > 0 else [-x for x in row] for row, c in zip(mat, piv_cols)]
    return out, piv_cols


@record
class Subspace:
    """A subspace of Q^ambient_dim, given by its reduced echelon basis.

    rows holds that basis as primitive integer rows with a positive pivot
    entry, pivots their pivot columns; the reduced echelon form is unique,
    so equality of Subspaces is plain tuple equality.  basis, the
    pivot-normalised rows as Fractions (1 at each pivot), is a view built
    on first read.  Build subspaces with canonicalize, image or kernel.
    """

    ambient_dim: int
    rows: IntRows
    pivots: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.pivots) != len(self.rows):
            raise DimensionMismatch("a Subspace needs one pivot column per row")

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def basis(self) -> tuple[Vec, ...]:
        return tuple(tuple(Fraction(x, r[p]) if x else ZERO for x in r)
                     for r, p in zip(self.rows, self.pivots))

    def _spans(self, w: Sequence[int]) -> bool:
        """True iff the int row w lies in the span: eliminate w at each pivot."""
        for row, p in zip(self.rows, self.pivots):
            f = w[p]
            if f:
                g = gcd(row[p], f)
                a, b = row[p] // g, f // g
                w = [a * x - b * y for x, y in zip(w, row)]
        return not any(w)

    def contains(self, v: Vec) -> bool:
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("contains: ambient mismatch")
        return self._spans(clear_denominators(v)[0])

    def coords(self, m: LinMap) -> LinMap | None:
        """The coordinates of M's columns in the basis, as a map
        Q^{M.cols} -> Q^dim, or None if some column is not in the span.

        The basis is in reduced echelon form: each row is 1 at its pivot
        column and every other row is 0 there, so the coefficient of a row
        is a column's entry at that row's pivot.  No elimination is needed.
        """
        if m.rows != self.ambient_dim:
            raise DimensionMismatch("coords: ambient mismatch")
        if self.dim == self.ambient_dim:
            return m
        if not all(map(self._spans, _transpose(m.nums, m.cols))):
            return None
        return _normalised(self.dim, m.cols, tuple(m.nums[p] for p in self.pivots), m.den)

    def issubset(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("issubset: ambient mismatch")
        return all(other._spans(r) for r in self.rows)

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("sum: ambient mismatch")
        return _span(self.rows + other.rows, self.ambient_dim)

    def intersect(self, other: "Subspace") -> "Subspace":
        # kernel of the stacked annihilator constraints of both subspaces
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("intersect: ambient mismatch")
        if self.dim == self.ambient_dim:
            return other
        if other.dim == other.ambient_dim:
            return self
        constraints = self.annihilator().rows + other.annihilator().rows
        return kernel(LinMap(len(constraints), self.ambient_dim, constraints))

    def annihilator(self) -> "Subspace":
        """Covectors vanishing on the subspace, as a subspace of the dual."""
        if self.dim == self.ambient_dim:
            return Subspace(self.ambient_dim, ())
        return kernel(LinMap(self.dim, self.ambient_dim, self.rows))

    @cached_property
    def matrix(self) -> LinMap:
        """Basis vectors as matrix columns (column-echelon representative),
        a view built on first read."""
        # over the lcm of the pivot entries, each column keeps the gcd-1
        # entries of its primitive row, so the map is already normalised
        den = lcm(*[r[p] for r, p in zip(self.rows, self.pivots)])
        cols = [[(den // r[p]) * x for x in r] for r, p in zip(self.rows, self.pivots)]
        return LinMap(self.ambient_dim, self.dim, _transpose(cols, self.ambient_dim), den)


def _span(rows: Sequence[Sequence[int]], ambient_dim: int) -> Subspace:
    """The Subspace spanned by int rows, each of length ambient_dim."""
    out, piv_cols = _rref_int(rows)
    return Subspace(ambient_dim, tuple(map(tuple, out)), tuple(piv_cols))


def canonicalize(vectors, ambient_dim: int | None = None) -> Subspace:
    """The unique echelon representative of the span of the given vectors."""
    rows = [_int_row(v) for v in vectors]
    if ambient_dim is None:
        if not rows:
            raise DimensionMismatch("canonicalize of empty list needs ambient_dim")
        ambient_dim = len(rows[0])
    if any(len(r) != ambient_dim for r in rows):
        raise DimensionMismatch("canonicalize: mixed ambient dimensions")
    return _span(rows, ambient_dim)


@cache
def full_subspace(ambient_dim: int) -> Subspace:
    # the identity rows are already primitive and in reduced echelon form
    return Subspace(ambient_dim, LinMap.identity(ambient_dim).nums,
                    tuple(range(ambient_dim)))


def image(f: LinMap, s: Subspace | None = None) -> Subspace:
    """F(S), or the image of F when s is None.

    The rows of S F^T are F applied to S's basis rows, computed by the
    sparse product of __matmul__ and eliminated once.
    """
    ft = _transpose(f.nums, f.cols)
    if s is None:
        return _span(ft, f.rows)
    if s.ambient_dim != f.cols:
        raise DimensionMismatch("image: ambient mismatch")
    return _span(_product(s.rows, ft, f.rows), f.rows)


def preimage(f: LinMap, s: Subspace) -> Subspace:
    """{x : F x in S}, computed as the kernel of ann(S) . F."""
    if s.ambient_dim != f.rows:
        raise DimensionMismatch("preimage: ambient mismatch")
    if s.dim == s.ambient_dim:
        return full_subspace(f.cols)
    ann = s.annihilator()
    return kernel(LinMap(ann.dim, f.rows, ann.rows) @ f)


def kernel(f: LinMap) -> Subspace:
    """{x : F x = 0}, from one elimination of F with its columns reversed.

    A free column c of the reversed matrix gives the null vector
    e_c - sum of (row[c] / row[pc]) e_pc over the rows whose pivot pc comes
    before c.  Read back in the original order, that vector is zero before
    c and zero at every other free column, so, made primitive with a
    positive entry at c, it is already the kernel's reduced echelon row with
    pivot c, and the rows come out in pivot order.
    """
    n = f.cols
    if f.is_zero():
        return full_subspace(n)
    last = n - 1
    rows, piv_cols = _rref_int([r[::-1] for r in f.nums])
    pivs = set(piv_cols)
    out, pivots = [], []
    for c in reversed(range(n)):
        if c in pivs:
            continue
        # m times that vector, m the lcm of its pivots, at the original indices
        hits = [(r, pc) for r, pc in zip(rows, piv_cols) if r[c]]
        m = lcm(*[r[pc] for r, pc in hits])
        v = [0] * n
        v[last - c] = m
        for r, pc in hits:
            v[last - pc] = -r[c] * (m // r[pc])
        out.append(tuple(_primitive(v)))
        pivots.append(last - c)
    return Subspace(n, tuple(out), tuple(pivots))


@cache
def fiber_product(m1: LinMap, m2: LinMap) -> Subspace:
    """{(x, y) : m1 x = m2 y} as a subspace of the direct sum of the sources."""
    return kernel(hstack(m1, m2.scale(-1)))


@record
class ImageLifts:
    """im F and ker F, with lifts X of im F's echelon basis: F X = image.matrix."""

    image: Subspace
    kernel: Subspace
    lifts: LinMap


@cache
def image_lifts(f: LinMap) -> ImageLifts:
    """im F, ker F and lifts of im F's basis, from one elimination of [F^T | I].

    With F = nums / den, row j of [nums^T | den I] is den (F e_j, e_j), so
    every row (y, x) of its echelon form has F x = y.  The rows that lead in
    y are in reduced echelon form there: made primitive, they are im F's
    rows, and x over y's pivot entry lifts the matching basis vector.  The
    others are (0, x), the reduced echelon rows of ker F.
    """
    m, n = f.rows, f.cols
    rows, piv_cols = _rref_int([r + tuple(f.den * (i == j) for i in range(n))
                                for j, r in enumerate(_transpose(f.nums, n))])
    rank = sum(p < m for p in piv_cols)
    im = [r[:m] for r in rows[:rank]]
    den = lcm(*[y[p] for y, p in zip(im, piv_cols)])
    lifts = [[(den // y[p]) * x for x in r[m:]] for y, r, p in zip(im, rows, piv_cols)]
    return ImageLifts(Subspace(m, tuple(map(tuple, map(_primitive, im))), tuple(piv_cols[:rank])),
                      Subspace(n, tuple(tuple(r[m:]) for r in rows[rank:]),
                               tuple(p - m for p in piv_cols[rank:])),
                      _normalised(n, rank, _transpose(lifts, n), den))


def solve(f: LinMap, b: LinMap) -> LinMap | None:
    """One solution X of F X = B, or None if some column of B is not in the
    image of F.

    One elimination of [F | B]; free variables are set to 0 in echelon
    order, so column j of X is the same for every B with that column j, and
    every lift built on top of solve is reproducible.
    """
    if b.rows != f.rows:
        raise DimensionMismatch("solve: rhs rows mismatch")
    # with F = nums / den and B = bnums / bden:  F X = B  iff  (bden nums) X = den bnums
    n = f.cols
    rows, piv_cols = _rref_int([[b.den * x for x in r] + [f.den * y for y in s]
                                for r, s in zip(f.nums, b.nums)])
    if piv_cols and piv_cols[-1] >= n:  # a pivot among B's columns: inconsistent
        return None
    den = lcm(*[r[pc] for r, pc in zip(rows, piv_cols)])
    sol = [(0,) * b.cols] * n
    for r, pc in zip(rows, piv_cols):
        sol[pc] = tuple((den // r[pc]) * y for y in r[n:])
    return _normalised(n, b.cols, tuple(sol), den)


def random_fraction(rng, bound: int = 8) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_matrix(rng, rows: int, cols: int, bound: int) -> LinMap:
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
