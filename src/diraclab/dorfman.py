"""Polynomial-coefficient Courant bracket and involutivity certification.

Sections of TQ^n + T*Q^n are modeled with multivariate polynomial
coefficients over Q, so the bracket

    [[(v, a), (w, b)]] = ([v, w], i_v db + d i_v b - i_w da + i_w i_v phi)

is computed exactly.  Involutivity is certified by membership of bracket
values in the evaluated frame span at sampled rational points: rejection is
sound, acceptance is probabilistic in the choice of sample points.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import courant
from .linalg import Vec, ZERO, canonicalize, frac, vec, vec_concat
from .records import record
from .report import VerificationReport, witness_vector

Monomial = tuple[int, ...]


@record
class Poly:
    """Multivariate polynomial over Q; exponent vector -> coefficient."""

    arity: int
    terms: tuple[tuple[Monomial, Fraction], ...]

    @staticmethod
    def from_dict(arity: int, data: dict) -> "Poly":
        items = []
        for exps, c in sorted(data.items()):
            if len(exps) != arity:
                raise ValueError("monomial arity mismatch")
            c = frac(c)
            if c != 0:
                items.append((tuple(exps), c))
        return Poly(arity, tuple(items))

    @staticmethod
    def const(arity: int, c) -> "Poly":
        return Poly.from_dict(arity, {(0,) * arity: c})

    @staticmethod
    def var(arity: int, i: int) -> "Poly":
        return Poly.from_dict(arity, {tuple(int(j == i) for j in range(arity)): 1})

    def __add__(self, other: "Poly") -> "Poly":
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        data = dict(self.terms)
        for m, c in other.terms:
            data[m] = data.get(m, ZERO) + c
        return Poly.from_dict(self.arity, data)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(-1)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        data: dict = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = tuple(a + b for a, b in zip(m1, m2))
                data[m] = data.get(m, ZERO) + c1 * c2
        return Poly.from_dict(self.arity, data)

    def scale(self, c) -> "Poly":
        c = frac(c)
        return Poly.from_dict(self.arity, {m: c * k for m, k in self.terms})

    def diff(self, i: int) -> "Poly":
        data: dict = {}
        for m, c in self.terms:
            if m[i] == 0:
                continue
            dm = tuple(e - 1 if j == i else e for j, e in enumerate(m))
            data[dm] = data.get(dm, ZERO) + c * m[i]
        return Poly.from_dict(self.arity, data)

    def eval(self, point: Vec) -> Fraction:
        if len(point) != self.arity:
            raise ValueError("point arity mismatch")
        total = ZERO
        for m, c in self.terms:
            val = c
            for x, e in zip(point, m):
                for _ in range(e):
                    val *= x
            total += val
        return total

    def is_zero(self) -> bool:
        return not self.terms


def zero_poly(arity: int) -> Poly:
    return Poly(arity, ())


@record
class PolyForm:
    """Alternating k-form with Poly coefficients, on increasing index tuples."""

    arity: int
    degree: int
    comps: tuple[tuple[tuple[int, ...], Poly], ...]

    @staticmethod
    def from_dict(arity: int, degree: int, data: dict) -> "PolyForm":
        items = []
        for idx, p in sorted(data.items()):
            if len(idx) != degree or list(idx) != sorted(set(idx)):
                raise ValueError("form indices must be strictly increasing")
            if not p.is_zero():
                items.append((tuple(idx), p))
        return PolyForm(arity, degree, tuple(items))

    @staticmethod
    def zero(arity: int, degree: int) -> "PolyForm":
        return PolyForm(arity, degree, ())

    def comp(self, idx: tuple[int, ...]) -> Poly:
        key = tuple(sorted(idx))
        if len(set(idx)) != len(idx):
            return zero_poly(self.arity)
        sign = _perm_sign(idx)
        for k, p in self.comps:
            if k == key:
                return p if sign > 0 else p.scale(-1)
        return zero_poly(self.arity)

    def add(self, other: "PolyForm") -> "PolyForm":
        data = dict(self.comps)
        for k, p in other.comps:
            data[k] = data.get(k, zero_poly(self.arity)) + p
        return PolyForm.from_dict(self.arity, self.degree, data)

    def scale(self, c) -> "PolyForm":
        return PolyForm.from_dict(self.arity, self.degree,
                                  {k: p.scale(c) for k, p in self.comps})


def _perm_sign(idx) -> int:
    sign = 1
    idx = list(idx)
    for i in range(len(idx)):
        for j in range(i + 1, len(idx)):
            if idx[i] > idx[j]:
                sign = -sign
    return sign


def d(form: PolyForm) -> PolyForm:
    """Exterior derivative, coordinate formula."""
    n = form.arity
    data: dict = {}
    for idx, p in form.comps:
        for j in range(n):
            if j in idx:
                continue
            full = (j,) + idx
            key = tuple(sorted(full))
            sign = _perm_sign(full)
            q = p.diff(j) if sign > 0 else p.diff(j).scale(-1)
            data[key] = data.get(key, zero_poly(n)) + q
    return PolyForm.from_dict(n, form.degree + 1, data)


def contract(v: list[Poly], form: PolyForm) -> PolyForm:
    """Interior product i_v(form); first-slot contraction."""
    n = form.arity
    if len(v) != n:
        raise ValueError("vector field arity mismatch")
    if form.degree == 0:
        raise ValueError("cannot contract a 0-form")
    data: dict = {}
    for idx, p in form.comps:
        for pos, i in enumerate(idx):
            rest = idx[:pos] + idx[pos + 1:]
            q = v[i] * p
            if pos % 2 == 1:
                q = q.scale(-1)
            data[rest] = data.get(rest, zero_poly(n)) + q
    return PolyForm.from_dict(n, form.degree - 1, data)


def lie_bracket(v: list[Poly], w: list[Poly]) -> list[Poly]:
    """[v, w]_i = sum_j v_j d_j w_i - w_j d_j v_i."""
    n = len(v)
    if len(w) != n or any(p.arity != n for p in v + w):
        raise ValueError("vector field arity mismatch")
    out = []
    for i in range(n):
        acc = zero_poly(n)
        for j in range(n):
            acc = acc + v[j] * w[i].diff(j) - w[j] * v[i].diff(j)
        out.append(acc)
    return out


@record
class PolySection:
    """A section (v, alpha) of TQ^n + T*Q^n with polynomial components."""

    v: tuple[Poly, ...]
    alpha: tuple[Poly, ...]

    @property
    def arity(self) -> int:
        return len(self.v)

    def one_form(self) -> PolyForm:
        n = self.arity
        return PolyForm.from_dict(n, 1, {(i,): self.alpha[i] for i in range(n)})

    def eval(self, point: Vec) -> Vec:
        return vec_concat(tuple(p.eval(point) for p in self.v),
                          tuple(p.eval(point) for p in self.alpha))


def pairing(s1: PolySection, s2: PolySection) -> Poly:
    """<(v,a),(w,b)> = a(w) + b(v) as a polynomial function."""
    n = s1.arity
    acc = zero_poly(n)
    for i in range(n):
        acc = acc + s1.alpha[i] * s2.v[i] + s2.alpha[i] * s1.v[i]
    return acc


def dorfman_bracket(s1: PolySection, s2: PolySection, phi: PolyForm) -> PolySection:
    """([v,w], i_v db + d i_v b - i_w da + i_w i_v phi), exactly."""
    n = s1.arity
    if s2.arity != n or phi.arity != n or phi.degree != 3:
        raise ValueError("arity mismatch")
    v, w = list(s1.v), list(s2.v)
    a_form, b_form = s1.one_form(), s2.one_form()
    one = contract(v, d(b_form))
    ivb = contract(v, b_form)  # 0-form
    two = d(ivb)
    three = contract(w, d(a_form)).scale(-1)
    four = contract(w, contract(v, phi))
    cov = one.add(two).add(three).add(four)
    comps = [cov.comp((i,)) for i in range(n)]
    return PolySection(tuple(lie_bracket(v, w)), tuple(comps))


@record
class PolyDiracFrame:
    """A frame of n sections, pointwise spanning a Lagrangian subspace."""

    sections: tuple[PolySection, ...]
    phi: PolyForm

    @property
    def arity(self) -> int:
        return self.sections[0].arity


class FrameNotLagrangian(ValueError):
    """The frame fails to span a Lagrangian at a sample point.

    Distinct failure class from non-involutivity: the input data is
    malformed rather than the involutivity claim being false.
    """


def involutivity_check(frame: PolyDiracFrame, sample_points) -> VerificationReport:
    """Evaluate all bracket pairs at each point and test span membership."""
    n = frame.arity
    points = [vec(*p) for p in sample_points]
    if len(points) < 10:
        raise ValueError("need at least 10 sample points")
    if len(frame.sections) != n:
        raise ValueError("frame must have n sections")
    report = VerificationReport("dorfman.involutivity")

    spans = []
    for p in points:
        vals = [s.eval(p) for s in frame.sections]
        span = canonicalize(vals, 2 * n)
        if span.dim != n:
            raise FrameNotLagrangian(f"frame span has dim {span.dim} at {p}")
        try:
            courant.check_lagrangian(span)
        except courant.NotLagrangian:
            raise FrameNotLagrangian(f"frame not isotropic at {p}") from None
        spans.append(span)

    for i, j in itertools.combinations(range(len(frame.sections)), 2):
        br = dorfman_bracket(frame.sections[i], frame.sections[j], frame.phi)
        ok = True
        witness = None
        for p, span in zip(points, spans):
            val = br.eval(p)
            if not span.contains(val):
                ok = False
                witness = {"point": [str(x) for x in p],
                           "pair": [i, j],
                           **witness_vector(val)}
                break
        report.add(f"dorfman.involutivity.pair{i}{j}", ok,
                   detail=f"bracket of frame sections {i},{j} stays in the span",
                   witness=witness)
    return report
