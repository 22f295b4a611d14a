"""Closed-form scenario builders.

Every builder emits exact rational fibers: rotations come from the rational
parametrization (1 - t^2, 2t)/(1 + t^2) of the circle, so differentials,
translations and chart maps all stay in Q.  Builders are deterministic
given (parameters, seed).

Each sampled groupoid has one builder: build_pair_groupoid for M x M,
build_cotangent_torus for T*T^k (the circle is k = 1), and
_build_rotation_hamiltonian for a torus acting on C^n by rotations, whose
composable pairs all come from composable().  The point groupoid, the unit
groupoids and the terminal morphism are groupoid.point_bundle,
groupoid.unit_groupoid and groupoid.morphism_to_point.

Each command loads only the modules its scenario runs: this module imports
at its top only what every builder needs (linalg, courant, records and
report), and each builder imports its groupoid, coisotropic, intersection,
morita or dorfman names itself, when it runs.  The Dorfman frames need none
of groupoid, coisotropic and intersection, and the pair and torus builders
no intersection.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt

from .courant import (ThreeFormFiber, TwoFormFiber, graph_bivector, graph_two_form,
                      kernel_of, pullback)
from .linalg import (
    LinMap,
    Vec,
    block_diag,
    frac,
    hstack,
    image,
    kernel,
    solve,
    vec,
    vstack,
)
from .records import record, replace
from .report import VerificationReport, witness_subspace

F = Fraction


def circle_point(t) -> tuple[Fraction, Fraction]:
    """Rational point on the unit circle from the tangent-half parameter."""
    t = frac(t)
    den = 1 + t * t
    return ((1 - t * t) / den, 2 * t / den)


def std_symplectic(n2: int) -> TwoFormFiber:
    rows = [[F(0)] * n2 for _ in range(n2)]
    for i in range(0, n2, 2):
        rows[i][i + 1] = F(1)
        rows[i + 1][i] = F(-1)
    return TwoFormFiber(LinMap.from_rows(rows))


# ---------------------------------------------------------------------------
# pair groupoid of a constant symplectic vector space

def build_pair_groupoid(n: int, num_objects: int,
                        name: str = "pair") -> GroupoidFiberBundle:
    """Fibers of M x M over M for the standard symplectic form on Q^n, n even."""
    from .groupoid import ArrowFiber, GroupoidFiberBundle, ObjectFiber, make_pair
    omega = std_symplectic(n)
    sigma = omega.flat()  # sigma(a) = i_a omega
    obj = ObjectFiber(n, n, LinMap.identity(n), sigma, ThreeFormFiber.zero(n))
    objects = tuple(obj for _ in range(num_objects))

    # every arrow has the same differentials, 2-form and translations
    s_star = hstack(LinMap.zero(n, n), LinMap.identity(n))
    t_star = hstack(LinMap.identity(n), LinMap.zero(n, n))
    om = TwoFormFiber(block_diag(omega.matrix, omega.matrix.scale(-1)))
    left = vstack(LinMap.zero(n, n), LinMap.identity(n).scale(-1))
    right = vstack(LinMap.identity(n), LinMap.zero(n, n))
    u_star = vstack(LinMap.identity(n), LinMap.identity(n))

    def arrow(i: int, j: int) -> ArrowFiber:
        unit = i == j
        return ArrowFiber(j, i, 2 * n, s_star, t_star, om, left, right,
                          unit=unit, u_star=u_star if unit else None)

    # arrow (i, j) goes from object j to object i
    index = {}
    arrows = []
    for i in range(num_objects):
        for j in range(num_objects):
            index[(i, j)] = len(arrows)
            arrows.append(arrow(i, j))
    arrows = tuple(arrows)

    # (v_g, v_h) -> (first half of v_g, second half of v_h)
    m = block_diag(hstack(LinMap.identity(n), LinMap.zero(n, n)),
                   hstack(LinMap.zero(n, n), LinMap.identity(n)))
    pairs = []
    for i in range(num_objects):
        for j in range(num_objects):
            for k in range(num_objects):
                if (i + j + k) % 2 == 0 or num_objects <= 2:
                    pairs.append(make_pair(arrows, index[(i, j)], index[(j, k)],
                                           index[(i, k)], m))
    # pairs with a unit second factor exercise the translation identity
    for i in range(num_objects):
        for j in range(num_objects):
            if i != j:
                pairs.append(make_pair(arrows, index[(i, j)], index[(j, j)],
                                       index[(i, j)], m))
    return GroupoidFiberBundle(objects, arrows, tuple(pairs), name=name)


def corrupt_sigma(bundle: GroupoidFiberBundle) -> GroupoidFiberBundle:
    """One-bit corruption fixture: flip the sign of one sigma entry of object 0."""
    from .groupoid import GroupoidFiberBundle
    ob = bundle.objects[0]
    rows = [list(r) for r in ob.sigma.entries]
    i, j = next((i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x != 0)
    rows[i][j] = -rows[i][j]
    bad = replace(ob, sigma=LinMap.from_rows(rows, cols=ob.sigma.cols))
    objects = (bad,) + bundle.objects[1:]
    return GroupoidFiberBundle(objects, bundle.arrows, bundle.pairs,
                               name=f"{bundle.name}.corrupt-sigma")


# ---------------------------------------------------------------------------
# cotangent groupoid of the k-torus

def compose_half_tangents(t1, t2):
    """Half-tangent parameter of the composed rotation (undefined at angle pi)."""
    t1, t2 = frac(t1), frac(t2)
    if t1 * t2 == 1:
        raise ValueError("composition hits the angle-pi chart boundary")
    return (t1 + t2) / (1 - t1 * t2)


def composable(ts_list):
    """Yield (ts1, ts2, ts12) for the sampled rotation parameters, in ts_list
    order, whose composite ts12 is off the angle-pi chart boundary and is
    itself sampled."""
    for ts1 in ts_list:
        for ts2 in ts_list:
            try:
                ts12 = tuple(compose_half_tangents(a, b) for a, b in zip(ts1, ts2))
            except ValueError:
                continue
            if ts12 in ts_list:
                yield ts1, ts2, ts12


def build_cotangent_torus(points, ts_tuples, name: str) -> tuple[GroupoidFiberBundle, dict]:
    """T*T^k over R^k, k = len(points[0]): objects are the moment levels xi,
    arrows carry (rotation, xi), one per level and parameter tuple.  Returns
    the bundle and its arrow index, (level index, parameter tuple) -> arrow.

    In the basis (dtheta, dxi): rho = 0, sigma = -I, and the 2-form is
    omega = sum dxi_i ^ dtheta_i; s_* = t_* project onto dxi.
    """
    from .groupoid import ArrowFiber, GroupoidFiberBundle, ObjectFiber, make_pair
    k = len(points[0])
    ident, zero = LinMap.identity(k), LinMap.zero(k, k)
    objects = tuple(ObjectFiber(k, k, zero, ident.scale(-1), ThreeFormFiber.zero(k))
                    for _ in points)
    om = TwoFormFiber(vstack(hstack(zero, ident.scale(-1)), hstack(ident, zero)))
    proj = hstack(zero, ident)
    trans = vstack(ident, zero)
    u_star = vstack(zero, ident)
    ts_list = [tuple(frac(t) for t in ts) for ts in ts_tuples]
    arrows = []
    index = {}
    for li in range(len(points)):
        for ts in ts_list:
            unit = all(t == 0 for t in ts)
            index[(li, ts)] = len(arrows)
            arrows.append(ArrowFiber(li, li, 2 * k, proj, proj, om, trans, trans,
                                     unit=unit,
                                     u_star=u_star if unit else None))
    arrows = tuple(arrows)

    # (angles_g, xi_g, angles_h, xi_h) -> (angles_g + angles_h, xi_g)
    m = hstack(hstack(LinMap.identity(2 * k), trans), LinMap.zero(2 * k, k))
    triples = list(composable(ts_list))
    pairs = tuple(make_pair(arrows, index[(li, ts1)], index[(li, ts2)],
                            index[(li, ts12)], m)
                  for li in range(len(points)) for ts1, ts2, ts12 in triples)
    return GroupoidFiberBundle(objects, arrows, pairs, name=name), index


# ---------------------------------------------------------------------------
# Hamiltonian circle / torus actions on C^n

def _action_object(p: Vec, circles: list[int], n2: int) -> ObjectFiber:
    from .groupoid import ObjectFiber
    rho = LinMap.from_cols([sum_blocks(p, blocks) for blocks in circles],
                           rows_dim=n2)
    return ObjectFiber(n2, len(circles), rho, LinMap.zero(n2, len(circles)),
                       ThreeFormFiber.zero(n2))


def sum_blocks(p: Vec, blocks) -> Vec:
    """The generator of rotation on the given blocks at p: (x, y) -> (-y, x)
    on each listed block, zero on the others."""
    out = [F(0)] * len(p)
    for b in blocks:
        out[2 * b] -= p[2 * b + 1]
        out[2 * b + 1] += p[2 * b]
    return tuple(out)


def circle_scenario(n: int, level) -> RotationScenario:
    return _build_rotation_hamiltonian(level_points(n, level), [[b for b in range(n)]],
                                       [(0,), (F(1, 2),), (F(-1, 2),), (1,)], "circle")


def level_points(n: int, level, count: int | None = None) -> list[Vec]:
    """Rational points with sum |z_i|^2 = 2*level (needs a rational root)."""
    level = frac(level)
    r = rational_sqrt(2 * level)
    if r is None:
        raise ValueError(f"2*level = {2 * level} is not a rational square")
    base = [circle_point(t) for t in (0, 1, F(1, 2), F(-1, 3))]
    pts = []
    if n == 1:
        pts = [(r * c, r * s) for (c, s) in base]
    else:
        mixes = [circle_point(t) for t in (F(1, 2), F(1, 3), F(2, 5))]
        for lam, nu in mixes:
            for (c1, s1), (c2, s2) in zip(base, base[1:]):
                p = [r * lam * c1, r * lam * s1, r * nu * c2, r * nu * s2]
                p += [F(0)] * (2 * n - 4)
                pts.append(tuple(p))
    if count is not None:
        pts = pts[:count]
    return pts


def rational_sqrt(x) -> Fraction | None:
    """The non-negative rational square root of x, or None if there is none."""
    x = frac(x)
    if x < 0:
        return None
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn != x.numerator or rd * rd != x.denominator:
        return None
    return F(rn, rd)


def torus_scenario(points) -> RotationScenario:
    return _build_rotation_hamiltonian([vec(*p) for p in points], [[0], [1]],
                                       [(0, 0), (1, 0), (0, 1), (1, F(1, 2))], "torus")


def _moment_of(p: Vec, circles) -> tuple:
    return tuple(sum((p[2 * b] ** 2 + p[2 * b + 1] ** 2 for b in blocks), F(0)) / 2
                 for blocks in circles)


@record
class RotationScenario:
    """A rotation Hamiltonian scenario plus the index metadata needed to
    build orbit restrictions, product samples and quotient charts.

    datum is the Hamiltonian action as a coisotropic: the action groupoid
    over C^n, its moment morphism to the cotangent groupoid of the torus
    (c0 at each object is the moment differential) and the standard Dirac
    fibers of C^n."""

    datum: CoisotropicDatum
    circles: tuple             # rotated blocks, one entry per circle factor
    ts_tuples: tuple
    obj_index: dict            # point -> action-bundle object index
    arrow_at: dict             # (point, ts) -> action-bundle arrow index
    g_index: dict              # moment tuple -> base object index
    g_arrow_index: dict        # (base object index, ts) -> base arrow index


def _build_rotation_hamiltonian(points: list[Vec], circles: list[list[int]],
                                ts_tuples, name: str,
                                pulled_omega: bool = False) -> RotationScenario:
    """Shared builder: a torus (one factor per entry of `circles`) acting by
    rotations on C^n, against its cotangent groupoid over the moments.

    Arrows are sampled at the given points and at their once-rotated images,
    so the bundle carries genuine composable pairs (the composite rotation
    parameter must again lie in the sampled parameter set).

    With pulled_omega the action groupoid is equipped with the pullback of
    the base 2-form (a multiplicative form) and the matching infinitesimal
    sigma, so connection identities can be exercised on it.

    Each map is built once per value it depends on: the rotations once per
    parameter, the blocks shared by every arrow once, and the moment
    differential and the translations once per point.  Maps are frozen
    values, so sharing one across arrows changes nothing downstream.
    """
    from .coisotropic import CoisotropicDatum
    from .groupoid import ArrowFiber, GroupoidFiberBundle, MorphismFiber, make_pair
    n2 = len(points[0])
    k = len(circles)
    ts_tuples = [tuple(frac(t) for t in ts) for ts in ts_tuples]

    g_points = sorted({_moment_of(p, circles) for p in points})
    g_index = {m: i for i, m in enumerate(g_points)}
    g_bundle, g_arrow_index = build_cotangent_torus(g_points, ts_tuples,
                                                    name=f"{name}.base")

    rot = {}
    for ts in ts_tuples:
        m = LinMap.identity(n2)
        for blocks, t in zip(circles, ts):
            m = rotation_for_circle(*circle_point(t), blocks, n2) @ m
        rot[ts] = m

    # per object: its fiber, its moment differential c0 and its base object
    objects: list[ObjectFiber] = []
    obj_index: dict[Vec, int] = {}
    obj_map, c0 = [], []

    def add_object(p: Vec) -> int:
        if p not in obj_index:
            obj_index[p] = len(objects)
            objects.append(_action_object(p, circles, n2))
            c0.append(LinMap.from_rows([moment_row_sum(p, blocks) for blocks in circles],
                                       cols=n2))
            obj_map.append(g_index[_moment_of(p, circles)])
        return obj_index[p]

    # depth 0: sampled points; depth 1: their rotates (arrows live at both)
    arrow_base = []
    for p in points:
        p = vec(*p)
        if p not in arrow_base:
            arrow_base.append(p)
    points = list(arrow_base)
    rotated: dict[tuple, Vec] = {}  # (point, ts) -> the point rotated by ts
    for p in points:
        for ts in ts_tuples:
            rp = rotated[(p, ts)] = rot[ts].apply(p)
            if rp not in arrow_base:
                arrow_base.append(rp)

    # the same at every arrow: s_* projects onto T_p, a^R = (a, 0), and the
    # unit section and the angle rows of c1 are the inclusion of T_p
    ident_k, zero_kn = LinMap.identity(k), LinMap.zero(k, n2)
    s_star = hstack(LinMap.zero(n2, k), LinMap.identity(n2))
    right = vstack(ident_k, LinMap.zero(n2, k))
    u_star = vstack(zero_kn, LinMap.identity(n2))
    c1_top = hstack(ident_k, zero_kn)
    arrows = []
    arrow_at: dict[tuple, int] = {}
    arrow_map = []
    c1_list = []
    for p in arrow_base:
        src = add_object(p)
        # a^L = (a, -rho_p a); c1 is the identity on angles and mu_* on T_p
        left = vstack(ident_k, objects[src].rho.scale(-1))
        c1_mat = vstack(c1_top, hstack(LinMap.zero(k, k), c0[src]))
        for ts in ts_tuples:
            r = rot[ts]
            if (p, ts) not in rotated:
                rotated[(p, ts)] = r.apply(p)
            tgt = add_object(rotated[(p, ts)])
            unit = all(t == 0 for t in ts)
            g_ai = g_arrow_index[(obj_map[src], ts)]
            om = g_bundle.arrows[g_ai].omega.pullback(c1_mat) if pulled_omega else None
            arrow_at[(p, ts)] = len(arrows)
            arrows.append(ArrowFiber(src, tgt, k + n2,
                                     s_star, hstack(objects[tgt].rho, r), om, left, right,
                                     unit=unit, u_star=u_star if unit else None))
            c1_list.append(c1_mat)
            arrow_map.append(g_ai)
    arrows = tuple(arrows)
    cA = (ident_k,) * len(objects)
    if pulled_omega:
        objects = [replace(ob, sigma=c0[i].transpose()
                           @ g_bundle.objects[obj_map[i]].sigma @ cA[i])
                   for i, ob in enumerate(objects)]
    objects = tuple(objects)

    # (angles_g, w_g, angles_h, w_h) -> (angles_g + angles_h, w_h)
    m = hstack(block_diag(ident_k, LinMap.zero(n2, n2)), LinMap.identity(k + n2))
    triples = list(composable(ts_tuples))
    pairs = []
    for p in points:
        for ts1, ts2, ts12 in triples:
            pairs.append(make_pair(arrows, arrow_at[(rotated[(p, ts2)], ts1)],
                                   arrow_at[(p, ts2)], arrow_at[(p, ts12)], m))
    c_bundle = GroupoidFiberBundle(objects, arrows, tuple(pairs), name=name)
    morph = MorphismFiber(c_bundle, g_bundle, tuple(obj_map), tuple(c0), cA,
                          tuple(arrow_map), tuple(c1_list))
    dirac = (graph_two_form(std_symplectic(n2)),) * len(objects)
    return RotationScenario(CoisotropicDatum(morph, dirac, name=name),
                            tuple(tuple(b) for b in circles), tuple(ts_tuples),
                            obj_index, arrow_at, g_index, g_arrow_index)


def rotation_for_circle(c, s, blocks, n2: int) -> LinMap:
    rows = [[F(1) if i == j else F(0) for j in range(n2)] for i in range(n2)]
    for b in blocks:
        rows[2 * b][2 * b], rows[2 * b][2 * b + 1] = c, -s
        rows[2 * b + 1][2 * b], rows[2 * b + 1][2 * b + 1] = s, c
    return LinMap.from_rows(rows)


def moment_row_sum(p: Vec, blocks) -> list:
    out = [F(0)] * len(p)
    for b in blocks:
        out[2 * b] += p[2 * b]
        out[2 * b + 1] += p[2 * b + 1]
    return out


def hamiltonian_check(datum: CoisotropicDatum):
    """Compatibility (action form identity) and ker mu cap ker L = 0,
    cross-validated per object against the non-degeneracy map.  The moment
    differential mu_* at an object is the morphism's c0 there.  The
    compatibility records and the assembled maps are the datum's, computed
    once per datum; the records are relabelled ham.compat here."""
    from .coisotropic import ImageEscapesL
    rep = VerificationReport(f"hamiltonian.{datum.name}")
    rep.records.extend(replace(r, check_id="ham.compat") for r in datum.compatibility)
    for i in range(len(datum.c_bundle.objects)):
        ker_mu = kernel(datum.morphism.c0[i])
        ker_l = kernel_of(datum.dirac[i])
        nondeg = ker_mu.intersect(ker_l).dim == 0
        rep.add("ham.nondeg", nondeg,
                detail=f"object {i}: ker mu_* cap ker L = 0",
                witness=None if nondeg else witness_subspace(ker_mu.intersect(ker_l)))
        # the equivalence: surjectivity of the assembled map iff the kernel
        # condition, both computed independently
        assembly = datum.assemblies[i]
        if isinstance(assembly, ImageEscapesL):
            surj = False
        else:
            mat, fp = assembly
            surj = image(mat) == fp
        rep.add("ham.equivalence", surj == nondeg,
                detail=f"object {i}: coisotropic non-degeneracy <=> kernel condition")
    return rep


# ---------------------------------------------------------------------------
# orbit restriction of a rotation scenario

def circle_orbit_datum(scn: RotationScenario, level) -> CoisotropicDatum:
    """The restriction of the base groupoid to the orbit {level}.

    For the cotangent groupoid of a torus the orbits are points, so the
    restricted object fiber is zero-dimensional and the canonical orbit
    2-form vanishes; the datum is produced by the generic orbit constructor,
    which re-derives that instead of assuming it.
    """
    from .coisotropic import orbit_lagrangian
    from .groupoid import (ArrowFiber, GroupoidFiberBundle, MorphismFiber, ObjectFiber,
                           make_pair)
    k = len(scn.circles)
    level = (frac(level),) if k == 1 else tuple(frac(x) for x in level)
    g_bundle = scn.datum.g_bundle
    li = scn.g_index[level]
    ob_g = g_bundle.objects[li]

    zero, ident = LinMap.zero(0, k), LinMap.identity(k)
    obj = ObjectFiber(0, k, zero, zero, ThreeFormFiber.zero(0))
    # restricted arrow tangent is the angle directions only, at every arrow
    om, u_star = TwoFormFiber.zero(k), LinMap.zero(k, 0)
    units = [all(t == 0 for t in ts) for ts in scn.ts_tuples]
    arrows = tuple(ArrowFiber(0, 0, k, zero, zero, om, ident, ident, unit=unit,
                              u_star=u_star if unit else None) for unit in units)
    arrow_map = tuple(scn.g_arrow_index[(li, ts)] for ts in scn.ts_tuples)
    c1 = (vstack(ident, LinMap.zero(ob_g.dim, k)),) * len(arrows)

    m = hstack(LinMap.identity(k), LinMap.identity(k))   # (v_g, v_h) -> v_g + v_h
    ts_list = list(scn.ts_tuples)
    pairs = tuple(make_pair(arrows, ts_list.index(ts1), ts_list.index(ts2),
                            ts_list.index(ts12), m)
                  for ts1, ts2, ts12 in composable(ts_list))
    c_bundle = GroupoidFiberBundle((obj,), arrows, pairs,
                                   name=f"{scn.datum.name}.orbit")
    morph = MorphismFiber(c_bundle, g_bundle, (li,), (LinMap.zero(ob_g.dim, 0),),
                          (ident,), arrow_map, c1)
    return orbit_lagrangian(morph)


# ---------------------------------------------------------------------------
# reduction pipeline and its independent oracle

@record
class ReductionScenario:
    scn: RotationScenario
    orbit: CoisotropicDatum
    obj_pairs: tuple           # strong product object samples
    arrow_pairs: tuple         # strong product arrow samples


def circle_reduction(n: int, level) -> ReductionScenario:
    """S^1 acting on C^n, reduced at the given level.

    The sample atlas is kept at desk scale (>= 8 product points for n = 2,
    several per chart fiber for the invariance checks).
    """
    level = frac(level)
    if level == 0 and n == 1:
        raise ReductionHypothesisViolated(
            "level 0 for n = 1 is a fixed point: the quotient is not a chart")
    ts = (0, F(1, 2), F(-1, 2))
    pts = level_points(n, level, count=4 if n > 1 else None)
    scn = _build_rotation_hamiltonian(pts, [[b for b in range(n)]],
                                      [(frac(t),) for t in ts], "circle")
    orbit = circle_orbit_datum(scn, level)

    level_idx = tuple(oi for p, oi in scn.obj_index.items()
                      if _moment_of(p, scn.circles) == (level,))
    ts_pos = {ts: i for i, ts in enumerate(scn.ts_tuples)}
    arrow_pairs = tuple((ts_pos[ts], ai) for (p, ts), ai in scn.arrow_at.items()
                        if scn.obj_index[p] in level_idx)
    return ReductionScenario(scn, orbit, tuple((0, oi) for oi in level_idx), arrow_pairs)


class ReductionHypothesisViolated(ValueError):
    pass


def chart_map(p: Vec) -> Vec:
    """The affine chart z1/z2 of the projective line, in real coordinates."""
    x1, y1, x2, y2 = p
    r2 = x2 * x2 + y2 * y2
    if r2 == 0:
        raise ReductionHypothesisViolated("chart undefined where z2 = 0")
    return ((x1 * x2 + y1 * y2) / r2, (y1 * x2 - x1 * y2) / r2)


def chart_jacobian(p: Vec) -> LinMap:
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


def reduced_form_oracle(p: Vec) -> TwoFormFiber:
    """Independent reduced symplectic form at chart(p), by direct linear
    algebra: restrict the standard form to ker(dmu), check the orbit
    direction is its radical against the chart, and push to chart basis
    vectors through arbitrary preimages."""
    n2 = len(p)
    z = kernel(LinMap.from_rows([list(p)], cols=n2)).matrix()   # T_p of the level
    omega = std_symplectic(n2)
    jac_on_z = chart_jacobian(p) @ z
    # well-definedness: the orbit direction spans ker(dpi|_Z) and is in the
    # radical of the restricted form
    orbit = solve(z, LinMap.from_cols([sum_blocks(p, range(n2 // 2))], rows_dim=n2))
    if orbit is None:
        raise ReductionHypothesisViolated("orbit direction leaves the level tangent")
    if image(orbit) != kernel(jac_on_z):
        raise ReductionHypothesisViolated("chart kernel is not the orbit direction")
    if not (omega.pullback(z).matrix @ orbit).is_zero():
        raise ReductionHypothesisViolated("orbit direction not in the radical")
    x = solve(jac_on_z, LinMap.identity(2))
    if x is None:
        raise ReductionHypothesisViolated("chart differential not surjective")
    return omega.pullback(z @ x)


# ---------------------------------------------------------------------------
# polynomial fixtures; each imports the dorfman module only when it is built

def build_lie_poisson_so3() -> PolyDiracFrame:
    """Linear-Poisson frame on the dual of so(3): pi_ij = eps_ijk x_k."""
    from .dorfman import Poly, PolyDiracFrame, PolyForm, PolySection, zero_poly
    n = 3
    x, y, z = (Poly.var(n, i) for i in range(n))
    zero = zero_poly(n)

    def cv(*vals):
        return [Poly.const(n, v) for v in vals]

    s1 = PolySection((zero, z, y.scale(-1)), tuple(cv(1, 0, 0)))
    s2 = PolySection((z.scale(-1), zero, x), tuple(cv(0, 1, 0)))
    s3 = PolySection((y, x.scale(-1), zero), tuple(cv(0, 0, 1)))
    return PolyDiracFrame((s1, s2, s3), PolyForm.zero(n, 3))


def graph_frame_with_twist() -> PolyDiracFrame:
    """Frame of graph(omega) on Q^3 with its compatible twist -d(omega)."""
    from .dorfman import Poly, PolyDiracFrame, PolyForm, PolySection, contract, d
    n = 3
    x1 = Poly.var(n, 0)
    omega = PolyForm.from_dict(n, 2, {(1, 2): x1 * x1, (0, 1): x1})
    phi = d(omega).scale(-1)
    sections = []
    for i in range(n):
        e = [Poly.const(n, 1 if j == i else 0) for j in range(n)]
        alpha = contract(e, omega)
        sections.append(PolySection(tuple(e),
                                    tuple(alpha.comp((j,)) for j in range(n))))
    return PolyDiracFrame(tuple(sections), phi)


def mismatched_twist_frame() -> PolyDiracFrame:
    """The same graph frame with twist 0 instead of -d(omega): rejected."""
    from .dorfman import PolyDiracFrame, PolyForm
    good = graph_frame_with_twist()
    return PolyDiracFrame(good.sections, PolyForm.zero(3, 3))


def involutivity_points(seed: int) -> list:
    """Twenty nonzero rational points of Q^3 drawn from the seed."""
    rng = random.Random(seed)
    pts = []
    while len(pts) < 20:
        p = tuple(F(rng.randint(-2 ** 16, 2 ** 16), rng.randint(1, 9))
                  for _ in range(3))
        if any(x != 0 for x in p):
            pts.append(p)
    return pts


# ---------------------------------------------------------------------------
# the plane bivector restricted to a line (pullback / rank-jump fixture)

@record
class LineBivectorFixture:
    """c : Q -> Q^2, t -> (t, 0), against pi = x d/dx ^ d/dy."""

    params: tuple              # sampled t values
    cmaps: tuple               # inclusion differentials
    l_m: tuple                 # bivector graph fibers over the plane
    l_n: tuple                 # pointwise pullback fibers over the line


def line_bivector_fixture() -> LineBivectorFixture:
    params = (F(1), F(0), F(2), F(-1, 2))
    cmaps = []
    l_m = []
    l_n = []
    for t in params:
        c = LinMap.from_rows([[1], [0]])
        pi = LinMap.from_rows([[0, t], [-t, 0]])
        lm = graph_bivector(pi)
        cmaps.append(c)
        l_m.append(lm)
        l_n.append(pullback(c, lm))
    return LineBivectorFixture(params, tuple(cmaps), tuple(l_m), tuple(l_n))


# ---------------------------------------------------------------------------
# the full reduction pipeline

def build_quotient_morphism(red: ReductionScenario, si):
    """The weak Morita morphism from the strong-product groupoid onto the
    quotient chart (trivial groupoid); returns (morphism, chart label map,
    chart index per product fiber)."""
    from .groupoid import MorphismFiber, point_bundle, unit_groupoid
    n = 2 * len(red.scn.circles[0])
    inv_index = {i: p for p, i in red.scn.obj_index.items()}
    prod = si.datum.c_bundle

    if n == 2:
        chart_bundle = point_bundle(name="chart")
        chart_of = {k: 0 for k in range(len(si.fibers))}
        jacs = {k: LinMap.zero(0, 2) for k in range(len(si.fibers))}
        chart_labels = {0: "pt"}
    elif n == 4:
        labels = []
        jacs = {}
        chart_of = {}
        for k, f in enumerate(si.fibers):
            p = inv_index[f.base[1]]
            q = chart_map(p)
            if q not in labels:
                labels.append(q)
            chart_of[k] = labels.index(q)
            jacs[k] = chart_jacobian(p)
        chart_bundle = unit_groupoid(2, num_objects=len(labels), name="chart")
        chart_labels = {i: q for i, q in enumerate(labels)}
    else:
        raise ReductionHypothesisViolated("charts shipped for n = 1, 2 only")

    # the product tangent embeds in T_pt + T_M and the chart differential
    # factors through the M part
    obj_map, c0, cA = [], [], []
    for k, f in enumerate(si.fibers):
        obj_map.append(chart_of[k])
        inc = f.tangent.matrix()
        c0.append(jacs[k] @ inc.row_block(inc.rows - n, inc.rows))
        cA.append(LinMap.zero(0, f.algebroid.dim))
    unit_of_chart = {}
    for k, ar in enumerate(chart_bundle.arrows):
        unit_of_chart[ar.src] = k
    arrow_map, c1 = [], []
    for ar in prod.arrows:
        arrow_map.append(unit_of_chart[chart_of[ar.src]])
        # chart differential through either end; intertwining is validated
        c1.append(c0[ar.tgt] @ ar.t_star)
    quotient = MorphismFiber(prod, chart_bundle, tuple(obj_map), tuple(c0),
                             tuple(cA), tuple(arrow_map), tuple(c1))
    return quotient, chart_labels, chart_of


def run_reduction(red: ReductionScenario):
    """Intersect with the orbit coisotropic, transfer to the quotient chart,
    and compare against the independent reduced-form oracle.

    Returns (reduced fibers per chart label, report).
    """
    from .groupoid import identity_morphism, morphism_to_point
    from .intersection import strong_exact_sequence, strong_intersection
    from .morita import MoritaEquivalenceDatum, NatTransFiber, transfer

    rep = VerificationReport(f"reduction.{red.scn.datum.name}")
    n = 2 * len(red.scn.circles[0])   # real dimension of the acted-on space

    si = strong_intersection(red.orbit, red.scn.datum,
                             list(red.obj_pairs), list(red.arrow_pairs))
    rep.add("reduction.intersection", si.report.passed,
            detail="strong intersection with the orbit coisotropic")
    if not si.report.passed or si.datum is None:
        rep.merge(si.report)
        return {}, rep
    seq = strong_exact_sequence(red.orbit, red.scn.datum, si)
    rep.add("reduction.exact_sequence", seq.passed,
            detail="the intersection exact sequence holds")

    quotient, chart_labels, chart_of = build_quotient_morphism(red, si)
    prod = si.datum.c_bundle
    chart_bundle = quotient.cod
    inv_index = {i: p for p, i in red.scn.obj_index.items()}

    # wrap as a weak Morita equivalence over the point and transfer
    pt = si.datum.g_bundle
    ident_k = identity_morphism(prod)
    to_point = si.datum.morphism
    chart_to_point = morphism_to_point(chart_bundle, pt)
    theta = {x: NatTransFiber(0, LinMap.zero(0, prod.objects[x].dim))
             for x in range(len(prod.objects))}
    m = MoritaEquivalenceDatum(
        ident_k, quotient, to_point,
        identity_morphism(pt), identity_morphism(pt),
        to_point, chart_to_point, theta, theta,
        (TwoFormFiber.zero(0),), (ThreeFormFiber.zero(0),),
        tuple(TwoFormFiber.zero(o.dim) for o in prod.objects))
    res = transfer(m, list(si.dirac))
    rep.add("reduction.transfer", res.report.passed,
            detail="transfer along the quotient weak Morita morphism")
    if not res.report.passed:
        rep.merge(res.report)
        return {}, rep

    # oracle comparison, per sampled product point
    reduced = {}
    for ci in sorted(set(chart_of.values())):
        reduced[chart_labels[ci]] = res.dirac[ci]
    if n == 4:
        for k, f in enumerate(si.fibers):
            p = inv_index[f.base[1]]
            oracle = graph_two_form(reduced_form_oracle(p))
            rep.add("reduction.oracle", res.dirac[chart_of[k]] == oracle,
                    detail=f"chart point {chart_labels[chart_of[k]]}: pipeline fiber "
                           "equals the reduced-form oracle")
    else:
        for ci in sorted(set(chart_of.values())):
            rep.add("reduction.oracle", res.dirac[ci].space.dim == 0,
                    detail="point chart: reduced fiber is the zero space")
    return reduced, rep


# ---------------------------------------------------------------------------
# natural-transformation fixtures for the homotopy identity suite

@record
class NatTransFixture:
    f: MorphismFiber
    g: MorphismFiber
    theta: dict
    eta: dict
    inverse_pairs: dict        # object -> pair index of (theta(x), eta(x))


def pair_nat_trans_fixture(n: int = 2) -> NatTransFixture:
    """On the pair groupoid, a linear map P induces a morphism, and
    theta(x) = (P x, x) is a natural transformation from the identity to it."""
    from .groupoid import MorphismFiber, identity_morphism
    from .morita import NatTransFiber

    bundle = build_pair_groupoid(n, num_objects=1, name="pair.nat")
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    rows[0][n - 1] += 2   # a shear, to keep P nontrivial
    p_mat = LinMap.from_rows(rows)
    f = identity_morphism(bundle)
    g = MorphismFiber(bundle, bundle, (0,), (p_mat,), (p_mat,), (0,),
                      (block_diag(p_mat, p_mat),))
    arrow = 0   # the sampled (0 -> 0) arrow fiber stands in for (P x, x)
    theta = {0: NatTransFiber(arrow, vstack(p_mat, LinMap.identity(n)))}
    eta = {0: NatTransFiber(arrow, vstack(LinMap.identity(n), p_mat))}
    pair_idx = next(i for i, p in enumerate(bundle.pairs)
                    if p.g == arrow and p.h == arrow and p.gh == arrow)
    return NatTransFixture(f, g, theta, eta, {0: pair_idx})


def circle_nat_trans_fixture(level) -> NatTransFixture:
    """On the circle action groupoid over a 90-degree-closed orbit, the
    rotation by the group element t = 1 is homotopic to the identity."""
    from .groupoid import MorphismFiber, identity_morphism
    from .morita import NatTransFiber

    level = frac(level)
    r = rational_sqrt(2 * level)
    base = (r, F(0))
    orbit = [base, (F(0), r), (-r, F(0)), (F(0), -r)]
    scn = _build_rotation_hamiltonian([vec(*p) for p in orbit], [[0]],
                                      [(F(0),), (F(1),), (F(-1),)],
                                      name="circle.nat", pulled_omega=True)
    bundle = scn.datum.c_bundle
    rot = rotation_for_circle(*circle_point(1), [0], 2)

    obj_map = []
    c0 = []
    cA = []
    inv = {i: p for p, i in scn.obj_index.items()}
    for i in range(len(bundle.objects)):
        q = rot.apply(inv[i])
        obj_map.append(scn.obj_index[q])
        c0.append(rot)
        cA.append(LinMap.identity(1))
    arrow_map = []
    c1 = []
    arrow_inv = {ix: key for key, ix in scn.arrow_at.items()}
    for a in range(len(bundle.arrows)):
        p, ts = arrow_inv[a]
        arrow_map.append(scn.arrow_at[(rot.apply(p), ts)])
        c1.append(block_diag(LinMap.identity(1), rot))
    g = MorphismFiber(bundle, bundle, tuple(obj_map), tuple(c0), tuple(cA),
                      tuple(arrow_map), tuple(c1))
    f = identity_morphism(bundle)

    theta = {}
    eta = {}
    inverse_pairs = {}
    n2 = 2
    for i in range(len(bundle.objects)):
        p = inv[i]
        th_arrow = scn.arrow_at[(p, (F(1),))]
        theta[i] = NatTransFiber(th_arrow, vstack(LinMap.zero(1, n2), LinMap.identity(n2)))
        et_arrow = scn.arrow_at[(rot.apply(p), (F(-1),))]
        eta[i] = NatTransFiber(et_arrow, vstack(LinMap.zero(1, n2), rot))
        for k, pr in enumerate(bundle.pairs):
            if pr.g == th_arrow and pr.h == et_arrow:
                inverse_pairs[i] = k
                break
        else:
            raise ValueError("inverse pair not sampled")
    return NatTransFixture(f, g, theta, eta, inverse_pairs)
