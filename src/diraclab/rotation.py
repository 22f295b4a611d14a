"""The rotation family: a torus acting by rotations on C^n, its cotangent
groupoid over the moment levels, and the circle reduction's samples,
quotient chart and reduced-form oracle.

Rotations come from the rational parametrization (1 - t^2, 2t)/(1 + t^2) of
the circle, so differentials, translations and chart maps all stay in Q.
The composable pairs of both groupoids, and of the orbit restriction, come
from composable(), run once per scenario: build_rotation_hamiltonian keeps
its parameter positions as RotationScenario.triples.

Sample points are Fraction tuples, and hashing one hashes each entry again,
a modular inverse per Fraction.  build_rotation_hamiltonian therefore hashes
each distinct point once, gives it an int id, and builds on ids and
parameter positions; it keys obj_index and arrow_at by points once, at the
end.  The helpers compute on integers: moment_of, and chart_jacobian, which
is homogeneous of degree -1, clear the point's denominators first
(linalg.clear_denominators) and build one Fraction or one scale from the
integer result, and sum_blocks and moment_row_sum assign their entries
directly, because the blocks are disjoint.

The entry points (circle_scenario, torus_scenario, circle_reduction,
run_reduction and the others) live in scenarios and import from here when
they run, so only the circle and torus commands compile this module.  It
never imports scenarios.  It imports groupoid and coisotropic at its top:
every command that loads it runs checkers from both, so they are loaded
already.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .coisotropic import CoisotropicDatum
from .courant import ThreeFormFiber, TwoFormFiber, graph_two_form, std_symplectic
from .groupoid import (ArrowFiber, GroupoidFiberBundle, MorphismFiber, ObjectFiber,
                       make_pair, unit_arrow_at, unit_groupoid)
from .linalg import (LinMap, Vec, block_diag, clear_denominators, frac, hstack, image,
                     kernel, solve, vec, vstack)
from .records import record, replace
from .report import ReductionHypothesisViolated

F = Fraction


def circle_point(t) -> tuple[Fraction, Fraction]:
    """Rational point on the unit circle from the tangent-half parameter."""
    t = frac(t)
    den = 1 + t * t
    return ((1 - t * t) / den, 2 * t / den)


# ---------------------------------------------------------------------------
# cotangent groupoid of the k-torus

def compose_half_tangents(t1, t2):
    """Half-tangent parameter of the composed rotation (undefined at angle pi)."""
    t1, t2 = frac(t1), frac(t2)
    if t1 * t2 == 1:
        raise ValueError("composition hits the angle-pi chart boundary")
    return (t1 + t2) / (1 - t1 * t2)


def composable(ts_list) -> tuple:
    """The positions (t1, t2, t12) in ts_list of the sampled rotation
    parameters ts1, ts2, in ts_list order, whose composite ts12 is off the
    angle-pi chart boundary and is itself sampled, at position t12."""
    pos = {ts: i for i, ts in enumerate(ts_list)}
    out = []
    for t1, ts1 in enumerate(ts_list):
        for t2, ts2 in enumerate(ts_list):
            try:
                ts12 = tuple(compose_half_tangents(a, b) for a, b in zip(ts1, ts2))
            except ValueError:
                continue
            t12 = pos.get(ts12)
            if t12 is not None:
                out.append((t1, t2, t12))
    return tuple(out)


def build_cotangent_torus(points, ts_tuples, triples,
                          name: str) -> tuple[GroupoidFiberBundle, dict]:
    """T*T^k over R^k, k = len(points[0]): objects are the moment levels xi,
    arrows carry (rotation, xi), one per level and parameter tuple, and the
    pairs are the triples, composable(ts_tuples), at each level.  Returns
    the bundle and its arrow index, (level index, parameter tuple) -> arrow;
    the arrow at (li, ts_tuples[ti]) is arrow li * len(ts_tuples) + ti.

    In the basis (dtheta, dxi): rho = 0, sigma = -I, and the 2-form is
    omega = sum dxi_i ^ dtheta_i; s_* = t_* project onto dxi.
    """
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
    nts = len(ts_list)
    pairs = tuple(make_pair(arrows, li * nts + t1, li * nts + t2, li * nts + t12, m)
                  for li in range(len(points)) for t1, t2, t12 in triples)
    return GroupoidFiberBundle(objects, arrows, pairs, name=name), index


# ---------------------------------------------------------------------------
# Hamiltonian circle / torus actions on C^n

def _action_object(p: Vec, circles: list[int], n2: int) -> ObjectFiber:
    rho = LinMap.from_cols([sum_blocks(p, blocks) for blocks in circles],
                           rows_dim=n2)
    return ObjectFiber(n2, len(circles), rho, LinMap.zero(n2, len(circles)),
                       ThreeFormFiber.zero(n2))


def sum_blocks(p: Vec, blocks) -> Vec:
    """The generator of rotation on the given blocks at p: (x, y) -> (-y, x)
    on each listed block, zero on the others.  The blocks are distinct, so
    each entry is assigned once."""
    out = [F(0)] * len(p)
    for b in blocks:
        out[2 * b], out[2 * b + 1] = -p[2 * b + 1], p[2 * b]
    return tuple(out)


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


def moment_of(p: Vec, circles) -> tuple:
    """The moment of p, one level per circle factor: half the squared norm
    on the factor's blocks.  With p = w / d, w integer, that is
    sum w^2 / 2 d^2, one Fraction per factor."""
    w, d = clear_denominators(p)
    return tuple(F(sum(w[2 * b] ** 2 + w[2 * b + 1] ** 2 for b in blocks), 2 * d * d)
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
    triples: tuple             # composable(ts_tuples), positions in ts_tuples
    obj_index: dict            # point -> action-bundle object index
    arrow_at: dict             # (point, ts) -> action-bundle arrow index
    g_index: dict              # moment tuple -> base object index
    g_arrow_index: dict        # (base object index, ts) -> base arrow index


def build_rotation_hamiltonian(points: list[Vec], circles: list[list[int]],
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

    Each distinct point is hashed once, when it is first met, and gets an
    int id in that order; the build then runs on ids and parameter
    positions, and obj_index and arrow_at are keyed by points only at the
    end.  The arrow at (id i, position ti) is arrow i * len(ts_tuples) + ti.
    """
    n2 = len(points[0])
    k = len(circles)
    ts_tuples = [tuple(frac(t) for t in ts) for ts in ts_tuples]
    nts = len(ts_tuples)
    triples = composable(ts_tuples)

    g_points = sorted({moment_of(p, circles) for p in points})
    g_index = {m: i for i, m in enumerate(g_points)}
    g_bundle, g_arrow_index = build_cotangent_torus(g_points, ts_tuples, triples,
                                                    name=f"{name}.base")
    g_arrows = [[g_arrow_index[(li, ts)] for ts in ts_tuples]
                for li in range(len(g_points))]

    rots = []
    for ts in ts_tuples:
        m = LinMap.identity(n2)
        for blocks, t in zip(circles, ts):
            m = rotation_for_circle(*circle_point(t), blocks, n2) @ m
        rots.append(m)
    units = [all(t == 0 for t in ts) for ts in ts_tuples]

    pts: list[Vec] = []       # id -> point
    ids: dict[Vec, int] = {}  # point -> id

    def intern(p: Vec) -> int:
        i = ids.setdefault(p, len(pts))
        if i == len(pts):
            pts.append(p)
        return i

    def rotates(i: int) -> list[int]:
        return [intern(r.apply(pts[i])) for r in rots]

    # depth 0: the sampled points; depth 1: their rotates.  Arrows live at
    # both, so the arrow bases are ids 0 .. n_base - 1; rotated[i][ti] is
    # the id of point i rotated by ts_tuples[ti]
    for p in points:
        intern(vec(*p))
    n0 = len(pts)
    rotated = [rotates(i) for i in range(n0)]
    n_base = len(pts)
    rotated += [rotates(i) for i in range(n0, n_base)]

    # objects in the order the arrows first reach them: each base, then
    # its rotates; per object its fiber, moment differential c0 and base
    # object
    obj_of: dict[int, int] = {}
    for i in range(n_base):
        for j in (i, *rotated[i]):
            obj_of.setdefault(j, len(obj_of))
    objects: list[ObjectFiber] = []
    obj_map, c0 = [], []
    for j in obj_of:
        p = pts[j]
        objects.append(_action_object(p, circles, n2))
        c0.append(LinMap.from_rows([moment_row_sum(p, blocks) for blocks in circles],
                                   cols=n2))
        obj_map.append(g_index[moment_of(p, circles)])

    # the same at every arrow: s_* projects onto T_p, a^R = (a, 0), and the
    # unit section and the angle rows of c1 are the inclusion of T_p
    ident_k, zero_kn = LinMap.identity(k), LinMap.zero(k, n2)
    s_star = hstack(LinMap.zero(n2, k), LinMap.identity(n2))
    right = vstack(ident_k, LinMap.zero(n2, k))
    u_star = vstack(zero_kn, LinMap.identity(n2))
    c1_top = hstack(ident_k, zero_kn)
    arrows = []
    arrow_map = []
    c1_list = []
    for i in range(n_base):
        src = obj_of[i]
        # a^L = (a, -rho_p a); c1 is the identity on angles and mu_* on T_p
        left = vstack(ident_k, objects[src].rho.scale(-1))
        c1_mat = vstack(c1_top, hstack(LinMap.zero(k, k), c0[src]))
        for ti, r in enumerate(rots):
            tgt = obj_of[rotated[i][ti]]
            g_ai = g_arrows[obj_map[src]][ti]
            om = g_bundle.arrows[g_ai].omega.pullback(c1_mat) if pulled_omega else None
            arrows.append(ArrowFiber(src, tgt, k + n2,
                                     s_star, hstack(objects[tgt].rho, r), om, left, right,
                                     unit=units[ti], u_star=u_star if units[ti] else None))
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
    pairs = tuple(make_pair(arrows, rotated[i][t2] * nts + t1, i * nts + t2,
                            i * nts + t12, m)
                  for i in range(n0) for t1, t2, t12 in triples)
    c_bundle = GroupoidFiberBundle(objects, arrows, pairs, name=name)
    morph = MorphismFiber(c_bundle, g_bundle, tuple(obj_map), tuple(c0), cA,
                          tuple(arrow_map), tuple(c1_list))
    dirac = (graph_two_form(std_symplectic(n2)),) * len(objects)
    obj_index = {pts[j]: oi for j, oi in obj_of.items()}
    arrow_at = {(pts[i], ts): i * nts + ti
                for i in range(n_base) for ti, ts in enumerate(ts_tuples)}
    return RotationScenario(CoisotropicDatum(morph, dirac, name=name),
                            tuple(tuple(b) for b in circles), tuple(ts_tuples), triples,
                            obj_index, arrow_at, g_index, g_arrow_index)


def rotation_for_circle(c, s, blocks, n2: int) -> LinMap:
    rows = [[F(1) if i == j else F(0) for j in range(n2)] for i in range(n2)]
    for b in blocks:
        rows[2 * b][2 * b], rows[2 * b][2 * b + 1] = c, -s
        rows[2 * b + 1][2 * b], rows[2 * b + 1][2 * b + 1] = s, c
    return LinMap.from_rows(rows)


def moment_row_sum(p: Vec, blocks) -> list:
    """The moment differential of one circle factor at p: p on the
    factor's blocks, zero on the others."""
    out = [F(0)] * len(p)
    for b in blocks:
        out[2 * b], out[2 * b + 1] = p[2 * b], p[2 * b + 1]
    return out


# ---------------------------------------------------------------------------
# the reduction's samples, its quotient chart and its independent oracle

@record
class ReductionScenario:
    scn: RotationScenario
    orbit: CoisotropicDatum
    obj_pairs: tuple           # strong product object samples
    arrow_pairs: tuple         # strong product arrow samples


def chart_map(p: Vec) -> Vec:
    """The affine chart z1/z2 of the projective line, in real coordinates."""
    x1, y1, x2, y2 = p
    r2 = x2 * x2 + y2 * y2
    if r2 == 0:
        raise ReductionHypothesisViolated("chart undefined where z2 = 0")
    return ((x1 * x2 + y1 * y2) / r2, (y1 * x2 - x1 * y2) / r2)


def chart_jacobian(p: Vec) -> LinMap:
    """The differential of chart_map at p.  It is homogeneous of degree -1,
    so at p = w / d, w integer, it is d times its value at w, which is an
    integer matrix over r2^2, r2 = x2^2 + y2^2 at w: one scale."""
    (x1, y1, x2, y2), d = clear_denominators(p)
    r2 = x2 * x2 + y2 * y2
    q1 = x1 * x2 + y1 * y2
    q2 = y1 * x2 - x1 * y2
    rows = ((x2 * r2, y2 * r2, x1 * r2 - 2 * q1 * x2, y1 * r2 - 2 * q1 * y2),
            (-y2 * r2, x2 * r2, y1 * r2 - 2 * q2 * x2, -x1 * r2 - 2 * q2 * y2))
    return LinMap(2, 4, rows).scale(F(d, r2 * r2))


def reduced_form_oracle(p: Vec) -> TwoFormFiber:
    """Independent reduced symplectic form at chart(p), by direct linear
    algebra: restrict the standard form to ker(dmu), check the orbit
    direction is its radical against the chart, and push to chart basis
    vectors through arbitrary preimages."""
    n2 = len(p)
    z = kernel(LinMap.from_rows([list(p)], cols=n2)).matrix   # T_p of the level
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


def build_quotient_morphism(red: ReductionScenario, si):
    """The weak Morita morphism from the strong-product groupoid onto the
    quotient chart (trivial groupoid); returns (morphism, chart label map,
    chart index per product fiber).  At n = 2 the quotient is the point, the
    one-object chart "pt" with a 0-dimensional tangent."""
    n = 2 * len(red.scn.circles[0])
    if n == 2:
        chart, jacobian, dim = (lambda p: "pt"), (lambda p: LinMap.zero(0, 2)), 0
    elif n == 4:
        chart, jacobian, dim = chart_map, chart_jacobian, 2
    else:
        raise ReductionHypothesisViolated("charts shipped for n = 1, 2 only")
    inv_index = {i: p for p, i in red.scn.obj_index.items()}
    prod = si.datum.c_bundle

    labels = []
    jacs = {}
    chart_of = {}
    for k, f in enumerate(si.fibers):
        p = inv_index[f.base[1]]
        q = chart(p)
        if q not in labels:
            labels.append(q)
        chart_of[k] = labels.index(q)
        jacs[k] = jacobian(p)
    chart_bundle = unit_groupoid(dim, num_objects=len(labels), name="chart")
    chart_labels = dict(enumerate(labels))

    # the product tangent embeds in T_pt + T_M and the chart differential
    # factors through the M part
    obj_map, c0, cA = [], [], []
    for k, f in enumerate(si.fibers):
        obj_map.append(chart_of[k])
        inc = f.tangent.matrix
        c0.append(jacs[k] @ inc.row_block(inc.rows - n, inc.rows))
        cA.append(LinMap.zero(0, f.algebroid.dim))
    arrow_map, c1 = [], []
    for ar in prod.arrows:
        arrow_map.append(unit_arrow_at(chart_bundle, chart_of[ar.src]))
        # chart differential through either end; intertwining is validated
        c1.append(c0[ar.tgt] @ ar.t_star)
    quotient = MorphismFiber(prod, chart_bundle, tuple(obj_map), tuple(c0),
                             tuple(cA), tuple(arrow_map), tuple(c1))
    return quotient, chart_labels, chart_of
