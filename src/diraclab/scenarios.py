"""The scenario builders' entry points, and the pair, Dorfman-frame, line
and natural-transformation fixtures.

Every builder emits exact rational fibers and is deterministic given
(parameters, seed).  Each sampled groupoid has one builder:
build_pair_groupoid here for M x M, and in rotation build_cotangent_torus for
T*T^k and build_rotation_hamiltonian for a torus acting on C^n by rotations.
The point groupoid, the unit groupoids and the terminal morphism are
groupoid.point_bundle, groupoid.unit_groupoid and groupoid.morphism_to_point.

Each command loads only the modules its scenario runs: this module imports
at its top only what every builder needs (linalg, courant, records and
report), and each builder imports its groupoid, coisotropic, intersection,
morita, dorfman or rotation names itself, when it runs.  The entry points
of the rotation family (circle_scenario, torus_scenario, hamiltonian_check,
circle_orbit_datum, circle_reduction, run_reduction and
circle_nat_trans_fixture) stay here, where perfbench/layers.py names them,
and the code they share is in rotation, so the pair, Dorfman-frame and line
commands never compile it.  The Dorfman frames need none of groupoid,
coisotropic and intersection, and the pair and torus builders no
intersection.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .courant import (ThreeFormFiber, TwoFormFiber, graph_bivector, graph_two_form,
                      kernel_of, pullback, std_symplectic)
from .linalg import LinMap, block_diag, frac, hstack, image, kernel, vec, vstack
from .records import record, replace
from .report import ReductionHypothesisViolated, VerificationReport, witness_subspace

F = Fraction


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
# Hamiltonian circle / torus actions on C^n

def circle_scenario(n: int, level) -> RotationScenario:
    from .rotation import build_rotation_hamiltonian, level_points
    return build_rotation_hamiltonian(level_points(n, level), [[b for b in range(n)]],
                                      [(0,), (F(1, 2),), (F(-1, 2),), (1,)], "circle")


def torus_scenario(points) -> RotationScenario:
    from .rotation import build_rotation_hamiltonian
    return build_rotation_hamiltonian([vec(*p) for p in points], [[0], [1]],
                                      [(0, 0), (1, 0), (0, 1), (1, F(1, 2))], "torus")


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
    from .rotation import composable
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
# the reduction's samples

def circle_reduction(n: int, level) -> ReductionScenario:
    """S^1 acting on C^n, reduced at the given level.

    The sample atlas is kept at desk scale (>= 8 product points for n = 2,
    several per chart fiber for the invariance checks).
    """
    from .rotation import (ReductionScenario, build_rotation_hamiltonian, level_points,
                           moment_of)
    level = frac(level)
    if level == 0 and n == 1:
        raise ReductionHypothesisViolated(
            "level 0 for n = 1 is a fixed point: the quotient is not a chart")
    ts = (0, F(1, 2), F(-1, 2))
    pts = level_points(n, level, count=4 if n > 1 else None)
    scn = build_rotation_hamiltonian(pts, [[b for b in range(n)]],
                                     [(frac(t),) for t in ts], "circle")
    orbit = circle_orbit_datum(scn, level)

    level_idx = tuple(oi for p, oi in scn.obj_index.items()
                      if moment_of(p, scn.circles) == (level,))
    ts_pos = {ts: i for i, ts in enumerate(scn.ts_tuples)}
    arrow_pairs = tuple((ts_pos[ts], ai) for (p, ts), ai in scn.arrow_at.items()
                        if scn.obj_index[p] in level_idx)
    return ReductionScenario(scn, orbit, tuple((0, oi) for oi in level_idx), arrow_pairs)


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

def run_reduction(red: ReductionScenario):
    """Intersect with the orbit coisotropic, transfer to the quotient chart,
    and compare against the independent reduced-form oracle.

    Returns (reduced fibers per chart label, report).
    """
    from .groupoid import identity_morphism, morphism_to_point
    from .intersection import strong_exact_sequence, strong_intersection
    from .morita import MoritaEquivalenceDatum, NatTransFiber, transfer
    from .rotation import build_quotient_morphism, reduced_form_oracle

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
    from .rotation import (build_rotation_hamiltonian, circle_point, rational_sqrt,
                           rotation_for_circle)

    level = frac(level)
    r = rational_sqrt(2 * level)
    base = (r, F(0))
    orbit = [base, (F(0), r), (-r, F(0)), (F(0), -r)]
    scn = build_rotation_hamiltonian([vec(*p) for p in orbit], [[0]],
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
