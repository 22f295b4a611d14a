"""Strong and homotopy fiber-product intersections of coisotropic data over
a shared quasi-symplectic bundle, with rank ledgers and exact sequences.

The strong product, over pairs (x1, x2), is the transverse case; the
homotopy product, over triples (x1, g, x2) through an arrow g, needs only
cleanness.  Both build ProductFiber and Intersection records and share the
checker of 0 -> K1 x K2 -> ker rho_C -> R-ann and the cleanness check.  The
homotopy product claims exactness at R-ann only where the algebroid maps
are transverse; elsewhere that record is hypothesis-violated.

Both intersections are taken in the orientation where the outer legs are
trivial: the first datum plays the reversed role (its Dirac fibers enter
negated), and the composite is a 0-shifted-Poisson candidate on the fiber
product.  "Smoothness" claims are operationalized as equal ranks of the
auxiliary spaces across all sampled product points.
"""

from __future__ import annotations

from .coisotropic import (CoisotropicDatum, is_coisotropic, strong_kernel,
                          zero_shifted_poisson_check)
from .courant import (
    DiracFiber,
    ThreeFormFiber,
    dirac_negate,
    dirac_sum,
    graph_two_form,
    pullback,
)
from .groupoid import (
    ArrowFiber,
    GroupoidFiberBundle,
    ObjectFiber,
    induced_dirac,
    morphism_to_point,
    point_bundle,
)
from .linalg import (
    DimensionMismatch,
    LinMap,
    Subspace,
    block_diag,
    fiber_product,
    full_subspace,
    hstack,
    image,
    kernel,
    vstack,
)
from .records import record
from .report import VerificationReport, witness_subspace


@record
class ProductFiber:
    """Product object fiber over (x1, x2), strong, or (x1, g, x2), homotopy:
    the tangent and algebroid spaces with the anchor and the projections."""

    base: tuple[int, ...]
    tangent: Subspace         # in T_{C1} + T_{C2}, or T_{C1} + T_g + T_{C2}
    algebroid: Subspace       # in A_{C1} + A_{C2}; all of it in the homotopy product
    rho: LinMap               # algebroid coords -> tangent coords
    p1: LinMap                # tangent coords -> T_{C1}
    p2: LinMap


def _ranks(point: tuple, r_space: Subspace, l_fiber: DiracFiber) -> dict:
    """The dimensions of the auxiliary spaces at one product point."""
    return {"point": point, "R": r_space.dim, "R_ann": r_space.ambient_dim - r_space.dim,
            "L": l_fiber.n, "kerL": l_fiber.kernel.dim}


@record
class Intersection:
    fibers: list[ProductFiber]
    dirac: list[DiracFiber]
    ledger: list[dict]        # the _ranks of each product point, in point order
    report: VerificationReport
    datum: CoisotropicDatum | None = None   # strong product datum toward the point


def strong_intersection(d1: CoisotropicDatum, d2: CoisotropicDatum,
                        obj_pairs: list[tuple[int, int]],
                        arrow_pairs: list[tuple[int, int]]) -> Intersection:
    """Strong fiber product of two coisotropics over their shared target.

    The first datum is the reversed leg: the composite Dirac fiber is
    p2*L2 - p1*L1.  Requires the algebroid maps into the shared bundle to
    be transverse; otherwise the status is hypothesis-violated and no
    coisotropic claim is made.
    """
    if d1.morphism.cod is not d2.morphism.cod:
        raise DimensionMismatch("intersection needs a shared target bundle")
    rep = VerificationReport("strong_intersection")
    ledger: list[dict] = []
    fibers: list[ProductFiber] = []
    dirac: list[DiracFiber] = []
    c1m, c2m = d1.morphism, d2.morphism

    transverse = True
    for (i1, i2) in obj_pairs:
        if c1m.obj_map[i1] != c2m.obj_map[i2]:
            raise DimensionMismatch("product point maps to different shared objects")
        ob1, ob2 = c1m.dom.objects[i1], c2m.dom.objects[i2]

        if not _algebroid_transverse(d1, i1, d2, i2):
            transverse = False
            rep.add_hypothesis_violation(
                "strong.transversality",
                f"point {(i1, i2)}: algebroid maps into the shared bundle not transverse")
            continue

        tang = fiber_product(c1m.c0[i1], c2m.c0[i2])
        alg = fiber_product(c1m.cA[i1], c2m.cA[i2])
        inc = tang.matrix
        p1 = inc.row_block(0, ob1.dim)
        p2 = inc.row_block(ob1.dim, inc.rows)
        # componentwise anchor, expressed on the fiber-product bases
        rho = _restrict_pairmap(alg, tang, block_diag(ob1.rho, ob2.rho))

        l_fiber = dirac_sum(pullback(p1, dirac_negate(d1.dirac[i1])),
                            pullback(p2, d2.dirac[i2]))
        fibers.append(ProductFiber((i1, i2), tang, alg, rho, p1, p2))
        dirac.append(l_fiber)

        ledger.append(_ranks((i1, i2), _shared_tangent_sum(d1, i1, d2, i2), l_fiber))

    _add_cleanness(rep, "strong", ledger)

    datum = None
    if transverse and fibers:
        datum = _product_datum(d1, d2, fibers, dirac, arrow_pairs)
        rep.summarize("strong.coisotropic", is_coisotropic(datum),
                      detail="product datum is coisotropic toward the trivial target")
        rep.summarize("strong.zero_shifted_poisson",
                      zero_shifted_poisson_check(datum.c_bundle, list(dirac)),
                      detail="product Dirac fibers satisfy the 0-shifted Poisson conditions")
    return Intersection(fibers, dirac, ledger, rep, datum)


def _algebroid_transverse(d1: CoisotropicDatum, i1: int,
                          d2: CoisotropicDatum, i2: int) -> bool:
    """c1(A_{C1}) + c2(A_{C2}) is all of the shared algebroid fiber."""
    c1m = d1.morphism
    return (image(c1m.cA[i1]).sum(image(d2.morphism.cA[i2])).dim
            == c1m.cod.objects[c1m.obj_map[i1]].adim)


def _add_cleanness(rep: VerificationReport, prefix: str, ledger: list[dict]) -> None:
    """Cleanness is constancy of the ranks across the ledger's points."""
    r, l, ker_l = ([e[key] for e in ledger] for key in ("R", "L", "kerL"))
    rep.add(f"{prefix}.clean.R", len(set(r)) <= 1,
            detail="rank of R constant across sampled product points", ranks=r)
    rep.add(f"{prefix}.clean.L", len(set(l)) <= 1 and len(set(ker_l)) <= 1,
            detail="rank of L and ker L constant across sampled product points",
            ranks=ker_l)


def _shared_tangent_sum(d1: CoisotropicDatum, i1: int,
                        d2: CoisotropicDatum, i2: int) -> Subspace:
    """R = c1(p_T L1) + c2(p_T L2) inside the shared tangent space."""
    return image(hstack(_tangent_image(d1, i1), _tangent_image(d2, i2)))


def _tangent_image(d: CoisotropicDatum, i: int) -> LinMap:
    """c_*(p_T L) at object i, as a map from the basis coordinates of L."""
    return d.morphism.c0[i] @ d.dirac[i].parts[0]


def _product_datum(d1: CoisotropicDatum, d2: CoisotropicDatum,
                   fibers: list[ProductFiber], dirac: list[DiracFiber],
                   arrow_pairs: list[tuple[int, int]]) -> CoisotropicDatum:
    """Assemble the strong-product bundle with its morphism to the point."""
    c1m, c2m = d1.morphism, d2.morphism
    objects = []
    for f in fibers:
        # the product 3-forms cancel exactly (reversed leg); assert, not assume
        phi1 = c1m.dom.objects[f.base[0]].phi.pullback(f.p1)
        phi2 = c2m.dom.objects[f.base[1]].phi.pullback(f.p2)
        if not phi2.add(phi1.neg()).is_zero():
            raise ValueError("product 3-forms do not cancel")
        objects.append(ObjectFiber(f.tangent.dim, f.algebroid.dim, f.rho,
                                   LinMap.zero(f.tangent.dim, f.algebroid.dim),
                                   ThreeFormFiber.zero(f.tangent.dim)))
    obj_pos = {f.base: k for k, f in enumerate(fibers)}

    arrows = []
    for (a1, a2) in arrow_pairs:
        ar1, ar2 = c1m.dom.arrows[a1], c2m.dom.arrows[a2]
        if c1m.arrow_map[a1] != c2m.arrow_map[a2]:
            raise DimensionMismatch("product arrow maps to different shared arrows")
        src = obj_pos[(ar1.src, ar2.src)]
        tgt = obj_pos[(ar1.tgt, ar2.tgt)]
        tang = fiber_product(c1m.c1[a1], c2m.c1[a2])
        s_star = _restrict_pairmap(tang, fibers[src].tangent,
                                   block_diag(ar1.s_star, ar2.s_star))
        t_star = _restrict_pairmap(tang, fibers[tgt].tangent,
                                   block_diag(ar1.t_star, ar2.t_star))
        left = _restrict_pairmap(fibers[src].algebroid, tang,
                                 block_diag(ar1.left, ar2.left))
        right = _restrict_pairmap(fibers[tgt].algebroid, tang,
                                  block_diag(ar1.right, ar2.right))
        unit = ar1.unit and ar2.unit
        u_star = None
        if unit:
            u_star = _restrict_pairmap(fibers[src].tangent, tang,
                                       block_diag(ar1.u_star, ar2.u_star))
        arrows.append(ArrowFiber(src, tgt, tang.dim, s_star, t_star, None,
                                 left, right, unit=unit, u_star=u_star))

    bundle = GroupoidFiberBundle(tuple(objects), tuple(arrows), (),
                                 name="strong_product")
    return CoisotropicDatum(morphism_to_point(bundle, point_bundle()), tuple(dirac),
                            name="strong_product")


def _restrict_pairmap(dom_space: Subspace, cod_space: Subspace,
                      m: LinMap) -> LinMap:
    """Express a componentwise map m = diag(top, bottom) between
    fiber-product subspaces in their echelon-basis coordinates."""
    x = cod_space.coords(m @ dom_space.matrix)
    if x is None:
        raise DimensionMismatch("componentwise map leaves the fiber product")
    return x


def strong_exact_sequence(d1: CoisotropicDatum, d2: CoisotropicDatum,
                          result: Intersection) -> VerificationReport:
    """Exactness of 0 -> K1 + K2 -> ker rho_C cap ker c_* -> R-ann -> 0 and
    the dimension identity, per sampled product point."""
    rep = VerificationReport("strong_exact_sequence")
    c1m, c2m = d1.morphism, d2.morphism
    for f in result.fibers:
        i1, i2 = f.base
        sigma = c1m.cod.objects[c1m.obj_map[i1]].sigma
        r1 = c1m.dom.objects[i1].adim
        # the outer legs are trivial, so ker c_* is everything
        middle = image(f.algebroid.matrix, kernel(f.rho))

        # on the middle basis B = (B1, B2): sigma c1 B1 = sigma c2 B2
        b = middle.matrix
        to_rann = sigma @ c1m.cA[i1] @ b.row_block(0, r1)
        well_defined = to_rann == sigma @ c2m.cA[i2] @ b.row_block(r1, b.rows)
        rep.add("exact.well_defined", well_defined,
                detail=f"point {f.base}: sigma c1 b1 = sigma c2 b2 on the middle term")
        if not well_defined:
            continue

        r_ann = _shared_tangent_sum(d1, i1, d2, i2).annihilator()
        strong_inputs = _exact_sequence(rep, "exact", d1, i1, d2, i2,
                                        middle, to_rann, r_ann, True)
        if middle.dim == 0:
            rep.add("exact.free_implies_transverse", r_ann.dim == 0,
                    detail=f"point {f.base}: trivial middle kernel forces R-ann = 0",
                    witness=None if r_ann.dim == 0 else witness_subspace(r_ann))
        if strong_inputs:
            rep.add("exact.strong_output", middle.dim == 0,
                    detail=f"point {f.base}: transverse criterion with strong "
                           "inputs gives a strong output")
    return rep


def _exact_sequence(rep: VerificationReport, prefix: str, d1: CoisotropicDatum, i1: int,
                    d2: CoisotropicDatum, i2: int, middle: Subspace, to_rann: LinMap,
                    r_ann: Subspace, rann_claimed: bool) -> bool:
    """Records of 0 -> K1 x K2 -> middle -> R-ann at (i1, i2), K_j = ker rho
    cap ker c_*, to_rann the boundary map on the middle basis; exactness at
    R-ann only where claimed.  Returns whether K1 = K2 = 0 and R-ann = 0."""
    point = (i1, i2)
    k1, k2 = strong_kernel(d1.morphism, i1), strong_kernel(d2.morphism, i2)
    left = image(block_diag(k1.matrix, k2.matrix))
    img = image(to_rann)
    into, onto = img.issubset(r_ann), img == r_ann
    wit = None if onto else {"image": witness_subspace(img),
                             "annihilator": witness_subspace(r_ann)}
    rep.add(f"{prefix}.into_rann", into, witness=None if into else wit,
            detail=f"point {point}: the boundary map lands in the annihilator of R")
    rep.add(f"{prefix}.left", left.issubset(middle),
            detail=f"point {point}: K1 + K2 includes into the middle term")
    ker_in_amb = image(middle.matrix, kernel(to_rann))
    rep.add(f"{prefix}.middle", ker_in_amb == left,
            detail=f"point {point}: exactness at the middle term",
            witness=None if ker_in_amb == left else
            {"kernel": witness_subspace(ker_in_amb), "left": witness_subspace(left)})
    if rann_claimed:
        rep.add(f"{prefix}.rann", onto, witness=wit,
                detail=f"point {point}: the boundary map is onto the annihilator of R")
        if onto and ker_in_amb == left:
            rep.add(f"{prefix}.dimension", middle.dim == left.dim + r_ann.dim,
                    detail=f"point {point}: dim middle = dim left + dim R-ann",
                    ranks=(middle.dim, left.dim, r_ann.dim))
    else:
        rep.add_hypothesis_violation(
            f"{prefix}.rann",
            f"point {point}: algebroid maps not transverse; "
            "no claim at the annihilator term")
    return k1.dim == 0 and k2.dim == 0 and r_ann.dim == 0


def homotopy_intersection(d1: CoisotropicDatum, d2: CoisotropicDatum,
                          triples: list[tuple[int, int, int]]) -> Intersection:
    """Homotopy fiber product over product points (x1, g, x2).

    Computes L = -p1*L1 + p2*L2 - p0*graph(omega_g) per point, the rank
    ledger for the cleanness criterion, the translated anchor, the exact
    sequence (unconditional at the first two terms, conditional at the
    annihilator term under algebroid transversality), strongness transfer,
    and the object-level kernel condition of the output.
    """
    if d1.morphism.cod is not d2.morphism.cod:
        raise DimensionMismatch("intersection needs a shared target bundle")
    g = d1.morphism.cod
    c1m, c2m = d1.morphism, d2.morphism
    rep = VerificationReport("homotopy_intersection")
    ledger: list[dict] = []
    fibers, dirac = [], []
    for (i1, ga, i2) in triples:
        ar = g.arrows[ga]
        if c1m.obj_map[i1] != ar.src or c2m.obj_map[i2] != ar.tgt:
            raise DimensionMismatch("product triple does not match the middle arrow")
        ob1, ob2 = c1m.dom.objects[i1], c2m.dom.objects[i2]
        ob_g_s, ob_g_t = g.objects[ar.src], g.objects[ar.tgt]
        n1, n2, ng = ob1.dim, ob2.dim, ar.dim

        # T = {(u1, w, u2) : c12 u1 = s w, c22 u2 = t w}
        cond1 = hstack(hstack(c1m.c0[i1], ar.s_star.scale(-1)), LinMap.zero(ob_g_s.dim, n2))
        cond2 = hstack(hstack(LinMap.zero(ob_g_t.dim, n1), ar.t_star.scale(-1)), c2m.c0[i2])
        tang = kernel(vstack(cond1, cond2))

        inc = tang.matrix
        p1 = inc.row_block(0, n1)
        p0 = inc.row_block(n1, n1 + ng)
        p2 = inc.row_block(n1 + ng, inc.rows)

        l_fiber = dirac_sum(
            dirac_sum(pullback(p1, dirac_negate(d1.dirac[i1])),
                      pullback(p2, d2.dirac[i2])),
            pullback(p0, graph_two_form(ar.omega.neg())))
        dirac.append(l_fiber)

        # translated anchor on A_{C1} + A_{C2}:
        # (b1, b2) -> (rho b1, (c2 b2)^R - (c1 b1)^L, rho b2)
        anchor = vstack(vstack(hstack(ob1.rho, LinMap.zero(n1, ob2.adim)),
                               hstack((ar.left @ c1m.cA[i1]).scale(-1),
                                      ar.right @ c2m.cA[i2])),
                        hstack(LinMap.zero(n2, ob1.adim), ob2.rho))
        rho = tang.coords(anchor)
        if rho is None:
            raise DimensionMismatch("translated anchor leaves the product tangent")
        fibers.append(ProductFiber((i1, ga, i2), tang, full_subspace(rho.cols),
                                   rho, p1, p2))

        # R = im((c1 pT, c2 pT) on L1 x L2) + im(s, t) in T_G0 x T_G0
        r_space = image(hstack(block_diag(_tangent_image(d1, i1), _tangent_image(d2, i2)),
                               vstack(ar.s_star, ar.t_star)))
        ledger.append(_ranks((i1, ga, i2), r_space, l_fiber))

        _homotopy_sequence_checks(rep, d1, d2, fibers[-1], ar, r_space)

        im_rho = image(inc @ rho)
        ker_l = image(inc, l_fiber.kernel)
        rep.add("homotopy.kernel", im_rho == ker_l,
                detail=f"point {(i1, ga, i2)}: im rho_C = ker L (object level)",
                witness=None if im_rho == ker_l else
                {"im_rho": witness_subspace(im_rho), "ker_L": witness_subspace(ker_l)})

    _add_cleanness(rep, "homotopy", ledger)
    return Intersection(fibers, dirac, ledger, rep)


def _homotopy_sequence_checks(rep: VerificationReport, d1: CoisotropicDatum,
                              d2: CoisotropicDatum, f: ProductFiber,
                              ar: ArrowFiber, r_space: Subspace) -> None:
    i1, _, i2 = f.base
    c1m, c2m = d1.morphism, d2.morphism
    g = c1m.cod
    middle = image(f.algebroid.matrix, kernel(f.rho))
    # (b1, b2) -> (sigma c1 b1, -sigma c2 b2) on the middle basis
    to_rann = block_diag(g.objects[ar.src].sigma @ c1m.cA[i1],
                         (g.objects[ar.tgt].sigma @ c2m.cA[i2]).scale(-1)) @ middle.matrix
    # the algebroid transversality lives over the two base objects of the
    # middle arrow; the sampled fibers are comparable only when those agree
    alg_transverse = ar.src == ar.tgt and _algebroid_transverse(d1, i1, d2, i2)
    if _exact_sequence(rep, "homotopy.exact", d1, i1, d2, i2,
                       middle, to_rann, r_space.annihilator(), alg_transverse):
        # strongness transfer: transverse criterion + strong inputs => trivial middle
        rep.add("homotopy.strong", middle.dim == 0,
                detail=f"point {(i1, i2)}: transverse criterion with strong inputs "
                       "gives a strong output")


def induced_poisson(datum: CoisotropicDatum) -> VerificationReport:
    """L - c*L_G per object, cross-point rank comparison, and the 0-shifted
    Poisson conditions on the result."""
    rep = VerificationReport("induced_poisson")
    c = datum.morphism
    out = []
    for i in range(len(c.dom.objects)):
        lg = induced_dirac(c.cod.objects[c.obj_map[i]])
        out.append(dirac_sum(datum.dirac[i], dirac_negate(pullback(c.c0[i], lg))))
    ker_ranks = [l.kernel.dim for l in out]
    clean = len(set(ker_ranks)) <= 1
    rep.add("induced.clean", clean,
            detail="rank of ker(L - c*L_G) constant across sampled objects",
            ranks=ker_ranks)
    if clean:
        rep.summarize("induced.zero_shifted_poisson", zero_shifted_poisson_check(c.dom, out),
                      detail="L - c*L_G satisfies the 0-shifted Poisson conditions")
    return rep
