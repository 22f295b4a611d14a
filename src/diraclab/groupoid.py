"""Linear fiber model of Lie groupoids with multiplicative 2-forms.

A bundle is a finite sampled atlas: object fibers (tangent space, algebroid
fiber, anchor rho, infinitesimally multiplicative sigma, background 3-form),
arrow fibers (source/target differentials, the 2-form, left/right
translations, unit data), and composable-pair fibers (the multiplication
differential on the fiber product of tangents).  Every "for all points"
statement becomes "for all sampled fibers".

Translations are stored, not derived: deriving them would need global
multiplication, so scenario builders supply closed forms and qs_check
verifies the defining identities.

Bundles are immutable, so the quasi-symplectic report is a property of the
bundle: GroupoidFiberBundle.qs_report runs qs_check once per bundle object.
The CLI's qs suites return it, and every checker that needs a
quasi-symplectic target (is_coisotropic, gauge_qs, and through them transfer)
reads its verdict; none of them may mutate it.  A bundle built with
records.replace is a new object and is decided afresh.

Form operations owned here: coboundary, the arrow coboundary t*gamma -
s*gamma, and MorphismFiber.pullback_sigma, c*sigma = c0^T sigma_G.
"""

from __future__ import annotations

from functools import cached_property

from .courant import (
    DiracFiber,
    ThreeFormFiber,
    TwoFormFiber,
    gauge,
    lagrangian,
    pullback,
)
from .linalg import (
    DimensionMismatch,
    LinMap,
    Subspace,
    block_diag,
    congruence,
    fiber_product,
    hstack,
    image,
    kernel,
    solve,
    vstack,
)
from .records import record, replace
from .report import (FAIL, PASS, CheckRecord, VerificationReport, witness_difference,
                     witness_subspace, witness_vector)


@record
class ObjectFiber:
    """Linear data of a groupoid at an object: T, A, rho, sigma, phi."""

    dim: int
    adim: int
    rho: LinMap            # A -> T
    sigma: LinMap          # A -> T*, column j = sigma(a_j)
    phi: ThreeFormFiber

    def __post_init__(self):
        if self.rho.rows != self.dim or self.rho.cols != self.adim:
            raise DimensionMismatch("rho shape")
        if self.sigma.rows != self.dim or self.sigma.cols != self.adim:
            raise DimensionMismatch("sigma shape")
        if self.phi.dim != self.dim:
            raise DimensionMismatch("phi dim")


@record
class ArrowFiber:
    """Linear data at an arrow g: differentials, 2-form, translations."""

    src: int
    tgt: int
    dim: int
    s_star: LinMap             # T_g -> T_src
    t_star: LinMap             # T_g -> T_tgt
    omega: TwoFormFiber | None
    left: LinMap               # A_src -> T_g, a -> a^L_g
    right: LinMap              # A_tgt -> T_g, a -> a^R_g
    unit: bool = False
    u_star: LinMap | None = None   # T_obj -> T_g at units


@record
class ComposablePairFiber:
    """A pair (g, h) with src(g) = tgt(h), product arrow gh, and m_star
    expressed on the echelon basis of the tangent fiber product."""

    g: int
    h: int
    gh: int
    tangent: Subspace          # {(v, w) : s_* v = t_* w} in T_g + T_h
    m_star: LinMap             # tangent-basis coordinates -> T_gh


@record
class GroupoidFiberBundle:
    objects: tuple[ObjectFiber, ...]
    arrows: tuple[ArrowFiber, ...]
    pairs: tuple[ComposablePairFiber, ...]
    name: str = ""

    def __post_init__(self):
        for a in self.arrows:
            if not (0 <= a.src < len(self.objects) and 0 <= a.tgt < len(self.objects)):
                raise DimensionMismatch("arrow src/tgt out of range")
            if a.s_star.cols != a.dim or a.t_star.cols != a.dim:
                raise DimensionMismatch("arrow differential shape")
            if a.s_star.rows != self.objects[a.src].dim:
                raise DimensionMismatch("s_star target dim")
            if a.t_star.rows != self.objects[a.tgt].dim:
                raise DimensionMismatch("t_star target dim")
            if a.left.cols != self.objects[a.src].adim or a.left.rows != a.dim:
                raise DimensionMismatch("left translation shape")
            if a.right.cols != self.objects[a.tgt].adim or a.right.rows != a.dim:
                raise DimensionMismatch("right translation shape")
        for p in self.pairs:
            g, h = self.arrows[p.g], self.arrows[p.h]
            if g.src != h.tgt:
                raise DimensionMismatch("pair not composable")
            if p.m_star.cols != p.tangent.dim or p.m_star.rows != self.arrows[p.gh].dim:
                raise DimensionMismatch("m_star shape")

    def object_dim(self) -> int:
        dims = {o.dim for o in self.objects}
        if len(dims) != 1:
            raise DimensionMismatch("object fibers of mixed dimension")
        return dims.pop()

    @cached_property
    def qs_report(self) -> VerificationReport:
        """qs_check on this bundle, run once and shared: read it, never
        merge into it."""
        return qs_check(self)


def pair_tangent(g: ArrowFiber, h: ArrowFiber) -> Subspace:
    """{(v, w) in T_g + T_h : s_* v = t_* w}, canonical echelon basis."""
    return fiber_product(g.s_star, h.t_star)


def make_pair(bundle_arrows, g_idx: int, h_idx: int, gh_idx: int,
              m: LinMap) -> ComposablePairFiber:
    """Build a pair fiber from a closed-form multiplication differential.

    m : T_g + T_h -> T_gh acts on concatenated (v, w) coordinates; the pair
    stores it on the tangent basis, m_star = m @ tangent.matrix.
    """
    g, h = bundle_arrows[g_idx], bundle_arrows[h_idx]
    tang = pair_tangent(g, h)
    return ComposablePairFiber(g_idx, h_idx, gh_idx, tang, m @ tang.matrix)


@record
class MorphismFiber:
    """Differentials of a groupoid morphism at sampled objects and arrows."""

    dom: GroupoidFiberBundle
    cod: GroupoidFiberBundle
    obj_map: tuple[int, ...]
    c0: tuple[LinMap, ...]         # T_dom_obj -> T_cod_obj
    cA: tuple[LinMap, ...]         # A_dom_obj -> A_cod_obj
    arrow_map: tuple[int, ...]
    c1: tuple[LinMap, ...]         # T_dom_arrow -> T_cod_arrow

    def __post_init__(self):
        if len(self.obj_map) != len(self.dom.objects) or len(self.c0) != len(self.dom.objects):
            raise DimensionMismatch("object maps must cover all sampled objects")
        if len(self.arrow_map) != len(self.dom.arrows) or len(self.c1) != len(self.dom.arrows):
            raise DimensionMismatch("arrow maps must cover all sampled arrows")
        for i, a in enumerate(self.dom.arrows):
            j = self.arrow_map[i]
            b = self.cod.arrows[j]
            if self.obj_map[a.src] != b.src or self.obj_map[a.tgt] != b.tgt:
                raise DimensionMismatch("morphism does not respect src/tgt")
            c1 = self.c1[i]
            # intertwining with source/target differentials
            if b.s_star @ c1 != self.c0[a.src] @ a.s_star:
                raise DimensionMismatch("morphism fails s-intertwining")
            if b.t_star @ c1 != self.c0[a.tgt] @ a.t_star:
                raise DimensionMismatch("morphism fails t-intertwining")
            # translations are functorial; this pins cA as the restriction
            # of c1 to algebroid fibers
            if c1 @ a.right != b.right @ self.cA[a.tgt]:
                raise DimensionMismatch("morphism fails right-translation equivariance")
            if c1 @ a.left != b.left @ self.cA[a.src]:
                raise DimensionMismatch("morphism fails left-translation equivariance")

    def pullback_two_form(self, arrow_idx: int) -> TwoFormFiber:
        """c*omega on the domain arrow tangent."""
        img = self.cod.arrows[self.arrow_map[arrow_idx]]
        if img.omega is None:
            raise ValueError("codomain arrow carries no 2-form")
        return img.omega.pullback(self.c1[arrow_idx])

    def pullback_sigma(self, obj_idx: int) -> LinMap:
        """c*sigma = c0^T sigma_G at the domain object: A_G -> T*."""
        return self.c0[obj_idx].transpose() @ self.cod.objects[self.obj_map[obj_idx]].sigma


def multiplicativity_defects(m: MorphismFiber):
    """Yield a description of each unit arrow and composable pair of m's
    domain where m is not multiplicative: a unit arrow must go to a unit,
    and a pair (g, h) to a sampled pair (c(g), c(h)) with product c(gh),
    whose multiplication intertwines c1 on the pair tangent,
    c1[gh] m_* = m'_* (c1[g] + c1[h])."""
    for k, a in enumerate(m.dom.arrows):
        if a.unit and not m.cod.arrows[m.arrow_map[k]].unit:
            yield f"unit C-arrow {k} maps to G-arrow {m.arrow_map[k]}, which is not a unit"
    cod_pairs = {}
    for q in m.cod.pairs:
        cod_pairs.setdefault((q.g, q.h), q)
    for idx, p in enumerate(m.dom.pairs):
        g, h, gh = (m.arrow_map[i] for i in (p.g, p.h, p.gh))
        q = cod_pairs.get((g, h))
        if q is None:
            yield f"C-pair {idx} maps to G-arrows ({g}, {h}), which are no sampled pair"
        elif q.gh != gh:
            yield f"C-pair {idx} has product G-arrow {gh}, the G-pair's is {q.gh}"
        else:
            x = q.tangent.coords(block_diag(m.c1[p.g], m.c1[p.h]) @ p.tangent.matrix)
            if x is None or m.c1[p.gh] @ p.m_star != q.m_star @ x:
                yield f"C-pair {idx} does not intertwine c1 with the multiplication"


def identity_morphism(bundle: GroupoidFiberBundle) -> MorphismFiber:
    nobj = len(bundle.objects)
    narr = len(bundle.arrows)
    return MorphismFiber(
        bundle, bundle,
        tuple(range(nobj)),
        tuple(LinMap.identity(o.dim) for o in bundle.objects),
        tuple(LinMap.identity(o.adim) for o in bundle.objects),
        tuple(range(narr)),
        tuple(LinMap.identity(a.dim) for a in bundle.arrows),
    )


def unit_arrow_at(bundle: GroupoidFiberBundle, obj_idx: int) -> int:
    """The index of the first sampled unit arrow at object obj_idx."""
    for k, ar in enumerate(bundle.arrows):
        if ar.unit and ar.src == obj_idx:
            return k
    raise ValueError(f"no unit arrow sampled at object {obj_idx}")


def unit_groupoid(n: int, num_objects: int, name: str) -> GroupoidFiberBundle:
    """The trivial groupoid M over M: only unit arrows, A = 0."""
    objects = tuple(ObjectFiber(n, 0, LinMap.zero(n, 0), LinMap.zero(n, 0),
                                ThreeFormFiber.zero(n))
                    for _ in range(num_objects))
    arrows = tuple(ArrowFiber(i, i, n, LinMap.identity(n), LinMap.identity(n),
                              TwoFormFiber.zero(n), LinMap.zero(n, 0),
                              LinMap.zero(n, 0), unit=True,
                              u_star=LinMap.identity(n))
                   for i in range(num_objects))
    first = hstack(LinMap.identity(n), LinMap.zero(n, n))   # (v, w) -> v
    pairs = tuple(make_pair(arrows, i, i, i, first) for i in range(num_objects))
    return GroupoidFiberBundle(objects, arrows, pairs, name=name)


def point_bundle(name: str = "point") -> GroupoidFiberBundle:
    """The point groupoid: one object, one unit arrow, every fiber zero."""
    return unit_groupoid(0, 1, name)


def morphism_to_point(bundle: GroupoidFiberBundle,
                      pt: GroupoidFiberBundle) -> MorphismFiber:
    """The terminal morphism: every object and arrow to the only one of pt."""
    return MorphismFiber(
        bundle, pt,
        tuple(0 for _ in bundle.objects),
        tuple(LinMap.zero(0, o.dim) for o in bundle.objects),
        tuple(LinMap.zero(0, o.adim) for o in bundle.objects),
        tuple(0 for _ in bundle.arrows),
        tuple(LinMap.zero(0, a.dim) for a in bundle.arrows),
    )


def qs_check(bundle: GroupoidFiberBundle) -> VerificationReport:
    """All quasi-symplectic identity checks on every sampled fiber.

    Items 1-3 are object-level anchor/sigma identities; item 4 relates
    sigma to the 2-form through translations; the remaining records cover
    the dimension constraint, units, the kernel non-degeneracy condition
    (at units as the acceptance condition, at other arrows as a stronger
    diagnostic), translation consistency, and multiplicativity at pairs.
    """
    rep = VerificationReport(f"qs.{bundle.name or 'bundle'}")
    if not bundle.objects:
        rep.add_hypothesis_violation("qs.populated", "bundle has no object fibers")
        return rep
    n = bundle.object_dim()

    for i, ob in enumerate(bundle.objects):
        m1 = ob.rho.transpose() @ ob.sigma
        ok = m1.is_antisymmetric()
        wit = None
        if not ok:
            bad = next((a, b) for a in range(ob.adim) for b in range(ob.adim)
                       if m1.entries[a][b] != -m1.entries[b][a])
            wit = {"object": i, "algebroid_pair": list(bad)}
        rep.add("qs.lemma.item1", ok, detail=f"object {i}: rho^T sigma antisymmetric",
                witness=wit)

        stacked = vstack(ob.rho, ob.sigma)
        ker12 = kernel(stacked)
        rep.add("qs.lemma.item2", ker12.dim == 0,
                detail=f"object {i}: ker rho cap ker sigma = 0",
                witness=None if ker12.dim == 0 else
                {"object": i, **witness_subspace(ker12)})

        im = image(stacked)
        ker_dual = kernel(hstack(ob.sigma.transpose(), ob.rho.transpose()))
        rep.add("qs.lemma.item3", im == ker_dual,
                detail=f"object {i}: ker(rho* + sigma*) = im(rho, sigma)",
                witness=None if im == ker_dual else
                {"object": i, "image": witness_subspace(im),
                 "kernel": witness_subspace(ker_dual)})

    for k, ar in enumerate(bundle.arrows):
        src, tgt = bundle.objects[ar.src], bundle.objects[ar.tgt]
        rep.add("qs.dim", ar.dim == 2 * n,
                detail=f"arrow {k}: dim T_g = 2 dim T")

        trans_ok = (ar.s_star @ ar.left == src.rho.scale(-1)
                    and (ar.t_star @ ar.left).is_zero()
                    and (ar.s_star @ ar.right).is_zero()
                    and ar.t_star @ ar.right == tgt.rho)
        rep.add("qs.translations", trans_ok,
                detail=f"arrow {k}: s(aL) = -rho a, t(aR) = rho a")

        if ar.omega is None:
            rep.add_hypothesis_violation("qs.lemma.item4",
                                         f"arrow {k} carries no 2-form")
            continue
        om = ar.omega.matrix
        left_ok = ar.left.transpose() @ om == src.sigma.transpose() @ ar.s_star
        right_ok = ar.right.transpose() @ om == tgt.sigma.transpose() @ ar.t_star
        wit = None
        if not left_ok or not right_ok:
            wit = {"arrow": k, "side": "left" if not left_ok else "right"}
        rep.add("qs.lemma.item4", left_ok and right_ok,
                detail=f"arrow {k}: s*(sigma a) = i_aL omega, t*(sigma a) = i_aR omega",
                witness=wit)

        kw = kernel(om).intersect(kernel(ar.s_star)).intersect(kernel(ar.t_star))
        check_id = "qs.nondeg.units" if ar.unit else "qs.nondeg.arrows"
        rep.add(check_id, kw.dim == 0,
                detail=f"arrow {k}: ker omega cap ker s cap ker t = 0",
                witness=None if kw.dim == 0 else {"arrow": k, **witness_subspace(kw)})

        if ar.unit:
            if ar.u_star is None:
                rep.add("qs.units", False, detail=f"unit arrow {k} missing u_star")
            else:
                uid = (ar.s_star @ ar.u_star == LinMap.identity(n)
                       and ar.t_star @ ar.u_star == LinMap.identity(n))
                uom = ar.omega.pullback(ar.u_star).matrix.is_zero()
                rep.add("qs.units", uid and uom,
                        detail=f"arrow {k}: s u = t u = id and 1*omega = 0")

    for idx, p in enumerate(bundle.pairs):
        g, h, gh = bundle.arrows[p.g], bundle.arrows[p.h], bundle.arrows[p.gh]
        if g.omega is None or h.omega is None or gh.omega is None:
            rep.add_hypothesis_violation("qs.multiplicative", f"pair {idx} lacks 2-forms")
            continue
        # on the tangent basis B (columns), whose coordinates are unit vectors:
        # m_star^T omega_gh m_star = B^T diag(omega_g, omega_h) B
        b = p.tangent.matrix
        ok = (congruence(p.m_star, gh.omega.matrix)
              == congruence(b, block_diag(g.omega.matrix, h.omega.matrix)))
        rep.add("qs.multiplicative", ok,
                detail=f"pair {idx}: m*omega = pr1*omega + pr2*omega")

        if h.unit:
            # V with s_* V = rho; then m(V, aR) = V + aL on all of A at once
            wit = None
            v = solve(g.s_star, bundle.objects[g.src].rho)
            if v is None:
                wit = {"pair": idx, "reason": "source differential not surjective"}
            else:
                w = vstack(v, h.right)
                want = v + g.left
                x = p.tangent.coords(w)
                if x is None or p.m_star @ x != want:
                    wit = {"pair": idx, **_translation_witness(p, w, want)}
            rep.add("qs.pair.translation", wit is None,
                    detail=f"pair {idx}: m(v, a) = v + aL", witness=wit)
    return rep


def _translation_witness(p: ComposablePairFiber, w: LinMap, want: LinMap) -> dict:
    """The first algebroid index where m(w) = want fails: the column of w
    that leaves the pair tangent, or the two sides of the identity."""
    for j, (wj, want_j) in enumerate(zip(w.col_vectors(), want.col_vectors())):
        if not p.tangent.contains(wj):
            return witness_vector(wj)
        got = p.m_star.apply(tuple(wj[q] for q in p.tangent.pivots))
        if got != want_j:
            return {"algebroid_index": j, "got": [str(x) for x in got],
                    "want": [str(x) for x in want_j]}
    raise AssertionError("no failing column")


def induced_dirac(obj: ObjectFiber) -> DiracFiber:
    """im(rho, sigma) as a Dirac fiber; a ValueError if it is not Lagrangian
    (lagrangian checks isotropy, which with dim n gives L = ker(rho* + sigma*))."""
    n = obj.dim
    space = image(vstack(obj.rho, obj.sigma))
    if space.dim != n:
        raise ValueError(
            f"im(rho, sigma) has dim {space.dim} != {n}: fiber is not quasi-symplectic")
    return lagrangian(space)


def compatibility_check(arrow: ArrowFiber, l_src: DiracFiber, l_tgt: DiracFiber,
                        pullback_form: TwoFormFiber) -> CheckRecord:
    """The record of t*L = s*L + graph(c*omega) at one sampled arrow, exactly,
    decided on the two fibers that pullback and gauge build."""
    lhs = pullback(arrow.t_star, l_tgt)
    rhs = gauge(pullback(arrow.s_star, l_src), pullback_form)
    ok = lhs == rhs
    return CheckRecord("coiso.compat", PASS if ok else FAIL,
                       "t*L = s*L + graph(c*omega)",
                       None if ok else witness_difference(lhs.space, rhs.space))


def gauge_qs(bundle: GroupoidFiberBundle,
             gamma: list[TwoFormFiber],
             dgamma: list[ThreeFormFiber]) -> tuple[GroupoidFiberBundle, VerificationReport]:
    """Gauge transform (omega, phi) -> (omega + s*gamma - t*gamma, phi + dgamma).

    dgamma is caller-supplied data: fibers cannot differentiate.  The
    transformed bundle is re-checked, not assumed quasi-symplectic; each
    bundle's verdict is read from its qs_report, decided once.
    """
    if len(gamma) != len(bundle.objects) or len(dgamma) != len(bundle.objects):
        raise DimensionMismatch("need one gamma and dgamma fiber per object")
    new_objects = []
    for i, ob in enumerate(bundle.objects):
        new_objects.append(replace(ob, phi=ob.phi.add(dgamma[i]),
                                   sigma=gauged_sigma(ob, gamma[i])))
    forms = [gm.matrix for gm in gamma]
    new_arrows = []
    for ar in bundle.arrows:
        if ar.omega is None:
            new_arrows.append(ar)
            continue
        new_arrows.append(replace(ar, omega=TwoFormFiber(ar.omega.matrix - coboundary(ar, forms))))
    out = GroupoidFiberBundle(tuple(new_objects), tuple(new_arrows), bundle.pairs,
                              name=f"{bundle.name}.gauged")
    rep = VerificationReport("gauge_qs")
    if bundle.qs_report.passed:
        rep.add("gauge.preserves_qs", out.qs_report.passed,
                detail="gauge transform of a quasi-symplectic bundle stays quasi-symplectic")
    else:
        rep.add_hypothesis_violation("gauge.preserves_qs", "input bundle fails qs_check")
    return out, rep


def coboundary(ar: ArrowFiber, forms) -> LinMap:
    """t*gamma - s*gamma at the arrow, gamma the form matrix forms[obj] at each end."""
    return congruence(ar.t_star, forms[ar.tgt]) - congruence(ar.s_star, forms[ar.src])


def gauged_sigma(ob: ObjectFiber, gamma: TwoFormFiber) -> LinMap:
    # sigma'(a) = sigma(a) - i_{rho a} gamma
    return ob.sigma - gamma.flat() @ ob.rho

