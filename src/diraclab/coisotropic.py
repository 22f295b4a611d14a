"""Coisotropic structure checks for groupoid morphisms into a
quasi-symplectic bundle: compatibility, non-degeneracy, the chain map with
its two-way cohomology characterization, orbit constructors, and the
0-shifted Poisson conditions.

Data are immutable, so results that belong to one object are computed once
on it: the target's quasi-symplectic verdict is read from the bundle's
qs_report property, the per-arrow compatibility records are the datum's
compatibility property, shared by is_coisotropic, is_strong and the
Hamiltonian check, and the per-object non-degeneracy maps are the datum's
assemblies property, shared by is_coisotropic, chain_map_check and the
Hamiltonian check.  Each is one Assembly record: the assembled map, a
column of (rho_C, c*sigma c_*) that leaves L or None, and, where none
leaves, its codomain L x_c A_G, its image and whether it is onto.  All three
readers take the verdicts from it: a column that escapes is the failure of
coisotropic non-degeneracy and of chain_map_check's image-in-L record, with
that column as witness, and an escape is no surjection for the Hamiltonian
equivalence.  strong_kernel is ker rho_C cap ker c_*, for strongness here
and the exact sequences of intersection; c*sigma is MorphismFiber's.
"""

from __future__ import annotations

from functools import cached_property

from .courant import (
    DiracFiber,
    ThreeFormFiber,
    TwoFormFiber,
    graph_two_form,
    pullback,
)
from .groupoid import (
    GroupoidFiberBundle,
    MorphismFiber,
    compatibility_check,
    identity_morphism,
    induced_dirac,
)
from .linalg import (
    DimensionMismatch,
    LinMap,
    Subspace,
    Vec,
    block_diag,
    fiber_product,
    full_subspace,
    hstack,
    image,
    kernel,
    preimage,
    solve,
    vstack,
)
from .records import record, replace
from .report import (CheckRecord, VerificationReport, witness_difference, witness_subspace,
                     witness_vector)


@record
class CoisotropicDatum:
    """A morphism fiber bundle c : C -> G with a Dirac fiber per C-object.

    The background 3-forms on C-objects are the `phi` fields of the C
    bundle's ObjectFibers; the compatibility check matches them against the
    pullbacks of the G-side 3-forms.
    """

    morphism: MorphismFiber
    dirac: tuple[DiracFiber, ...]
    name: str = ""

    def __post_init__(self):
        c = self.morphism
        if len(self.dirac) != len(c.dom.objects):
            raise DimensionMismatch("need one Dirac fiber per C-object")
        for ob, l in zip(c.dom.objects, self.dirac):
            if l.n != ob.dim:
                raise DimensionMismatch("Dirac fiber dim mismatch")

    @property
    def c_bundle(self) -> GroupoidFiberBundle:
        return self.morphism.dom

    @property
    def g_bundle(self) -> GroupoidFiberBundle:
        return self.morphism.cod

    @cached_property
    def compatibility(self) -> tuple[CheckRecord, ...]:
        """The compatibility_check record of each C-arrow, in arrow order,
        computed once for this datum."""
        c = self.morphism
        return tuple(
            compatibility_check(ar, self.dirac[ar.src], self.dirac[ar.tgt],
                                c.pullback_two_form(k))
            for k, ar in enumerate(c.dom.arrows))

    @cached_property
    def assemblies(self) -> tuple[Assembly, ...]:
        """The nondeg_assembly of each C-object, in object order, computed
        once for this datum."""
        return tuple(nondeg_assembly(self, i) for i in range(len(self.c_bundle.objects)))


@record
class Assembly:
    """The non-degeneracy map A_C -> L x_c A_G at the C-object obj, and
    whether it is onto.

    mat sends A_C into Q^{2 n_C + r_G} coordinates (v, alpha, a).  escape is
    a column of its (rho_C, c*sigma c_*) rows that leaves L, or None.  Where
    a column escapes the map has no codomain: fp and im are None and onto is
    False.  Otherwise fp is the fiber product L x_c A_G, the subspace of the
    same ambient cut by the two linear conditions and membership of
    (v, alpha) in L, im is the image of mat and onto is im == fp.
    """

    obj: int
    mat: LinMap
    escape: Vec | None
    fp: Subspace | None
    im: Subspace | None
    onto: bool


def nondeg_assembly(datum: CoisotropicDatum, obj_idx: int) -> Assembly:
    """The non-degeneracy map at one object, its codomain and whether it is
    onto, as an Assembly record; an image that leaves L is recorded there,
    not raised."""
    c = datum.morphism
    ob_c = c.dom.objects[obj_idx]
    ob_g = c.cod.objects[c.obj_map[obj_idx]]
    l = datum.dirac[obj_idx]
    n, r_g = ob_c.dim, ob_g.adim
    c0, cA = c.c0[obj_idx], c.cA[obj_idx]
    # map: b -> (rho_C b, c* sigma c_* b, cA b)
    mat = vstack(vstack(ob_c.rho, c.pullback_sigma(obj_idx) @ cA), cA)
    first = mat.row_block(0, 2 * n)
    if l.space.coords(first) is None:
        escape = next(v for v in first.col_vectors() if not l.space.contains(v))
        return Assembly(obj_idx, mat, escape, None, None, False)

    # fiber product over (x, a), with (v, alpha) = (T x, C x) in L:
    # c0 v = rho_G a and alpha = c0^T sigma a
    t, cot = l.parts
    fp = image(block_diag(l.space.matrix, LinMap.identity(r_g)),
               fiber_product(vstack(c0 @ t, cot),
                             vstack(ob_g.rho, c.pullback_sigma(obj_idx))))
    im = image(mat)
    return Assembly(obj_idx, mat, None, fp, im, im == fp)


def _add_escape(rep: VerificationReport, check_id: str, a: Assembly) -> None:
    """Record under check_id that a column of (rho_C, c*sigma c_*) leaves L
    at a's object, with that column as witness."""
    rep.add(check_id, False, detail=f"object {a.obj}: image of (rho_C, c*sigma c_*) leaves L",
            witness=witness_vector(a.escape))


def is_coisotropic(datum: CoisotropicDatum) -> VerificationReport:
    """Compatibility at all sampled C-arrows plus surjectivity of the
    non-degeneracy map at all sampled C-objects; 3-form compatibility is a
    data equality."""
    rep = VerificationReport(f"coiso.{datum.name or 'datum'}")
    c = datum.morphism

    if not c.cod.qs_report.passed:
        rep.add_hypothesis_violation("coiso.qs_target",
                                     "codomain bundle fails qs_check")
        return rep

    for i, ob_c in enumerate(c.dom.objects):
        ob_g = c.cod.objects[c.obj_map[i]]
        pulled = ob_g.phi.pullback(c.c0[i])
        rep.add("coiso.phi", ob_c.phi == pulled,
                detail=f"object {i}: background form equals c*phi")

    for k, r in enumerate(datum.compatibility):
        rep.records.append(replace(r, detail=f"arrow {k}: " + r.detail))

    for a in datum.assemblies:
        if a.escape is not None:
            _add_escape(rep, "coiso.nondeg", a)
            continue
        wit = None
        if not a.onto:
            missing = [v for v in a.fp.basis if not a.im.contains(v)]
            wit = witness_vector(missing[0]) if missing else witness_subspace(a.im)
        rep.add("coiso.nondeg", a.onto,
                detail=f"object {a.obj}: (rho_C, c*sigma c_*, c_*) onto L x_c A_G",
                witness=wit)
    return rep


def strong_kernel(c: MorphismFiber, obj_idx: int) -> Subspace:
    """ker rho_C cap ker c_* at the C-object: zero where c is strong."""
    return kernel(vstack(c.dom.objects[obj_idx].rho, c.cA[obj_idx]))


def strong_injectivity(datum: CoisotropicDatum) -> VerificationReport:
    """The injectivity half of strongness: ker rho_C cap ker c_* = 0."""
    rep = VerificationReport(f"coiso.{datum.name or 'datum'}")
    c = datum.morphism
    for i in range(len(c.dom.objects)):
        ker = strong_kernel(c, i)
        rep.add("coiso.strong", ker.dim == 0,
                detail=f"object {i}: ker rho_C cap ker c_* = 0",
                witness=None if ker.dim == 0 else witness_subspace(ker))
    return rep


def is_strong(datum: CoisotropicDatum) -> VerificationReport:
    """is_coisotropic plus strong_injectivity (ker rho_C cap ker c_* = 0)."""
    rep = is_coisotropic(datum)
    rep.merge(strong_injectivity(datum))
    return rep


def _quotient_iso(f: LinMap, v1: Subspace, w1: Subspace,
                  v2: Subspace, w2: Subspace) -> tuple[bool, bool]:
    """Is the induced map V1/W1 -> V2/W2 injective / surjective?

    Requires f(V1) <= V2 and f(W1) <= W2 (checked).
    """
    if not image(f, v1).issubset(v2) or not image(f, w1).issubset(w2):
        raise ValueError("map does not descend to the quotients")
    surj = image(f, v1).sum(w2) == v2
    inj = preimage(f, w2).intersect(v1) == w1
    return inj, surj


def chain_map_check(datum: CoisotropicDatum, obj_idx: int) -> VerificationReport:
    """Verify the two-row chain diagram at one object and cross-validate its
    cohomology against the non-degeneracy map.

    Top row: A_C -> L + c*A_G -> c*T G0 (coordinates on L are its echelon
    basis).  Bottom row: 0 -> T*C0 -> A_C*.  The two characterizations are
    computed independently: quasi-isomorphism iff the non-degeneracy map is
    bijective, middle-cohomology isomorphism iff it is surjective.
    """
    rep = VerificationReport("chain_map")
    c = datum.morphism
    ob_c = c.dom.objects[obj_idx]
    ob_g = c.cod.objects[c.obj_map[obj_idx]]
    l = datum.dirac[obj_idx]
    n, r_c = ob_c.dim, ob_c.adim
    c0, cA = c.c0[obj_idx], c.cA[obj_idx]

    p_t, p_tstar = l.parts            # L-coords -> T, L-coords -> T*

    # top row; the assembly decided whether (rho_C, c*sigma c_*) lands in L
    a = datum.assemblies[obj_idx]
    if a.escape is not None:
        _add_escape(rep, "chain_map.image_in_L", a)
        return rep
    rep.add("chain_map.image_in_L", True,
            detail=f"object {obj_idx}: image of (rho_C, c*sigma c_*) lies in L")
    d1 = vstack(l.space.coords(a.mat.row_block(0, 2 * n)), cA)
    d2 = hstack(c0 @ p_t, ob_g.rho.scale(-1))
    if not (d2 @ d1).is_zero():
        raise ValueError("d2 . d1 != 0")

    # bottom row: 0 -> T*C0 -> A_C*, a complex because b1 is zero
    b1 = LinMap.zero(n, 0)
    b2 = ob_c.rho.transpose()

    # vertical maps; the right one sends w to the functional b -> <sigma(cA b), w>
    v_minus = LinMap.zero(0, r_c)
    v_mid = hstack(p_tstar.scale(-1), c.pullback_sigma(obj_idx))
    v_plus = (ob_g.sigma @ cA).transpose()

    sq1 = v_mid @ d1 == b1 @ v_minus
    sq2 = b2 @ v_mid == v_plus @ d2
    rep.add("chain_map.squares", sq1 and sq2,
            detail=f"object {obj_idx}: both squares of the chain diagram commute")
    if not (sq1 and sq2):
        return rep

    # independent cohomology computation
    h_m_top = kernel(d1)
    h0_top = (kernel(d2), image(d1))
    h1_top = (full_subspace(ob_g.dim), image(d2))
    h0_bot = (kernel(b2), image(b1))
    h1_bot = (full_subspace(r_c), image(b2))

    iso_minus = h_m_top.dim == 0  # target H^{-1} is 0
    inj0, surj0 = _quotient_iso(v_mid, *h0_top, *h0_bot)
    inj1, surj1 = _quotient_iso(v_plus, *h1_top, *h1_bot)
    quasi_iso = iso_minus and inj0 and surj0 and inj1 and surj1
    middle_iso = inj0 and surj0

    # the other characterization, computed from the assembled map
    surjective = a.onto
    bijective = surjective and kernel(a.mat).dim == 0

    rep.add("chain_map.quasi_iso_iff_bijective", quasi_iso == bijective,
            detail=f"object {obj_idx}: quasi-isomorphism <=> bijection "
                   f"(quasi_iso={quasi_iso}, bijective={bijective})")
    rep.add("chain_map.middle_iso_iff_surjective", middle_iso == surjective,
            detail=f"object {obj_idx}: middle cohomology iso <=> surjection "
                   f"(middle_iso={middle_iso}, surjective={surjective})")
    return rep


def orbit_lagrangian(c: MorphismFiber) -> CoisotropicDatum:
    """The canonical presymplectic 2-form on an orbit, as a Lagrangian datum
    on the inclusion c : C = G|_O -> G of the restricted bundle.

    gamma is defined on T O = im rho by gamma(rho a, rho b) = <sigma a, rho b>;
    well-definedness (the value depends only on rho a) is checked, not assumed.
    """
    dirac = []
    for i, ob_c in enumerate(c.dom.objects):
        ob_g = c.cod.objects[c.obj_map[i]]
        c0, cA = c.c0[i], c.cA[i]
        rho_g_on_c = ob_g.rho @ cA       # A_C -> T_G
        # image of rho must be c0(T_C) and well-definedness must hold
        if image(rho_g_on_c) != image(c0):
            raise ValueError("orbit sample: anchor image differs from orbit tangent")
        pairing = ob_g.sigma @ cA        # columns sigma(a_j) in T_G*
        # <sigma z, rho b> = 0 for z in ker rho_C and every b
        if not (rho_g_on_c.transpose() @ pairing @ kernel(ob_c.rho).matrix).is_zero():
            raise ValueError("orbit sample: gamma is not well-defined on rho(A)")
        # gamma in the abstract orbit coordinates: for basis u_k = c0(e_k),
        # pick a_k with rho_C a_k = e_k (the columns of a) and set
        # gamma_kl = <sigma a_k, c0 e_l>
        a = solve(ob_c.rho, LinMap.identity(ob_c.dim))
        if a is None:
            raise ValueError("orbit sample: rho_C is not onto the orbit tangent")
        gamma = TwoFormFiber((c0.transpose() @ pairing @ a).transpose())
        dirac.append(graph_two_form(gamma))
    return CoisotropicDatum(c, tuple(dirac), name="orbit")


def zero_shifted_poisson_check(bundle: GroupoidFiberBundle,
                               dirac: list[DiracFiber]) -> VerificationReport:
    """s*L = t*L at sampled arrows and im rho = ker L at sampled objects;
    requires untwisted data (phi = 0)."""
    rep = VerificationReport("zsp")
    for i, ob in enumerate(bundle.objects):
        if not ob.phi.is_zero():
            rep.add_hypothesis_violation("zsp.untwisted",
                                         f"object {i} carries a nonzero 3-form")
            return rep
    for k, ar in enumerate(bundle.arrows):
        lhs = pullback(ar.s_star, dirac[ar.src])
        rhs = pullback(ar.t_star, dirac[ar.tgt])
        rep.add("zsp.invariance", lhs == rhs, detail=f"arrow {k}: s*L = t*L",
                witness=None if lhs == rhs else
                {"arrow": k, **witness_difference(lhs.space, rhs.space)})
    for i, ob in enumerate(bundle.objects):
        im_rho = image(ob.rho)
        ker_l = dirac[i].kernel
        contained, equal = im_rho.issubset(ker_l), im_rho == ker_l
        wit = None if equal else {"im_rho": witness_subspace(im_rho),
                                  "ker_L": witness_subspace(ker_l)}
        # the invariance condition already forces im rho <= ker L; report
        # that half separately so a failure names the side that broke
        rep.add("zsp.kernel.contains", contained,
                detail=f"object {i}: im rho <= ker L", witness=None if contained else wit)
        rep.add("zsp.kernel", equal, detail=f"object {i}: im rho = ker L", witness=wit)
    return rep


def infinitesimal_coisotropic_check(cmaps: list[LinMap],
                                    l_n: list[DiracFiber],
                                    l_m: list[DiracFiber],
                                    phi_n: list[ThreeFormFiber],
                                    phi_m: list[ThreeFormFiber]) -> VerificationReport:
    """Constant-rank check of L_N x_c L_M over the sampled points.

    The fiber product is {((v, a), (w, b)) : c_* v = w, a = c*b}; the check
    passes iff its dimension is the same at every sample, and the report
    carries the per-point ranks either way.
    """
    rep = VerificationReport("infinitesimal")
    ranks = []
    for c, ln, lm, pn, pm in zip(cmaps, l_n, l_m, phi_n, phi_m):
        if pm.pullback(c) != pn:
            rep.add_hypothesis_violation("infinitesimal.twist",
                                         "c*phi_M != phi_N at a sample")
            return rep
        t_n, c_n = ln.parts
        t_m, c_m = lm.parts
        fp = fiber_product(vstack(c @ t_n, c_n), vstack(t_m, c.transpose() @ c_m))
        ranks.append(fp.dim)
    rep.add("infinitesimal.constant_rank", len(set(ranks)) <= 1,
            detail=f"fiber product ranks across samples: {ranks}", ranks=ranks)
    return rep


def identity_datum(bundle: GroupoidFiberBundle) -> CoisotropicDatum:
    """The induced Dirac structure on the identity morphism."""
    dirac = tuple(induced_dirac(ob) for ob in bundle.objects)
    return CoisotropicDatum(identity_morphism(bundle), dirac,
                            name=f"identity.{bundle.name}")
