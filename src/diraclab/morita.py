"""Morita transport of coisotropic structures: descent of Dirac structures
along weak Morita legs, verification of symplectic Morita equivalences, the
connection-dependent adjoint calculus with its homotopy identities, and the
coisotropic transfer pipeline with its composition check.

The transfer pipeline reuses what it has already decided: the target
bundle's quasi-symplectic verdict is decided once per bundle (see groupoid),
the strongness check, run when the caller passes the input datum, adds only
the injectivity half of strongness to the is_coisotropic report it already
holds, and the composition check takes the first leg's TransferResult from
its caller instead of transferring again.  The round trip pushes the
transferred fibers back along the reversed legs and compares them with the
input; it does not rerun the reverse transfer's checks.  A TransferResult
holds the transferred fibers as a tuple in C2-object order, and transfer
folds in each sub-check's report through VerificationReport.summarize.

One constructor builds every equivalence datum the program transfers along:
identity_leg_equivalence(c1, psi2, c2, gamma, dgamma), whose legs into the
middle L = G are identities (psi1 = id, phi1 = phi2 = id, g = c1), so that
theta sits on G's unit arrows and delta = -c1*gamma.  The torus suite
passes (c, id, c, gamma, dgamma), a self-equivalence twisted by gamma, and
the reduction passes (c, q, c', 0, 0), the quotient weak Morita morphism q
over the point.

The adjoint calculus computes each connection's adjoints once: Ad_T, Ad_A
and the sigma-check map are views kept on the frozen ConnectionFiber, which
holds the arrow fiber and source anchor they are solved from, so the sigma
identity, the curvature defects and the homotopy identities share one solve
per connection and map, and curvature_defect_check computes K(g, h) once
per pair.

gauged_pullback is psi1*L + graph(delta), the fiber every transport pushes
forward along psi2; forms are pulled back by linalg.congruence.
"""

from __future__ import annotations

from functools import cached_property

from .coisotropic import CoisotropicDatum, is_coisotropic, is_strong, strong_injectivity
from .courant import (
    DiracFiber,
    ThreeFormFiber,
    TwoFormFiber,
    gauge,
    pullback,
    pushforward,
)
from .groupoid import (
    ArrowFiber,
    GroupoidFiberBundle,
    MorphismFiber,
    coboundary,
    compatibility_check,
    identity_morphism,
    unit_arrow_at,
)
from .linalg import (
    DimensionMismatch,
    LinMap,
    block_diag,
    congruence,
    fiber_product,
    hstack,
    image,
    kernel,
    random_matrix,
    solve,
    vstack,
)
from .records import record, replace
from .report import VerificationReport, witness_failures


def descend_dirac(f: MorphismFiber, dirac: list[DiracFiber],
                  omega_pull: list[TwoFormFiber]):
    """Pushforward of a Dirac family along a weak Morita morphism.

    omega_pull supplies f*omega_2 per domain arrow; the compatibility
    hypothesis t*L = s*L + graph(f*omega_2) is compatibility_check's,
    relabelled descend.hypothesis here.  Cross-fiber invariance and the
    round trip f*f_*L = L are asserted.
    Returns (pushed fibers per codomain object, report).
    """
    rep = VerificationReport("descend_dirac")
    for k, ar in enumerate(f.dom.arrows):
        r = compatibility_check(ar, dirac[ar.src], dirac[ar.tgt], omega_pull[k])
        rep.records.append(replace(r, check_id="descend.hypothesis",
                                   detail=f"arrow {k}: {r.detail}"))
    groups: dict[int, list[int]] = {}
    for i in range(len(f.dom.objects)):
        groups.setdefault(f.obj_map[i], []).append(i)
    pushed: dict[int, DiracFiber] = {}
    for gi, members in sorted(groups.items()):
        images = [pushforward(f.c0[i], dirac[i]) for i in members]
        same = all(l == images[0] for l in images)
        rep.add("descend.invariance", same,
                detail=f"codomain object {gi}: pushforward constant across the fiber",
                witness=None if same else
                {"objects": members})
        pushed[gi] = images[0]
        for i in members:
            rt = pullback(f.c0[i], images[0])
            rep.add("descend.roundtrip", rt == dirac[i],
                    detail=f"object {i}: f*f_*L = L")
    return pushed, rep


# ---------------------------------------------------------------------------
# symplectic Morita equivalences

def symplectic_morita_check(phi1: MorphismFiber, phi2: MorphismFiber,
                            gamma: list[TwoFormFiber],
                            dgamma: list[ThreeFormFiber]) -> VerificationReport:
    """Verify the two compatibility identities of a symplectic equivalence
    and, independently, the bijectivity that makes non-degeneracy automatic."""
    if phi1.dom is not phi2.dom:
        raise DimensionMismatch("the two legs must share their domain bundle")
    rep = VerificationReport("symplectic_morita")
    lgpd = phi1.dom
    forms = [gm.matrix for gm in gamma]
    for k, ar in enumerate(lgpd.arrows):
        lhs = phi1.pullback_two_form(k).matrix - phi2.pullback_two_form(k).matrix
        rep.add("morita.form", lhs == coboundary(ar, forms),
                detail=f"arrow {k}: phi1*omega1 - phi2*omega2 = t*gamma - s*gamma")
    for i, ob in enumerate(lgpd.objects):
        p1 = phi1.cod.objects[phi1.obj_map[i]].phi.pullback(phi1.c0[i])
        p2 = phi2.cod.objects[phi2.obj_map[i]].phi.pullback(phi2.c0[i])
        rep.add("morita.threeform", p1.add(p2.neg()) == dgamma[i].neg(),
                detail=f"object {i}: phi1*Phi1 - phi2*Phi2 = -d(gamma)")

    for i, ob in enumerate(lgpd.objects):
        g1 = phi1.cod.objects[phi1.obj_map[i]]
        g2 = phi2.cod.objects[phi2.obj_map[i]]
        # (v, (a1, a2)) with phi1 v = rho a1, phi2 v = rho a2 and
        # i_v gamma = phi1*sigma1 a1 - phi2*sigma2 a2
        fp = fiber_product(
            vstack(vstack(phi1.c0[i], phi2.c0[i]), gamma[i].flat()),
            vstack(block_diag(g1.rho, g2.rho),
                   hstack(phi1.pullback_sigma(i), phi2.pullback_sigma(i).scale(-1))))
        m = vstack(vstack(ob.rho, phi1.cA[i]), phi2.cA[i])
        ok = image(m) == fp and kernel(m).dim == 0
        rep.add("morita.bijective", ok,
                detail=f"object {i}: l -> (rho l, phi1 l, phi2 l) bijective onto "
                       "the gamma-compatible fiber product")
    return rep


# ---------------------------------------------------------------------------
# connections and the adjoint calculus

@record
class ConnectionFiber:
    """A splitting tau of the source sequence at one arrow, with the arrow's
    fiber and the anchor of its source object, from which its adjoints are
    derived.

    ad_T, ad_A and sigma_check are views: each is solved for on first read
    and kept on the frozen connection, so every identity that reads them
    shares one solve per connection."""

    arrow: int
    tau: LinMap            # T_{s(g)} -> T_g, s_star . tau = id
    fiber: ArrowFiber
    src_rho: LinMap        # the anchor at s(g)

    @cached_property
    def ad_T(self) -> LinMap:
        """Ad_g on tangents: v -> t_*(tau_g v)."""
        return self.fiber.t_star @ self.tau

    @cached_property
    def ad_A(self) -> LinMap:
        """Ad_g on the algebroid, characterized by (Ad_g a)^R = a^L + tau rho a."""
        ar = self.fiber
        x = solve(ar.right, ar.left + self.tau @ self.src_rho)
        if x is None:
            raise ValueError("adjoint image not reachable by right translation")
        return x

    @cached_property
    def sigma_check(self) -> LinMap:
        """The left splitting: v -> (right translation)^{-1}(v - tau s_* v)."""
        ar = self.fiber
        x = solve(ar.right, LinMap.identity(ar.dim) - self.tau @ ar.s_star)
        if x is None:
            raise ValueError("vector not reachable by right translation")
        return x


def make_connection(bundle: GroupoidFiberBundle, arrow_idx: int,
                    tau: LinMap) -> ConnectionFiber:
    ar = bundle.arrows[arrow_idx]
    src = bundle.objects[ar.src]
    if ar.s_star @ tau != LinMap.identity(src.dim):
        raise ValueError("tau is not a splitting of the source differential")
    return ConnectionFiber(arrow_idx, tau, ar, src.rho)


def random_connection(bundle: GroupoidFiberBundle, arrow_idx: int,
                      rng) -> ConnectionFiber:
    """A deterministic-from-seed random splitting tau = tau0 + K B.

    Connections are unital: at unit arrows tau is the unit embedding, which
    the homotopy calculus requires (Ad is the identity there).
    """
    ar = bundle.arrows[arrow_idx]
    if ar.unit:
        return make_connection(bundle, arrow_idx, ar.u_star)
    n = bundle.objects[ar.src].dim
    tau0 = solve(ar.s_star, LinMap.identity(n))
    if tau0 is None:
        raise ValueError("source differential is not surjective")
    ker = kernel(ar.s_star)
    if ker.dim:
        b = random_matrix(rng, ker.dim, n, bound=4)
        tau0 = tau0 + ker.matrix @ b
    return make_connection(bundle, arrow_idx, tau0)


def basic_curvature(bundle: GroupoidFiberBundle, pair_idx: int,
                    conn: dict[int, ConnectionFiber]) -> LinMap:
    """K(g, h) : T_{s(h)} -> A_{t(g)} from the pair's multiplication fiber."""
    p = bundle.pairs[pair_idx]
    # v -> (tau_g Ad_h v, tau_h v) in the pair tangent, multiplied, then sigma-checked
    x = p.tangent.coords(vstack(conn[p.g].tau @ conn[p.h].ad_T, conn[p.h].tau))
    if x is None:
        raise ValueError("vector not in subspace")
    return conn[p.gh].sigma_check @ p.m_star @ x


def curvature_defect_check(bundle: GroupoidFiberBundle, pair_idx: int,
                           conn: dict[int, ConnectionFiber]) -> VerificationReport:
    """Ad_g Ad_h - Ad_{gh} = K(g,h) rho on the algebroid, per sampled pair,
    and its tangent form Ad_g Ad_h - Ad_{gh} = rho K(g,h); K is computed
    once for both."""
    rep = VerificationReport("adjoint.defect")
    p = bundle.pairs[pair_idx]
    g, h, gh = conn[p.g], conn[p.h], conn[p.gh]
    k = basic_curvature(bundle, pair_idx, conn)
    lhs = g.ad_A @ h.ad_A - gh.ad_A
    rep.add("adjoint.defect", lhs == k @ h.src_rho,
            detail=f"pair {pair_idx}: Ad_g Ad_h - Ad_gh = K(g,h) rho")
    lhs_t = g.ad_T @ h.ad_T - gh.ad_T
    rhs_t = bundle.objects[g.fiber.tgt].rho @ k
    rep.add("adjoint.defect.tangent", lhs_t == rhs_t,
            detail=f"pair {pair_idx}: the tangent defect identity")
    return rep


@record
class NatTransFiber:
    """theta at one domain object: the codomain arrow theta(x) and the
    differential theta_star."""

    arrow: int
    theta_star: LinMap


def theta_dot(fib: NatTransFiber, conn: dict[int, ConnectionFiber]) -> LinMap:
    """The homotopy differential: sigma-check of theta_star."""
    return conn[fib.arrow].sigma_check @ fib.theta_star


def homotopy_identities(f: MorphismFiber, g: MorphismFiber,
                        theta: dict[int, NatTransFiber],
                        eta: dict[int, NatTransFiber],
                        conn: dict[int, ConnectionFiber],
                        inverse_pairs: dict[int, int]) -> VerificationReport:
    """The five connection identities of the adjoint homotopy calculus.

    theta : f => g, eta its inverse; inverse_pairs maps each object x to the
    index of the composable pair (theta(x), eta(x)) in the codomain bundle.
    All identities are checked exactly; they hold for any splitting, which
    the caller exercises with independently drawn random connections.
    """
    rep = VerificationReport("homotopy_identities")
    cod = f.cod
    for x, fib in sorted(theta.items()):
        ar = cod.arrows[fib.arrow]
        ob_dom = f.dom.objects[x]
        # structural: s theta = f, t theta = g
        ok = (ar.s_star @ fib.theta_star == f.c0[x]
              and ar.t_star @ fib.theta_star == g.c0[x])
        rep.add("homotopy.structure", ok,
                detail=f"object {x}: s theta_* = f_*, t theta_* = g_*")
        cf = conn[fib.arrow]
        td = theta_dot(fib, conn)
        adt, ada = cf.ad_T, cf.ad_A
        rho_cod = cod.objects[g.obj_map[x]].rho
        rep.add("homotopy.prop.tangent",
                g.c0[x] - adt @ f.c0[x] == rho_cod @ td,
                detail=f"object {x}: g_* v - Ad f_* v = rho theta-dot v")
        rep.add("homotopy.prop.algebroid",
                g.cA[x] - ada @ f.cA[x] == td @ ob_dom.rho,
                detail=f"object {x}: g_* b - Ad f_* b = theta-dot rho b")

        rep.add("homotopy.sigma_ad",
                _sigma_ad_holds(cod, cf),
                detail=f"object {x}: <sigma Ad a, Ad v> = <sigma a, v> + "
                       "omega(tau rho a, tau v)")

        tgt_g = cod.objects[ar.tgt]
        om = ar.omega.matrix
        sig_t = tgt_g.sigma
        m1 = td.transpose() @ sig_t.transpose() @ adt @ f.c0[x]
        m3 = congruence(td, sig_t.transpose(), tgt_g.rho)
        m4 = congruence(cf.tau @ f.c0[x], om)
        rep.add("homotopy.theta_form",
                congruence(fib.theta_star, om) == m1 - m1.transpose() + m3 + m4,
                detail=f"object {x}: the theta*omega expansion")

        efib = eta[x]
        ed = theta_dot(efib, conn)
        k = basic_curvature(cod, inverse_pairs[x], conn)
        lhs5 = td + ada @ ed + k @ g.c0[x]
        rep.add("homotopy.inverse",
                lhs5.is_zero(),
                detail=f"object {x}: theta-dot + Ad eta-dot + K(theta, eta) g_* = 0")
    return rep


# ---------------------------------------------------------------------------
# coisotropic transfer

@record
class MoritaEquivalenceDatum:
    """The seven-groupoid transfer diagram sampled fiberwise.

    psi1 : K -> C1 and psi2 : K -> C2 are (weak) Morita legs, g : K -> L the
    middle map, phi_i : L -> G_i the symplectic equivalence with 2-form
    gamma, and theta_i the natural transformations c_i psi_i => phi_i g.
    The connecting form delta is stored and re-derivable from the parts.
    """

    psi1: MorphismFiber
    psi2: MorphismFiber
    g: MorphismFiber
    phi1: MorphismFiber
    phi2: MorphismFiber
    c1: MorphismFiber
    c2: MorphismFiber
    theta1: dict[int, NatTransFiber]
    theta2: dict[int, NatTransFiber]
    gamma: tuple[TwoFormFiber, ...]
    dgamma: tuple[ThreeFormFiber, ...]
    delta: tuple[TwoFormFiber, ...]

    def connecting_form(self, x: int) -> TwoFormFiber:
        """-g*gamma + theta1*omega1 - theta2*omega2 at the K-object x."""
        gpull = self.gamma[self.g.obj_map[x]].pullback(self.g.c0[x]).matrix
        th1 = _theta_form(self.phi1.cod, self.theta1[x])
        th2 = _theta_form(self.phi2.cod, self.theta2[x])
        return TwoFormFiber(gpull.scale(-1) + th1 - th2)

    def reversed(self) -> "MoritaEquivalenceDatum":
        return MoritaEquivalenceDatum(
            self.psi2, self.psi1, self.g, self.phi2, self.phi1,
            self.c2, self.c1, self.theta2, self.theta1,
            tuple(gm.neg() for gm in self.gamma),
            tuple(dg.neg() for dg in self.dgamma),
            tuple(d.neg() for d in self.delta))


def _theta_form(cod: GroupoidFiberBundle, fib: NatTransFiber) -> LinMap:
    """theta*omega: the 2-form of the arrow theta(x), pulled back by theta_*."""
    om = cod.arrows[fib.arrow].omega
    return om.pullback(fib.theta_star).matrix


def nat_trans_form_identity(f: MorphismFiber, g: MorphismFiber,
                            theta: dict[int, NatTransFiber]) -> VerificationReport:
    """g*omega - f*omega = t*(theta*omega) - s*(theta*omega) at the sampled
    arrows whose two ends theta covers."""
    if f.dom is not g.dom or f.cod is not g.cod:
        raise DimensionMismatch("natural transformation needs a parallel pair")
    rep = VerificationReport("nat_trans.form")
    theta_form = {x: _theta_form(f.cod, fib) for x, fib in theta.items()}
    for k, ar in enumerate(f.dom.arrows):
        if ar.src not in theta_form or ar.tgt not in theta_form:
            continue
        lhs = g.pullback_two_form(k).matrix - f.pullback_two_form(k).matrix
        rep.add("nat_trans.form.arrow", lhs == coboundary(ar, theta_form),
                detail=f"arrow {k}: g*omega - f*omega = t*theta*omega - s*theta*omega")
    return rep


def star_composite_form_identity(cod: GroupoidFiberBundle,
                                 theta: dict[int, NatTransFiber],
                                 eta: dict[int, NatTransFiber],
                                 composite: dict[int, NatTransFiber]) -> VerificationReport:
    """(eta * theta)*omega = eta*omega + theta*omega at each sampled object
    all three cover."""
    rep = VerificationReport("nat_trans.star")
    for x, fib in composite.items():
        if x not in theta or x not in eta:
            continue
        rep.add("nat_trans.star.object",
                _theta_form(cod, fib) == _theta_form(cod, eta[x]) + _theta_form(cod, theta[x]),
                detail=f"object {x}: (eta * theta)*omega = eta*omega + theta*omega")
    return rep


@record
class TransferResult:
    dirac: tuple[DiracFiber, ...]     # in C2-object order; empty if a step failed
    report: VerificationReport


def transfer(m: MoritaEquivalenceDatum, l1: list[DiracFiber],
             input_datum: CoisotropicDatum | None = None,
             roundtrip: bool = True) -> TransferResult:
    """Push a coisotropic structure through the equivalence.

    Pipeline: pull back along psi1, gauge by the connecting form, descend
    along psi2 (invariance and round-trip checked), then verify the result
    is coisotropic; given the input as the datum (m.c1, l1) the caller
    holds, and that datum strong, verify strongness; finally push the
    transferred fibers back and compare them with the input.
    """
    if input_datum is not None and (input_datum.morphism != m.c1
                                    or input_datum.dirac != tuple(l1)):
        raise ValueError("transfer: input_datum is not the datum (m.c1, l1)")
    rep = VerificationReport("transfer")

    if not rep.summarize("transfer.symplectic_morita",
                         symplectic_morita_check(m.phi1, m.phi2, list(m.gamma),
                                                 list(m.dgamma)),
                         detail="the middle leg is a symplectic equivalence"):
        return TransferResult((), rep)

    for x in range(len(m.psi1.dom.objects)):
        stored = m.delta[x].matrix
        rep.add("transfer.delta", stored == m.connecting_form(x).matrix,
                detail=f"K-object {x}: stored connecting form matches "
                       "-g*gamma + theta1*omega1 - theta2*omega2")

    l0 = []
    for x in range(len(m.psi1.dom.objects)):
        l0.append(gauged_pullback(m.psi1.c0[x], l1[m.psi1.obj_map[x]], m.delta[x]))

    omega_pull = []
    for k in range(len(m.psi2.dom.arrows)):
        c2_arrow = m.c2.pullback_two_form(m.psi2.arrow_map[k])
        omega_pull.append(c2_arrow.pullback(m.psi2.c1[k]))
    pushed, drep = descend_dirac(m.psi2, l0, omega_pull)
    if not rep.summarize("transfer.descent", drep,
                         detail="psi1*L1 + graph(delta) descends along psi2"):
        return TransferResult((), rep)

    for x in range(len(m.psi1.dom.objects)):
        rt = pullback(m.psi2.c0[x], pushed[m.psi2.obj_map[x]])
        rep.add("transfer.step1", rt == l0[x],
                detail=f"K-object {x}: psi2*L2 = psi1*L1 + graph(delta)")

    l2 = tuple(pushed[i] for i in range(len(m.c2.dom.objects)))
    d2 = CoisotropicDatum(m.c2, l2, name="transferred")
    coiso = rep.summarize("transfer.coisotropic", is_coisotropic(d2),
                          detail="the transferred structure is coisotropic")

    if input_datum is not None and is_strong(input_datum).passed:
        rep.add("transfer.strong", coiso and strong_injectivity(d2).passed,
                detail="strict equivalence preserves strongness")

    if roundtrip:
        same = all(l == l1[i] for i, l in zip(m.psi1.obj_map, _pushed_back(m, l2)))
        rep.add("transfer.roundtrip", same,
                detail="backward transfer returns the original structure")
    return TransferResult(l2, rep)


def _pushed_back(m: MoritaEquivalenceDatum,
                 l2: tuple[DiracFiber, ...]) -> list[DiracFiber]:
    """The transferred fibers pushed back to C1, one per K-object x, as the
    reversed equivalence r transfers them: pulled back along r.psi1, gauged
    by r.delta and pushed forward along r.psi2."""
    r = m.reversed()
    return [pushforward(r.psi2.c0[x],
                        gauged_pullback(r.psi1.c0[x], l2[r.psi1.obj_map[x]], r.delta[x]))
            for x in range(len(r.psi1.dom.objects))]


def gauged_pullback(psi1_c0: LinMap, l: DiracFiber, delta: TwoFormFiber) -> DiracFiber:
    """psi1*L + graph(delta), the fiber a transport pushes forward along psi2."""
    return gauge(pullback(psi1_c0, l), delta)


def sigma_ad_check(bundle: GroupoidFiberBundle,
                   conn: dict[int, ConnectionFiber]) -> VerificationReport:
    """<sigma Ad_g a, Ad_g v> = <sigma a, v> + omega(tau rho a, tau v) at every
    arrow carrying a 2-form and a connection."""
    rep = VerificationReport("sigma_ad")
    for k, cf in sorted(conn.items()):
        ar = bundle.arrows[k]
        if ar.omega is None:
            continue
        rep.add("sigma_ad.arrow",
                _sigma_ad_holds(bundle, cf),
                detail=f"arrow {k}: the sigma-adjoint pairing identity")
    return rep


def _sigma_ad_holds(bundle: GroupoidFiberBundle, cf: ConnectionFiber) -> bool:
    """<sigma Ad a, Ad v> = <sigma a, v> + omega(tau rho a, tau v) at the
    connection's arrow."""
    ar = cf.fiber
    src, tgt = bundle.objects[ar.src], bundle.objects[ar.tgt]
    return (cf.ad_A.transpose() @ tgt.sigma.transpose() @ cf.ad_T
            == src.sigma.transpose()
            + src.rho.transpose() @ cf.tau.transpose() @ ar.omega.matrix @ cf.tau)


def identity_leg_equivalence(c1: MorphismFiber, psi2: MorphismFiber,
                             c2: MorphismFiber, gamma: list[TwoFormFiber],
                             dgamma: list[ThreeFormFiber]) -> MoritaEquivalenceDatum:
    """The equivalence datum whose legs into L = G are identities.

    K is c1's domain, psi1 = id_K, the middle map g is c1 and phi1 = phi2 =
    id_G, so both natural transformations sit on G's unit arrows over c1,
    theta(x) = u_* c1_*, and the connecting form is delta = -c1*gamma.  gamma
    must make the identity span a symplectic equivalence (basic and closed
    for the self-pairing), which transfer re-checks.  (c, id, c) is the
    self-equivalence of c twisted by gamma; (c, q, c') with gamma = 0 the
    weak Morita morphism q from c's domain to the domain of c'.
    """
    ident_g = identity_morphism(c1.cod)
    theta = {}
    for i in range(len(c1.dom.objects)):
        unit_idx = unit_arrow_at(c1.cod, c1.obj_map[i])
        theta[i] = NatTransFiber(unit_idx, c1.cod.arrows[unit_idx].u_star @ c1.c0[i])
    delta = tuple(
        TwoFormFiber(gamma[c1.obj_map[i]].pullback(c1.c0[i]).matrix.scale(-1))
        for i in range(len(c1.dom.objects)))
    return MoritaEquivalenceDatum(
        identity_morphism(c1.dom), psi2, c1, ident_g, ident_g, c1, c2, theta, theta,
        tuple(gamma), tuple(dgamma), delta)


@record
class ChainSample:
    """One object sample of a composed equivalence: the homotopy fiber
    product object with its projections and connecting transformation."""

    k1_obj: int
    k2_obj: int
    pr_k1: LinMap             # T -> T_{K1 object}
    pr_k2: LinMap
    eta_arrow: int            # C2 arrow of the connecting transformation
    eta_star: LinMap          # T -> T_{eta arrow}
    ghat_arrow: int           # shared-bundle arrow presenting the L-hat object
    ghat_star: LinMap         # T -> T_{ghat arrow}


def transfer_composition_check(m1: MoritaEquivalenceDatum,
                               m2: MoritaEquivalenceDatum,
                               samples: list[ChainSample],
                               l1: list[DiracFiber],
                               leg1: TransferResult) -> VerificationReport:
    """Composition of two transfers through homotopy fiber products.

    Recomputes the composed connecting form from its parts and matches it
    against the decomposition delta-hat = pr1*delta1 + pr2*delta2 +
    eta*c2*omega2 + zeta, then runs the composed transfer and compares it
    with the sequential one through an explicitly constructed gauge form.
    leg1 is the caller's transfer(m1, l1), the first leg of the sequential
    transfer; only the second leg is run here.
    """
    rep = VerificationReport("transfer_composition")
    g2bundle = m1.phi2.cod
    c2 = m1.c2
    deltahat = []
    zetas = []
    for s in samples:
        g_ar = g2bundle.arrows[s.ghat_arrow]
        # gamma-hat on the L-hat object presented by the shared arrow:
        # pr_L1*gamma1 + pr_L2*gamma2 - xi*omega2
        gam1 = m1.gamma[m1.phi2.obj_map.index(g_ar.src)]
        gam2 = m2.gamma[m2.phi1.obj_map.index(g_ar.tgt)]
        gamma_hat = (congruence(g_ar.s_star, gam1.matrix)
                     + congruence(g_ar.t_star, gam2.matrix) - g_ar.omega.matrix)
        th1 = _theta_form(m1.phi1.cod, m1.theta1[s.k1_obj])
        th2 = _theta_form(m2.phi2.cod, m2.theta2[s.k2_obj])
        dhat = (congruence(s.ghat_star, gamma_hat).scale(-1)
                + congruence(s.pr_k1, th1) - congruence(s.pr_k2, th2))
        deltahat.append(TwoFormFiber(dhat))

        th12 = _theta_form(m1.phi2.cod, m1.theta2[s.k1_obj])
        th22 = _theta_form(m2.phi1.cod, m2.theta1[s.k2_obj])
        zeta = congruence(s.pr_k1, th12) - congruence(s.pr_k2, th22)
        zetas.append(TwoFormFiber(zeta))

        eta_form = c2.pullback_two_form(s.eta_arrow)
        rhs = (congruence(s.pr_k1, m1.delta[s.k1_obj].matrix)
               + congruence(s.pr_k2, m2.delta[s.k2_obj].matrix)
               + congruence(s.eta_star, eta_form.matrix) + zeta)
        rep.add("composition.delta_hat", dhat == rhs,
                detail="delta-hat = pr1*delta1 + pr2*delta2 + eta*c2*omega2 + zeta")

    # sequential transfer; a leg's record exists only on failure, with the
    # leg's failing checks as its witness, followed by the leg's records
    if not leg1.report.passed:
        rep.add("composition.leg1", False, detail="first transfer failed",
                witness=witness_failures(leg1.report))
        rep.merge(leg1.report)
        return rep
    r2 = transfer(m2, list(leg1.dirac), roundtrip=False)
    if not r2.report.passed:
        rep.add("composition.leg2", False, detail="second transfer failed",
                witness=witness_failures(r2.report))
        rep.merge(r2.report)
        return rep

    # composed transfer: pull along psi-hat-1, gauge by delta-hat, descend
    # along psi-hat-2 (grouped by the K2-side object)
    groups: dict[int, list[int]] = {}
    for k, s in enumerate(samples):
        groups.setdefault(m2.psi2.obj_map[s.k2_obj], []).append(k)
    composed: dict[int, DiracFiber] = {}
    for c3_obj, members in sorted(groups.items()):
        fibers = []
        for k in members:
            s = samples[k]
            l0 = gauged_pullback(m1.psi1.c0[s.k1_obj] @ s.pr_k1,
                                 l1[m1.psi1.obj_map[s.k1_obj]], deltahat[k])
            fibers.append(pushforward(m2.psi2.c0[s.k2_obj] @ s.pr_k2, l0))
        same = all(f == fibers[0] for f in fibers)
        rep.add("composition.invariance", same,
                detail=f"composed pushforward constant over target object {c3_obj}")
        composed[c3_obj] = fibers[0]

    # gauge comparison: zeta descends to the explicit beta
    zeta_zero = all(z.matrix.is_zero() for z in zetas)
    if zeta_zero:
        for i, l in sorted(composed.items()):
            rep.add("composition.gauge", l == r2.dirac[i],
                    detail=f"object {i}: composed transfer equals the sequential one "
                           "(beta = 0)")
    else:
        rep.add_hypothesis_violation(
            "composition.gauge",
            "nonzero zeta: explicit beta construction needs the descent data")
    return rep
