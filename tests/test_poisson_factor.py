"""A 1-coisotropic that is not Lagrangian: a shipped Hamiltonian datum
c : C -> G times a fixed Poisson factor (Q^k, pi) on which G acts trivially.

The product acts on M x N.  Its C-bundle is C with Q^k added to every
object and arrow tangent:
- object: T + Q^k, the same A, rho' = (rho; 0), sigma' = (sigma; 0), phi on
  the first block;
- arrow: T_g + Q^k, s' = diag(s_*, I), t' = diag(t_*, I),
  omega' = diag(omega, 0), left' = (left; 0), right' = (right; 0),
  u' = diag(u_*, I);
- pair: the tangent is pair_tangent of the new arrows, and m' sends
  (xi, a, eta, a) to (m(xi, eta), a);
- morphism: c0' = (c0 0), c1' = (c1 0), cA' = cA;
- Dirac fibers: L' = L x L_N, with L_N = graph_bivector(pi).

The Hamiltonian condition ker mu_* cap ker L = 0 (Bursztyn and Crainic,
arXiv:math/0310445) holds on the product exactly when ker L_N = 0, so every
check passes for a Poisson factor, and the tangent structure graph(0) as
the factor fails the non-degeneracy checks on every object.  Every Dirac
fiber of a Poisson factor of rank < k meets V* (it is no graph of a 2-form),
so these runs put non-graph fibers from shipped data through every Dirac
operation.  The strong intersection with the circle orbit commutes with the
product: (M x N) cap orbit = (M cap orbit) x N, an exact oracle for each
output fiber.
"""

import pytest

from diraclab.coisotropic import CoisotropicDatum, is_coisotropic, is_strong
from diraclab.courant import TwoFormFiber, dirac_sum, graph_bivector, pullback, tangent_dirac
from diraclab.groupoid import (ArrowFiber, ComposablePairFiber, GroupoidFiberBundle,
                               MorphismFiber, ObjectFiber, multiplicativity_defects,
                               pair_tangent)
from diraclab.intersection import strong_intersection
from diraclab.linalg import LinMap, block_diag, canonicalize, hstack, vstack
from diraclab.report import FAIL, PASS
from diraclab.scenarios import hamiltonian_check

FACTORS = {
    "zero-q2": LinMap.zero(2, 2),
    "symplectic-q2": LinMap.from_rows([[0, 1], [-1, 0]]),
    "rank2-q3": LinMap.from_rows([[0, 2, 0], [-2, 0, 0], [0, 0, 0]]),
}


def product_fiber(l1, l2):
    """L1 x L2 = pr1*L1 + pr2*L2 on V1 + V2."""
    n1, n2 = l1.n, l2.n
    pr1 = hstack(LinMap.identity(n1), LinMap.zero(n1, n2))
    pr2 = hstack(LinMap.zero(n2, n1), LinMap.identity(n2))
    return dirac_sum(pullback(pr1, l1), pullback(pr2, l2))


def product_space(l1, l2):
    """The direct sum of the two bases, each padded with zeros: the
    independent oracle for product_fiber."""
    n1, n2 = l1.n, l2.n
    rows = [v[:n1] + (0,) * n2 + v[n1:] + (0,) * n2 for v in l1.space.basis]
    rows += [(0,) * n1 + v[:n2] + (0,) * n1 + v[n2:] for v in l2.space.basis]
    return canonicalize(rows, 2 * (n1 + n2))


def with_factor(datum, l_n):
    """The datum times the factor (Q^k, L_N), G acting trivially on Q^k."""
    k = l_n.n
    c = datum.morphism
    ident, pad = LinMap.identity(k), (lambda m: vstack(m, LinMap.zero(k, m.cols)))
    objects = tuple(
        ObjectFiber(ob.dim + k, ob.adim, pad(ob.rho), pad(ob.sigma),
                    ob.phi.pullback(hstack(LinMap.identity(ob.dim), LinMap.zero(ob.dim, k))))
        for ob in c.dom.objects)
    arrows = tuple(
        ArrowFiber(ar.src, ar.tgt, ar.dim + k, block_diag(ar.s_star, ident),
                   block_diag(ar.t_star, ident),
                   None if ar.omega is None else
                   TwoFormFiber(block_diag(ar.omega.matrix, LinMap.zero(k, k))),
                   pad(ar.left), pad(ar.right), unit=ar.unit,
                   u_star=None if ar.u_star is None else block_diag(ar.u_star, ident))
        for ar in c.dom.arrows)
    pairs = []
    for p in c.dom.pairs:
        dg, dh = c.dom.arrows[p.g].dim, c.dom.arrows[p.h].dim
        tang = pair_tangent(arrows[p.g], arrows[p.h])
        rows = LinMap.identity(dg + k + dh + k)
        old = vstack(rows.row_block(0, dg), rows.row_block(dg + k, dg + k + dh))
        x = p.tangent.coords(old @ tang.matrix)
        m_star = vstack(p.m_star @ x, rows.row_block(dg, dg + k) @ tang.matrix)
        pairs.append(ComposablePairFiber(p.g, p.h, p.gh, tang, m_star))
    bundle = GroupoidFiberBundle(objects, arrows, tuple(pairs), name=f"{c.dom.name}.x")
    pad_cols = (lambda m: hstack(m, LinMap.zero(m.rows, k)))
    morph = MorphismFiber(bundle, c.cod, c.obj_map, tuple(map(pad_cols, c.c0)), c.cA,
                          c.arrow_map, tuple(map(pad_cols, c.c1)))
    return CoisotropicDatum(morph, tuple(product_fiber(l, l_n) for l in datum.dirac),
                            name=f"{datum.name}.x")


@pytest.fixture(scope="module")
def shipped(circle1, reduction2, torus1):
    return {"circle-n1": circle1.datum, "circle-n2": reduction2.scn.datum,
            "torus": torus1.datum}


def statuses(rep):
    return {(r.check_id, r.status) for r in rep.records}


@pytest.mark.parametrize("factor", sorted(FACTORS))
@pytest.mark.parametrize("name", ["circle-n1", "circle-n2", "torus"])
def test_a_poisson_factor_keeps_every_check_passing(shipped, name, factor):
    datum = shipped[name]
    l_n = graph_bivector(FACTORS[factor])
    prod = with_factor(datum, l_n)
    assert list(multiplicativity_defects(prod.morphism)) == []
    for l, l_old in zip(prod.dirac, datum.dirac):
        assert l.space == product_space(l_old, l_n)
        assert l.kernel.dim == l_old.kernel.dim + l_n.kernel.dim
    for rep in (is_coisotropic(prod), hamiltonian_check(prod), is_strong(prod)):
        assert rep.records and rep.passed, rep.failures()[:1]


@pytest.mark.parametrize("factor", sorted(FACTORS))
@pytest.mark.parametrize("n", [1, 2])
def test_the_strong_intersection_with_the_orbit_commutes_with_the_factor(
        reduction1, reduction2, n, factor):
    red = {1: reduction1, 2: reduction2}[n]
    l_n = graph_bivector(FACTORS[factor])
    args = (list(red.obj_pairs), list(red.arrow_pairs))
    before = strong_intersection(red.orbit, red.scn.datum, *args)
    after = strong_intersection(red.orbit, with_factor(red.scn.datum, l_n), *args)
    assert after.report.records and after.report.passed, after.report.failures()[:1]
    assert len(after.dirac) == len(before.dirac) > 0
    for got, old in zip(after.dirac, before.dirac):
        assert got.space == product_space(old, l_n)
        assert got == product_fiber(old, l_n)


@pytest.mark.parametrize("name", ["circle-n1", "circle-n2", "torus"])
def test_the_tangent_factor_fails_exactly_the_nondegeneracy_checks(shipped, name):
    # ker graph(0) = Q^2 lies in ker mu_*, so each object fails coiso.nondeg
    # and ham.nondeg, with the factor's directions as the ham.nondeg witness
    prod = with_factor(shipped[name], tangent_dirac(2))
    objects = range(len(prod.c_bundle.objects))
    coiso, ham = is_coisotropic(prod), hamiltonian_check(prod)
    for rep, check_id in ((coiso, "coiso.nondeg"), (ham, "ham.nondeg")):
        failing = [r for r in rep.records if r.status == FAIL]
        assert [r.check_id for r in failing] == [check_id] * len(objects)
        assert [r.detail.split(":")[0] for r in failing] == [f"object {i}" for i in objects]
    assert statuses(ham) == {("ham.compat", PASS), ("ham.nondeg", FAIL),
                             ("ham.equivalence", PASS)}
    for i, r in zip(objects, (r for r in ham.records if r.check_id == "ham.nondeg")):
        n = prod.c_bundle.objects[i].dim
        factor = canonicalize([(0,) * (n - 2) + (1, 0), (0,) * (n - 2) + (0, 1)], n)
        assert canonicalize(r.witness["basis"], n) == factor
