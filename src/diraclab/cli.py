"""Command-line front end: build scenarios, run verification suites, emit
deterministic reports.

Exit codes: 0 all checks pass, 1 at least one check failed or a hypothesis
was violated, 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import scenarios as sc
from .coisotropic import identity_datum, is_coisotropic, is_strong, chain_map_check
from .dorfman import involutivity_check
from .groupoid import qs_check
from .intersection import (
    induced_poisson,
    strong_exact_sequence,
    strong_intersection,
)
from .linalg import frac
from .report import HYPOTHESIS_VIOLATED, PASS, VerificationReport
from .serialize import (
    bundle_to_json,
    datum_from_json,
    datum_to_json,
    dirac_family_to_json,
    dumps,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2


class ScenarioError(ValueError):
    pass


def catalog() -> dict[str, str]:
    return {
        "pair": "pair groupoid of a symplectic vector space (params: n)",
        "pair-corrupt-sigma": "pair groupoid with a sign flipped in sigma "
                              "(negative fixture)",
        "circle": "circle acting on C^n with its cotangent groupoid "
                  "(params: n, level)",
        "torus": "2-torus acting on C^2 with its cotangent groupoid",
        "so3": "linear Poisson frame on the dual of so(3)",
        "graph-twist": "graph of a 2-form with its compatible twist",
        "twist-mismatch": "graph of a 2-form with the wrong twist "
                          "(negative fixture)",
        "line-bivector": "plane bivector x d/dx ^ d/dy restricted to a line",
    }


# the params each scenario reads; a spec with any other key is rejected
PARAMS = {"pair": ("n",), "pair-corrupt-sigma": ("n",), "circle": ("n", "level")}


def load_spec(path: str) -> sc.ScenarioSpec:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ScenarioError(f"cannot read scenario: {e}")
    if not isinstance(doc, dict) or "name" not in doc:
        raise ScenarioError("scenario file needs a 'name' field")
    if doc["name"] not in catalog():
        raise ScenarioError(f"unknown scenario name: {doc['name']!r}")
    if "samples" in doc:
        raise ScenarioError("scenario files have no 'samples' field: "
                            "each scenario fixes its own sample atlas")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ScenarioError("'params' must be an object")
    unknown = sorted(set(params) - set(PARAMS.get(doc["name"], ())))
    if unknown:
        raise ScenarioError(f"scenario {doc['name']!r} has no params {unknown}")
    return sc.ScenarioSpec(doc["name"], params, int_param(doc, "seed", 0))


def int_param(doc: dict, key: str, default: int) -> int:
    """doc[key], or the default if absent; anything but an int is rejected,
    where int() would truncate 1.5 or read true as 1."""
    x = doc.get(key, default)
    if type(x) is not int:
        raise ScenarioError(f"{key!r} must be an integer, got {x!r}")
    return x


def pair_dim(params: dict) -> int:
    """The real dimension n of the pair scenario's symplectic space."""
    n = int_param(params, "n", 2)
    if n <= 0 or n % 2:
        raise ScenarioError(f"pair needs a positive even n, got {n}")
    return n


def circle_params(params: dict) -> tuple[int, Fraction]:
    """The circle scenario's n (default 1) and moment level (default 1/2)."""
    n = int_param(params, "n", 1)
    if n < 1:
        raise ScenarioError(f"circle needs n >= 1, got {n}")
    return n, frac(str(params.get("level", "1/2")))


def hypothesis_violated(e: Exception) -> int:
    print(dumps({"status": HYPOTHESIS_VIOLATED, "detail": str(e)}))
    return EXIT_CHECK_FAILED


def _suite_runners(spec: sc.ScenarioSpec, seed: int):
    """Map of suite name -> zero-argument runner returning a report."""
    name = spec.name
    params = spec.params
    runners = {}

    if name in ("pair", "pair-corrupt-sigma"):
        n = pair_dim(params)
        bundle = sc.build_pair_groupoid(n, num_objects=4)
        if name == "pair-corrupt-sigma":
            bundle = sc.corrupt_sigma(bundle)
        runners["qs"] = lambda: qs_check(bundle)
        if name == "pair":
            def coiso():
                rep = VerificationReport("coisotropic")
                datum = identity_datum(bundle)
                rep.merge(is_coisotropic(datum))
                rep.merge(chain_map_check(datum, 0))
                return rep
            runners["coisotropic"] = coiso

            def adjoint():
                from .morita import random_connection, sigma_ad_check, \
                    curvature_defect_check
                rng = random.Random(seed)
                conn = {k: random_connection(bundle, k, rng)
                        for k in range(len(bundle.arrows))}
                rep = sigma_ad_check(bundle, conn)
                for i in range(len(bundle.pairs)):
                    rep.merge(curvature_defect_check(bundle, i, conn))
                return rep
            runners["adjoint"] = adjoint
            runners["induced"] = lambda: induced_poisson(identity_datum(bundle))

    elif name == "circle":
        n, level = circle_params(params)
        scn = sc.circle_scenario(n, level)
        runners["qs"] = lambda: qs_check(scn.datum.g_bundle)
        runners["hamiltonian"] = lambda: sc.hamiltonian_check(scn.datum)
        def coiso():
            rep = VerificationReport("coisotropic")
            rep.merge(is_strong(scn.datum))
            rep.merge(is_strong(sc.circle_orbit_datum(scn, level)))
            return rep
        runners["coisotropic"] = coiso

        def inter():
            red = sc.circle_reduction(n, level)
            si = strong_intersection(red.orbit, red.scn.datum,
                                     list(red.obj_pairs), list(red.arrow_pairs))
            rep = si.report
            rep.merge(strong_exact_sequence(red.orbit, red.scn.datum, si))
            return rep
        runners["intersection"] = inter

        def homotopy():
            from .morita import homotopy_identities, random_connection
            fx = sc.circle_nat_trans_fixture(level)
            rep = VerificationReport("homotopy")
            for off in (0, 1):
                rng = random.Random(seed + off)
                conn = {k: random_connection(fx.f.cod, k, rng)
                        for k in range(len(fx.f.cod.arrows))}
                rep.merge(homotopy_identities(fx.f, fx.g, fx.theta, fx.eta,
                                              conn, fx.inverse_pairs))
            return rep
        runners["homotopy"] = homotopy

    elif name == "torus":
        pts = [(Fraction(3, 5), Fraction(4, 5), 1, 0)]
        scn = sc.torus_scenario(pts)
        runners["qs"] = lambda: qs_check(scn.datum.g_bundle)
        runners["hamiltonian"] = lambda: sc.hamiltonian_check(scn.datum)
        runners["coisotropic"] = lambda: is_strong(scn.datum)

        def transfer_suite():
            from .courant import ThreeFormFiber, TwoFormFiber
            from .linalg import LinMap
            from .morita import (ChainSample, gauge_twist_equivalence, transfer,
                                 transfer_composition_check)
            datum = scn.datum
            g = datum.g_bundle
            gam = [TwoFormFiber(LinMap.from_rows([[0, 1], [-1, 0]]))
                   for _ in g.objects]
            dg = [ThreeFormFiber.zero(2) for _ in g.objects]
            m1 = gauge_twist_equivalence(datum, gam, dg)
            leg1 = transfer(m1, list(datum.dirac), datum)
            rep = leg1.report
            gam2 = [TwoFormFiber(LinMap.from_rows([[0, Fraction(1, 3)],
                                                   [Fraction(-1, 3), 0]]))
                    for _ in g.objects]
            m2 = gauge_twist_equivalence(datum, gam2, dg)
            c = datum.morphism
            chain = [ChainSample(ar.dim, ar.src, ar.tgt, ar.s_star, ar.t_star,
                                 a, LinMap.identity(ar.dim),
                                 c.arrow_map[a], c.c1[a])
                     for a, ar in enumerate(c.dom.arrows)]
            rep.merge(transfer_composition_check(m1, m2, chain,
                                                 list(datum.dirac), leg1))
            return rep
        runners["transfer"] = transfer_suite

    elif name in ("so3", "graph-twist", "twist-mismatch"):
        frames = {"so3": sc.build_lie_poisson_so3,
                  "graph-twist": sc.graph_frame_with_twist,
                  "twist-mismatch": sc.mismatched_twist_frame}
        frame = frames[name]()
        pts = sc.involutivity_points(seed=seed or 11)
        runners["dorfman"] = lambda: involutivity_check(frame, pts)

    elif name == "line-bivector":
        def line():
            from .coisotropic import infinitesimal_coisotropic_check
            from .courant import ThreeFormFiber
            from .linalg import canonicalize, vec
            rep = VerificationReport("line")
            fx = sc.line_bivector_fixture()
            at_one = fx.l_n[fx.params.index(Fraction(1))]
            at_zero = fx.l_n[fx.params.index(Fraction(0))]
            rep.add("line.pullback.at_one",
                    at_one.space == canonicalize([vec(1, 0)], 2),
                    detail="pullback at the generic point is the tangent line")
            rep.add("line.pullback.at_zero",
                    at_zero.space == canonicalize([vec(0, 1)], 2),
                    detail="pullback at the special point is the cotangent line")
            phi1 = [ThreeFormFiber.zero(1)] * len(fx.params)
            phi2 = [ThreeFormFiber.zero(2)] * len(fx.params)
            sub = infinitesimal_coisotropic_check(list(fx.cmaps), list(fx.l_n),
                                                  list(fx.l_m), phi1, phi2)
            ranks = sub.records[-1].ranks
            rep.add("line.rank_jump.detected",
                    not sub.passed and ranks is not None and set(ranks) == {1, 2},
                    detail=f"fiber-product ranks {list(ranks or [])} jump at the origin")
            return rep
        runners["line"] = line

    return runners


def cmd_list(_args) -> int:
    for name, desc in sorted(catalog().items()):
        print(f"{name:20s} {desc}")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        spec = load_spec(args.scenario)
        seed = args.seed if args.seed is not None else spec.seed
        runners = _suite_runners(spec, seed)
    except (ScenarioError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    wanted = sorted(runners) if args.suite == "all" else [args.suite]
    if any(w not in runners for w in wanted):
        print(f"error: no suite {args.suite!r} for scenario {spec.name!r}",
              file=sys.stderr)
        return EXIT_BAD_INPUT

    reports = [(w, runners[w]()) for w in wanted]
    ok = all(r.passed and r.hypothesis_ok for _, r in reports)
    if args.report == "json":
        doc = {"scenario": spec.name, "seed": seed,
               "suites": {w: r.to_json() for w, r in reports}}
        print(dumps(doc))
    else:
        for w, r in reports:
            counts = {}
            for rec in r.records:
                counts[rec.status] = counts.get(rec.status, 0) + 1
            print(f"suite {w}: {'PASS' if r.passed else 'FAIL'} {counts}")
            for rec in r.records:
                if rec.status != PASS:
                    print(f"  {rec.status:>20s} {rec.check_id}: {rec.detail}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_reduce(args) -> int:
    try:
        spec = load_spec(args.scenario)
        if spec.name != "circle":
            raise ScenarioError("reduction is shipped for the circle scenario")
        n, level = circle_params(spec.params)
        if args.level:
            level = frac(args.level)
    except (ScenarioError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT

    try:
        red = sc.circle_reduction(n, level)
    except sc.ReductionHypothesisViolated as e:
        return hypothesis_violated(e)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT

    if args.coisotropic not in (None, "orbit"):
        try:
            with open(args.coisotropic) as fh:
                custom = datum_from_json(json.load(fh))
        except (OSError, ValueError) as e:
            # a malformed file raises JSONDecodeError or SchemaError, and
            # fibers of inconsistent shape fail their own checks: all ValueErrors
            print(f"error: cannot load coisotropic file: {e}", file=sys.stderr)
            return EXIT_BAD_INPUT
        if bundle_to_json(custom.g_bundle) != bundle_to_json(red.scn.datum.g_bundle):
            print("error: custom coisotropic targets a different base bundle",
                  file=sys.stderr)
            return EXIT_BAD_INPUT
        red = sc.ReductionScenario(red.scn, red.level,
                                   CoisotropicDatumWithBase(custom, red),
                                   red.obj_pairs, red.arrow_pairs,
                                   red.level_point_idx)

    try:
        fibers, rep = sc.run_reduction(red)
    except sc.ReductionHypothesisViolated as e:
        return hypothesis_violated(e)
    doc = {
        "status": "pass" if rep.passed else "fail",
        "report": rep.to_json(),
        "reduced": {str(k): dirac_family_to_json([v])["fibers"][0]
                    for k, v in sorted(fibers.items(), key=lambda kv: str(kv[0]))},
    }
    out = dumps(doc)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)
    return EXIT_OK if rep.passed and rep.hypothesis_ok else EXIT_CHECK_FAILED


def CoisotropicDatumWithBase(custom, red):
    """Rebind a loaded orbit-style datum onto the freshly built base bundle
    (content-equal by the schema check above)."""
    from .coisotropic import CoisotropicDatum
    from .groupoid import MorphismFiber
    m = custom.morphism
    rebased = MorphismFiber(m.dom, red.scn.datum.g_bundle, m.obj_map, m.c0,
                            m.cA, m.arrow_map, m.c1)
    return CoisotropicDatum(rebased, custom.dirac, name=custom.name)


def cmd_dump(args) -> int:
    try:
        spec = load_spec(args.scenario)
        pair_n = pair_dim(spec.params) if spec.name == "pair" else None
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if spec.name == "pair":
        doc = bundle_to_json(sc.build_pair_groupoid(pair_n))
    elif spec.name == "circle":
        try:
            n, level = circle_params(spec.params)
            if args.what == "orbit":
                # the datum `reduce --coisotropic` consumes, on the reduction's atlas
                doc = datum_to_json(sc.circle_reduction(n, level).orbit)
            elif args.what == "datum":
                doc = datum_to_json(sc.circle_scenario(n, level).datum)
            else:
                doc = bundle_to_json(sc.circle_scenario(n, level).datum.g_bundle)
        except sc.ReductionHypothesisViolated as e:
            return hypothesis_violated(e)
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_BAD_INPUT
    elif spec.name == "torus":
        pts = [(Fraction(3, 5), Fraction(4, 5), 1, 0)]
        doc = bundle_to_json(sc.torus_scenario(pts).datum.g_bundle)
    else:
        print(f"error: scenario {spec.name!r} has no dumpable bundle",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    out = dumps(doc)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)
    return EXIT_OK


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="diraclab",
                                 description="exact verification of Dirac-geometric "
                                             "identities on sampled groupoid fibers")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p_list = sub.add_parser("list", help="list shipped scenarios")
    p_list.set_defaults(fn=cmd_list)

    p_ver = sub.add_parser("verify", help="run verification suites")
    p_ver.add_argument("scenario", help="scenario.json path")
    p_ver.add_argument("--suite", default="all")
    p_ver.add_argument("--report", choices=("text", "json"), default="text")
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.set_defaults(fn=cmd_verify)

    p_red = sub.add_parser("reduce", help="run the reduction pipeline")
    p_red.add_argument("scenario")
    p_red.add_argument("--level", default=None, help="moment level p/q")
    p_red.add_argument("--coisotropic", default="orbit",
                       help="'orbit' or a cd-v1 JSON file")
    p_red.add_argument("--out", default=None)
    p_red.set_defaults(fn=cmd_reduce)

    p_dump = sub.add_parser("dump", help="dump scenario bundles as JSON")
    p_dump.add_argument("scenario")
    p_dump.add_argument("--what", choices=("base", "datum", "orbit"), default="base")
    p_dump.add_argument("--out", default=None)
    p_dump.set_defaults(fn=cmd_dump)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
