"""Command-line front end: build scenarios, run verification suites, emit
deterministic reports.

The command grammar is the COMMANDS table, which ``parse_argv`` reads:

    diraclab list
    diraclab verify SCENARIO [--suite S] [--report text|json] [--seed N]
    diraclab reduce SCENARIO [--level L] [--coisotropic orbit|FILE] [--out FILE]
    diraclab dump SCENARIO [--what base|datum|orbit] [--out FILE]

SCENARIO is a scenario.json path.  An option is written ``--name value`` or
``--name=value``, before or after the path; its value is the next token,
whatever it starts with, and the last repeat wins.  Option names are never
abbreviated.  ``-h`` or ``--help``, alone or after a command, prints the
usage and exits 0.

Each shipped scenario is one row of SCENARIOS, keyed by its name:
- ``about``, the line ``list`` prints;
- ``params(dict) -> dict``, the spec's params checked, defaults filled in.
  Its keys are the declared params; a spec with any other key is rejected;
- ``suites(params, seed) -> {suite: zero-argument runner -> report}``; what
  only one suite needs is built when that suite runs;
- ``dumps``, ``{what: params -> document}``; ``dump`` rejects any other what.

Exit codes, mapped once in ``main``: 0 all checks pass; 1 a check failed, or
a reduction hypothesis was violated (prints a hypothesis-violated document);
2 malformed input, i.e. any other ValueError (a command line the table does
not accept included), or an ``--out`` file or a standard output that cannot
be written, or is closed (prints ``error: ...``).  ``reduce``
and ``dump`` check their ``--out`` file before they build anything, so an
unwritable path costs no work, and write it only when their document is done.

Each command loads only the modules it runs.  This module imports at its
top only what every command needs: scenarios, serialize (the JSON emitter)
and the modules they load (linalg, courant, records, report).  It reads
argv itself, because argparse imports gettext, and building and running
its parser loads locale and makes 15 gettext lookups: 4-6 ms of every
command on Python 3.11, to read 2-6 tokens.  Then:
- each suite runner imports its checkers from groupoid, coisotropic,
  intersection, morita or dorfman when it runs, and the scenario builders
  do the same, so a command loads only the checkers its suites run;
- the circle and torus builders load rotation, the code of the rotation
  family; the pair, Dorfman-frame and line commands never do;
- dump and reduce load schema, the gfb-v1, df-v1 and cd-v1 documents:
  ``dump_bundle``, ``dump_datum`` and ``cmd_reduce`` import it when they
  run.  Its loaders import groupoid and coisotropic.  verify and list never
  load it.

Process entry: ``run`` is the one entry of a process, for both
``python -m diraclab.cli`` and the installed ``diraclab`` script.  It runs
``main`` with the cyclic collector off, then freezes the heap, so that the
collection the interpreter forces at exit skips it, and exits with main's
code.  That is safe because a command makes almost no cyclic garbage.  In a
fresh interpreter (collect after import, then ``main`` with the collector
off) each shipped ``verify`` at seed 0, and ``reduce`` on circle n = 2,
leaves 57-129 objects in cycles (``list`` leaves none): the classes that
``record`` rebuilds in the modules the command loads, and the closures of
one JSON encoder.  Its tracked objects grow by 631 (graph-twist) to 21,364
(circle n = 2 ``verify``).  With the collector on,
such a command ran up to 42 young and 3 middle collections and a full scan
of the heap at exit, for those few objects.  tests/test_cli.py bounds that
garbage at ``list``'s count plus 100.  ``main`` itself
leaves the collector alone, so in-process callers (the tests, a traced
run) keep it.  Only ``run`` touches gc.
"""

from __future__ import annotations

import errno
import json
import os
import random
import sys
from collections import Counter
from fractions import Fraction
from functools import partial
from types import SimpleNamespace
from typing import Callable

from . import scenarios as sc
from .courant import ThreeFormFiber, TwoFormFiber
from .linalg import LinMap, canonicalize, frac, vec
from .records import field, record, replace
from .report import (HYPOTHESIS_VIOLATED, PASS, ReductionHypothesisViolated,
                     VerificationReport)
from .serialize import dumps

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2


class ScenarioError(ValueError):
    pass


def int_param(doc: dict, key: str, default: int) -> int:
    """doc[key], or the default if absent; anything but an int is rejected,
    where int() would truncate 1.5 or read true as 1."""
    x = doc.get(key, default)
    if type(x) is not int:
        raise ScenarioError(f"{key!r} must be an integer, got {x!r}")
    return x


def no_params(_params: dict) -> dict:
    return {}


def pair_params(params: dict) -> dict:
    """The real dimension n (default 2) of the pair scenario's symplectic space."""
    n = int_param(params, "n", 2)
    if n <= 0 or n % 2:
        raise ScenarioError(f"pair needs a positive even n, got {n}")
    return {"n": n}


def parse_level(level: str | int) -> Fraction:
    """A moment level, a "p/q" string or an integer.  Fraction raises
    ZeroDivisionError, not a ValueError, on a zero denominator, and its own
    message on a malformed string does not name the level, so both are
    rejected here."""
    try:
        return frac(level)
    except ZeroDivisionError:
        raise ScenarioError(f"level {level!r} has a zero denominator") from None
    except ValueError:
        raise ScenarioError(f"level {level!r} is not a 'p/q' string") from None


def circle_params(params: dict) -> dict:
    """The circle scenario's n (default 1) and moment level (default 1/2).
    The level is a "p/q" string or an integer: a JSON number with a fraction
    part is a float, not the exact level it prints as, and str() would read
    true as "True"."""
    n = int_param(params, "n", 1)
    if n < 1:
        raise ScenarioError(f"circle needs n >= 1, got {n}")
    level = params.get("level", "1/2")
    if type(level) not in (str, int):
        raise ScenarioError(f"'level' must be a 'p/q' string or an integer, got {level!r}")
    return {"n": n, "level": parse_level(level)}


def pair_bundle(p: dict):
    return sc.build_pair_groupoid(p["n"], num_objects=4)


def torus():
    return sc.torus_scenario([(Fraction(3, 5), Fraction(4, 5), 1, 0)])


def pair_suites(p: dict, seed: int) -> dict:
    bundle = pair_bundle(p)

    def coisotropic():
        from .coisotropic import chain_map_check, identity_datum, is_coisotropic
        rep = VerificationReport("coisotropic")
        datum = identity_datum(bundle)
        rep.merge(is_coisotropic(datum))
        rep.merge(chain_map_check(datum, 0))
        return rep

    def adjoint():
        from .morita import curvature_defect_check, random_connection, sigma_ad_check
        rng = random.Random(seed)
        conn = {k: random_connection(bundle, k, rng)
                for k in range(len(bundle.arrows))}
        rep = sigma_ad_check(bundle, conn)
        for i in range(len(bundle.pairs)):
            rep.merge(curvature_defect_check(bundle, i, conn))
        return rep

    def induced():
        from .coisotropic import identity_datum
        from .intersection import induced_poisson
        return induced_poisson(identity_datum(bundle))

    return {"qs": lambda: bundle.qs_report, "coisotropic": coisotropic, "adjoint": adjoint,
            "induced": induced}


def circle_suites(p: dict, seed: int) -> dict:
    n, level = p["n"], p["level"]
    scn = sc.circle_scenario(n, level)

    def coisotropic():
        from .coisotropic import is_strong
        rep = VerificationReport("coisotropic")
        rep.merge(is_strong(scn.datum))
        rep.merge(is_strong(sc.circle_orbit_datum(scn, level)))
        return rep

    def intersection():
        from .intersection import strong_exact_sequence, strong_intersection
        red = sc.circle_reduction(n, level)
        si = strong_intersection(red.orbit, red.scn.datum,
                                 list(red.obj_pairs), list(red.arrow_pairs))
        rep = si.report
        rep.merge(strong_exact_sequence(red.orbit, red.scn.datum, si))
        return rep

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

    return {"qs": lambda: scn.datum.g_bundle.qs_report,
            "hamiltonian": lambda: sc.hamiltonian_check(scn.datum),
            "coisotropic": coisotropic, "intersection": intersection,
            "homotopy": homotopy}


def torus_suites(_p: dict, _seed: int) -> dict:
    scn = torus()

    def coisotropic():
        from .coisotropic import is_strong
        return is_strong(scn.datum)

    def transfer_suite():
        from .groupoid import identity_morphism
        from .morita import (ChainSample, identity_leg_equivalence, transfer,
                             transfer_composition_check)
        datum = scn.datum
        c = datum.morphism
        ident = identity_morphism(c.dom)
        g = datum.g_bundle
        gam = [TwoFormFiber(LinMap.from_rows([[0, 1], [-1, 0]]))
               for _ in g.objects]
        dg = [ThreeFormFiber.zero(2) for _ in g.objects]
        m1 = identity_leg_equivalence(c, ident, c, gam, dg)
        leg1 = transfer(m1, list(datum.dirac), datum)
        rep = leg1.report
        gam2 = [TwoFormFiber(LinMap.from_rows([[0, Fraction(1, 3)],
                                               [Fraction(-1, 3), 0]]))
                for _ in g.objects]
        m2 = identity_leg_equivalence(c, ident, c, gam2, dg)
        chain = [ChainSample(ar.src, ar.tgt, ar.s_star, ar.t_star,
                             a, LinMap.identity(ar.dim),
                             c.arrow_map[a], c.c1[a])
                 for a, ar in enumerate(c.dom.arrows)]
        rep.merge(transfer_composition_check(m1, m2, chain,
                                             list(datum.dirac), leg1))
        return rep

    return {"qs": lambda: scn.datum.g_bundle.qs_report,
            "hamiltonian": lambda: sc.hamiltonian_check(scn.datum),
            "coisotropic": coisotropic,
            "transfer": transfer_suite}


def corrupt_sigma_suites(p: dict, _seed: int) -> dict:
    bundle = sc.corrupt_sigma(pair_bundle(p))
    return {"qs": lambda: bundle.qs_report}


def dorfman_suites(frame: Callable) -> Callable:
    """The suites of a Dorfman-bracket frame scenario; seed 0 reads as 11.
    The dorfman module is imported only when the suite runs, and frame looks
    its builder up on scenarios then, not when SCENARIOS is built."""
    def dorfman(seed: int) -> VerificationReport:
        from .dorfman import involutivity_check
        return involutivity_check(frame(), sc.involutivity_points(seed=seed or 11))

    return lambda _p, seed: {"dorfman": partial(dorfman, seed)}


def line_suite() -> VerificationReport:
    from .coisotropic import infinitesimal_coisotropic_check
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


def dump_bundle(bundle) -> dict:
    """The gfb-v1 document of a bundle."""
    from .schema import bundle_to_json
    return bundle_to_json(bundle)


def dump_datum(datum) -> dict:
    """The cd-v1 document of a coisotropic datum."""
    from .schema import datum_to_json
    return datum_to_json(datum)


@record
class Scenario:
    about: str
    params: Callable[[dict], dict]
    suites: Callable[[dict, int], dict]
    dumps: dict = field(default_factory=dict)


SCENARIOS = {
    "pair": Scenario(
        "pair groupoid of a symplectic vector space (params: n)",
        pair_params, pair_suites,
        {"base": lambda p: dump_bundle(pair_bundle(p))}),
    "pair-corrupt-sigma": Scenario(
        "pair groupoid with a sign flipped in sigma (negative fixture)",
        pair_params, corrupt_sigma_suites),
    "circle": Scenario(
        "circle acting on C^n with its cotangent groupoid (params: n, level;"
        " n >= 3 samples only C^2 x 0)",
        circle_params, circle_suites,
        {"base": lambda p: dump_bundle(sc.circle_scenario(**p).datum.g_bundle),
         "datum": lambda p: dump_datum(sc.circle_scenario(**p).datum),
         # the datum `reduce --coisotropic` consumes, on the reduction's atlas
         "orbit": lambda p: dump_datum(sc.circle_reduction(**p).orbit)}),
    "torus": Scenario(
        "2-torus acting on C^2 with its cotangent groupoid",
        no_params, torus_suites,
        {"base": lambda _p: dump_bundle(torus().datum.g_bundle)}),
    "so3": Scenario(
        "linear Poisson frame on the dual of so(3)",
        no_params, dorfman_suites(lambda: sc.build_lie_poisson_so3())),
    "graph-twist": Scenario(
        "graph of a 2-form with its compatible twist",
        no_params, dorfman_suites(lambda: sc.graph_frame_with_twist())),
    "twist-mismatch": Scenario(
        "graph of a 2-form with the wrong twist (negative fixture)",
        no_params, dorfman_suites(lambda: sc.mismatched_twist_frame())),
    "line-bivector": Scenario(
        "plane bivector x d/dx ^ d/dy restricted to a line",
        no_params, lambda _p, _seed: {"line": line_suite}),
}


def load_spec(path: str) -> tuple[str, dict, int]:
    """The spec's scenario name, its checked params and its seed."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ScenarioError(f"cannot read scenario: {e}")
    if not isinstance(doc, dict) or "name" not in doc:
        raise ScenarioError("scenario file needs a 'name' field")
    name = doc["name"]
    if not isinstance(name, str) or name not in SCENARIOS:
        raise ScenarioError(f"unknown scenario name: {name!r}")
    if "samples" in doc:
        raise ScenarioError("scenario files have no 'samples' field: "
                            "each scenario fixes its own sample atlas")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ScenarioError("'params' must be an object")
    checked = SCENARIOS[name].params(params)
    unknown = sorted(set(params) - set(checked))
    if unknown:
        raise ScenarioError(f"scenario {name!r} has no params {unknown}")
    return name, checked, int_param(doc, "seed", 0)


def writable(out: str | None) -> None:
    """Reject an --out file that cannot be opened for writing, and leave it
    as it was: a command checks this before its work, and emit writes after."""
    if out:
        existed = os.path.exists(out)
        try:
            open(out, "a").close()
        except OSError as e:
            raise unwritable(out, e) from e
        if not existed:
            os.remove(out)


def unwritable(out: str | None, e: OSError) -> ScenarioError:
    where = repr(out) if out else "standard output"
    return ScenarioError(f"cannot write {where}: {e.strerror or e}")


def emit(text: str, out: str | None = None) -> None:
    """Write text and a newline to the --out file, or else print it to stdout
    and flush it: a full device, a closed pipe or a closed standard output
    is an error here, not a traceback at exit or lost output."""
    try:
        if out:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        elif sys.stdout is None:  # the process started with standard output closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        else:
            print(text, flush=True)
    except OSError as e:
        raise unwritable(out, e) from e


def cmd_list(_args) -> int:
    for name, row in sorted(SCENARIOS.items()):
        emit(f"{name:20s} {row.about}")
    return EXIT_OK


def cmd_verify(args) -> int:
    name, params, seed = load_spec(args.scenario)
    if args.seed is not None:
        seed = args.seed
    runners = SCENARIOS[name].suites(params, seed)
    wanted = sorted(runners) if args.suite == "all" else [args.suite]
    if any(w not in runners for w in wanted):
        raise ScenarioError(f"no suite {args.suite!r} for scenario {name!r}")

    reports = [(w, runners[w]()) for w in wanted]
    ok = all(r.passed and r.hypothesis_ok for _, r in reports)
    if args.report == "json":
        doc = {"scenario": name, "seed": seed,
               "suites": {w: r.to_json() for w, r in reports}}
        emit(dumps(doc))
    else:
        for w, r in reports:
            counts = dict(Counter(rec.status for rec in r.records))
            emit(f"suite {w}: {'PASS' if r.passed else 'FAIL'} {counts}")
            for rec in r.records:
                if rec.status != PASS:
                    emit(f"  {rec.status:>20s} {rec.check_id}: {rec.detail}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_reduce(args) -> int:
    from .schema import datum_from_json, dirac_family_to_json
    name, params, _ = load_spec(args.scenario)
    if name != "circle":
        raise ScenarioError("reduction is shipped for the circle scenario")
    level = parse_level(args.level) if args.level is not None else params["level"]
    writable(args.out)
    red = sc.circle_reduction(params["n"], level)
    if args.coisotropic != "orbit":
        try:
            with open(args.coisotropic) as fh:
                custom = datum_from_json(json.load(fh))
        except (OSError, ValueError) as e:
            # a malformed file raises JSONDecodeError or SchemaError, and
            # fibers of inconsistent shape fail their own checks: all ValueErrors
            raise ScenarioError(f"cannot load coisotropic file: {e}") from e
        base = red.scn.datum.g_bundle
        # the bundle records hold the fields of their gfb-v1 documents, and
        # pair tangents that pair_tangent derives from the arrows on both sides
        if custom.g_bundle != base:
            raise ScenarioError("custom coisotropic targets a different base bundle")
        # the reduction's product samples name the orbit's objects and arrows
        if atlas_indexing(custom.c_bundle) != atlas_indexing(red.orbit.c_bundle):
            raise ScenarioError("custom coisotropic's C-bundle does not index its "
                                "objects and arrows as the orbit's does")
        # well-formed, but the strong intersection needs every unit's section
        bare = [k for k, a in enumerate(custom.c_bundle.arrows)
                if a.unit and a.u_star is None]
        if bare:
            raise ReductionHypothesisViolated(
                f"custom coisotropic's unit arrows {bare} carry no u_star")
        # the same goes for a morphism that does not respect units and products
        from .groupoid import multiplicativity_defects
        defect = next(multiplicativity_defects(custom.morphism), None)
        if defect:
            raise ReductionHypothesisViolated(f"custom coisotropic's {defect}")
        # rebind the loaded datum onto the freshly built, content-equal base
        red = replace(red, orbit=replace(
            custom, morphism=replace(custom.morphism, cod=base)))
    fibers, rep = sc.run_reduction(red)
    emit(dumps({
        "status": "pass" if rep.passed else "fail",
        "report": rep.to_json(),
        "reduced": {str(k): dirac_family_to_json([v])["fibers"][0]
                    for k, v in sorted(fibers.items(), key=lambda kv: str(kv[0]))},
    }), args.out)
    return EXIT_OK if rep.passed and rep.hypothesis_ok else EXIT_CHECK_FAILED


def atlas_indexing(bundle: GroupoidFiberBundle) -> tuple:
    """The object count and each arrow's (source, target) indices."""
    return len(bundle.objects), [(a.src, a.tgt) for a in bundle.arrows]


def cmd_dump(args) -> int:
    name, params, _ = load_spec(args.scenario)
    document = SCENARIOS[name].dumps.get(args.what)
    if document is None:
        raise ScenarioError(f"scenario {name!r} cannot dump --what {args.what}")
    writable(args.out)
    emit(dumps(document(params)), args.out)
    return EXIT_OK


@record
class Option:
    """A ``--name value`` option: its default, and the values it accepts:
    a tuple of choices, int, or any string, shown in the usage as metavar."""
    default: str | int | None
    accepts: tuple | type = str
    metavar: str = ""

    def read(self, name: str, value: str) -> str | int:
        if self.accepts is int:
            try:
                return int(value)
            except ValueError:
                raise ScenarioError(f"{name} must be an integer, got {value!r}") from None
        if self.accepts is not str and value not in self.accepts:
            raise ScenarioError(f"{name} must be one of {', '.join(self.accepts)}, "
                                f"got {value!r}")
        return value

    @property
    def shown(self) -> str:
        if self.accepts is int:
            return "N"
        return self.metavar or "|".join(self.accepts)


@record
class Command:
    """A command: what it does, its function of the parsed arguments, whether
    it takes a SCENARIO path, and its options by ``--name``."""
    about: str
    fn: Callable[[SimpleNamespace], int]
    takes_path: bool
    options: dict = field(default_factory=dict)


COMMANDS = {
    "list": Command("list shipped scenarios", cmd_list, False),
    "verify": Command("run verification suites", cmd_verify, True, {
        "--suite": Option("all", metavar="S"),
        "--report": Option("text", ("text", "json")),
        "--seed": Option(None, int)}),
    "reduce": Command("run the reduction pipeline (L a moment level p/q, FILE a cd-v1 "
                      "document)", cmd_reduce, True, {
        "--level": Option(None, metavar="L"),
        "--coisotropic": Option("orbit", metavar="orbit|FILE"),
        "--out": Option(None, metavar="FILE")}),
    "dump": Command("dump scenario bundles as JSON", cmd_dump, True, {
        "--what": Option("base", ("base", "datum", "orbit")),
        "--out": Option(None, metavar="FILE")}),
}

HELP = ("-h", "--help")


def usage(names) -> str:
    """The usage line of each named command, then what each does."""
    forms = [" ".join([f"diraclab {name}", *["SCENARIO"] * COMMANDS[name].takes_path,
                       *(f"[{k} {o.shown}]" for k, o in COMMANDS[name].options.items())])
             for name in names]
    return "\n".join(["usage: " + "\n       ".join(forms), "",
                      "exact verification of Dirac-geometric identities on sampled "
                      "groupoid fibers", "",
                      *(f"  {name:8s} {COMMANDS[name].about}" for name in names)])


def cmd_help(args) -> int:
    emit(usage(args.commands))
    return EXIT_OK


def parse_argv(argv: list[str]) -> tuple[Callable[[SimpleNamespace], int], SimpleNamespace]:
    """The function of the command argv names, and its arguments: the path
    as "scenario" and each option's value or default under its bare name;
    for -h or --help, cmd_help and the commands to show.  Any line COMMANDS
    does not accept raises a ScenarioError."""
    if not argv:
        raise ScenarioError(f"no command given; choose from {', '.join(COMMANDS)}")
    name, *rest = argv
    if name in HELP:
        return cmd_help, SimpleNamespace(commands=list(COMMANDS))
    if name not in COMMANDS:
        raise ScenarioError(f"unknown command {name!r}; choose from {', '.join(COMMANDS)}")
    cmd = COMMANDS[name]
    args = {k[2:]: o.default for k, o in cmd.options.items()}
    paths = []
    tokens = iter(rest)
    for tok in tokens:
        if tok in HELP:
            return cmd_help, SimpleNamespace(commands=[name])
        if not tok.startswith("-"):
            paths.append(tok)
            continue
        key, eq, value = tok.partition("=")
        if key not in cmd.options:
            raise ScenarioError(f"{name} has no option {key!r}; it takes "
                                f"{', '.join(cmd.options) or 'none'}")
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise ScenarioError(f"option {key} needs a value")
        args[key[2:]] = cmd.options[key].read(key, value)
    if len(paths) > cmd.takes_path:
        raise ScenarioError(f"unexpected argument {paths[cmd.takes_path]!r}")
    if cmd.takes_path:
        if not paths:
            raise ScenarioError(f"{name} needs a SCENARIO path")
        args["scenario"] = paths[0]
    return cmd.fn, SimpleNamespace(**args)


def main(argv=None) -> int:
    try:
        try:
            fn, args = parse_argv(sys.argv[1:] if argv is None else argv)
            return fn(args)
        except ReductionHypothesisViolated as e:
            emit(dumps({"status": HYPOTHESIS_VIOLATED, "detail": str(e)}))
            return EXIT_CHECK_FAILED
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT


def run() -> None:
    """The process entry: main() with the cyclic collector off, then exit
    with its code, the collector's heap frozen so that the collection at
    interpreter exit skips it."""
    import gc
    gc.disable()
    code = main()
    gc.freeze()
    try:
        if sys.stdout:  # None when the process started with standard output closed
            sys.stdout.flush()
    except OSError:  # main reported it; drop the rest, or the exit flush fails again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    run()
