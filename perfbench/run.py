"""Benchmark of the diraclab CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads below, or ``all`` to run each of them in turn.

Every command runs as ``python -m diraclab.cli ...`` in a fresh interpreter,
one at a time, so no cache inside the program carries work from one
repetition to the next.  The benchmark writes its own scenario files, passes
the workload seed as ``--seed`` to ``verify`` and checks every
(scenario, suite) verdict against the hand-written table in expected.py.

Every time is taken at a fixed reference speed of the machine (speed.py).
With ``--trace 0`` it repeats the workload for about S seconds and reports
the end-to-end metrics, each the median over the repetitions.  With
``--trace 1`` it runs the workload once untraced and twice under
traced_cli.py, and reports the per-layer metrics of layers.py and the
tracing overhead.  The last line of standard output is one JSON object; the
exit code is 0 only if every verdict matched.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import layers
import speed
from expected import EXPECTED, REDUCE_STATUS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SPECS = {
    "torus": {"name": "torus"},
    "circle-n2": {"name": "circle", "params": {"n": 2, "level": "1/2"}},
    "pair": {"name": "pair", "params": {"n": 2}},
    "pair-corrupt-sigma": {"name": "pair-corrupt-sigma", "params": {"n": 2}},
    "circle-n1": {"name": "circle", "params": {"n": 1}},
    "so3": {"name": "so3"},
    "graph-twist": {"name": "graph-twist"},
    "twist-mismatch": {"name": "twist-mismatch"},
    "line-bivector": {"name": "line-bivector"},
}

# (command, scenario) steps of one repetition of each workload; README.md
# says why each workload exists.
WORKLOADS = {
    "torus-transfer": [("verify", "torus")],
    "circle2-reduce": [("verify", "circle-n2"), ("reduce", "circle-n2")],
    "catalog-small": [("verify", s) for s in (
        "pair", "pair-corrupt-sigma", "circle-n1", "so3", "graph-twist",
        "twist-mismatch", "line-bivector")],
}

END_TO_END_UNITS = {
    "setup_s": "s", "verify_s": "s", "commands_s": "s", "checks_per_s": "1/s",
    "cpu_s": "s", "peak_rss_mb": "MB", "verdict_ok_ratio": "ratio",
}

# the held-out seed that a claim must also hold on is in README.md, Seeds
DEFAULT_SEED = 0
# set-up is timed this many times before each repetition of the workload
SETUP_PER_PASS = 3
# a run must end within 180 s: a command still running this many seconds
# after the start is killed and its verdicts count as failed
RUN_BUDGET_S = 165.0


class BenchError(Exception):
    pass


@dataclass
class Outcome:
    code: int
    # running time, and running time at the reference speed (speed.py)
    wall_s: float
    ref_s: float
    # user plus system time, at the reference speed
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "DIRACLAB_SAMPLES")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], timeout: float, pause: bool = True) -> Outcome:
    """Run one command to completion and take its times and resource use.

    Its CPU time is scaled by the same factor as its running time, so it too
    reads at the reference speed.
    """
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        t = speed.run_timed(argv, max(timeout, 0.0), pause, stdout=out,
                            stderr=err, env=child_env(), cwd=ROOT)
        out.seek(0)
        err.seek(0)
        return Outcome(t.code, t.wall_s, t.ref_s,
                       t.cpu_s * t.ref_s / t.wall_s if t.wall_s else t.cpu_s,
                       t.rss_mb, out.read().decode(errors="replace"),
                       err.read().decode(errors="replace"))


def suite_keys(scenario: str, cmd: str) -> list[str]:
    if cmd == "reduce":
        return [f"{scenario}/reduce"]
    return sorted(k for k in EXPECTED
                  if k.startswith(f"{scenario}/") and k != f"{scenario}/reduce")


def observed_verdicts(cmd: str, doc: dict) -> dict:
    """Suite name -> {(check id, status): record count} of one CLI document."""
    if cmd == "reduce":
        if doc["status"] != REDUCE_STATUS:
            raise ValueError(f"status {doc['status']!r}, expected {REDUCE_STATUS!r}")
        reports = {"reduce": doc["report"]}
    else:
        reports = doc["suites"]
    return {name: dict(Counter((r["check"], r["status"]) for r in rep["records"]))
            for name, rep in reports.items()}


@dataclass
class Verdicts:
    attempted: int = 0
    failed: int = 0
    # records decided by the verify commands
    records: int = 0
    # (scenario, suite) key -> observed verdict counts
    seen: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def add(self, other: "Verdicts") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def check_command(cmd: str, scenario: str, outcome: Outcome,
                  verdicts: Verdicts) -> None:
    """Compare one command's exit code and verdicts with EXPECTED; every
    (scenario, suite) verdict is one attempted operation."""
    keys = suite_keys(scenario, cmd)
    verdicts.attempted += len(keys)
    want_exit = max(EXPECTED[k][0] for k in keys)
    try:
        observed = observed_verdicts(cmd, json.loads(outcome.stdout))
    except (ValueError, KeyError, TypeError) as e:
        observed, why = None, f"bad output: {e}"
    else:
        why = f"exit {outcome.code}, expected {want_exit}"
    if outcome.code != want_exit or observed is None:
        verdicts.failed += len(keys)
        tail = outcome.stderr.strip().splitlines()[-1:]
        verdicts.problems.append(f"{cmd} {scenario}: {why}"
                                 + (f": {tail[0]}" if tail else ""))
        return
    extra = set(observed) - {k.split("/", 1)[1] for k in keys}
    if extra:
        verdicts.attempted += len(extra)
        verdicts.failed += len(extra)
        verdicts.problems.append(f"{cmd} {scenario}: unexpected suites {sorted(extra)}")
    for key in keys:
        got = observed.get(key.split("/", 1)[1])
        if got is not None:
            verdicts.seen[key] = got
            if cmd == "verify":
                verdicts.records += sum(got.values())
        if got != EXPECTED[key][1]:
            verdicts.failed += 1
            verdicts.problems.append(f"{key}: verdicts differ from expected.py: {got}")


@dataclass
class Pass:
    """One repetition of a workload: an outcome per (command, scenario) step."""
    steps: list
    outcomes: list = field(default_factory=list)
    verdicts: Verdicts = field(default_factory=Verdicts)
    traces: list = field(default_factory=list)

    def total(self, attr: str, cmd: str | None = None) -> float:
        """Sum of an Outcome field over the steps, or over those of `cmd`."""
        return sum(getattr(o, attr) for (c, _), o in zip(self.steps, self.outcomes)
                   if cmd in (None, c))

    @property
    def verify_s(self) -> float:
        return self.total("ref_s", "verify")


def run_pass(workload: str, seed: int, spec_dir: Path, deadline: float,
             trace_dir: Path | None = None, pause: bool = True) -> Pass:
    """One repetition of the workload.  `pause` as in speed.run_timed; traced
    commands are never paused, because their spans would count the pauses."""
    result = Pass(WORKLOADS[workload])
    for i, (cmd, scenario) in enumerate(result.steps):
        args = [cmd, str(spec_dir / f"{scenario}.json")]
        if cmd == "verify":
            args += ["--seed", str(seed), "--report", "json"]
        if trace_dir is None:
            argv = [sys.executable, "-m", "diraclab.cli"] + args
        else:
            stats = trace_dir / f"{i}.json"
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(stats)] + args
        outcome = run_child(argv, deadline - time.monotonic(), pause)
        check_command(cmd, scenario, outcome, result.verdicts)
        result.outcomes.append(outcome)
        if trace_dir is not None and stats.is_file():
            with open(stats) as fh:
                result.traces.append(json.load(fh))
    return result


def import_times(count: int, deadline: float) -> list[float]:
    """Times, at the reference speed, from a fresh interpreter to diraclab.cli
    and every module it imports loaded, checking that they load from this
    checkout's src/."""
    check = ("import sys, diraclab.cli; "
             "sys.exit(0 if diraclab.cli.__file__.startswith(sys.argv[1]) else 3)")
    argv = [sys.executable, "-c", check, str(SRC)]
    times = []
    for _ in range(count):
        outcome = run_child(argv, deadline - time.monotonic())
        if outcome.code != 0:
            raise BenchError("cannot import diraclab.cli from src/: "
                             + (outcome.stderr.strip().splitlines() or ["?"])[-1])
        times.append(outcome.ref_s)
    return times


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced_run(workload: str, seed: int, seconds: float, spec_dir: Path,
                 deadline: float) -> tuple[dict, Verdicts, dict]:
    """Repeat the workload for about `seconds`.  Every time is taken at the
    reference speed (speed.py).  Each command time metric is the median over
    the repetitions of that repetition's total; setup_s is the median of the
    imports timed before each repetition."""
    # the first import writes the bytecode caches, which users pay once per
    # installation, not per command
    import_times(1, deadline)
    setup_times = []
    passes = []
    start = time.monotonic()
    while True:
        setup_times += import_times(SETUP_PER_PASS, deadline)
        passes.append(run_pass(workload, seed, spec_dir, deadline))
        elapsed = time.monotonic() - start
        mean = elapsed / len(passes)
        if elapsed + mean > seconds or time.monotonic() + mean > deadline:
            break
    total = Verdicts()
    for p in passes:
        total.add(p.verdicts)
    def median(attr: str, cmd: str | None = None) -> float:
        return statistics.median(p.total(attr, cmd) for p in passes)

    verify_s = median("ref_s", "verify")
    values = {
        "setup_s": statistics.median(setup_times),
        "verify_s": verify_s,
        "commands_s": median("ref_s"),
        "checks_per_s": passes[0].verdicts.records / verify_s,
        "cpu_s": median("cpu_s"),
        "peak_rss_mb": max(o.rss_mb for p in passes for o in p.outcomes),
        "verdict_ok_ratio": (total.attempted - total.failed) / total.attempted,
    }
    # the running time as the clock read it, and how much slower than the
    # reference speed the machine ran
    extra = {"passes": len(passes), "verify_wall_s": median("wall_s", "verify"),
             "slowdown": median("wall_s") / median("ref_s")}
    if any(cmd == "reduce" for cmd, _ in WORKLOADS[workload]):
        extra["reduce_s"] = median("ref_s", "reduce")
    metrics = {name: metric(values[name], unit)
               for name, unit in END_TO_END_UNITS.items()}
    return metrics, total, extra


def layer_metrics(traced: list[Pass], untraced: Pass) -> dict:
    """Per-layer metrics: calls from the first traced pass, self times averaged
    over the traced passes."""
    def totals(p: Pass) -> dict:
        out = {}
        for stats in p.traces:
            for key, s in stats["functions"].items():
                calls, self_s, distinct = out.get(key, (0, 0.0, 0))
                out[key] = (calls + s["calls"], self_s + s["self_s"],
                            distinct + (s["distinct"] or 0))
        return out

    per_pass = [totals(p) for p in traced]
    values = {}
    for key in layers.keys():
        # a command that crashed before writing its counters counts nothing
        calls, _, distinct = per_pass[0].get(key, (0, 0.0, 0))
        values[f"{key}.calls"] = calls
        values[f"{key}.self_s"] = statistics.fmean(t.get(key, (0, 0.0))[1]
                                                   for t in per_pass)
        if key in layers.DISTINCT:
            values[f"{key}.distinct_ratio"] = distinct / calls if calls else 0.0
    values["linalg.max_entry_bits"] = max((stats["max_entry_bits"]
                                           for stats in traced[0].traces), default=0)
    for mod, names in layers.TRACED.items():
        values[f"{mod}.self_s"] = sum(values[f"{mod}.{name}.self_s"] for name in names)
    traced_verify = min(p.verify_s for p in traced)
    values["trace.untraced_verify_s"] = untraced.verify_s
    values["trace.traced_verify_s"] = traced_verify
    values["trace.overhead_ratio"] = traced_verify / untraced.verify_s - 1.0
    return {name: metric(values[name], unit)
            for name, unit in layers.metric_units().items()}


def call_counts(p: Pass) -> list:
    return [{k: s["calls"] for k, s in stats["functions"].items()}
            for stats in p.traces]


def traced_run(workload: str, seed: int, spec_dir: Path,
               deadline: float) -> tuple[dict, Verdicts, dict]:
    """One untraced and two traced passes.  The traced passes must reach the
    untraced verdicts, and their call counts must repeat exactly."""
    untraced = run_pass(workload, seed, spec_dir, deadline, pause=False)
    traced = []
    for i in range(2):
        trace_dir = spec_dir / f"trace{i}"
        trace_dir.mkdir()
        traced.append(run_pass(workload, seed, spec_dir, deadline,
                               trace_dir, pause=False))
    total = Verdicts()
    for p in [untraced] + traced:
        total.add(p.verdicts)
    for p in traced:
        if p.verdicts.seen != untraced.verdicts.seen:
            total.problems.append("traced verdicts differ from untraced ones")
    if call_counts(traced[0]) != call_counts(traced[1]):
        total.problems.append("call counts differ between two traced runs")
    return layer_metrics(traced, untraced), total, {}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        spec_dir = Path(tmp)
        for name, spec in SPECS.items():
            (spec_dir / f"{name}.json").write_text(json.dumps(spec))
        if trace:
            metrics, verdicts, extra = traced_run(workload, seed, spec_dir,
                                                  deadline)
        else:
            metrics, verdicts, extra = untraced_run(workload, seed, seconds,
                                                    spec_dir, deadline)
    for problem in verdicts.problems:
        print(f"{workload}: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    for name, value in extra.items():
        print(f"{workload} {name} {value:.6g}")
    return {"correct": not verdicts.problems, "attempted": verdicts.attempted,
            "failed": verdicts.failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "diraclab" / "cli.py").is_file():
        print(f"error: {SRC / 'diraclab'} is missing; run from a diraclab checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    speed.pin_to_one_cpu()
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
                   for w in names}
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    result = results[args.workload] if args.workload != "all" else {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
