"""Run the diraclab CLI with spans around the functions listed in layers.py.

Usage: python3 perfbench/traced_cli.py STATS_JSON CLI_ARG...

The functions are wrapped from outside the program before ``cli.main`` runs:
in their defining module, at every ``from ... import`` binding of them in
other diraclab modules, and on their class for methods.  Each wrapper counts
calls and accumulates self time (span time minus the time of traced child
spans, so a recursive call is counted once).  When the CLI returns, the
counters are written to STATS_JSON and the CLI's exit code is returned.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
import time
from functools import update_wrapper

import layers


def arg_hash(args, kwargs) -> int:
    """Content hash of a call's arguments; lists hash like tuples."""
    key = tuple(tuple(a) if type(a) is list else a for a in args)
    if kwargs:
        key += tuple(sorted(kwargs.items()))
    try:
        return hash(key)
    except TypeError:
        # dicts and other unhashable arguments
        return hash(repr(key))


def entry_bits(f) -> int:
    """Largest numerator or denominator bit length among a LinMap's entries."""
    return max((max(x.numerator.bit_length(), x.denominator.bit_length())
                for row in f.entries for x in row), default=0)


class Tracer:
    def __init__(self):
        # key -> [calls, self seconds, set of argument hashes or None]
        self.stats: dict[str, list] = {}
        # child-time accumulators of the open spans; the bottom one is a sentinel
        self.child = [0.0]
        self.max_entry_bits = 0

    def wrap(self, key: str, fn, distinct: bool, probe=None):
        stat = [0, 0.0, set() if distinct else None]
        self.stats[key] = stat
        child = self.child
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t_enter = clock()
            stat[0] += 1
            if stat[2] is not None:
                stat[2].add(arg_hash(args, kwargs))
            if probe is not None:
                probe(args)
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                inner = child.pop()
                stat[1] += (t1 - t0) - inner
                # the parent's self time excludes this span and the hashing above
                child[-1] += t1 - t_enter

        return update_wrapper(traced, fn)

    def probe_kernel(self, args) -> None:
        bits = entry_bits(args[0])
        if bits > self.max_entry_bits:
            self.max_entry_bits = bits

    def to_json(self) -> dict:
        return {
            "functions": {key: {"calls": s[0], "self_s": s[1],
                                "distinct": None if s[2] is None else len(s[2])}
                          for key, s in self.stats.items()},
            "max_entry_bits": self.max_entry_bits,
        }


def install(tracer: Tracer) -> None:
    import diraclab
    modules = {info.name: importlib.import_module(f"diraclab.{info.name}")
               for info in pkgutil.iter_modules(diraclab.__path__)}
    for mod_name, names in layers.TRACED.items():
        home = modules[mod_name]
        for name in names:
            key = f"{mod_name}.{name}"
            probe = tracer.probe_kernel if key == "linalg.kernel" else None
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, tracer.wrap(key, original, key in layers.DISTINCT))
                continue
            original = getattr(home, name)
            traced = tracer.wrap(key, original, key in layers.DISTINCT, probe)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)


def main() -> int:
    stats_path, cli_args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    from diraclab import cli
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(stats_path, "w") as fh:
            json.dump(tracer.to_json(), fh)


if __name__ == "__main__":
    sys.exit(main())
