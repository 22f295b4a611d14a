"""Timing of child commands at a fixed reference speed of the machine.

The benchmark runs on a shared machine whose speed changes by up to 2x, over
seconds and over minutes, as other tenants load it; wall time and CPU time
both follow (README.md, Spread).  So a command is not timed on its own: the
benchmark pins itself and its children to one CPU, stops the command
(SIGSTOP) after every SLICE_S of its running time, times a fixed piece of
pure-Python reference work on that CPU, and lets the command continue
(SIGCONT).  Each running interval is scaled by REF_NOMINAL_S over the mean
time of the reference work just before and just after it, which gives the
command's time on a machine that does the reference work in REF_NOMINAL_S.

The reference work is rational Gauss-Jordan elimination with the standard
library's Fraction, the kind of work diraclab spends its time on, and
imports nothing from diraclab, so no change to the program moves it.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import time
from dataclasses import dataclass
from fractions import Fraction

# running time of a command between two reference samples
SLICE_S = 0.5
# eliminations per reference sample
REF_REPEAT = 6
# time of one reference sample on the machine of README.md's numbers when it
# is least loaded: the scale of every reported time
REF_NOMINAL_S = 0.07


def _eliminate() -> None:
    """Reduce a fixed 12x24 rational matrix to reduced row echelon form."""
    rows, cols = 12, 24
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + 2 * j) % 5 + 1)
          for j in range(cols)] for i in range(rows)]
    r = 0
    for c in range(cols):
        p = next((k for k in range(r, rows) if m[k][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        pivot = m[r][c]
        m[r] = [x / pivot for x in m[r]]
        for k in range(rows):
            if k != r and m[k][c]:
                f = m[k][c]
                m[k] = [a - f * b for a, b in zip(m[k], m[r])]
        r += 1
        if r == rows:
            break


def reference_sample() -> float:
    """Wall time of the fixed reference work."""
    t0 = time.perf_counter()
    for _ in range(REF_REPEAT):
        _eliminate()
    return time.perf_counter() - t0


def pin_to_one_cpu() -> None:
    """Run this process, and the children it starts, on one CPU, so that the
    reference work and the commands run on the same one."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@dataclass
class Timing:
    code: int
    # running time, without the pauses
    wall_s: float
    # running time at the reference speed
    ref_s: float
    # user plus system time of the child
    cpu_s: float
    rss_mb: float


def run_timed(argv: list[str], timeout: float, pause: bool = True,
              **popen) -> Timing:
    """Run one command to completion, sampling the reference speed before it,
    after it and, with `pause`, after every SLICE_S of its running time.

    A command still running `timeout` seconds after its start is killed and
    reads as exit code -9.  The child is reaped with wait4, so its CPU time
    and peak RSS are its own.
    """
    refs = [reference_sample()]
    intervals = []
    start = time.perf_counter()
    proc = subprocess.Popen(argv, **popen)
    pidfd = os.pidfd_open(proc.pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        t0 = start
        while True:
            left = start + timeout - time.perf_counter()
            wait_s = min(SLICE_S, left) if pause else left
            if poller.poll(max(wait_s, 0.0) * 1000):
                intervals.append(time.perf_counter() - t0)
                _, status, usage = os.wait4(proc.pid, 0)
                break
            if time.perf_counter() - start >= timeout:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                intervals.append(time.perf_counter() - t0)
                break
            os.kill(proc.pid, signal.SIGSTOP)
            _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
            intervals.append(time.perf_counter() - t0)
            if not os.WIFSTOPPED(status):
                break
            refs.append(reference_sample())
            t0 = time.perf_counter()
            os.kill(proc.pid, signal.SIGCONT)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        os.close(pidfd)
    refs.append(reference_sample())
    proc.returncode = os.waitstatus_to_exitcode(status)
    ref_s = sum(iv * 2 * REF_NOMINAL_S / (refs[i] + refs[i + 1])
                for i, iv in enumerate(intervals))
    return Timing(proc.returncode, sum(intervals), ref_s,
                  usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
