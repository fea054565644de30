"""The host's speed, sampled on the program's own CPU while it runs.

On a shared VM the same code runs up to 1.7x slower from one minute to
the next: other tenants share the physical core and its caches, and
neither CPU time nor steal time shows it.  A fixed reference kernel
(Python loop, small numpy products, a sparse LU solve: the kinds of work
the caprise solvers do) runs from a SIGALRM handler every PERIOD_S of
wall time, in the main thread, on the one CPU the benchmark is pinned
to.  Its CPU time tracks how fast that CPU runs the program at the same
moments, and the program's own time is then scaled to a host that runs
the kernel in REF_S:

    seconds at reference speed = program seconds * REF_S / mean kernel time

The kernel is the benchmark's own code, so a change to caprise leaves it
alone.  It costs about 3% of the wall time, and its CPU time is taken
out of the program's time.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

PERIOD_S = 0.025
# mean kernel CPU time on the reference host (2-core shared VM, Python
# 3.11.7, numpy 2.4.6, scipy 1.17.1) at its typical load
REF_S = 7.0e-4

_N = 12
_T = sp.diags([np.ones(_N - 1), -2.0 * np.ones(_N), np.ones(_N - 1)], [-1, 0, 1])
_LAP = (sp.kron(sp.identity(_N), _T) + sp.kron(_T, sp.identity(_N))).tocsc()
_RHS = np.linspace(0.0, 1.0, _N * _N)
_A = np.linspace(0.0, 1.0, 256).reshape(16, 16)
_XS = [0.5 * i for i in range(128)]


def kernel() -> float:
    acc = 0.0
    for i, x in enumerate(_XS):
        acc += x * x - i if i & 1 else x
    c = np.maximum(_A @ _A, 0.5) * _A
    sol = spla.splu(_LAP).solve(_RHS)
    return acc + float(c[0, 0]) + float(sol[0])


def pin_to_one_cpu() -> int:
    """Run this process, its threads and children on one CPU.

    The kernel must run where the program runs; ode-suite's worker
    threads would otherwise move between CPUs.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class HostClock:
    """Reference-kernel samples (wall start, CPU seconds) while running."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._old = None

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        c0 = time.thread_time()
        kernel()
        self.samples.append((t, time.thread_time() - c0))

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def window(self, t0: float, t1: float) -> tuple[float, float]:
        """Total and mean kernel CPU time of the samples taken in [t0, t1]."""
        costs = [c for t, c in self.samples if t0 <= t <= t1]
        return sum(costs), statistics.fmean(costs)
