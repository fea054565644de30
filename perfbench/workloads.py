"""One repetition of each workload: the timed section and its gates.

Input generation happens before the clock starts.  Importing this
module needs ``caprise`` on ``sys.path``.
"""

from __future__ import annotations

import itertools
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import gates
import hostclock
import inputs
from caprise import harness, vof2d
from caprise.core import stationary_height
from caprise.errors import CapriseError
from caprise.vof2d import solver

ODE_MODELS = ("classical", "extended")
ODE_SCALINGS = ("none", "I", "II", "III")


@dataclass
class Rep:
    """One repetition: its timed wall, work done and checked operations.

    ``wall`` leaves out the reference kernel's CPU time; ``kernel_s`` is
    that kernel's mean CPU time during the repetition.
    """

    wall: float
    kernel_s: float
    steps: int
    ops: list[list[str]] = field(default_factory=list)
    summary: bytes | None = None

    @property
    def ref_wall(self) -> float:
        """The wall scaled to the reference host speed (see hostclock)."""
        return self.wall * hostclock.REF_S / self.kernel_s


def _rep(clock: hostclock.HostClock, t0: float, t1: float, **kw) -> Rep:
    spent, mean = clock.window(t0, t1)
    return Rep(wall=t1 - t0 - spent, kernel_s=mean, **kw)


def ode_rep(cases, out: Path, clock: hostclock.HostClock) -> Rep:
    t0 = time.perf_counter()
    results = harness.run_suite(cases, models=ODE_MODELS, scalings=ODE_SCALINGS,
                                out_dir=out)
    read = {(r.case.label, r.model):
            harness.read_trajectory_csv(out / f"{r.case.label}_{r.model}_none.csv")
            for r in results}
    deviations = {c.label: harness.compare(read[(c.label, "classical")],
                                           read[(c.label, "extended")])
                  for c in cases
                  if (c.label, "classical") in read and (c.label, "extended") in read}
    t1 = time.perf_counter()

    summary = (out / "summary.json").read_bytes()
    entries = json.loads(summary)
    ops = [gates.summary_failures(entries)]
    ops += [gates.entry_failures(e) for e in entries]
    ops += [gates.roundtrip_failures(f"{r.case.label}/{r.model}", r.trajectory,
                                     read[(r.case.label, r.model)])
            for r in results]
    ops += [gates.compare_failures(label, d) for label, d in deviations.items()]
    steps = sum(e.get("n_steps", 0) for e in entries)
    return _rep(clock, t0, t1, steps=steps, ops=ops, summary=summary)


def rise_rep(setup: vof2d.CaseSetup2D, clock: hostclock.HostClock) -> Rep:
    # the constructor runs init_case: set-up, not timed work
    sim = vof2d.Simulator(setup)
    t0 = time.perf_counter()
    try:
        traj, diag = sim.run()
    except CapriseError as exc:
        return _rep(clock, t0, time.perf_counter(), steps=sim.diag.n_steps,
                    ops=[[f"solver failed after {sim.diag.n_steps} steps: {exc!r}"]])
    t1 = time.perf_counter()
    h_inf = stationary_height(setup.fluid, setup.geom)
    ops = [gates.rise_failures(float(traj.h[-1]), h_inf, diag, solver._POISSON_TOL)]
    return _rep(clock, t0, t1, steps=diag.n_steps, ops=ops)


def rep_runner(workload: str, seed: int, work: Path, clock: hostclock.HostClock):
    """A callable doing one repetition, and the least number of them.

    ode-suite's summary.json must repeat byte for byte, and its
    repetitions are short enough for a median of three.
    """
    if workload == "ode-suite":
        cases = inputs.ode_cases(seed)
        counter = itertools.count()

        def run():
            out = work / f"suite{next(counter)}"
            try:
                return ode_rep(cases, out, clock)
            finally:
                shutil.rmtree(out, ignore_errors=True)
        return run, 3
    setup = inputs.rise_setup(seed)
    return lambda: rise_rep(setup, clock), 1


def byte_identity_ops(reps: list[Rep]) -> list[list[str]]:
    first = reps[0].summary
    return [gates.bytes_failures(first, r.summary) for r in reps[1:]
            if r.summary is not None]
