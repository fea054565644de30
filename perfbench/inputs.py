"""Seeded inputs for the caprise benchmark.

The seed scales the surface tension of each study row by a factor in
[0.8, 1.25], drawn log-uniformly, one factor per row.  ``synth_params``
keeps h_jurin = 4R and omega fixed, so the scaled problems keep their
shape, their step counts and (to about 1%) their RHS evaluation counts;
only the bits change.  Seed 0 gives factor 1 exactly, which reproduces
``omega_suite()`` and ``synth_params(1.0, 0.04)`` bit for bit.

Importing this module needs ``caprise`` on ``sys.path``.
"""

from __future__ import annotations

import random

from caprise import harness, vof2d
from caprise.core import CaseSpec, FluidPair, Geometry, SlipSpec
from caprise.scaling import auto_t_end
from caprise.study import synth_params

FACTOR_LO, FACTOR_HI = 0.8, 1.25

# the acceptance case of the 2D solver: omega = 1 with Navier slip R/5
PDE_OMEGA = 1.0
RISE_NX = 8


def sigma_factors(seed: int) -> dict[float, float]:
    """Surface-tension factor for each (omega, sigma) study row."""
    if seed == 0:
        return {omega: 1.0 for omega, _ in harness.OMEGA_SUITE}
    rng = random.Random(seed)
    return {omega: FACTOR_LO * (FACTOR_HI / FACTOR_LO) ** rng.random()
            for omega, _ in harness.OMEGA_SUITE}


def _row_sigma(omega: float, seed: int) -> float:
    return dict(harness.OMEGA_SUITE)[omega] * sigma_factors(seed)[omega]


def ode_cases(seed: int) -> list[CaseSpec]:
    """The five-omega suite with seeded surface tensions."""
    cases = []
    for omega, _ in harness.OMEGA_SUITE:
        fluid, geom = synth_params(omega, _row_sigma(omega, seed))
        slip = harness.SLIP_VARIANTS[harness.DEFAULT_SLIP](geom.R)
        cases.append(CaseSpec(label=f"omega{omega:g}", fluid=fluid, geom=geom,
                              slip=slip, omega_nominal=omega))
    return cases


def pde_params(seed: int) -> tuple[FluidPair, Geometry]:
    """Fluids and geometry of the seeded omega = 1 row."""
    return synth_params(PDE_OMEGA, _row_sigma(PDE_OMEGA, seed))


def rise_setup(seed: int) -> vof2d.CaseSetup2D:
    """Acceptance rise: Navier slip R/5, nx = 8, auto horizon."""
    fluid, geom = pde_params(seed)
    return vof2d.CaseSetup2D(fluid=fluid, geom=geom,
                             slip=SlipSpec.navier(geom.R / 5.0), nx=RISE_NX,
                             t_end=auto_t_end(fluid, geom))


def generate(workload: str, seed: int):
    """All inputs of one workload: what the set-up time covers."""
    if workload == "ode-suite":
        return ode_cases(seed)
    # the simulator builds its initial state with init_case
    return vof2d.Simulator(rise_setup(seed))
