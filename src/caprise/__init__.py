"""Capillary-rise benchmark toolkit: reduced ODE models, scalings,
parameter study helpers and a compact 2D two-phase reference solver."""

from .core import (
    CaseSpec,
    DimensionlessNumbers,
    FluidPair,
    Geometry,
    SlipSpec,
    dimensionless_numbers,
    height_correction,
    jurin_height,
    stationary_height,
)
from .harness import (
    BenchResult,
    DeviationMetrics,
    compare,
    omega_suite,
    run_case,
    run_suite,
)
from .odemodels import ModelSpec, Trajectory, integrate

__all__ = [
    "BenchResult",
    "CaseSpec",
    "DeviationMetrics",
    "DimensionlessNumbers",
    "FluidPair",
    "Geometry",
    "ModelSpec",
    "SlipSpec",
    "Trajectory",
    "compare",
    "dimensionless_numbers",
    "height_correction",
    "integrate",
    "jurin_height",
    "omega_suite",
    "run_case",
    "run_suite",
    "stationary_height",
]

__version__ = "0.1.0"
