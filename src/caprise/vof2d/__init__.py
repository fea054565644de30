"""Compact 2D geometric-VOF two-phase solver for the half-gap rise problem.

Staggered MAC grid, explicit Euler with Chorin projection, PLIC volume
advection with directional splitting, height-function curvature with a
ghost-cell contact angle, CSF surface tension, Navier-slip walls.
Numerical slip is the Navier ghost at L = 0, the no-slip reflection,
whose effective slip shrinks with the mesh.
"""

from .geometry import Grid, SimState, apex_height, init_case
from .plic import PlicPlane, plic_reconstruct, youngs_normal
from .curvature import contact_angle_ghost, curvature_height_function
from .solver import CaseSetup2D, Simulator, compute_dt

__all__ = [
    "CaseSetup2D",
    "Grid",
    "PlicPlane",
    "SimState",
    "Simulator",
    "apex_height",
    "compute_dt",
    "contact_angle_ghost",
    "curvature_height_function",
    "init_case",
    "plic_reconstruct",
    "youngs_normal",
]
