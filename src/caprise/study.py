"""Parameter synthesis and cost estimates for the five-omega study.

The study varies omega over four decades while keeping the stationary
height pinned at 4R.  Given omega and sigma, the two constraints

    h_Jurin = sigma cos(theta)/(R rho g) = 4R
    omega   = sqrt(9 sigma cos(theta) mu^2 / (rho^3 g^2 R^5))

have the unique solution

    rho = 144 mu^2 / (omega^2 R sigma cos(theta)),
    g   = sigma cos(theta) / (4 R^2 rho).

The remaining inputs are fixed study-wide: R = 5 mm, mu_l = 0.01 Pa s,
theta_e = 30 deg, density and viscosity ratios 1000, h0 = 2R.  The 2D
solver's domain height, 8R, belongs to its grid (vof2d.geometry).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

from . import scaling
from .core import FluidPair, Geometry, dimensionless_numbers

# fixed study constants
STUDY_R = 0.005          # half gap width [m]
STUDY_MU_L = 0.01        # liquid viscosity [Pa s]
STUDY_THETA = math.radians(30.0)  # equilibrium contact angle [rad]
STUDY_DENSITY_RATIO = 1000.0
STUDY_VISCOSITY_RATIO = 1000.0
STUDY_H0_FACTOR = 2.0    # h0 = 2R


@dataclass(frozen=True)
class DtLimits:
    """Explicit-solver timestep ceilings for mesh size dx.

    The capillary limit comes in two variants.  The cost estimate is
    Brackbill, Kothe & Zemach's (1992) bound with the liquid density
    alone.  The solver form is the time the shortest resolved capillary
    wave, wavelength 2 dx, takes to cross one cell: with Lamb's (1932,
    section 267) two-fluid phase speed c(k)^2 = sigma k/(rho_l+rho_g)
    at k = pi/dx it is dx/c = sqrt((rho_l+rho_g) dx^3/(pi sigma)),
    a factor sqrt(2) above Denner & van Wachem's (2015, JCP 285) bound
    and 2 above Brackbill's with the same densities.
    """

    dt_sigma_estimate: float  # sqrt(rho_l dx^3/(4 pi sigma)) [s]
    dt_sigma_solver: float    # dx/c(pi/dx) = sqrt((rho_l+rho_g) dx^3/(pi sigma)) [s]
    dt_mu: float              # rho_l dx^2/(6 mu_l) [s]


@dataclass(frozen=True)
class StepCounts:
    """Steps to reach scaled time 1, per scaling and limiting mechanism."""

    n_sigma: tuple[float, float, float]  # scalings I, II, III with dt_sigma
    n_mu: tuple[float, float, float]     # scalings I, II, III with dt_mu


def synth_params(omega: float, sigma: float) -> tuple[FluidPair, Geometry]:
    """Reconstruct a study row (fluids and geometry) from omega and sigma;
    refuse one whose density, gravity or dimensionless groups are not
    finite and positive."""
    if not (omega > 0.0 and sigma > 0.0):
        raise ValueError("omega and sigma must be positive")
    ct = math.cos(STUDY_THETA)
    geom = Geometry(R=STUDY_R, theta_e=STUDY_THETA,
                    h0=STUDY_H0_FACTOR * STUDY_R)
    try:
        rho_l = 144.0 * STUDY_MU_L**2 / (omega**2 * STUDY_R * sigma * ct)
        g = sigma * ct / (4.0 * STUDY_R**2 * rho_l)
        fluid = FluidPair(rho_l=rho_l, rho_g=rho_l / STUDY_DENSITY_RATIO,
                          mu_l=STUDY_MU_L, sigma=sigma, g=g,
                          mu_g=STUDY_MU_L / STUDY_VISCOSITY_RATIO)
        nums = astuple(dimensionless_numbers(fluid, geom))
        finite = all(0.0 < x < math.inf for x in (rho_l, g, *nums))
    except ArithmeticError:  # a division by zero or an overflow
        finite = False
    if not finite:
        raise ValueError(f"omega {omega:g} and sigma {sigma:g} give a "
                         "density, gravity or dimensionless group that is "
                         "not finite and positive")
    return fluid, geom


def timestep_limits(fluid: FluidPair, dx: float) -> DtLimits:
    """Capillary and viscous timestep ceilings at mesh size dx.

    dt_sigma_estimate (Brackbill et al. 1992, liquid density) feeds the
    published cost table through step_counts; dt_sigma_solver, the time
    the 2 dx capillary wave takes to cross one cell at Lamb's two-fluid
    phase speed, and dt_mu cap the 2D solver's step.
    """
    if not dx > 0.0:
        raise ValueError("dx must be positive")
    dt_sigma_est = math.sqrt(fluid.rho_l * dx**3 / (4.0 * math.pi * fluid.sigma))
    dt_sigma_sol = math.sqrt((fluid.rho_l + fluid.rho_g) * dx**3
                             / (math.pi * fluid.sigma))
    dt_mu = fluid.rho_l * dx**2 / (6.0 * fluid.mu_l)
    return DtLimits(dt_sigma_estimate=dt_sigma_est, dt_sigma_solver=dt_sigma_sol,
                    dt_mu=dt_mu)


def crossover_cells(fluid: FluidPair, geom: Geometry) -> float:
    """Cells per radius where the capillary and viscous limits coincide.

    N* = pi/(9 Oh^2); the capillary limit dominates below N*, the viscous
    limit above.
    """
    oh = dimensionless_numbers(fluid, geom).oh
    return math.pi / (9.0 * oh * oh)


def step_counts(fluid: FluidPair, geom: Geometry, n_cells: float) -> StepCounts:
    """Number of explicit steps to reach scaled time 1 in each scaling.

    N^{k,.} = 1/(t_rate_k * dt_.) with the estimate-mode capillary limit
    (liquid density only) and dx = R/n_cells.  Exact products, no dropped
    prefactors.
    """
    if not n_cells >= 1.0:
        raise ValueError("n_cells must be >= 1")
    dx = geom.R / n_cells
    lim = timestep_limits(fluid, dx)
    s = scaling.coefficients(fluid, geom, "2d")
    rates = [scaling.units(kind, s).t_rate for kind in scaling.SCALING_KINDS]
    n_sigma = tuple(1.0 / (r * lim.dt_sigma_estimate) for r in rates)
    n_mu = tuple(1.0 / (r * lim.dt_mu) for r in rates)
    return StepCounts(n_sigma=n_sigma, n_mu=n_mu)
