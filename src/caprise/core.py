"""Fluid/geometry parameter types and stationary capillary-rise formulas.

Covers the planar (two parallel plates) configuration: a liquid column of
half gap width R rising against gravity, driven by the wetting force
sigma*cos(theta_e) per unit plate length.  Angles are radians throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonWettingAngle

# Closed form for the meniscus volume correction degenerates as
# theta_e -> pi/2; switch to the series limit inside this window.
_THETA_SERIES_WINDOW = 1e-6  # rad

# The longest slip length [m].  The extended model's slip groups overflow
# above 2.0e153 (15 L^2) and the 2D wall ghost above 9.0e307 (2L + dx).
SLIP_LENGTH_MAX = 1e150


@dataclass(frozen=True)
class FluidPair:
    """Material properties of the liquid/gas pair plus gravity."""

    rho_l: float  # liquid density [kg/m^3]
    rho_g: float  # gas density [kg/m^3]
    mu_l: float   # liquid dynamic viscosity [Pa s]
    mu_g: float   # gas dynamic viscosity [Pa s]
    sigma: float  # surface tension [N/m]
    g: float      # gravitational acceleration [m/s^2]

    def __post_init__(self) -> None:
        for name in ("rho_l", "rho_g", "mu_l", "mu_g", "sigma", "g"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if self.rho_l < self.rho_g:
            raise ValueError("rho_l must be >= rho_g")
        if self.mu_l < self.mu_g:
            raise ValueError("mu_l must be >= mu_g")


@dataclass(frozen=True)
class Geometry:
    """Channel geometry and initial fill level."""

    R: float        # half gap width [m]
    theta_e: float  # equilibrium contact angle [rad]
    h0: float       # initial apex height [m]

    def __post_init__(self) -> None:
        if not self.R > 0.0:
            raise ValueError("R must be positive")
        # Non-wetting angles make every rise formula change sign or blow
        # up; keep the package honest and refuse them at the door.
        if not 0.0 < self.theta_e <= 0.5 * math.pi:
            raise ValueError("theta_e must lie in (0, pi/2]")
        if not 0.0 <= self.h0 < math.inf:
            raise ValueError("h0 must be finite and >= 0")


@dataclass(frozen=True)
class SlipSpec:
    """Wall slip length L [m] of a Navier condition.  SlipSpec() is L = 0,
    numerical slip: the no-slip ghost, whose effective slip shrinks with
    the mesh.  navier(L) spells a Navier wall and refuses L = 0."""

    L: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.L < math.inf:
            raise ValueError("slip length L must be finite and >= 0")
        if self.L > SLIP_LENGTH_MAX:
            raise ValueError(
                f"slip length L must be at most {SLIP_LENGTH_MAX:g} m")

    @classmethod
    def navier(cls, L: float) -> "SlipSpec":
        if not 0.0 < L < math.inf:
            raise ValueError("navier slip requires a finite L > 0")
        return cls(L)


@dataclass(frozen=True)
class CaseSpec:
    """A named benchmark case: fluids, geometry and wall model."""

    label: str
    fluid: FluidPair
    geom: Geometry
    slip: SlipSpec
    omega_nominal: float  # nominal oscillation number of the case [-]

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("label must be non-empty")
        if not self.omega_nominal > 0.0:
            raise ValueError("omega_nominal must be positive")


@dataclass(frozen=True)
class DimensionlessNumbers:
    """Dimensionless groups of a planar rise case."""

    eo: float     # Eotvos number, (rho_l - rho_g) g R^2 / sigma [-]
    oh: float     # Ohnesorge number, mu_l / sqrt(sigma rho_l R) [-]
    omega: float  # oscillation number [-]
    l_cap: float  # capillary length sqrt(sigma / (rho_l g)) [m]


def jurin_height(fluid: FluidPair, geom: Geometry) -> float:
    """Equilibrium rise height of the contact line between parallel plates.

    h = sigma cos(theta_e) / (R rho_l g).  The gas phase is treated as
    passive here; only the liquid weight balances the wetting force.
    """
    return fluid.sigma * math.cos(geom.theta_e) / (geom.R * fluid.rho_l * fluid.g)


def height_correction(geom: Geometry) -> float:
    """Apex-to-contact-line volume correction of a circular-arc meniscus.

    Equals the cross-sectional area enclosed between the arc and the apex
    plane, divided by the gap half width:

        h_hat = R / (2 cos t) * (2 - sin t - arcsin(cos t) / cos t)

    Near t = pi/2 the closed form is 0/0; the series limit R cos(t) / 6 is
    used inside a 1e-6 rad window.
    """
    t = geom.theta_e
    if 0.5 * math.pi - t < _THETA_SERIES_WINDOW:
        return geom.R * math.cos(t) / 6.0
    c = math.cos(t)
    return geom.R / (2.0 * c) * (2.0 - math.sin(t) - math.asin(c) / c)


def stationary_height(fluid: FluidPair, geom: Geometry) -> float:
    """Stationary apex height: Jurin height minus the meniscus correction.

    May be negative for extreme parameter choices; returned as-is.
    """
    return jurin_height(fluid, geom) - height_correction(geom)


def _wetting_cos(geom: Geometry) -> float:
    c = math.cos(geom.theta_e)
    # cos(pi/2) only reaches ~6e-17 in floats; treat that as zero
    if c <= 1e-14:
        raise NonWettingAngle("the wetting groups need cos(theta_e) > 0")
    return c


def dimensionless_numbers(fluid: FluidPair, geom: Geometry) -> DimensionlessNumbers:
    """Eotvos, Ohnesorge, oscillation number and capillary length.

    The Eotvos number uses the density difference; the oscillation number

        omega = sqrt(9 sigma cos(theta_e) mu_l^2 / (rho_l^3 g^2 R^5))

    discriminates monotone (large omega) from oscillatory rise.
    """
    c = _wetting_cos(geom)
    eo = (fluid.rho_l - fluid.rho_g) * fluid.g * geom.R**2 / fluid.sigma
    oh = fluid.mu_l / math.sqrt(fluid.sigma * fluid.rho_l * geom.R)
    omega = math.sqrt(
        9.0 * fluid.sigma * c * fluid.mu_l**2
        / (fluid.rho_l**3 * fluid.g**2 * geom.R**5)
    )
    l_cap = math.sqrt(fluid.sigma / (fluid.rho_l * fluid.g))
    return DimensionlessNumbers(eo=eo, oh=oh, omega=omega, l_cap=l_cap)
