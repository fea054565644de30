"""Scalings of the rise models: rescaled trajectories and scaled balance rows.

Three scalings (I viscous, II inertial, III gravitational) turn the
dimensional trajectory into t* = t_rate*t, h* = h_rate*h.  The coefficients
a, b, c condense the material parameters; their combination

    omega = sqrt(b^2 / (a c^2))

is the single group separating oscillatory from monotone rise.  The scaled
extended model is a coefficient row (scaled_balance) of the same balance
as the dimensional one, so solve_rk45(scaled_balance(...), ...) integrates
it and the two routes can be cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import FluidPair, Geometry, _wetting_cos
from .odemodels import RiseBalance, SlipGroups, Trajectory

SCALING_KINDS = ("I", "II", "III")


@dataclass(frozen=True)
class ScaleSet:
    """Scaling coefficients of a case."""

    a: float      # rho R / (sigma cos) [s^2/m^3-compatible]
    b: float      # viscous coefficient [s/m^2-compatible]
    c: float      # rho g R / (sigma cos) = 1/h_Jurin [1/m]

    def __post_init__(self) -> None:
        if not (self.a > 0.0 and self.b > 0.0 and self.c > 0.0):
            raise ValueError("a, b, c must be positive")

    @property
    def omega(self) -> float:
        """The dimensionless group sqrt(b^2/(a c^2)) [-]."""
        return math.sqrt(self.b**2 / (self.a * self.c**2))


@dataclass(frozen=True)
class ScaleUnits:
    t_rate: float  # [1/s]
    h_rate: float  # [1/m]

    @property
    def v_rate(self) -> float:
        """Velocity factor by the chain rule, v* = (h_rate/t_rate) v."""
        return self.h_rate / self.t_rate


def coefficients(fluid: FluidPair, geom: Geometry, dim: str = "2d") -> ScaleSet:
    """Scaling coefficients a, b, c for the planar (2d) or tube (3d) case.

    a = rho R/(n sigma cos), b = f mu/(R sigma cos), c = rho g R/(n sigma cos):
    plates have n = 1 and the friction factor f = 3; a tube has the factor
    n = 2 of the circular cross-section and the Hagen-Poiseuille f = 4.
    """
    ct = _wetting_cos(geom)
    if dim == "2d":
        n, f = 1.0, 3.0
    elif dim == "3d":
        n, f = 2.0, 4.0
    else:
        raise ValueError("dim must be '2d' or '3d'")
    rho, mu, sig, g, R = fluid.rho_l, fluid.mu_l, fluid.sigma, fluid.g, geom.R
    sc = sig * ct
    return ScaleSet(a=rho * R / (n * sc), b=f * mu / (R * sc), c=rho * g * R / (n * sc))


def units(kind: str, s: ScaleSet) -> ScaleUnits:
    """Time and height rates of scaling I, II or III."""
    if kind == "I":
        return ScaleUnits(t_rate=s.c**2 / s.b, h_rate=s.c)
    if kind == "II":
        return ScaleUnits(t_rate=math.sqrt(s.c**2 / s.a), h_rate=s.c)
    if kind == "III":
        return ScaleUnits(t_rate=s.b / s.a, h_rate=s.b / math.sqrt(2.0 * s.a))
    raise ValueError(f"unknown scaling kind {kind!r}")


def nondimensionalize(traj: Trajectory, kind: str, s: ScaleSet) -> Trajectory:
    """Rescale a trajectory in scaling none into ``kind``; refuse a scaled one."""
    if traj.metadata.get("scaling", "none") != "none":
        raise ValueError(f"trajectory is already in scaling {traj.metadata['scaling']}")
    u = units(kind, s)
    meta = dict(traj.metadata)
    meta.update(scaling=kind, t_rate=u.t_rate, h_rate=u.h_rate)
    if "h_inf" in meta:
        meta["h_inf"] = meta["h_inf"] * u.h_rate
    return Trajectory(t=traj.t * u.t_rate, h=traj.h * u.h_rate,
                      v=traj.v * u.v_rate, metadata=meta)


def scaled_balance(kind: str, omega: float, groups: SlipGroups,
                   h_hat_star: float) -> RiseBalance:
    """Coefficient row of the extended model in scaling ``kind``.

    Each scaling's momentum balance, written for the product h'(h+h_hat), is
    expanded and solved for dv*/dt*.  Equilibria: h*+h_hat* = 1 for I and II,
    omega/sqrt(2) for III.
    """
    if not omega > 0.0:
        raise ValueError("omega must be positive")
    k, q = groups.k, groups.q
    if kind == "I":
        om2 = omega * omega
        A, B, C = om2, om2, om2 * k
    elif kind == "II":
        A, B, C = 1.0, 1.0, k * omega
    elif kind == "III":
        A, B, C = 0.5, 0.5 * (math.sqrt(2.0) / omega), k
    else:
        raise ValueError(f"unknown scaling kind {kind!r}")
    return RiseBalance(A, B, C, q - 1.0, h_hat_star, 1e-14)  # scaled heights are O(1)


def auto_t_end(fluid: FluidPair, geom: Geometry) -> float:
    """Default integration horizon: 10 times the longest time unit.

    Every scaled representation of the run then reaches scaled time
    >= 10, so end-of-scaling markers fall inside the data.
    """
    s = coefficients(fluid, geom, "2d")
    slowest = min(units(kind, s).t_rate for kind in SCALING_KINDS)
    return 10.0 / slowest
