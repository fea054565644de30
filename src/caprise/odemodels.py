"""Reduced rise models: right-hand sides, adaptive integration, analytics.

Two dimensional (SI-unit) models of the apex height h(t):

* classical:  rho d/dt(h' h) = -3 mu h' h / R^2 - rho g h + sigma cos(theta_e)/R
* extended:   same balance written for the effective column h + h_hat, with
  Navier-slip viscous friction and a convective correction term.

Both are integrated as first-order systems in (h, v) with the product rule
expanded exactly, so no state reconstruction from h'h is ever needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .core import FluidPair, Geometry, height_correction
from .errors import SingularHeight, StepSizeUnderflow

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12  # m


@dataclass(frozen=True)
class RiseState:
    """Instantaneous apex state."""

    h: float  # apex height [m]
    v: float  # apex velocity [m/s]

    def __post_init__(self) -> None:
        if not (math.isfinite(self.h) and math.isfinite(self.v)):
            raise ValueError("state must be finite")


@dataclass(frozen=True)
class ModelSpec:
    """Which rise model to evaluate.

    ``h_hat_override`` replaces the geometric meniscus correction (extended
    model only); together with ``slip_length=0`` and
    ``include_convective=False`` it reduces the extended model exactly to
    the classical one, which the tests exploit.
    """

    kind: str                 # "classical" | "extended"
    slip_length: float = 0.0  # Navier slip length [m], extended only
    include_convective: bool = True
    h_hat_override: float | None = None  # [m], extended only

    def __post_init__(self) -> None:
        if self.kind == "classical":
            if self.slip_length != 0.0 or self.h_hat_override is not None:
                raise ValueError("classical model has no slip or h_hat parameters")
        elif self.kind == "extended":
            if self.slip_length < 0.0:
                raise ValueError("slip_length must be >= 0")
        else:
            raise ValueError(f"unknown model kind {self.kind!r}")

    @classmethod
    def classical(cls) -> "ModelSpec":
        return cls(kind="classical")

    @classmethod
    def extended(cls, slip_length: float = 0.0, *, include_convective: bool = True,
                 h_hat_override: float | None = None) -> "ModelSpec":
        return cls(kind="extended", slip_length=slip_length,
                   include_convective=include_convective,
                   h_hat_override=h_hat_override)


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled solution h(t), v(t) plus bookkeeping metadata."""

    t: np.ndarray  # [s]
    h: np.ndarray  # [m]
    v: np.ndarray  # [m/s]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        t = np.asarray(self.t, dtype=float)
        h = np.asarray(self.h, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if not (t.ndim == 1 and t.shape == h.shape == v.shape and t.size >= 1):
            raise ValueError("t, h, v must be equal-length 1-D arrays")
        if t.size > 1 and not np.all(np.diff(t) > 0.0):
            raise ValueError("t must be strictly increasing")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(h)) and np.all(np.isfinite(v))):
            raise ValueError("trajectory samples must be finite")
        for name, arr in (("t", t), ("h", h), ("v", v)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.t.size


@dataclass(frozen=True)
class Peak:
    t: float      # refined peak time [s]
    h: float      # refined peak height [m]
    is_max: bool


@dataclass(frozen=True)
class PeakList:
    peaks: tuple[Peak, ...]

    def maxima(self) -> tuple[Peak, ...]:
        return tuple(p for p in self.peaks if p.is_max)

    def __len__(self) -> int:
        return len(self.peaks)


@dataclass(frozen=True)
class SettleMetrics:
    t_settle: float | None  # None when the 1% band is never held to the end
    h_final: float
    overshoot: float


def rise_rhs(A: float, B: float, C: float, D: float, h_hat: float,
             eps: float) -> Callable[[float, float], tuple[float, float]]:
    """The one rise-model right-hand side, f(h, v) -> (dh, dv).

    Every model and scaling is the balance H v' = A - B H - C v H + D v^2
    for the column H = h + h_hat; only the coefficient row differs.
    Raises SingularHeight once H <= eps.
    """

    def f(h: float, v: float) -> tuple[float, float]:
        H = h + h_hat
        if H <= eps:
            raise SingularHeight(f"column length {H!r} <= {eps!r}")
        return v, (A - B * H - C * v * H + D * v * v) / H

    return f


def _rhs_terms(model: ModelSpec, fluid: FluidPair,
               geom: Geometry) -> Callable[[float, float], tuple[float, float]]:
    """Bind model constants, return f(h, v) -> (dh, dv)."""
    rho, mu, sig, g = fluid.rho_l, fluid.mu_l, fluid.sigma, fluid.g
    R = geom.R
    drive = sig * math.cos(geom.theta_e) / (rho * R)  # wetting term over rho, m/s^2 * m
    eps = 1e-14 * R

    if model.kind == "classical":
        return rise_rhs(drive, g, 3.0 * mu / (rho * R * R), -1.0, 0.0, eps)

    h_hat = (model.h_hat_override if model.h_hat_override is not None
             else height_correction(geom))
    L = model.slip_length
    fric = 3.0 * mu / (rho * R * (R + 3.0 * L))
    # convective correction coefficient of the slip-velocity profile
    q = 3.0 * (15.0 * L * L + 10.0 * L * R + 2.0 * R * R) / (5.0 * (R + 3.0 * L) ** 2)
    conv = (q - 1.0) if model.include_convective else -1.0
    return rise_rhs(drive, g, fric, conv, h_hat, eps)


def rhs(model: ModelSpec, fluid: FluidPair, geom: Geometry,
        state: RiseState) -> tuple[float, float]:
    """Time derivatives (dh/dt, dv/dt) of the selected rise model."""
    return _rhs_terms(model, fluid, geom)(state.h, state.v)


def output_times(t_end: float, dt_out: float) -> np.ndarray:
    """Multiples of dt_out in [0, t_end] with the endpoint forced exactly."""
    n = int(math.floor(t_end / dt_out * (1.0 + 1e-12)))
    t = np.arange(n + 1) * dt_out
    if t_end - t[-1] <= 1e-9 * t_end:
        t[-1] = t_end  # snap a rounding-level misfit instead of duplicating
    else:
        t = np.append(t, t_end)
    return t


def solve_rk45(f: Callable[[float, float], tuple[float, float]], h0: float, v0: float,
               t_end: float, rtol: float, atol: float, dt_out: float | None,
               metadata: dict) -> Trajectory:
    """Dormand-Prince 5(4) with dense output on a uniform grid.

    Shared by the dimensional and the scaled integrators, so it owns their
    argument checks.  dt_out defaults to t_end/2000; the last sample lands
    exactly on t_end.
    """
    if not t_end > 0.0:
        raise ValueError("t_end must be positive")
    if not 1e-12 <= rtol <= 1e-3:
        raise ValueError("rtol must lie in [1e-12, 1e-3]")
    if dt_out is None:
        dt_out = t_end / 2000.0
    if not 0.0 < dt_out <= t_end:
        raise ValueError("dt_out must lie in (0, t_end]")
    t_eval = output_times(t_end, dt_out)

    def fun(t, y):
        return f(y[0], y[1])

    sol = solve_ivp(fun, (0.0, t_end), [h0, v0], method="RK45",
                    rtol=rtol, atol=atol, t_eval=t_eval)
    if not sol.success:
        raise StepSizeUnderflow(sol.message)
    meta = dict(metadata, rtol=rtol, atol=atol, dt_out=dt_out, nfev=int(sol.nfev))
    return Trajectory(t=sol.t, h=sol.y[0], v=sol.y[1], metadata=meta)


def integrate(model: ModelSpec, fluid: FluidPair, geom: Geometry, init: RiseState,
              t_end: float, *, rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
              dt_out: float | None = None, label: str = "") -> Trajectory:
    """Integrate the rise model from ``init`` over [0, t_end].

    dt_out defaults to t_end/2000; the last sample lands exactly on t_end.
    """
    if model.kind == "classical" and init.h <= 1e-9 * geom.R:
        # the classical equation is singular at h=0; refuse rather than regularize
        raise ValueError("classical model requires h0 > 1e-9*R")
    meta = {"label": label, "model": model.kind}
    if model.kind == "extended":
        meta["slip_length"] = model.slip_length
    return solve_rk45(_rhs_terms(model, fluid, geom), init.h, init.v, t_end,
                      rtol, atol, dt_out, meta)


def detect_peaks(traj: Trajectory, *, eps_peak: float = 1e-4,
                 h_ref: float | None = None) -> PeakList:
    """Interior extrema of h(t) with small wiggles suppressed.

    Extrema come from discrete slope sign changes and are polished with a
    3-point parabola.  Adjacent extremum pairs whose amplitude falls below
    eps_peak * h_ref are cancelled; h_ref defaults to the trajectory's
    stationary height when known, else max|h|.
    """
    if len(traj) < 3:
        raise ValueError("need at least 3 samples")
    if h_ref is None:
        h_ref = traj.metadata.get("h_inf") or float(np.max(np.abs(traj.h)))
    thresh = eps_peak * abs(h_ref)

    h = traj.h
    d = np.diff(h)
    # raw alternating extrema; zero slopes inherit the previous sign
    ext: list[tuple[int, bool]] = []
    prev_sign = 0
    for i, di in enumerate(d):
        s = 1 if di > 0.0 else (-1 if di < 0.0 else 0)
        if s == 0:
            continue
        if prev_sign != 0 and s != prev_sign:
            ext.append((i, prev_sign > 0))  # sample i is the turning point
        prev_sign = s

    # prominence filter: cancel the weakest adjacent pair until all swings
    # clear the threshold; trajectory endpoints act as fixed anchors
    n = len(h)
    while ext:
        vals = [h[0]] + [h[i] for i, _ in ext] + [h[n - 1]]
        amps = np.abs(np.diff(vals))
        k = int(np.argmin(amps))
        if amps[k] >= thresh:
            break
        if k == 0:
            del ext[0]
        elif k == len(amps) - 1:
            del ext[-1]
        else:
            del ext[k - 1:k + 1]

    peaks = []
    for i, is_max in ext:
        a, b, c = h[i - 1], h[i], h[i + 1]
        denom = a - 2.0 * b + c
        if abs(denom) < 1e-300:
            peaks.append(Peak(t=float(traj.t[i]), h=float(b), is_max=is_max))
            continue
        p = 0.5 * (a - c) / denom
        dt_loc = 0.5 * (traj.t[i + 1] - traj.t[i - 1])
        peaks.append(Peak(t=float(traj.t[i] + p * dt_loc),
                          h=float(b - 0.25 * (a - c) * p), is_max=is_max))
    return PeakList(peaks=tuple(peaks))


def settle_metrics(traj: Trajectory, h_inf: float) -> SettleMetrics:
    """Settling time into the 1% band around h_inf, final height, overshoot."""
    if not h_inf > 0.0:
        raise ValueError("h_inf must be positive")
    outside = np.abs(traj.h - h_inf) > 0.01 * h_inf
    idx = np.nonzero(outside)[0]
    if idx.size == 0:
        t_settle: float | None = float(traj.t[0])
    elif idx[-1] == len(traj) - 1:
        t_settle = None  # not settled by t_end
    else:
        t_settle = float(traj.t[idx[-1] + 1])
    overshoot = max(0.0, float(np.max(traj.h)) - h_inf)
    return SettleMetrics(t_settle=t_settle, h_final=float(traj.h[-1]),
                         overshoot=overshoot)


def ca_max(traj: Trajectory, fluid: FluidPair) -> float:
    """Maximum capillary number mu_l max|h'| / sigma along the trajectory."""
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    return fluid.mu_l * float(np.max(np.abs(traj.v))) / fluid.sigma
