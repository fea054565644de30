"""Reduced rise models: coefficient rows, adaptive integration, analytics.

Two dimensional (SI-unit) models of the apex height h(t):

* extended:  rho d/dt(h' H) = -3 mu h' H/(R (R+3L)) - rho g H + sigma cos(theta_e)/R
  + rho Q h'^2 for the column H = h + h_hat, slip length L, slip-profile factor Q;
* classical: the same balance at L = 0 without its corrections (h_hat = 0, Q = 0).

Each model is one RiseBalance coefficient row (model_balance), integrated
by solve_rk45 as a first-order system in (h, v) with the product rule
expanded exactly, so no state reconstruction from h'h is ever needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import FluidPair, Geometry, SlipSpec, height_correction, jurin_height
from .errors import SingularHeight, StepSizeUnderflow, WorkBoundExceeded

REDUCED_MODELS = ("classical", "extended")

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12  # m

# right-hand-side evaluations that one solve_rk45 call may spend before it
# starts another step: about 45 s at 0.45 us an evaluation, 400 times the
# study suite's costliest row (omega 100 classical, 241,316)
MAX_RHS_EVALS = 10**8

# Dormand & Prince (1980) 5(4) pair: stage matrix, 5th-order weights, error
# row, and Shampine's (1986) quartic dense-output matrix.  The literals are
# those of scipy.integrate's RK45 (scipy/integrate/_ivp/rk.py), written out
# so that this module does not import scipy.integrate.
_DP_A = ((1/5,),
         (3/40, 9/40),
         (44/45, -56/15, 32/9),
         (19372/6561, -25360/2187, 64448/6561, -212/729),
         (9017/3168, -355/33, 46732/5247, 49/176, -5103/18656))
_DP_B = (35/384, 0, 500/1113, 125/192, -2187/6784, 11/84)
_DP_E = (-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40)
_DP_P = ((1, -8048581381/2820520608, 8663915743/2820520608,
          -12715105075/11282082432),
         (0, 0, 0, 0),
         (0, 131558114200/32700410799, -68118460800/10900136933,
          87487479700/32700410799),
         (0, -1754552775/470086768, 14199869525/1410260304,
          -10690763975/1880347072),
         (0, 127303824393/49829197408, -318862633887/49829197408,
          701980252875/199316789632),
         (0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844),
         (0, 40617522/29380423, -110615467/29380423, 69997945/29380423))
_SQRT2 = 2 ** 0.5


def _rms(a: float, b: float) -> float:
    """RMS norm of the 2-vector (a, b), the norm of scipy's step control."""
    return math.sqrt(a * a + b * b) / _SQRT2


@dataclass(frozen=True)
class ModelSpec:
    """Which rise model to evaluate, on which wall."""

    kind: str                   # one of REDUCED_MODELS
    slip: SlipSpec = SlipSpec()  # the wall; the classical model has none

    def __post_init__(self) -> None:
        if self.kind not in REDUCED_MODELS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "classical" and self.slip != SlipSpec():
            raise ValueError("classical model has no slip length")


@dataclass(frozen=True)
class SlipGroups:
    """Dimensionless slip-length groups of the extended model."""

    k: float  # 1/(1+3S), S = L/R [-]
    q: float  # convective profile factor [-]


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


class RiseBalance(NamedTuple):
    """Coefficient row of the one rise-model balance

        H v' = A - B H - C v H + D v^2,  H = h + h_hat,

    which every model and scaling shares: model_balance builds it for a
    dimensional model, scaling.scaled_balance for a scaled one.  Called as
    f(h, v) it gives (dh, dv) and raises SingularHeight once H <= eps;
    solve_rk45 unpacks the row and evaluates the same expression in its
    stages.
    """

    A: float
    B: float
    C: float
    D: float
    h_hat: float
    eps: float

    def singular(self, H: float) -> SingularHeight:
        return SingularHeight(f"column length {H!r} <= {self.eps!r}")

    def __call__(self, h: float, v: float) -> tuple[float, float]:
        H = h + self.h_hat
        if H <= self.eps:
            raise self.singular(H)
        return v, (self.A - self.B * H - self.C * v * H + self.D * v * v) / H


def slip_groups(L: float, R: float) -> SlipGroups:
    """Dimensionless groups K = 1/(1+3S), S = L/R, and the convective Q."""
    if not (0.0 <= L < math.inf and R > 0.0):
        raise ValueError("need a finite L >= 0 and R > 0")
    # Q of the Navier-slip velocity profile, written in L and R so that the
    # dimensional rows keep their bits; with R = 1 it is Q(S)
    q = 3.0 * (15.0 * L * L + 10.0 * L * R + 2.0 * R * R) / (5.0 * (R + 3.0 * L) ** 2)
    return SlipGroups(k=1.0 / (1.0 + 3.0 * (L / R)), q=q)


def model_balance(model: ModelSpec, fluid: FluidPair, geom: Geometry) -> RiseBalance:
    """Coefficient row of ``model`` in SI units."""
    rho, mu, sig, g = fluid.rho_l, fluid.mu_l, fluid.sigma, fluid.g
    R, L = geom.R, model.slip.L
    drive = sig * math.cos(geom.theta_e) / (rho * R)  # wetting term over rho, m/s^2 * m
    fric = 3.0 * mu / (rho * R * (R + 3.0 * L))
    eps = 1e-14 * R
    if model.kind == "classical":  # L = 0 without the corrections: Q = 0, h_hat = 0
        return RiseBalance(drive, g, fric, -1.0, 0.0, eps)
    return RiseBalance(drive, g, fric, slip_groups(L, R).q - 1.0,
                       height_correction(geom), eps)


def output_times(t_end: float, dt_out: float) -> np.ndarray:
    """Multiples of dt_out in [0, t_end] with the endpoint forced exactly.

    The one owner of the horizon checks: both solvers build their output
    grid here before their first step.
    """
    if not 0.0 < t_end < math.inf:
        raise ValueError("t_end must be finite and positive")
    if not 0.0 < dt_out <= t_end:
        raise ValueError("dt_out must lie in (0, t_end]")
    n = int(math.floor(t_end / dt_out * (1.0 + 1e-12)))
    t = np.arange(n + 1) * dt_out
    if t_end - t[-1] <= 1e-9 * t_end:
        t[-1] = t_end  # snap a rounding-level misfit instead of duplicating
    else:
        t = np.append(t, t_end)
    return t


def solve_rk45(balance: RiseBalance, h0: float, v0: float, t_end: float, *,
               rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
               dt_out: float | None = None, metadata: dict | None = None) -> Trajectory:
    """Dormand-Prince 5(4) with dense output on a uniform grid.

    Integrates any balance row, dimensional or scaled, so it owns the
    tolerance checks; output_times checks the horizon before the first
    step.  dt_out defaults to t_end/2000; the last sample lands exactly on
    t_end.

    The stepper is scipy's ``RK45`` written out for the (h, v) state in
    plain floats: the same tableau, Hairer-Norsett-Wanner initial step,
    step control and dense output, so it takes the same steps up to
    rounding.  A step that would fall below ten float spacings of t (also
    a NaN step, or a first step estimate that is not positive) raises
    StepSizeUnderflow.  A run that has spent more than MAX_RHS_EVALS
    evaluations when it starts a step raises WorkBoundExceeded, naming
    the evaluations spent and the t reached.  The step control is written
    as comparisons in place of max, min, abs and _rms calls, and each keeps
    the builtin's result, NaN included.  The six stages of a step evaluate
    the balance row in place, with the arithmetic of RiseBalance.__call__:
    a stage's dh is its v argument, and its h argument only enters
    H = h + h_hat.
    """
    if not 1e-12 <= rtol <= 1e-3:
        raise ValueError("rtol must lie in [1e-12, 1e-3]")
    if not atol > 0.0:
        # else a zero state component (a start from rest) has a zero error scale
        raise ValueError("atol must be positive")
    if dt_out is None:
        dt_out = t_end / 2000.0
    t_eval = output_times(t_end, dt_out)
    samples = t_eval.tolist()
    n_out = len(samples)
    hs: list[float] = []
    vs: list[float] = []
    i_out = 0

    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = _DP_A
    b1, _, b3, b4, b5, b6 = _DP_B
    e1, _, e3, e4, e5, e6, e7 = _DP_E
    (_, p12, p13, p14), _, (_, p32, p33, p34), (_, p42, p43, p44), \
        (_, p52, p53, p54), (_, p62, p63, p64), (_, p72, p73, p74) = _DP_P

    A, B, C, D, h_hat, eps = balance

    t = 0.0
    h, v = float(h0), float(v0)
    kh1, kv1 = balance(h, v)
    # initial step of Hairer, Norsett & Wanner (1993), sec. II.4, for an
    # error estimator of order 4
    sh, sv = atol + abs(h) * rtol, atol + abs(v) * rtol
    d0 = _rms(h / sh, v / sv)
    d1 = _rms(kh1 / sh, kv1 / sv)
    dt = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    dt = min(dt, t_end)
    if not dt > 0.0:
        # d1 overflowed (dt = 0) or is NaN, and d2 divides by dt: refuse with
        # the step loop's underflow error
        min_step = 10.0 * math.nextafter(0.0, math.inf)
        raise StepSizeUnderflow(f"step size {dt!r} fell below {min_step!r} at t = 0.0")
    fh, fv = balance(h + dt * kh1, v + dt * kv1)
    d2 = _rms((fh - kh1) / sh, (fv - kv1) / sv) / dt
    if d1 <= 1e-15 and d2 <= 1e-15:
        dt_first = max(1e-6, dt * 1e-3)
    else:
        dt_first = (0.01 / max(d1, d2)) ** 0.2
    dt = min(100.0 * dt, dt_first, t_end)
    nfev = 2
    max_nfev = MAX_RHS_EVALS

    # in the step control, `b if b > a else a` is max(a, b) and
    # `b if b < a else a` is min(a, b): a NaN step still fails dt >= min_step
    sqrt, nextafter, inf = math.sqrt, math.nextafter, math.inf
    while t < t_end:
        if nfev > max_nfev:
            raise WorkBoundExceeded(
                f"{nfev} right-hand-side evaluations exceed the bound "
                f"{max_nfev} at t = {t!r} of {t_end!r}")
        min_step = 10.0 * (nextafter(t, inf) - t)
        dt = min_step if min_step > dt else dt
        # abs(); `0.0 - x` rather than `-x` so that -0.0 maps to 0.0
        ah = h if h > 0.0 else 0.0 - h
        av = v if v > 0.0 else 0.0 - v
        rejected = False
        while True:
            if not dt >= min_step:
                raise StepSizeUnderflow(
                    f"step size {dt!r} fell below {min_step!r} at t = {t!r}")
            t_new = t + dt
            t_new = t_end if t_end < t_new else t_new
            dt = t_new - t
            # stage j: kh_j = v_j, H = h_j + h_hat, kv_j from the balance
            kh2 = v + a21 * kv1 * dt
            H = h + a21 * kh1 * dt + h_hat
            if H <= eps:
                raise balance.singular(H)
            kv2 = (A - B * H - C * kh2 * H + D * kh2 * kh2) / H
            kh3 = v + (a31 * kv1 + a32 * kv2) * dt
            H = h + (a31 * kh1 + a32 * kh2) * dt + h_hat
            if H <= eps:
                raise balance.singular(H)
            kv3 = (A - B * H - C * kh3 * H + D * kh3 * kh3) / H
            kh4 = v + (a41 * kv1 + a42 * kv2 + a43 * kv3) * dt
            H = h + (a41 * kh1 + a42 * kh2 + a43 * kh3) * dt + h_hat
            if H <= eps:
                raise balance.singular(H)
            kv4 = (A - B * H - C * kh4 * H + D * kh4 * kh4) / H
            kh5 = v + (a51 * kv1 + a52 * kv2 + a53 * kv3 + a54 * kv4) * dt
            H = h + (a51 * kh1 + a52 * kh2 + a53 * kh3 + a54 * kh4) * dt + h_hat
            if H <= eps:
                raise balance.singular(H)
            kv5 = (A - B * H - C * kh5 * H + D * kh5 * kh5) / H
            kh6 = v + (a61 * kv1 + a62 * kv2 + a63 * kv3 + a64 * kv4 + a65 * kv5) * dt
            H = h + (a61 * kh1 + a62 * kh2 + a63 * kh3 + a64 * kh4 + a65 * kh5) * dt + h_hat
            if H <= eps:
                raise balance.singular(H)
            kv6 = (A - B * H - C * kh6 * H + D * kh6 * kh6) / H
            h_new = h + dt * (b1 * kh1 + b3 * kh3 + b4 * kh4 + b5 * kh5 + b6 * kh6)
            kh7 = v_new = v + dt * (b1 * kv1 + b3 * kv3 + b4 * kv4 + b5 * kv5 + b6 * kv6)
            H = h_new + h_hat
            if H <= eps:
                raise balance.singular(H)
            kv7 = (A - B * H - C * kh7 * H + D * kh7 * kh7) / H
            nfev += 6
            ah_new = h_new if h_new > 0.0 else 0.0 - h_new
            av_new = v_new if v_new > 0.0 else 0.0 - v_new
            err_h = ((e1 * kh1 + e3 * kh3 + e4 * kh4 + e5 * kh5 + e6 * kh6 + e7 * kh7)
                     * dt / (atol + (ah_new if ah_new > ah else ah) * rtol))
            err_v = ((e1 * kv1 + e3 * kv3 + e4 * kv4 + e5 * kv5 + e6 * kv6 + e7 * kv7)
                     * dt / (atol + (av_new if av_new > av else av) * rtol))
            err = sqrt(err_h * err_h + err_v * err_v) / _SQRT2  # _rms(err_h, err_v)
            if err < 1.0:
                factor = 10.0 if err == 0.0 else 0.9 * err ** -0.2
                factor = factor if factor < 10.0 else 10.0
                if rejected:
                    factor = factor if factor < 1.0 else 1.0
                dt_next = dt * factor
                break
            factor = 0.9 * err ** -0.2
            dt *= factor if factor > 0.2 else 0.2
            rejected = True

        if i_out < n_out and samples[i_out] <= t_new:
            # quartic dense output of Shampine (1986) over [t, t_new]
            qh2 = p12 * kh1 + p32 * kh3 + p42 * kh4 + p52 * kh5 + p62 * kh6 + p72 * kh7
            qh3 = p13 * kh1 + p33 * kh3 + p43 * kh4 + p53 * kh5 + p63 * kh6 + p73 * kh7
            qh4 = p14 * kh1 + p34 * kh3 + p44 * kh4 + p54 * kh5 + p64 * kh6 + p74 * kh7
            qv2 = p12 * kv1 + p32 * kv3 + p42 * kv4 + p52 * kv5 + p62 * kv6 + p72 * kv7
            qv3 = p13 * kv1 + p33 * kv3 + p43 * kv4 + p53 * kv5 + p63 * kv6 + p73 * kv7
            qv4 = p14 * kv1 + p34 * kv3 + p44 * kv4 + p54 * kv5 + p64 * kv6 + p74 * kv7
            while i_out < n_out and samples[i_out] <= t_new:
                x = (samples[i_out] - t) / dt
                x2 = x * x
                x3 = x2 * x
                x4 = x3 * x
                hs.append(h + dt * (kh1 * x + qh2 * x2 + qh3 * x3 + qh4 * x4))
                vs.append(v + dt * (kv1 * x + qv2 * x2 + qv3 * x3 + qv4 * x4))
                i_out += 1
        t, h, v, kh1, kv1, dt = t_new, h_new, v_new, kh7, kv7, dt_next

    meta = dict(metadata or {}, nfev=nfev)
    return Trajectory(t=t_eval, h=np.array(hs), v=np.array(vs), metadata=meta)


def integrate(model: ModelSpec, fluid: FluidPair, geom: Geometry, t_end: float, *,
              label: str = "") -> Trajectory:
    """Integrate the rise model from rest at geom.h0 over [0, t_end].

    Samples every t_end/2000 at solve_rk45's default tolerances; for others
    call solve_rk45(model_balance(...), geom.h0, 0.0, t_end, ...).
    metadata["h_inf"] is the row's own limit, the Jurin height less its
    h_hat; metadata["label"] is a tag for the caller.
    """
    if model.kind == "classical" and geom.h0 <= 1e-9 * geom.R:
        # the classical equation is singular at h=0; refuse rather than regularize
        raise ValueError("classical model requires h0 > 1e-9*R")
    row = model_balance(model, fluid, geom)
    h_inf = jurin_height(fluid, geom) - row.h_hat
    return solve_rk45(row, geom.h0, 0.0, t_end, metadata={"label": label, "h_inf": h_inf})


def detect_peaks(traj: Trajectory, *, eps_peak: float = 1e-4) -> tuple[Peak, ...]:
    """Interior extrema of h(t) with small wiggles suppressed.

    Extrema come from discrete slope sign changes and are polished with a
    3-point parabola.  Adjacent extremum pairs whose amplitude falls below
    eps_peak * h_ref are cancelled; h_ref is the trajectory's stationary
    height, metadata["h_inf"], when known, else max|h|.
    """
    if len(traj) < 3:
        raise ValueError("need at least 3 samples")
    h_ref = traj.metadata.get("h_inf") or float(np.max(np.abs(traj.h)))
    thresh = eps_peak * abs(h_ref)

    h = traj.h
    # raw alternating extrema; zero slopes inherit the previous sign.  The
    # scan runs over Python floats, which compare faster than numpy scalars
    ext: list[tuple[int, bool]] = []
    prev_sign = 0
    for i, di in enumerate(np.diff(h).tolist()):
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
    return tuple(peaks)


def settle_time(traj: Trajectory, h_inf: float) -> float | None:
    """Time from which h stays in the 1% band around h_inf; None when the
    band is not held to the end."""
    if not h_inf > 0.0:
        raise ValueError("h_inf must be positive")
    outside = np.abs(traj.h - h_inf) > 0.01 * h_inf
    idx = np.nonzero(outside)[0]
    if idx.size == 0:
        return float(traj.t[0])
    if idx[-1] == len(traj) - 1:
        return None
    return float(traj.t[idx[-1] + 1])


def ca_max(traj: Trajectory, fluid: FluidPair) -> float:
    """Maximum capillary number mu_l max|h'| / sigma along the trajectory."""
    return fluid.mu_l * float(np.max(np.abs(traj.v))) / fluid.sigma
