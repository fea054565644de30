"""Rise-model balance rows, integration, and trajectory analytics."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import caprise

from caprise.core import FluidPair, Geometry, SlipSpec, height_correction, \
    jurin_height, stationary_height
from caprise.errors import SingularHeight, StepSizeUnderflow, WorkBoundExceeded
from caprise.harness import OMEGA_SUITE, omega_suite
from caprise.odemodels import (
    _DP_A,
    _DP_B,
    _DP_E,
    _DP_P,
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    ModelSpec,
    RiseBalance,
    Trajectory,
    _rms,
    ca_max,
    detect_peaks,
    integrate,
    model_balance,
    output_times,
    settle_time,
    slip_groups,
    solve_rk45,
)
from caprise.scaling import auto_t_end, scaled_balance
from caprise.study import synth_params

FLUID_OM1_TAB = FluidPair(rho_l=83.1, rho_g=0.0831, mu_l=0.01, mu_g=1e-5,
                          sigma=0.04, g=4.17)
GEOM_STD = Geometry(R=0.005, theta_e=math.radians(30.0), h0=0.01)


def synthetic_traj(t, h, v=None, **meta):
    t = np.asarray(t, float)
    h = np.asarray(h, float)
    if v is None:
        v = np.gradient(h, t)
    return Trajectory(t=t, h=h, v=np.asarray(v, float), metadata=meta)


def test_model_spec_validation():
    # a model's wall is a SlipSpec, which owns the slip-length rule
    assert ModelSpec("extended", SlipSpec(1e-3)).slip.L == 1e-3
    assert ModelSpec("classical") == ModelSpec("classical", SlipSpec())
    with pytest.raises(ValueError, match="classical model has no slip length"):
        ModelSpec("classical", SlipSpec(1e-3))
    for L in (-1e-3, math.inf, math.nan):
        with pytest.raises(ValueError, match="slip length L must be finite and >= 0"):
            ModelSpec("extended", SlipSpec(L))
    with pytest.raises(ValueError, match="unknown model kind"):
        ModelSpec("lubrication")
    with pytest.raises(ValueError, match="unknown model kind"):
        ModelSpec("vof2d", SlipSpec(1e-3))


def test_rhs_classical_equilibrium():
    fluid, geom = synth_params(1.0, 0.04)
    h_j = jurin_height(fluid, geom)
    dh, dv = model_balance(ModelSpec("classical"), fluid, geom)(h_j, 0.0)
    assert dh == 0.0
    assert abs(dv) <= 1e-12


def test_rhs_extended_equilibrium():
    fluid, geom = synth_params(1.0, 0.04)
    h_inf = stationary_height(fluid, geom)
    row = model_balance(ModelSpec("extended", SlipSpec(0.001)), fluid, geom)
    dh, dv = row(h_inf, 0.0)
    assert dh == 0.0
    assert abs(dv) <= 1e-12


def test_rhs_classical_frozen_value():
    _, dv = model_balance(ModelSpec("classical"), FLUID_OM1_TAB, GEOM_STD)(0.01, 0.0)
    assert dv == pytest.approx(4.167188002738278, rel=1e-12)
    assert dv == pytest.approx(4.16719, abs=1e-5)


def test_rhs_extended_frozen_value():
    _, dv = model_balance(ModelSpec("extended", SlipSpec(0.001)), FLUID_OM1_TAB,
                          GEOM_STD)(0.01, 0.0)
    assert dv == pytest.approx(3.521509958493016, rel=1e-12)
    # reference sketch value computed with 6-digit intermediates
    assert dv == pytest.approx(3.52148, abs=1e-4)


def test_rhs_residual_of_momentum_form():
    # independent oracle: the returned dv must zero the unexpanded
    # momentum balance rho d/dt(h' H) = sum of forces
    import random
    rng = random.Random(7)
    fluid, geom = synth_params(1.0, 0.04)
    rho, mu, sig, g, R = fluid.rho_l, fluid.mu_l, fluid.sigma, fluid.g, geom.R
    ct = math.cos(geom.theta_e)
    for _ in range(100):
        h = rng.uniform(1e-4, 0.03)
        v = rng.uniform(-0.5, 0.5)
        _, dv = model_balance(ModelSpec("classical"), fluid, geom)(h, v)
        res = rho * (dv * h + v * v) - (-3.0 * mu * v * h / R**2 - rho * g * h
                                        + sig * ct / R)
        assert abs(res) <= 1e-9 * rho * abs(dv * h + v * v) + 1e-12

        L = rng.uniform(0.0, 0.005)
        hh = height_correction(geom)
        H = h + hh
        _, dv = model_balance(ModelSpec("extended", SlipSpec(L)), fluid, geom)(h, v)
        q = 3.0 * (15 * L * L + 10 * L * R + 2 * R * R) / (5.0 * (R + 3 * L) ** 2)
        res = rho * (dv * H + v * v) - (-3.0 * mu * v * H / (R * (R + 3 * L))
                                        - rho * g * H + sig * ct / R
                                        + rho * v * v * q)
        assert abs(res) <= 1e-9 * rho * abs(dv * H + v * v) + 1e-12


def test_rhs_singular_height():
    fluid, geom = synth_params(1.0, 0.04)
    with pytest.raises(SingularHeight):
        model_balance(ModelSpec("classical"), fluid, geom)(1e-20, 0.0)
    with pytest.raises(SingularHeight):
        # the extended column is h + h_hat, singular at h = -h_hat
        model_balance(ModelSpec("extended"), fluid, geom)(-height_correction(geom), 0.0)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(t=np.array([0.0, 1.0, 1.0]), h=np.zeros(3), v=np.zeros(3))
    with pytest.raises(ValueError):
        Trajectory(t=np.array([0.0, 1.0]), h=np.zeros(3), v=np.zeros(3))
    tr = Trajectory(t=np.array([0.0, 1.0]), h=np.ones(2), v=np.zeros(2))
    assert not tr.h.flags.writeable
    assert len(tr) == 2


@pytest.mark.parametrize("omega, sigma", OMEGA_SUITE)
def test_integrate_records_its_own_limit(omega, sigma):
    # the classical model settles on the Jurin height, the extended one on
    # the corrected stationary height: the same bits as the core functions
    # on every suite row
    fluid, geom = synth_params(omega, sigma)
    cls = integrate(ModelSpec("classical"), fluid, geom, 1e-3)
    ext = integrate(ModelSpec("extended", SlipSpec(geom.R / 5)), fluid, geom, 1e-3)
    assert cls.metadata["h_inf"].hex() == jurin_height(fluid, geom).hex()
    assert ext.metadata["h_inf"].hex() == stationary_height(fluid, geom).hex()


def test_integrate_argument_checks():
    # t_end, rtol and dt_out: see test_integrate_rejects_bad_arguments
    fluid, geom = synth_params(1.0, 0.04)
    # classical model refuses a (near-)dry start
    with pytest.raises(ValueError):
        integrate(ModelSpec("classical"), fluid, replace(geom, h0=1e-13), t_end=1.0)
    # extended model accepts h0 = 0
    integrate(ModelSpec("extended", SlipSpec(0.001)), fluid, replace(geom, h0=0.0),
              t_end=1e-3)


def _integrate_dimensional(t_end, **kw):
    fluid, geom = synth_params(1.0, 0.04)
    model, geom = ModelSpec("extended", SlipSpec(0.001)), replace(geom, h0=0.01)
    if not kw:
        return integrate(model, fluid, geom, t_end)
    # integrate has solve_rk45's defaults; other tolerances and grids go
    # to solve_rk45 with the same row
    return solve_rk45(model_balance(model, fluid, geom), geom.h0, 0.0, t_end, **kw)


def _integrate_scaled_ii(**kw):
    return solve_rk45(scaled_balance("II", 1.0, slip_groups(0.001, 0.005), 0.04),
                      0.46, 0.0, **kw)


@pytest.mark.parametrize("entry", [_integrate_dimensional, _integrate_scaled_ii],
                         ids=["integrate", "integrate_scaled"])
@pytest.mark.parametrize("bad", [
    {"t_end": -1.0}, {"t_end": 0.0}, {"t_end": math.inf}, {"t_end": math.nan},
    {"t_end": 1.0, "rtol": 1e-2}, {"t_end": 1.0, "rtol": 0.5},
    {"t_end": 1.0, "rtol": 1e-13},
    {"t_end": 1.0, "dt_out": -1.0}, {"t_end": 1.0, "dt_out": 0.0},
    {"t_end": 1.0, "dt_out": 2.0}, {"t_end": 1.0, "atol": -1e-12},
    {"t_end": 1.0, "atol": 0.0},
], ids=["t_end<0", "t_end=0", "t_end=inf", "t_end=nan", "rtol=1e-2", "rtol=0.5",
        "rtol=1e-13", "dt_out<0", "dt_out=0", "dt_out>t_end", "atol<0", "atol=0"])
def test_integrate_rejects_bad_arguments(entry, bad):
    # both routes end in solve_rk45, which owns the tolerance checks
    # and builds its output grid with output_times, which owns the horizon;
    # the message names the bad argument, the last one given
    with pytest.raises(ValueError, match=list(bad)[-1]):
        entry(**bad)


_ORACLE_CASES = [(om, m) for om in (0.5, 1.0, 10.0) for m in ("classical", "extended")]
_ORACLE_CASES.append((1.0, "scaled-II"))


@pytest.mark.parametrize("omega,model", _ORACLE_CASES,
                         ids=[f"omega{om:g}-{m}" for om, m in _ORACLE_CASES])
def test_solve_rk45_matches_scipy_rk45(omega, model):
    # scipy's RK45 is the independent oracle: the stepper copies its tableau,
    # initial step and step control, so the steps agree up to rounding
    from scipy.integrate import solve_ivp
    if model == "scaled-II":
        f = scaled_balance("II", omega, slip_groups(0.001, 0.005), 0.04)
        h0, t_end = 0.46, 20.0
        tr = solve_rk45(f, h0, 0.0, t_end)
    else:
        case = next(c for c in omega_suite() if c.omega_nominal == omega)
        spec = (ModelSpec("classical") if model == "classical"
                else ModelSpec("extended", case.slip))
        f = model_balance(spec, case.fluid, case.geom)
        h0, t_end = case.geom.h0, auto_t_end(case.fluid, case.geom)
        tr = integrate(spec, case.fluid, case.geom, t_end)
    t_eval = output_times(t_end, t_end / 2000.0)
    ref = solve_ivp(lambda t, y: f(y[0], y[1]), (0.0, t_end), [h0, 0.0],
                    method="RK45", rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, t_eval=t_eval)
    assert ref.success
    assert np.array_equal(tr.t, t_eval)
    assert tr.metadata["nfev"] == ref.nfev
    assert np.max(np.abs(tr.h - ref.y[0])) <= 1e-12 * np.max(np.abs(ref.y[0]))
    assert np.max(np.abs(tr.v - ref.y[1])) <= 1e-9 * np.max(np.abs(ref.y[1]))


def test_solve_rk45_nan_rhs_raises_step_size_underflow():
    # A = nan makes every evaluation NaN: the initial step is NaN, and the
    # step control refuses it before the first step
    balance = RiseBalance(math.nan, 0.0, 0.0, 0.0, 0.0, 1e-3)
    with pytest.raises(StepSizeUnderflow, match=r"^step size nan .* at t = 0\.0$"):
        solve_rk45(balance, 0.01, 0.0, 1.0)


def test_solve_rk45_overflowing_first_derivative_raises_step_size_underflow():
    # kv1 = 5e307 over an error scale of 1e-12 makes d1 = inf, so the
    # initial step estimate 0.01 d0/d1 is 0: refused before d2 divides by it
    balance = RiseBalance(1.5e308, 1e308, 0.0, -1.0, 0.0, 1e-3)
    with pytest.raises(StepSizeUnderflow, match=r"^step size 0\.0 .* at t = 0\.0$"):
        solve_rk45(balance, 1.0, 0.0, 1.0)


def test_solve_rk45_work_bound(monkeypatch):
    # the bound is checked before each step: a run that never exceeds it
    # keeps its bits, and one that does names its count and time
    fluid, geom = synth_params(1.0, 0.04)
    row = model_balance(ModelSpec("classical"), fluid, geom)
    free = solve_rk45(row, geom.h0, 0.0, 0.5)
    monkeypatch.setattr("caprise.odemodels.MAX_RHS_EVALS", free.metadata["nfev"])
    bounded = solve_rk45(row, geom.h0, 0.0, 0.5)
    assert bounded.h.tobytes() == free.h.tobytes()
    assert bounded.metadata == free.metadata
    monkeypatch.setattr("caprise.odemodels.MAX_RHS_EVALS", 100)
    with pytest.raises(WorkBoundExceeded,
                       match=r"^10\d right-hand-side evaluations exceed the "
                             r"bound 100 at t = 0\.\d+ of 0\.5$"):
        solve_rk45(row, geom.h0, 0.0, 0.5)


def test_solve_rk45_overflow_after_rise_raises_singular_height():
    # negative friction: v grows as exp(1000 t) until C v H overflows near
    # h = 1e151.  The stages then see inf and NaN (NaN errors are rejected),
    # and the negative tableau entries drive a stage column to -inf, which
    # the in-place stages refuse exactly as the callable does
    balance = RiseBalance(1.0, 0.0, -1e3, 0.0, 0.0, 1e-3)
    with pytest.raises(SingularHeight, match=r"^column length -inf <= 0\.001$"):
        solve_rk45(balance, 0.01, 0.0, 1.0)
    with pytest.raises(SingularHeight, match=r"^column length -inf <= 0\.001$"):
        _reference_solve_rk45(balance, 0.01, 0.0, 1.0, DEFAULT_RTOL, DEFAULT_ATOL,
                              None, {})


def _reference_solve_rk45(f, h0, v0, t_end, rtol, atol, dt_out, metadata):
    """The Dormand-Prince loop whose step control called max, min, abs and
    _rms; solve_rk45 writes it as comparisons.  Kept as the reference the
    stepper must match bit for bit (argument checks left out)."""
    if dt_out is None:
        dt_out = t_end / 2000.0
    t_eval = output_times(t_end, dt_out)
    samples = t_eval.tolist()
    n_out = len(samples)
    hs = []
    vs = []
    i_out = 0

    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = _DP_A
    b1, _, b3, b4, b5, b6 = _DP_B
    e1, _, e3, e4, e5, e6, e7 = _DP_E
    (_, p12, p13, p14), _, (_, p32, p33, p34), (_, p42, p43, p44), \
        (_, p52, p53, p54), (_, p62, p63, p64), (_, p72, p73, p74) = _DP_P

    t = 0.0
    h, v = float(h0), float(v0)
    kh1, kv1 = f(h, v)
    sh, sv = atol + abs(h) * rtol, atol + abs(v) * rtol
    d0 = _rms(h / sh, v / sv)
    d1 = _rms(kh1 / sh, kv1 / sv)
    dt = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    dt = min(dt, t_end)
    fh, fv = f(h + dt * kh1, v + dt * kv1)
    d2 = _rms((fh - kh1) / sh, (fv - kv1) / sv) / dt
    if d1 <= 1e-15 and d2 <= 1e-15:
        dt_first = max(1e-6, dt * 1e-3)
    else:
        dt_first = (0.01 / max(d1, d2)) ** 0.2
    dt = min(100.0 * dt, dt_first, t_end)
    nfev = 2

    while t < t_end:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        dt = max(dt, min_step)
        rejected = False
        while True:
            if not dt >= min_step:
                raise StepSizeUnderflow(
                    f"step size {dt!r} fell below {min_step!r} at t = {t!r}")
            t_new = min(t + dt, t_end)
            dt = t_new - t
            kh2, kv2 = f(h + a21 * kh1 * dt, v + a21 * kv1 * dt)
            kh3, kv3 = f(h + (a31 * kh1 + a32 * kh2) * dt,
                         v + (a31 * kv1 + a32 * kv2) * dt)
            kh4, kv4 = f(h + (a41 * kh1 + a42 * kh2 + a43 * kh3) * dt,
                         v + (a41 * kv1 + a42 * kv2 + a43 * kv3) * dt)
            kh5, kv5 = f(h + (a51 * kh1 + a52 * kh2 + a53 * kh3 + a54 * kh4) * dt,
                         v + (a51 * kv1 + a52 * kv2 + a53 * kv3 + a54 * kv4) * dt)
            kh6, kv6 = f(h + (a61 * kh1 + a62 * kh2 + a63 * kh3 + a64 * kh4
                              + a65 * kh5) * dt,
                         v + (a61 * kv1 + a62 * kv2 + a63 * kv3 + a64 * kv4
                              + a65 * kv5) * dt)
            h_new = h + dt * (b1 * kh1 + b3 * kh3 + b4 * kh4 + b5 * kh5 + b6 * kh6)
            v_new = v + dt * (b1 * kv1 + b3 * kv3 + b4 * kv4 + b5 * kv5 + b6 * kv6)
            kh7, kv7 = f(h_new, v_new)
            nfev += 6
            err_h = ((e1 * kh1 + e3 * kh3 + e4 * kh4 + e5 * kh5 + e6 * kh6 + e7 * kh7)
                     * dt / (atol + max(abs(h), abs(h_new)) * rtol))
            err_v = ((e1 * kv1 + e3 * kv3 + e4 * kv4 + e5 * kv5 + e6 * kv6 + e7 * kv7)
                     * dt / (atol + max(abs(v), abs(v_new)) * rtol))
            err = _rms(err_h, err_v)
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.2)
                dt_next = dt * (min(1.0, factor) if rejected else factor)
                break
            dt *= max(0.2, 0.9 * err ** -0.2)
            rejected = True

        if i_out < n_out and samples[i_out] <= t_new:
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

    meta = dict(metadata, rtol=rtol, atol=atol, dt_out=dt_out, nfev=nfev)
    return Trajectory(t=t_eval, h=np.array(hs), v=np.array(vs), metadata=meta)


def _suite_rhs(omega, model):
    case = next(c for c in omega_suite() if c.omega_nominal == omega)
    spec = (ModelSpec("classical") if model == "classical"
            else ModelSpec("extended", case.slip))
    return (model_balance(spec, case.fluid, case.geom), case.geom.h0,
            auto_t_end(case.fluid, case.geom))


def _assert_matches_reference(f, h0, v0, t_end, rtol, atol):
    got = solve_rk45(f, h0, v0, t_end, rtol=rtol, atol=atol)
    want = _reference_solve_rk45(f, h0, v0, t_end, rtol, atol, None, {})
    for name in ("t", "h", "v"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.metadata["nfev"] == want.metadata["nfev"]
    return got


_SUITE_PAIRS = [(om, m) for om in (0.1, 0.5, 1.0, 10.0, 100.0)
                for m in ("classical", "extended")]


@pytest.mark.parametrize("omega,model", _SUITE_PAIRS,
                         ids=[f"omega{om:g}-{m}" for om, m in _SUITE_PAIRS])
def test_solve_rk45_bit_equal_to_reference_on_suite(omega, model):
    f, h0, t_end = _suite_rhs(omega, model)
    _assert_matches_reference(f, h0, 0.0, t_end, DEFAULT_RTOL, DEFAULT_ATOL)


def test_solve_rk45_bit_equal_to_reference_scaled_ii():
    f = scaled_balance("II", 1.0, slip_groups(0.001, 0.005), 0.04)
    _assert_matches_reference(f, 0.46, 0.0, 20.0, DEFAULT_RTOL, DEFAULT_ATOL)


def test_solve_rk45_bit_equal_to_reference_with_rejected_steps():
    from scipy.integrate import solve_ivp
    f, h0, t_end = _suite_rhs(0.1, "classical")
    got = _assert_matches_reference(f, h0, 0.0, t_end, 1e-3, DEFAULT_ATOL)
    # scipy's RK45 takes the same steps; its accepted-step times show that
    # some of the attempts (6 evaluations each, after the first 2) failed
    ref = solve_ivp(lambda t, y: f(y[0], y[1]), (0.0, t_end), [h0, 0.0],
                    method="RK45", rtol=1e-3, atol=DEFAULT_ATOL)
    assert got.metadata["nfev"] == ref.nfev
    assert (ref.nfev - 2) // 6 > len(ref.t) - 1


def test_solve_rk45_propagates_singular_height():
    # H v' = -1 drains the column until H <= eps
    f = RiseBalance(-1.0, 0.0, 0.0, 0.0, 0.0, 1e-3)
    with pytest.raises(SingularHeight):
        solve_rk45(f, 0.01, 0.0, 1.0)


def test_import_leaves_out_scipy_integrate():
    src = str(Path(caprise.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    # scipy.linalg is imported by the pressure solve on first use
    code = ("import sys, caprise, caprise.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_integrate_sampling_grid():
    fluid, geom = synth_params(1.0, 0.04)
    tr = integrate(ModelSpec("extended", SlipSpec(0.001)), fluid, replace(geom, h0=0.01),
                   t_end=0.5)
    assert len(tr) == 2001
    assert tr.t[0] == 0.0
    assert tr.t[-1] == 0.5
    assert np.allclose(np.diff(tr.t), 0.5 / 2000, rtol=0, atol=1e-15)


def test_integrate_holds_equilibrium():
    fluid, geom = synth_params(1.0, 0.04)
    h_j = jurin_height(fluid, geom)
    tr = integrate(ModelSpec("classical"), fluid, replace(geom, h0=h_j), t_end=1.0)
    assert np.max(np.abs(tr.h - h_j)) <= 1e-8 * h_j


def _reduced_extended(fluid, geom):
    """The extended row with no slip, no convective term and no meniscus
    correction: D = -1 drops Q from the v^2 term, h_hat = 0 the correction."""
    return model_balance(ModelSpec("extended"), fluid, geom)._replace(D=-1.0, h_hat=0.0)


@pytest.mark.parametrize("omega", [0.1, 0.5, 1.0, 10.0, 100.0])
def test_reduced_extended_row_is_classical_row(omega):
    case = next(c for c in omega_suite() if c.omega_nominal == omega)
    classical = model_balance(ModelSpec("classical"), case.fluid, case.geom)
    assert _reduced_extended(case.fluid, case.geom) == classical


def test_extended_reduces_to_classical():
    fluid, geom = synth_params(1.0, 0.04)
    t_end = auto_t_end(fluid, geom)
    tr_red = solve_rk45(_reduced_extended(fluid, geom), 0.01, 0.0, t_end)
    tr_cls = integrate(ModelSpec("classical"), fluid, replace(geom, h0=0.01), t_end)
    scale = np.max(np.abs(tr_cls.h))
    assert np.max(np.abs(tr_red.h - tr_cls.h)) <= 10 * 1e-10 * scale


@pytest.mark.parametrize("omega,sigma", [(0.1, 0.2), (1.0, 0.04), (10.0, 0.01)])
def test_integrate_tolerance_convergence(omega, sigma):
    fluid, geom = synth_params(omega, sigma)
    t_end = auto_t_end(fluid, geom)
    geom = replace(geom, h0=0.01)
    model = ModelSpec("extended", SlipSpec(0.001))
    row = model_balance(model, fluid, geom)
    h_a = solve_rk45(row, geom.h0, 0.0, t_end, rtol=1e-8).h[-1]
    h_b = solve_rk45(row, geom.h0, 0.0, t_end, rtol=5e-9).h[-1]
    assert abs(h_a - h_b) / abs(h_b) < 1e-8


def test_initial_rise_and_damping():
    # v0=0, h0 below equilibrium: the column must move up at once and the
    # successive maxima of the damped oscillation must not grow
    fluid, geom = synth_params(0.1, 0.2)
    geom = replace(geom, h0=0.01)
    model = ModelSpec("extended", SlipSpec(0.001))
    _, dv0 = model_balance(model, fluid, geom)(geom.h0, 0.0)
    assert dv0 > 0.0
    tr = integrate(model, fluid, geom, auto_t_end(fluid, geom))
    peaks = detect_peaks(tr)
    maxima = [p for p in peaks if p.is_max]
    assert len(maxima) >= 2
    heights = [p.h for p in maxima]
    assert all(h2 <= h1 + 1e-12 for h1, h2 in zip(heights, heights[1:]))
    first_max_t = maxima[0].t
    rising = tr.h[(tr.t > 0) & (tr.t < first_max_t)]
    assert np.all(rising > geom.h0)


def test_detect_peaks_needs_three_samples():
    tr = Trajectory(t=np.array([0.0, 1.0]), h=np.ones(2), v=np.zeros(2))
    with pytest.raises(ValueError):
        detect_peaks(tr)


def test_detect_peaks_monotone_empty():
    t = np.linspace(0.0, 1.0, 200)
    tr = synthetic_traj(t, np.tanh(3 * t))
    assert len(detect_peaks(tr)) == 0


def test_detect_peaks_synthetic_damped_cosine():
    # h = 1 + 0.3 exp(-t) cos(2 pi t); extrema where tan(2 pi t) = -1/(2 pi)
    t = np.linspace(0.0, 4.0, 4001)
    tr = synthetic_traj(t, 1.0 + 0.3 * np.exp(-t) * np.cos(2 * np.pi * t),
                        h_inf=1.0)
    dt_out = t[1] - t[0]
    peaks = detect_peaks(tr)
    phase = math.atan(-1.0 / (2 * math.pi))
    analytic = [(phase + k * math.pi) / (2 * math.pi) for k in range(1, 8)]
    assert len(peaks) >= 6
    for found, want in zip(peaks, analytic):
        assert abs(found.t - want) <= dt_out
    # alternating kinds, first one (t ~ 0.475) is a minimum
    kinds = [p.is_max for p in peaks]
    assert kinds[0] is False
    assert all(a != b for a, b in zip(kinds, kinds[1:]))


def test_detect_peaks_prominence_suppression():
    # a ripple of amplitude 1e-6 on a flat signal is below the default
    # threshold relative to h_ref=1 and must vanish
    t = np.linspace(0.0, 1.0, 500)
    tr = synthetic_traj(t, 1.0 + 1e-6 * np.sin(12 * np.pi * t), h_inf=1.0)
    assert len(detect_peaks(tr)) == 0
    assert len(detect_peaks(tr, eps_peak=1e-8)) > 0


def test_settle_metrics_constant():
    t = np.linspace(0.0, 1.0, 50)
    tr = synthetic_traj(t, np.full_like(t, 2.0))
    assert settle_time(tr, 2.0) == 0.0


def test_settle_metrics_exponential_decay():
    # |h - 1| = 0.5 exp(-t) crosses the 1% band at t = ln 50
    t = np.linspace(0.0, 8.0, 8001)
    tr = synthetic_traj(t, 1.0 + 0.5 * np.exp(-t))
    assert settle_time(tr, 1.0) == pytest.approx(math.log(50.0), abs=t[1] - t[0])


def test_settle_metrics_not_settled():
    t = np.linspace(0.0, 1.0, 100)
    tr = synthetic_traj(t, 2.0 + t)  # walks away from h_inf = 2
    assert settle_time(tr, 2.0) is None


def test_ca_max():
    fluid = FluidPair(rho_l=1000.0, rho_g=1.0, mu_l=0.01, mu_g=1e-5,
                      sigma=0.1, g=9.81)
    t = np.linspace(0.0, 1.0, 100)
    tr = synthetic_traj(t, np.ones_like(t), v=np.sin(2 * np.pi * t))
    assert ca_max(tr, fluid) == pytest.approx(0.01 * np.max(np.abs(tr.v)) / 0.1)
    tr0 = synthetic_traj(t, np.ones_like(t), v=np.zeros_like(t))
    assert ca_max(tr0, fluid) == 0.0
