"""Coupled-solver behaviour: statics, conservation, channel flow, determinism."""

import math
from dataclasses import replace

import numpy as np
import pytest

from caprise.core import SlipSpec, stationary_height
from caprise.odemodels import ModelSpec, integrate
from caprise.scaling import auto_t_end
from caprise.study import synth_params
from caprise.vof2d import (CaseSetup2D, Grid, SimState, Simulator,
                           apex_height)
from caprise.vof2d import solver as vof2d_solver
from caprise.vof2d.solver import _POISSON_TOL, compute_dt

FLUID, GEOM = synth_params(1.0, 0.04)
SLIP = SlipSpec.navier(GEOM.R / 5.0)


def _static_box(nx, steps=100):
    """The closed, gravity-free meniscus stepped at compute_dt; the step
    speeds."""
    setup = CaseSetup2D(fluid=FLUID, geom=GEOM, slip=SLIP, nx=nx,
                        t_end=1.0, closed_bottom=True, gravity_on=False)
    sim = Simulator(setup)
    speeds = []
    for _ in range(steps):
        dt = compute_dt(sim.state, FLUID)
        sim.step(dt)
        speeds.append(max(float(np.abs(sim.state.u).max()),
                          float(np.abs(sim.state.v).max())))
    return sim, speeds


@pytest.fixture(scope="module")
def static_sim():
    """100 steps of the closed, gravity-free meniscus at nx=16."""
    return _static_box(16)


def _laplace_jump(sim):
    """Pressure four cells above the apex interface cell minus four below."""
    st = sim.state
    jc = int(np.flatnonzero(st.alpha[0, :] >= 0.5)[-1])
    return st.p[0, jc + 4] - st.p[0, jc - 4]


def _mean_laplace_jump(nx, t_end=0.06):
    """Time mean of the Laplace jump in the static box over [0, t_end] s."""
    sim, _ = _static_box(nx, steps=0)
    total = 0.0
    while sim.state.t < t_end * (1.0 - 1e-12):
        dt = min(compute_dt(sim.state, FLUID), t_end - sim.state.t)
        sim.step(dt)
        total += _laplace_jump(sim) * dt
    return total / t_end


LAPLACE_JUMP = FLUID.sigma * math.cos(GEOM.theta_e) / GEOM.R


class TestStaticMeniscus:
    def test_spurious_currents_stay_bounded(self, static_sim):
        _, speeds = static_sim
        bound = 1e-3 * FLUID.sigma / FLUID.mu_l
        assert max(speeds) <= bound
        assert speeds[-1] <= 0.5 * bound

    def test_spurious_currents_stay_bounded_over_400_steps(self):
        # the step at nx 16 is dt_mu, 0.95 times the capillary limit (the
        # one-cell crossing time of the 2 dx capillary wave, 2 above
        # Brackbill's): the currents must not grow over four times the
        # horizon above (measured 2.71e-3 at both 100 and 400 steps)
        _, speeds = _static_box(16, steps=400)
        assert max(speeds) <= 1e-3 * FLUID.sigma / FLUID.mu_l

    def test_pressure_jump_matches_young_laplace(self, static_sim):
        sim, _ = static_sim
        assert _laplace_jump(sim) == pytest.approx(LAPLACE_JUMP, rel=0.02)

    def test_pressure_jump_converges(self):
        # every mesh is measured over the same times, 59, 166 and 493 steps
        # at nx 4, 8, 16; measured relative errors of the mean 1.87e-2,
        # 4.72e-3 and 1.16e-3, about a quarter per halving
        errs = [abs(_mean_laplace_jump(nx) / LAPLACE_JUMP - 1.0)
                for nx in (4, 8, 16)]
        assert errs[1] < 0.5 * errs[0]
        assert errs[2] < 0.5 * errs[1]

    def test_interface_stays_put(self, static_sim):
        sim, _ = static_sim
        apex0 = 0.010011296277628659  # exact arc integral at init
        assert abs(apex_height(sim.state) - apex0) < 0.1 * sim.state.grid.dx

    def test_volume_conserved_with_closed_bottom(self, static_sim):
        sim, _ = static_sim
        assert sim.diag.vol_balance_rel_max < 1e-10
        assert sim.diag.alpha_overshoot_max < 1e-10


@pytest.fixture(scope="module")
def short_rise():
    """Early rise at nx=8 with full physics."""
    setup = CaseSetup2D(fluid=FLUID, geom=GEOM, slip=SLIP, nx=8, t_end=0.04)
    return Simulator(setup).run()


class TestRiseDiagnostics:
    def test_apex_rises(self, short_rise):
        traj, _ = short_rise
        assert traj.h[-1] > traj.h[0] + 0.05 * GEOM.h0
        assert traj.h[0] == pytest.approx(0.010011296277628659, rel=1e-12)

    def test_per_step_volume_balance(self, short_rise):
        _, diag = short_rise
        assert diag.vol_balance_rel_max < 1e-10

    def test_total_volume_drift_net_of_boundary_flux(self, short_rise):
        _, diag = short_rise
        assert diag.vol_drift_rel < 1e-8

    def test_fraction_bounds_before_clipping(self, short_rise):
        _, diag = short_rise
        assert diag.alpha_overshoot_max < 1e-10
        assert diag.clipped_area_total < 1e-12 * GEOM.R * GEOM.h0

    def test_projection_kills_divergence(self, short_rise):
        _, diag = short_rise
        assert diag.div_reduction_max < 1e-7
        assert diag.div_step_rel_max < 1e-9

    def test_advection_cfl_stays_low(self, short_rise):
        _, diag = short_rise
        assert diag.cfl_max < 0.5

    def test_trajectory_metadata(self, short_rise):
        traj, _ = short_rise
        assert traj.metadata["h_inf"] == pytest.approx(
            stationary_height(FLUID, GEOM), rel=1e-12)
        assert traj.t[0] == 0.0
        assert traj.t[-1] == 0.04


def test_capillary_step_has_headroom(monkeypatch):
    # omega 0.5, nx 8, Navier R/5 is a capillary-bound rise that blows up
    # at 1.75 times the step (CourantViolation, as do omega 0.5 nx 16 and
    # omega 1 nx 8); at 1.4 times the step it must still settle and keep
    # the invariants (measured 2735 steps)
    fluid, geom = synth_params(0.5, 0.1)
    monkeypatch.setattr(vof2d_solver, "_DT_SAFETY",
                        1.4 * vof2d_solver._DT_SAFETY)
    setup = CaseSetup2D(fluid=fluid, geom=geom, slip=SlipSpec.navier(geom.R / 5),
                        nx=8, t_end=auto_t_end(fluid, geom))
    traj, diag = Simulator(setup).run()
    assert traj.t[-1] == setup.t_end
    h_inf = stationary_height(fluid, geom)
    assert abs(traj.h[-1] - h_inf) <= 0.05 * h_inf
    assert diag.vol_balance_rel_max <= 1e-10
    assert diag.alpha_overshoot_max <= 1e-10
    assert diag.div_reduction_max <= 10.0 * _POISSON_TOL


class _LiquidTopGhost(Simulator):
    """A simulator whose top ghost row is liquid, corners included.

    _pad_alpha writes a gas top ghost row, right for the rise; a column
    filled with liquid would then see a density jump at the top and a
    spurious vertical pressure gradient that does not converge.
    """

    def _pad_alpha(self, alpha):
        A = super()._pad_alpha(alpha)
        A[:, -1] = 1.0
        return A


def _channel_flow(nx, slip):
    """Gravity-driven flow of the liquid alone through the open half gap,
    stepped by momentum and projection only to t = 1.5 s (about seven
    diffusion times R^2/nu); returns the final state."""
    t_end = 1.5
    grid = Grid(nx, GEOM.R)
    setup = CaseSetup2D(fluid=FLUID, geom=GEOM, slip=slip, nx=nx,
                        t_end=t_end)
    sim = _LiquidTopGhost(setup, state=SimState(
        grid, np.ones((grid.nx, grid.ny))))
    st = sim.state
    while st.t < t_end * (1.0 - 1e-12):
        dt = min(compute_dt(st, FLUID), t_end - st.t)
        st.u, st.v, st.p = sim._project(dt, *sim._momentum(dt))
        st.t += dt
    return st


class TestChannelFlow:
    """The wall and the symmetry plane against the closed form: the mean
    velocity of Navier-slip Poiseuille flow between the plates is
    -rho g R (R + 3L) / (3 mu), the friction law of the extended model."""

    @pytest.mark.parametrize("slip", [SLIP, SlipSpec()],
                             ids=["navier_r5", "numerical"])
    def test_mean_velocity_converges_to_closed_form(self, slip):
        # measured relative errors: 1.95e-2 and 4.88e-3 (Navier R/5),
        # 3.12e-2 and 7.81e-3 (numerical, L = 0) at nx 4 and 8
        R = GEOM.R
        v_mean = (-FLUID.rho_l * FLUID.g * R * (R + 3.0 * slip.L)
                  / (3.0 * FLUID.mu_l))
        errs = []
        for nx in (4, 8):
            st = _channel_flow(nx, slip)
            errs.append(abs(float(st.v[:, st.grid.ny // 2].mean()) / v_mean
                            - 1.0))
            assert not st.u.any()
            assert not st.p.any()
        assert math.log2(errs[0] / errs[1]) >= 1.8
        assert errs[1] < 1e-2


def _prosperetti_amplitude(t, nu, k, rho_l, rho_g, sigma):
    """a(t)/a0 of a standing capillary wave of wavenumber k between two
    unbounded fluids of one kinematic viscosity nu, released from rest:
    the initial-value solution of Prosperetti (1981, Phys. Fluids 24)."""
    from scipy.special import erfc
    beta = rho_l * rho_g / (rho_l + rho_g) ** 2
    w02 = sigma * k**3 / (rho_l + rho_g)
    nk2 = nu * k * k
    z = np.roots([1.0, -4.0 * beta * math.sqrt(nk2),
                  2.0 * (1.0 - 6.0 * beta) * nk2,
                  4.0 * (1.0 - 3.0 * beta) * nk2**1.5,
                  (1.0 - 4.0 * beta) * nk2**2 + w02])
    t = np.asarray(t, dtype=float)
    a = (4.0 * (1.0 - 4.0 * beta) * nk2**2
         / (8.0 * (1.0 - 4.0 * beta) * nk2**2 + w02) * erfc(np.sqrt(nk2 * t)))
    for i in range(4):
        zi = z[i]
        Z = np.prod([z[j] - zi for j in range(4) if j != i])
        a = a + (zi / Z * w02 / (zi * zi - nk2) * np.exp((zi * zi - nk2) * t)
                 * erfc(zi * np.sqrt(t))).real
    return a


def _capillary_wave(omega, sigma, nx, periods=3.0):
    """The closed, gravity-free half gap with a flat 90 degree wall of
    free slip, released from rest with the interface 4R + a0 cos(pi x/R),
    a0 = 0.01 R; the rms of a/a0 - a_P/a0 over every step.  a is column
    0's liquid height less the mean level; the cell-mean factor of the
    cosine cancels in a/a0."""
    fluid, geom = synth_params(omega, sigma)
    geom = replace(geom, theta_e=0.5 * math.pi)
    R, k = geom.R, math.pi / geom.R
    grid = Grid(nx, R)
    dx, samples = grid.dx, 400
    xs = (np.arange(nx * samples) + 0.5) * (dx / samples)
    eta = (4.0 * R + 0.01 * R * np.cos(k * xs)).reshape(nx, samples)
    y = np.arange(grid.ny) * dx
    alpha = np.clip((eta[:, :, None] - y) / dx, 0.0, 1.0).mean(axis=1)
    setup = CaseSetup2D(fluid=fluid, geom=geom, slip=SlipSpec(1e150), nx=nx,
                        t_end=1.0, closed_bottom=True, gravity_on=False)
    sim = Simulator(setup, state=SimState(grid, alpha))
    st = sim.state

    def amplitude():
        h = st.alpha.sum(axis=1) * dx
        return h[0] - h.mean()

    a0 = amplitude()
    t_end = periods * 2.0 * math.pi / math.sqrt(
        fluid.sigma * k**3 / (fluid.rho_l + fluid.rho_g))
    ts, amps = [0.0], [1.0]
    while st.t < t_end * (1.0 - 1e-12):
        sim.step(min(compute_dt(st, fluid), t_end - st.t))
        ts.append(st.t)
        amps.append(amplitude() / a0)
    exact = _prosperetti_amplitude(ts, fluid.mu_l / fluid.rho_l, k,
                                   fluid.rho_l, fluid.rho_g, fluid.sigma)
    return math.sqrt(float(np.mean((np.array(amps) - exact) ** 2)))


class TestCapillaryWave:
    """How fast surface tension restores a displaced interface, against
    Prosperetti's exact standing wave (Popinet 2009's VOF test)."""

    def test_oracle_starts_at_one_and_has_lamb_weak_damping_limit(self):
        k, rho_l, rho_g, sigma = 1.0, 1000.0, 1.0, 1.0
        w0 = math.sqrt(sigma * k**3 / (rho_l + rho_g))
        t = np.linspace(0.0, 6.0 * math.pi / w0, 2001)
        # nu k^2 / omega0 = 1e-4: a cosine damped at 2 nu k^2 (Lamb),
        # measured within 5.2e-4
        nu = 1e-4 * w0 / k**2
        a = _prosperetti_amplitude(t, nu, k, rho_l, rho_g, sigma)
        assert a[0] == pytest.approx(1.0, abs=1e-12)
        lamb = np.cos(w0 * t) * np.exp(-2.0 * nu * k * k * t)
        assert np.abs(a - lamb).max() < 1e-3

    @pytest.mark.parametrize("omega,sigma,bounds", [
        # nu k^2/omega0 0.014; measured 7.20e-2 and 1.88e-2 (151 and 427 steps)
        (0.1, 0.2, (8e-2, 2.2e-2)),
        # nu k^2/omega0 0.138; measured 1.51e-2 and 5.16e-3 (151 and 449 steps)
        (1.0, 0.04, (1.7e-2, 6e-3)),
    ], ids=["omega0.1", "omega1"])
    def test_rms_error_falls_with_mesh(self, omega, sigma, bounds):
        errs = [_capillary_wave(omega, sigma, nx) for nx in (8, 16)]
        assert errs[0] < bounds[0]
        assert errs[1] < bounds[1]
        assert errs[1] < 0.5 * errs[0]


class TestDeterminism:
    def test_repeated_runs_identical(self):
        setup = CaseSetup2D(fluid=FLUID, geom=GEOM, slip=SLIP, nx=4,
                            t_end=0.01)
        t1, d1 = Simulator(setup).run()
        t2, d2 = Simulator(setup).run()
        assert np.array_equal(t1.h, t2.h)
        assert np.array_equal(t1.v, t2.v)
        assert d1.n_steps == d2.n_steps


def _in_units(lam, tau, mass, slip=SLIP):
    """FLUID, GEOM and slip in units whose length, time and mass are
    1/lam m, 1/tau s and 1/mass kg: R, h0 and L scale by lam, g by
    lam/tau^2, rho by mass/lam^3, sigma by mass/tau^2, mu by mass/(lam tau)."""
    rho, mu = mass / lam**3, mass / (lam * tau)
    fluid = replace(FLUID, rho_l=FLUID.rho_l * rho, rho_g=FLUID.rho_g * rho,
                    mu_l=FLUID.mu_l * mu, mu_g=FLUID.mu_g * mu,
                    sigma=FLUID.sigma * mass / tau**2, g=FLUID.g * lam / tau**2)
    geom = replace(GEOM, R=GEOM.R * lam, h0=GEOM.h0 * lam)
    return fluid, geom, SlipSpec(slip.L * lam)


def _rise_in_units(slip, lam=1.0, tau=1.0, mass=1.0):
    """The omega 1 rise at nx 4 to the auto horizon (677 steps), run in
    the units of _in_units."""
    fluid, geom, slip = _in_units(lam, tau, mass, slip)
    return Simulator(CaseSetup2D(fluid=fluid, geom=geom, slip=slip, nx=4,
                                 t_end=auto_t_end(FLUID, GEOM) * tau)).run()


_WALLS = {"navier-r5": SLIP, "numerical": SlipSpec()}
# power-of-two unit changes: every product by a factor is exact
_POW2_UNITS = [pytest.param((0.25, 8.0, 1024.0), id="0.25-8-1024"),
               pytest.param((4.0, 2.0, 4.0), id="4-2-4")]
_UNIT_FREE = ("cfl_max", "div_step_rel_max", "div_reduction_max",
              "vol_balance_rel_max", "vol_drift_rel", "alpha_overshoot_max")


@pytest.fixture(scope="module")
def si_rises():
    return {name: _rise_in_units(slip) for name, slip in _WALLS.items()}


class TestDimensionalSimilarity:
    """The same run in other units: a dimensional constant hidden in the
    solver (an absolute threshold on a mobility, a velocity or a pressure,
    a coefficient fixed in m^2/s) passes every one-regime oracle but
    shows here."""

    @pytest.mark.parametrize("units", _POW2_UNITS)
    @pytest.mark.parametrize("wall", list(_WALLS))
    def test_power_of_two_units_are_bit_equal(self, si_rises, wall, units):
        lam, tau, mass = units
        ref, ref_diag = si_rises[wall]
        traj, diag = _rise_in_units(_WALLS[wall], lam, tau, mass)
        assert diag.n_steps == ref_diag.n_steps == 677
        assert np.array_equal(traj.t / tau, ref.t)
        assert np.array_equal(traj.h / lam, ref.h)
        assert np.array_equal(traj.v * tau / lam, ref.v)
        assert (diag.dt_min, diag.dt_max) == (ref_diag.dt_min * tau,
                                              ref_diag.dt_max * tau)
        for name in _UNIT_FREE:
            assert getattr(diag, name) == getattr(ref_diag, name), name
        assert diag.clipped_area_total == ref_diag.clipped_area_total * lam**2

    def test_other_units_agree_to_rounding(self, si_rises):
        # factors that are not powers of two round; measured 2.4e-15
        lam, tau, mass = 3.0, 1.7, 5.0
        ref, ref_diag = si_rises["navier-r5"]
        traj, diag = _rise_in_units(SLIP, lam, tau, mass)
        assert diag.n_steps == ref_diag.n_steps
        assert np.max(np.abs(traj.h / lam - ref.h)) <= 1e-12 * np.max(ref.h)

    @pytest.mark.parametrize("units", _POW2_UNITS)
    @pytest.mark.parametrize("model", ["classical", "extended"])
    def test_reduced_odes_agree_to_tolerance(self, model, units):
        # not bitwise: the step controller's DEFAULT_ATOL (odemodels) is an
        # absolute 1e-12 applied to h in m and v in m/s, so its weight
        # against rtol changes with the units
        lam, tau, mass = units
        slip = SLIP if model == "extended" else SlipSpec()
        ref = integrate(ModelSpec(model, slip), FLUID, GEOM,
                        auto_t_end(FLUID, GEOM))
        fluid, geom, slip = _in_units(lam, tau, mass, slip)
        traj = integrate(ModelSpec(model, slip), fluid, geom,
                         auto_t_end(FLUID, GEOM) * tau)
        assert np.array_equal(traj.t / tau, ref.t)
        assert np.max(np.abs(traj.h / lam - ref.h)) <= 1e-9 * np.max(ref.h)


class TestRefusedBeforeFirstStep:
    @pytest.mark.parametrize("bad,match", [
        ({"t_end": math.inf}, "t_end"), ({"t_end": math.nan}, "t_end"),
        ({"t_end": 0.0}, "t_end"), ({"t_end": -1.0}, "t_end"),
        ({"t_end": 0.01, "nx": 3}, "cells"),
    ], ids=["t_end=inf", "t_end=nan", "t_end=0", "t_end<0", "nx=3"])
    def test_bad_setup(self, monkeypatch, bad, match):
        def no_step(self, dt):
            pytest.fail("a step ran before the setup was checked")
        monkeypatch.setattr(Simulator, "step", no_step)
        with pytest.raises(ValueError, match=match):
            Simulator(CaseSetup2D(fluid=FLUID, geom=GEOM, slip=SLIP,
                                  **{"nx": 4, **bad})).run()
