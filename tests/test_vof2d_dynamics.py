"""Coupled-solver behaviour: statics, conservation, channel flow, determinism."""

import math

import numpy as np
import pytest

from caprise.core import SlipSpec, stationary_height
from caprise.study import synth_params
from caprise.vof2d import (CaseSetup2D, Grid, SimState, Simulator,
                           apex_height, run)
from caprise.vof2d.curvature import interface_cell
from caprise.vof2d.solver import compute_dt

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
    jc = interface_cell(st.alpha[0, :])
    return st.p[0, jc + 4] - st.p[0, jc - 4]


LAPLACE_JUMP = FLUID.sigma * math.cos(GEOM.theta_e) / GEOM.R


class TestStaticMeniscus:
    def test_spurious_currents_stay_bounded(self, static_sim):
        _, speeds = static_sim
        bound = 1e-3 * FLUID.sigma / FLUID.mu_l
        assert max(speeds) <= bound
        assert speeds[-1] <= 0.5 * bound

    def test_spurious_currents_stay_bounded_over_400_steps(self):
        # the capillary step is Denner & van Wachem's, sqrt(2) above
        # Brackbill's: the currents must not grow over four times the
        # horizon above (measured 2.70e-3 at both 100 and 400 steps)
        _, speeds = _static_box(16, steps=400)
        assert max(speeds) <= 1e-3 * FLUID.sigma / FLUID.mu_l

    def test_pressure_jump_matches_young_laplace(self, static_sim):
        sim, _ = static_sim
        assert _laplace_jump(sim) == pytest.approx(LAPLACE_JUMP, rel=0.02)

    def test_pressure_jump_converges(self, static_sim):
        # measured relative errors: 1.99e-2, 3.99e-3 and 1.84e-3 at nx 4, 8,
        # 16; the nx 16 error swings between 1e-4 and 2.4e-3 with the
        # time reached in 100 steps
        sims = [_static_box(nx)[0] for nx in (4, 8)] + [static_sim[0]]
        errs = [abs(_laplace_jump(sim) / LAPLACE_JUMP - 1.0) for sim in sims]
        assert errs[1] < 0.5 * errs[0]
        assert errs[2] < 0.5 * errs[1]

    def test_interface_stays_put(self, static_sim):
        sim, _ = static_sim
        apex0 = 0.010011296277628659  # exact arc integral at init
        assert abs(apex_height(sim.state) - apex0) < 0.1 * sim.state.grid.dy

    def test_volume_conserved_with_closed_bottom(self, static_sim):
        sim, _ = static_sim
        assert sim.diag.vol_balance_rel_max < 1e-10
        assert sim.diag.alpha_overshoot_max < 1e-10


@pytest.fixture(scope="module")
def short_rise():
    """Early rise at nx=8 with full physics."""
    setup = CaseSetup2D(fluid=FLUID, geom=GEOM, slip=SLIP, nx=8,
                        t_end=0.04, dt_out=0.04 / 200)
    return run(setup)


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
        assert traj.metadata["kind"] == "vof2d"
        assert traj.metadata["nx"] == 8
        assert traj.metadata["h_inf"] == pytest.approx(
            stationary_height(FLUID, GEOM), rel=1e-12)
        assert traj.t[0] == 0.0
        assert traj.t[-1] == 0.04


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
    grid = Grid.half_gap(nx, GEOM.R)
    setup = CaseSetup2D(fluid=FLUID, geom=GEOM, slip=slip, nx=nx,
                        t_end=t_end)
    sim = _LiquidTopGhost(setup, state=SimState.quiescent(
        grid, np.ones((grid.nx, grid.ny))))
    st = sim.state
    while st.t < t_end * (1.0 - 1e-12):
        dt = min(compute_dt(st, FLUID), t_end - st.t)
        sim.apply_boundaries()
        u_star, v_star, rho_x, rho_y = sim._momentum(
            dt, sim._pad_alpha(st.alpha), sim._u_full(), sim._v_full(),
            sim.curvatures())
        st.u, st.v, st.p = sim._project(dt, u_star, v_star, rho_x, rho_y)
        st.t += dt
    return st


class TestChannelFlow:
    """The wall and the symmetry plane against the closed form: the mean
    velocity of Navier-slip Poiseuille flow between the plates is
    -rho g R (R + 3L) / (3 mu), the friction law of the extended model."""

    @pytest.mark.parametrize("slip", [SLIP, SlipSpec.numerical()],
                             ids=["navier_r5", "numerical"])
    def test_mean_velocity_converges_to_closed_form(self, slip):
        # measured relative errors: 1.95e-2 and 4.88e-3 (Navier R/5),
        # 3.12e-2 and 7.81e-3 (numerical, L = 0) at nx 4 and 8
        L = slip.L or 0.0  # numerical slip is the no-slip limit
        R = GEOM.R
        v_mean = -FLUID.rho_l * FLUID.g * R * (R + 3.0 * L) / (3.0 * FLUID.mu_l)
        errs = []
        for nx in (4, 8):
            st = _channel_flow(nx, slip)
            errs.append(abs(float(st.v[:, st.grid.ny // 2].mean()) / v_mean
                            - 1.0))
            assert not st.u.any()
            assert not st.p.any()
        assert math.log2(errs[0] / errs[1]) >= 1.8
        assert errs[1] < 1e-2


class TestDeterminism:
    def test_repeated_runs_identical(self):
        setup = CaseSetup2D(fluid=FLUID, geom=GEOM, slip=SLIP, nx=4,
                            t_end=0.01)
        t1, d1 = run(setup)
        t2, d2 = run(setup)
        assert np.array_equal(t1.h, t2.h)
        assert np.array_equal(t1.v, t2.v)
        assert d1.n_steps == d2.n_steps


class TestRefusedBeforeFirstStep:
    @pytest.mark.parametrize("bad,match", [
        ({"t_end": math.inf}, "t_end"), ({"t_end": math.nan}, "t_end"),
        ({"t_end": 0.0}, "t_end"), ({"t_end": -1.0}, "t_end"),
        ({"t_end": 0.01, "dt_out": 0.02}, "dt_out"),
        ({"t_end": 0.01, "dt_out": 0.0}, "dt_out"),
        ({"t_end": 0.01, "dt_out": -1.0}, "dt_out"),
        ({"t_end": 0.01, "nx": 3}, "cells"),
    ], ids=["t_end=inf", "t_end=nan", "t_end=0", "t_end<0", "dt_out>t_end",
            "dt_out=0", "dt_out<0", "nx=3"])
    def test_bad_setup(self, monkeypatch, bad, match):
        def no_step(self, dt):
            pytest.fail("a step ran before the setup was checked")
        monkeypatch.setattr(Simulator, "step", no_step)
        with pytest.raises(ValueError, match=match):
            Simulator(CaseSetup2D(fluid=FLUID, geom=GEOM, slip=SLIP,
                                  **{"nx": 4, **bad})).run()
