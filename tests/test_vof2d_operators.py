"""Discrete operators: curvature, slip ghosts, projection, advection."""

import copy
import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from caprise.core import FluidPair, Geometry, SlipSpec
from caprise.errors import (CourantViolation, MultiValuedColumn,
                            SolverDiverged, StencilInvalid)
from caprise.vof2d.curvature import (column_height, contact_angle_ghost,
                                     curvature_height_function)
from caprise.study import synth_params, timestep_limits
from caprise.vof2d import solver
from caprise.vof2d.geometry import (ALPHA_EPS, Grid, SimState, apex_height,
                                    arc_column_fractions, init_case)
from caprise.vof2d.plic import PlicPlane, plic_reconstruct, youngs_normal
from caprise.vof2d.solver import (_MIXED_EPS, CaseSetup2D, RunDiagnostics,
                                  Simulator, compute_dt, poisson_solve,
                                  slip_ghost)

GEOM = Geometry(R=0.005, theta_e=math.radians(30.0), h0=0.01)


class TestColumnHeights:
    def test_interface_cell_picks_topmost_half_full(self):
        # the window centres on cell 11: the gas pocket below it counts as
        # liquid, so the column reads 11.9 cells, as a plain one does; the
        # lower half-full cell 5 has no bracketing window and would raise
        pocket = [1.0] * 5 + [0.5, 0.0] + [1.0] * 4 + [0.7, 0.2] + [0.0] * 7
        plain = [1.0] * 11 + [0.9] + [0.0] * 8
        right = [1.0] * 10 + [0.5] + [0.0] * 9
        k = curvature_height_function(np.array([pocket, right]), 0.25,
                                      GEOM.theta_e)
        k_plain = curvature_height_function(np.array([plain, right]), 0.25,
                                            GEOM.theta_e)
        assert k == pytest.approx(k_plain, rel=1e-12)

    def test_interface_cell_empty_column_raises(self):
        a = np.array([[1.0] * 10 + [0.5] + [0.0] * 9,
                      [0.1, 0.2] + [0.0] * 18])
        with pytest.raises(StencilInvalid,
                           match="column holds no interface cell"):
            curvature_height_function(a, 0.25, GEOM.theta_e)

    def test_column_height_sums_window(self):
        col = np.array([1.0, 1.0, 1.0, 0.5, 0.0, 0.0, 0.0])
        assert column_height(col, 3, 0.25, half=3) == pytest.approx(
            3.5 * 0.25)

    def test_column_height_needs_bracketing(self):
        col = np.array([0.95, 1.0, 1.0, 0.5, 0.0, 0.0, 0.0])
        with pytest.raises(StencilInvalid):
            column_height(col, 3, 0.25, half=3)
        col = np.array([1.0, 1.0, 1.0, 0.5, 0.0, 0.0, 1e-6])
        with pytest.raises(StencilInvalid):
            column_height(col, 3, 0.25, half=3)

    def test_column_height_window_must_fit(self):
        col = np.array([1.0, 1.0, 0.5, 0.0, 0.0])
        with pytest.raises(StencilInvalid):
            column_height(col, 2, 0.25, half=3)

    def test_contact_angle_ghost_slope(self):
        assert contact_angle_ghost(1.0, 0.1, math.radians(45.0)) == \
            pytest.approx(1.1)
        # 90 degrees: no offset
        assert contact_angle_ghost(1.0, 0.1, math.pi / 2) == \
            pytest.approx(1.0, abs=1e-15)


class TestCurvature:
    def test_flat_interface_is_zero_without_walls(self):
        # at 90 degrees the wall ghost adds no offset: the wall acts as a
        # mirror, as the symmetry plane does
        grid = Grid(8, GEOM.R)
        a = np.zeros((grid.nx, grid.ny))
        a[:, :20] = 1.0
        a[:, 20] = 0.4
        k = curvature_height_function(a, grid.dx, math.pi / 2)
        assert np.all(k == 0.0)
        # a single-phase field has no interface, so no curvature at any angle
        for fill in (1.0, 0.0):
            k = curvature_height_function(np.full_like(a, fill), grid.dx,
                                          GEOM.theta_e)
            assert k.shape == (grid.nx,) and np.all(k == 0.0)
        # but one interface-free column in a two-phase field is refused
        a[3] = 0.0
        with pytest.raises(StencilInvalid,
                           match="column holds no interface cell"):
            curvature_height_function(a, grid.dx, math.pi / 2)

    def test_wall_ghost_bends_last_column(self):
        grid = Grid(8, GEOM.R)
        a = np.zeros((grid.nx, grid.ny))
        a[:, :20] = 1.0
        a[:, 20] = 0.4
        k = curvature_height_function(a, grid.dx, GEOM.theta_e)
        assert np.all(k[:-1] == 0.0)
        assert k[-1] > 0.0

    def test_smeared_column_widens_window(self):
        # the smeared column's interface cell is j = 10 and its 7-cell
        # window starts at the 0.9 cell, so its height comes from the 9-cell
        # window; it holds 10.1 cells of liquid, as column 0 of the sharp field
        dx = 0.25
        smeared = [1.0] * 7 + [0.9, 0.8, 0.7, 0.5, 0.2] + [0.0] * 8
        with pytest.raises(StencilInvalid):
            column_height(np.array(smeared), 10, dx, half=3)
        a = np.zeros((3, 20))
        a[:, :10] = 1.0
        a[:, 10] = [0.1, 0.3, 0.6]
        sharp = curvature_height_function(a, dx, GEOM.theta_e)
        a[0] = smeared
        assert curvature_height_function(a, dx, GEOM.theta_e) == \
            pytest.approx(sharp, rel=1e-12)
        # a 0.95 cell at the 9-cell window's bottom too: no window brackets
        a[0, 6] = 0.95
        with pytest.raises(StencilInvalid):
            curvature_height_function(a, dx, GEOM.theta_e)

    def test_arc_curvature_converges_to_inverse_radius(self):
        k_exact = math.cos(GEOM.theta_e) / GEOM.R
        errs = {}
        for nx in (8, 16, 32, 64):
            grid = Grid(nx, GEOM.R)
            a = arc_column_fractions(GEOM, grid)
            k = curvature_height_function(a, grid.dx, GEOM.theta_e)
            errs[nx] = float(np.abs(k[:-1] - k_exact).max()) / k_exact
        # interior columns approach second order
        mean_rate = math.log2(errs[8] / errs[64]) / 3.0
        assert mean_rate > 1.6
        assert errs[32] < 1e-3

    def test_wall_column_first_order(self):
        k_exact = math.cos(GEOM.theta_e) / GEOM.R
        errs = {}
        for nx in (16, 32, 64):
            grid = Grid(nx, GEOM.R)
            a = arc_column_fractions(GEOM, grid)
            k = curvature_height_function(a, grid.dx, GEOM.theta_e)
            errs[nx] = abs(float(k[-1]) - k_exact) / k_exact
        assert math.log2(errs[16] / errs[64]) / 2.0 > 0.7


class TestSlipGhost:
    def test_numerical_is_reflection(self):
        # L = 0 is the no-slip reflection bit for bit, signed zeros included
        v = np.array([0.4, -0.2, 0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300])
        g = slip_ghost(v, 0.1, SlipSpec())
        assert np.array_equal(g, -v)
        assert np.array_equal(np.signbit(g), np.signbit(-v))

    def test_navier_half_cell_zeroes_ghost(self):
        v = np.array([0.4, -0.2])
        g = slip_ghost(v, 0.1, SlipSpec.navier(0.05))
        assert np.allclose(g, 0.0)

    def test_navier_large_length_is_free_slip(self):
        v = np.array([0.4, -0.2])
        g = slip_ghost(v, 0.1, SlipSpec.navier(1e10))
        assert np.allclose(g, v, rtol=1e-10)

    def test_navier_formula(self):
        g = slip_ghost(np.array([1.0]), 0.1, SlipSpec.navier(0.2))
        assert g[0] == pytest.approx((0.4 - 0.1) / (0.4 + 0.1))


def _dense_operator(grid, beta_x, beta_y, closed_bottom):
    """div(beta grad) as a dense matrix, cell (i, j) in row i + nx*j; the
    top is Dirichlet."""
    nx, ny = grid.nx, grid.ny
    dx2 = dy2 = grid.dx ** 2
    A = np.zeros((nx * ny, nx * ny))
    for j in range(ny):
        for i in range(nx):
            k = i + nx * j
            neighbours = []
            if i > 0:
                neighbours.append((k - 1, beta_x[i, j] / dx2))
            if i < nx - 1:
                neighbours.append((k + 1, beta_x[i + 1, j] / dx2))
            if j > 0:
                neighbours.append((k - nx, beta_y[i, j] / dy2))
            elif not closed_bottom:
                neighbours.append((None, beta_y[i, 0] / dy2))
            if j < ny - 1:
                neighbours.append((k + nx, beta_y[i, j + 1] / dy2))
            else:
                neighbours.append((None, beta_y[i, ny] / dy2))
            for m, c in neighbours:
                A[k, k] -= c
                if m is None:
                    # ghost value -p puts the boundary value at zero
                    A[k, k] -= c
                else:
                    A[k, m] += c
    return A


# the bottom condition; the top is always Dirichlet, and the ids name both.
# poisson_solve closes a face of zero mobility: a closed bottom is a zeroed
# beta_y[:, 0]
BOTTOMS = pytest.mark.parametrize(
    "closed_bottom", [False, True],
    ids=["dirichlet-dirichlet", "neumann-dirichlet"])


def _close_bottom(beta_y, closed_bottom):
    if closed_bottom:
        beta_y[:, 0] = 0.0
    return beta_y


class TestPoisson:
    def _mms_error(self, nx, closed_bottom):
        R = 1.0
        grid = Grid(nx, R)
        H = grid.ny * grid.dx
        x = (np.arange(grid.nx) + 0.5) * grid.dx
        y = (np.arange(grid.ny) + 0.5) * grid.dx
        X, Y = np.meshgrid(x, y, indexing="ij")
        # the y profile meets the bottom/top conditions at y = 0 and H
        if not closed_bottom:
            ky, profile = math.pi / H, np.sin
        else:
            ky, profile = 0.5 * math.pi / H, np.cos
        p_exact = np.cos(math.pi * X / R) * profile(ky * Y)
        lap = -((math.pi / R) ** 2 + ky ** 2) * p_exact
        beta_x = np.ones((grid.nx + 1, grid.ny))
        beta_y = _close_bottom(np.ones((grid.nx, grid.ny + 1)), closed_bottom)
        p = poisson_solve(grid, beta_x, beta_y, lap)
        return float(np.abs(p - p_exact).max())

    def _assert_second_order(self, closed_bottom):
        e8 = self._mms_error(8, closed_bottom)
        e16 = self._mms_error(16, closed_bottom)
        assert e8 / e16 > 3.4
        assert e16 < 5e-3

    def test_dirichlet_second_order(self):
        self._assert_second_order(False)

    def test_closed_bottom_second_order(self):
        self._assert_second_order(True)

    @BOTTOMS
    def test_matches_dense_solve(self, closed_bottom):
        # mobilities spread over the liquid/gas density ratio of 1000
        rng = np.random.default_rng(7)
        grid = Grid(6, 1.0)
        nx, ny = grid.nx, grid.ny
        beta_x = 10.0 ** rng.uniform(-3.0, 0.0, (nx + 1, ny))
        beta_y = 10.0 ** rng.uniform(-3.0, 0.0, (nx, ny + 1))
        rhs = rng.standard_normal((nx, ny))
        p = poisson_solve(grid, beta_x, _close_bottom(beta_y.copy(),
                                                      closed_bottom), rhs)

        A = _dense_operator(grid, beta_x, beta_y, closed_bottom)
        ref = np.linalg.solve(A, rhs.flatten("F"))
        ref = ref.reshape((nx, ny), order="F")
        assert np.abs(p - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_zero_mobility_bottom_is_the_closed_bottom(self):
        # a zeroed bottom row, spread like the liquid/gas mobilities, gives
        # the closed bottom's operator and, bit for bit, its pressure
        rng = np.random.default_rng(11)
        grid = Grid(6, 1.0)
        nx, ny = grid.nx, grid.ny
        beta_x = 10.0 ** rng.uniform(-3.0, 0.0, (nx + 1, ny))
        beta_y = 10.0 ** rng.uniform(-3.0, 0.0, (nx, ny + 1))
        rhs = rng.standard_normal((nx, ny))
        zeroed = _close_bottom(beta_y.copy(), True)
        assert np.array_equal(_dense_operator(grid, beta_x, zeroed, False),
                              _dense_operator(grid, beta_x, beta_y, True))
        assert _same_bits(
            poisson_solve(grid, beta_x, zeroed, rhs),
            _reference_poisson_solve(grid, beta_x, beta_y, rhs,
                                     closed_bottom=True))

    def test_zero_rhs_gives_zero_field(self):
        grid = Grid(4, 1.0)
        p = poisson_solve(grid, np.ones((5, 32)), np.ones((4, 33)),
                          np.zeros((4, 32)))
        assert np.all(p == 0.0)

    @BOTTOMS
    @pytest.mark.parametrize("bad", ["nan-rhs", "nan-beta-x", "inf-beta-y",
                                     "zero-beta", "neg-beta-x"])
    def test_bad_input_raises_solver_diverged(self, bad, closed_bottom):
        grid = Grid(4, 1.0)
        beta_x = np.ones((5, 32))
        beta_y = _close_bottom(np.ones((4, 33)), closed_bottom)
        rhs = np.ones((4, 32))
        if bad == "nan-rhs":
            rhs[2, 5] = np.nan
        elif bad == "nan-beta-x":
            beta_x[2, 5] = np.nan
        elif bad == "inf-beta-y":
            beta_y[1, 5] = np.inf
        elif bad == "zero-beta":
            beta_x[:] = 0.0
            beta_y[:] = 0.0
        else:
            # one strongly negative face makes the matrix indefinite
            beta_x[2, 5] = -10.0
        with pytest.raises(SolverDiverged) as err:
            poisson_solve(grid, beta_x, beta_y, rhs)
        if bad in ("zero-beta", "neg-beta-x"):
            # the banded Cholesky factorization itself reports the failure
            assert "not positive definite" in str(err.value)


def _single_phase_setup(closed_bottom):
    fluid = FluidPair(rho_l=100.0, rho_g=100.0, mu_l=1e-3, mu_g=1e-3,
                      sigma=0.01, g=9.81)
    grid = Grid(8, GEOM.R)
    state = SimState(grid, np.ones((grid.nx, grid.ny)))
    setup = CaseSetup2D(fluid=fluid, geom=GEOM, slip=SlipSpec.navier(1e6),
                        nx=8, t_end=1.0, closed_bottom=closed_bottom)
    return Simulator(setup, state=state), fluid


class TestSinglePhaseMomentum:
    def test_open_column_free_falls_uniformly(self):
        sim, fluid = _single_phase_setup(closed_bottom=False)
        dt = compute_dt(sim.state, fluid)
        sim.step(dt)
        st = sim.state
        assert np.allclose(st.v, -fluid.g * dt, rtol=1e-12)
        assert np.allclose(st.u, 0.0, atol=1e-15)
        assert np.allclose(st.p, 0.0, atol=1e-9)
        # the falling column drains: gas enters through the top ghost
        assert np.all(st.alpha[:, :-1] == 1.0)
        assert st.alpha[:, -1] == pytest.approx(
            1.0 - fluid.g * dt * dt / st.grid.dx, rel=1e-12)

    def test_closed_column_builds_hydrostatic_pressure(self):
        sim, fluid = _single_phase_setup(closed_bottom=True)
        dt = compute_dt(sim.state, fluid)
        sim.step(dt)
        st = sim.state
        assert np.abs(st.v).max() < 1e-12 * fluid.g * dt + 1e-16
        assert np.abs(st.u).max() < 1e-15
        # vertical pressure gradient balances gravity
        dpdy = (st.p[:, 1:] - st.p[:, :-1]) / st.grid.dx
        assert np.allclose(dpdy, -fluid.rho_l * fluid.g, rtol=1e-9)

    @pytest.mark.parametrize("closed_bottom", [False, True],
                             ids=["open", "closed"])
    def test_closed_bottom_face_has_zero_velocity_and_mobility(
            self, closed_bottom):
        sim, fluid = _single_phase_setup(closed_bottom)
        dt = compute_dt(sim.state, fluid)
        _, v_star, beta_x, beta_y = sim._momentum(dt)
        assert np.all(beta_x == 1.0 / fluid.rho_l)
        assert np.all(beta_y[:, 1:] == 1.0 / fluid.rho_l)
        if closed_bottom:
            assert np.all(beta_y[:, 0] == 0.0)
            assert np.all(v_star[:, 0] == 0.0)
        else:
            # the open bottom face falls with the column
            assert np.all(beta_y[:, 0] == 1.0 / fluid.rho_l)
            assert np.all(v_star[:, 0] == pytest.approx(-fluid.g * dt))


def _taylor_green_forcing(nx, U, dt=1e-4):
    """(u_star - u)/dt and (v_star - v)/dt from _momentum on the interior
    faces of a Taylor-Green cell on the half gap, u = U sin(pi x/R)
    cos(pi y/R) and v = -U cos(pi x/R) sin(pi y/R), whose normal flow and
    shear vanish on every boundary.  Returns the forcing, the face
    velocities and each face's coordinate along its velocity (x for u,
    y for v), flattened alike, and the kinematic viscosity."""
    fluid = FluidPair(rho_l=100.0, rho_g=100.0, mu_l=1e-3, mu_g=1e-3,
                      sigma=0.01, g=9.81)
    grid = Grid(nx, GEOM.R)
    # one phase, so the gas ghost row above the top is inert; free slip
    setup = CaseSetup2D(fluid=fluid, geom=GEOM, slip=SlipSpec(1e150), nx=nx,
                        t_end=1.0, gravity_on=False)
    sim = Simulator(setup, state=SimState(grid, np.ones((nx, grid.ny))))
    k, dx = math.pi / GEOM.R, grid.dx
    xu, yu = np.meshgrid(np.arange(nx + 1) * dx,
                         (np.arange(grid.ny) + 0.5) * dx, indexing="ij")
    xv, yv = np.meshgrid((np.arange(nx) + 0.5) * dx,
                         np.arange(grid.ny + 1) * dx, indexing="ij")
    st = sim.state
    st.u[1:-1] = U * (np.sin(k * xu) * np.cos(k * yu))[1:-1]
    st.v[:] = -U * np.cos(k * xv) * np.sin(k * yv)
    u_star, v_star, _, _ = sim._momentum(dt)
    inner_u, inner_v = np.s_[1:-1, :], np.s_[:, 1:-1]

    def faces(on_u, on_v):
        return np.concatenate((on_u[inner_u].ravel(), on_v[inner_v].ravel()))

    return (faces((u_star - st.u) / dt, (v_star - st.v) / dt),
            faces(st.u, st.v), faces(xu, yv), fluid.mu_l / fluid.rho_l)


class TestMomentumTruncationOrder:
    """The momentum's convective and viscous terms converge to the exact
    ones of a Taylor-Green cell at their orders: first for the upwind
    convection, second for the centred viscous stress."""

    def test_orders_on_a_taylor_green_cell(self):
        U, k = 0.01, math.pi / GEOM.R
        conv_err, visc_err = [], []
        for nx in (8, 16, 32):
            force, vel, s, nu = _taylor_green_forcing(nx, U)
            # convection is quadratic in U and viscosity linear, so the
            # forcing at 2U separates them
            conv = -(_taylor_green_forcing(nx, 2.0 * U)[0] - 2.0 * force) / 2.0
            visc = force + conv
            conv_exact = 0.5 * k * U * U * np.sin(2.0 * k * s)
            visc_exact = -2.0 * k * k * nu * vel
            conv_err.append(np.abs(conv - conv_exact).max()
                            / np.abs(conv_exact).max())
            visc_err.append(np.abs(visc - visc_exact).max()
                            / np.abs(visc_exact).max())
        # measured 0.373, 0.194, 0.098 and 1.28e-2, 3.21e-3, 8.03e-4
        conv_order = np.log2(np.array(conv_err[:-1]) / conv_err[1:])
        visc_order = np.log2(np.array(visc_err[:-1]) / visc_err[1:])
        print(f"convection orders {conv_order}, viscosity orders {visc_order}")
        assert np.all(conv_order >= 0.8)
        assert np.all(visc_order >= 1.8)


class TestAdvection:
    def _blob_sim(self):
        grid = Grid(8, 1.0)
        alpha = np.zeros((grid.nx, grid.ny))
        alpha[2:6, 28:32] = 1.0
        state = SimState(grid, alpha)
        fluid = FluidPair(rho_l=1.0, rho_g=0.5, mu_l=1e-3, mu_g=1e-4,
                          sigma=1.0, g=1.0)
        setup = CaseSetup2D(fluid=fluid, geom=Geometry(
            R=1.0, theta_e=math.pi / 4, h0=2.0),
            slip=SlipSpec(), nx=8, t_end=1.0)
        return Simulator(setup, state=state)

    @pytest.mark.parametrize("U, V", [(0.05, -0.3), (-0.05, -0.3),
                                      (0.05, 0.3), (-0.05, 0.3)],
                             ids=["+x-y", "-x-y", "+x+y", "-x+y"])
    def test_uniform_translation_of_square_blob(self, U, V):
        sim = self._blob_sim()
        grid = sim.state.grid
        dt = 0.4 * grid.dx / abs(V)
        n = 12
        sim.state.u[:, :] = U
        sim.state.v[:, :] = V
        # the bottom ghost row is the liquid reservoir: close its face so
        # upward flow moves only the blob
        sim.state.v[:, 0] = 0.0
        a0 = sim.state.alpha.copy()
        v0 = a0.sum()
        ii = np.arange(grid.nx)[:, None]
        jj = np.arange(grid.ny)[None, :]
        x0, y0 = (ii * a0).sum() / v0, (jj * a0).sum() / v0
        for k in range(n):
            sim.diag.n_steps = k
            sim.advect_alpha(dt)
        a1 = sim.state.alpha
        v1 = a1.sum()
        # away from boundaries the fluxes telescope exactly
        assert abs(v1 - v0) / v0 < 1e-13
        x1, y1 = (ii * a1).sum() / v1, (jj * a1).sum() / v1
        assert abs((x1 - x0) - U * dt * n / grid.dx) < 0.02
        assert abs((y1 - y0) - V * dt * n / grid.dx) < 0.02
        assert sim.diag.alpha_overshoot_max < 1e-12
        # translated-square reference: corners round off a little
        ddx, ddy = U * dt * n / grid.dx, V * dt * n / grid.dx
        exact = np.zeros_like(a0)
        for i in range(grid.nx):
            for j in range(grid.ny):
                ox = min(i + 1.0, 6 + ddx) - max(float(i), 2 + ddx)
                oy = min(j + 1.0, 32 + ddy) - max(float(j), 28 + ddy)
                exact[i, j] = max(ox, 0.0) * max(oy, 0.0)
        assert np.abs(a1 - exact).sum() / v0 < 0.25

    def test_wall_faces_carry_no_flux(self):
        # a mixed symmetry column and wall column under a uniform u that
        # was not pinned on the x boundaries
        grid = Grid(8, 1.0)
        ii = np.arange(grid.nx)[:, None]
        jj = np.arange(grid.ny)[None, :]
        alpha = np.clip(2.6 - 0.35 * ii - 0.8 * jj, 0.0, 1.0)
        runs = []
        for pin in (False, True):
            sim = self._blob_sim()
            sim.state.alpha = alpha.copy()
            sim.state.u[:, :] = 0.05
            if pin:
                sim.apply_boundaries()
            sim.advect_alpha(0.4 * grid.dx / 0.05)
            runs.append(sim.state)
        assert not runs[0].u[0].any() and not runs[0].u[-1].any()
        assert np.array_equal(runs[0].alpha, runs[1].alpha)

    def test_cfl_violation_raises(self):
        sim = self._blob_sim()
        sim.state.v[:, :] = -0.3
        with pytest.raises(CourantViolation):
            sim.advect_alpha(dt=10.0 * sim.state.grid.dx / 0.3)

    def test_quiescent_field_is_fixed_point(self):
        sim = self._blob_sim()
        a0 = sim.state.alpha.copy()
        sim.advect_alpha(dt=1e-3)
        assert np.array_equal(sim.state.alpha, a0)


def _reference_sweep(sim, dt, c_flag, axis):
    """The per-face sweep that the slice-based Simulator._sweep replaced:
    donors gathered face by face, a ghost-donor rule, one clip per mixed
    donor.  Kept as the reference the new sweep must match bit for bit."""
    st = sim.state
    h = (st.grid.dx, st.grid.dx)
    h_side = h[1 - axis]
    vel = st.u if axis == 0 else st.v
    A_pad = sim._pad_alpha(st.alpha)
    faces = np.nonzero(vel)
    vf = vel[faces]
    up = vf > 0.0
    w = np.abs(vf) * dt
    donor = [faces[0] + 1, faces[1] + 1]
    donor[axis] = faces[axis] + ~up
    a = A_pad[tuple(donor)]
    ghost = (donor[axis] == 0) | (donor[axis] == A_pad.shape[axis] - 1)
    f = np.where(ghost, w * a, np.where(a >= 1.0 - _MIXED_EPS, w, 0.0))
    mixed = np.flatnonzero(
        ~(ghost | (a <= _MIXED_EPS) | (a >= 1.0 - _MIXED_EPS)))
    for k, i, j, wk, upk in zip(mixed.tolist(), donor[0][mixed].tolist(),
                                donor[1][mixed].tolist(),
                                w[mixed].tolist(), up[mixed].tolist()):
        sten = np.clip(A_pad[i - 1:i + 2, j - 1:j + 2], 0.0, 1.0)
        plane = plic_reconstruct(sten.tolist(), h[0])
        lo, hi = [0.0, 0.0], list(h)
        if upk:
            lo[axis] = h[axis] - wk
        else:
            hi[axis] = wk
        f[k] = plane.slab_area(lo[0], hi[0], lo[1], hi[1]) / h_side
    F = np.zeros(vel.shape)
    F[faces] = np.copysign(f * h_side, vf)
    st.alpha -= np.diff(F, axis=axis) / (h[0] * h[1])
    st.alpha += c_flag * dt * np.diff(vel, axis=axis) / h[axis]
    return float(F.take(0, axis).sum() - F.take(-1, axis).sum())


def _assert_sweeps_match_reference(sim, dt):
    """Both sweep orders from the current field; each sweep (the second
    one sees unclipped fractions) must equal the reference exactly."""
    st = sim.state
    a0 = st.alpha.copy()
    c_flag = (a0 >= 0.5).astype(float)
    for order in ((0, 1), (1, 0)):
        st.alpha = a0.copy()
        for axis in order:
            before = st.alpha.copy()
            got = sim._sweep(dt, c_flag, axis)
            after = st.alpha
            st.alpha = before
            want = _reference_sweep(sim, dt, c_flag, axis)
            assert np.array_equal(after, st.alpha), (order, axis)
            assert got == want, (order, axis)
            st.alpha = after
    st.alpha = a0


def _recorded_rise(steps, every, tau=1.0, **options):
    """(simulator, dt) snapshots of a rise every few hundred steps; nx 8
    and Navier slip R/5 unless the options say otherwise.  Time is counted
    in units of 1/tau s: mu reads mu/tau, sigma and g read /tau^2."""
    fluid, geom = synth_params(1.0, 0.04)
    fluid = dataclasses.replace(fluid, mu_l=fluid.mu_l / tau,
                                mu_g=fluid.mu_g / tau,
                                sigma=fluid.sigma / tau**2, g=fluid.g / tau**2)
    options = {"nx": 8, "slip": SlipSpec.navier(geom.R / 5), **options}
    setup = CaseSetup2D(fluid=fluid, geom=geom, t_end=tau, **options)
    sim = Simulator(setup)
    for k in range(1, steps + 1):
        sim.step(compute_dt(sim.state, fluid))
        if k % every == 0:
            yield sim, compute_dt(sim.state, fluid)


class TestSweepMatchesReference:
    def test_recorded_rise_fields(self):
        n = 0
        for sim, dt in _recorded_rise(1200, 300):
            _assert_sweeps_match_reference(sim, dt)
            n += 1
        assert n == 4

    @pytest.mark.parametrize("layout", [{"closed_bottom": True}],
                             ids=["closed_bottom"])
    def test_other_layouts(self, layout):
        for sim, dt in _recorded_rise(300, 150, **layout):
            _assert_sweeps_match_reference(sim, dt)

    @pytest.mark.parametrize("U, V", [(0.05, -0.3), (-0.05, -0.3),
                                      (0.05, 0.3), (-0.05, 0.3)],
                             ids=["+x-y", "-x-y", "+x+y", "-x+y"])
    def test_blob_on_the_boundaries(self, U, V):
        grid = Grid(8, 1.0)
        ii = np.arange(grid.nx)[:, None]
        jj = np.arange(grid.ny)[None, :]
        # a tilted layer: mixed cells in the symmetry column, the wall
        # column and the bottom row, next to the liquid ghost row
        alpha = np.clip(2.6 - 0.35 * ii - 0.8 * jj, 0.0, 1.0)
        mixed = (alpha > 0.0) & (alpha < 1.0)
        assert mixed[0].any() and mixed[-1].any() and mixed[:, 0].any()
        fluid = FluidPair(rho_l=1.0, rho_g=0.5, mu_l=1e-3, mu_g=1e-4,
                          sigma=1.0, g=1.0)
        setup = CaseSetup2D(fluid=fluid, geom=Geometry(
            R=1.0, theta_e=math.pi / 4, h0=2.0),
            slip=SlipSpec(), nx=8, t_end=1.0)
        sim = Simulator(setup, state=SimState(grid, alpha))
        sim.state.u[:, :] = U
        sim.state.v[:, :] = V
        sim.apply_boundaries()
        dt = 0.4 * grid.dx / abs(V)
        for k in range(6):
            _assert_sweeps_match_reference(sim, dt)
            sim.diag.n_steps = k
            sim.advect_alpha(dt)


def _reference_slice_sweep(sim, dt, c_flag, axis):
    """The slice-based sweep before its donor loop ran over flat face
    indices: numpy lists of the mixed donors' indices, depths and
    directions, and a 0-velocity test on every face.  Unlike
    _reference_sweep it leaves a NaN donor alone."""
    st = sim.state
    h = (st.grid.dx, st.grid.dx)
    h_side = h[1 - axis]
    vel = st.u if axis == 0 else st.v
    A = sim._pad_alpha(st.alpha)
    np.clip(A, 0.0, 1.0, out=A)
    up = vel > 0.0
    w = np.abs(vel) * dt
    if axis == 0:
        a = np.where(up, A[:-1, 1:-1], A[1:, 1:-1])
    else:
        a = np.where(up, A[1:-1, :-1], A[1:-1, 1:])
    f = np.where(a >= 1.0 - _MIXED_EPS, w, 0.0)
    mixed = (w > 0.0) & (a > _MIXED_EPS) & (a < 1.0 - _MIXED_EPS)
    di, dj = (1, 0) if axis == 0 else (0, 1)
    fi, fj = np.nonzero(mixed)
    flux = []
    for i, j, wk, upk in zip((fi + 1).tolist(), (fj + 1).tolist(),
                             w[mixed].tolist(), up[mixed].tolist()):
        lo, hi = [0.0, 0.0], list(h)
        if upk:
            i, j = i - di, j - dj
            lo[axis] = h[axis] - wk
        else:
            hi[axis] = wk
        plane = plic_reconstruct(A[i - 1:i + 2, j - 1:j + 2].tolist(), h[0])
        flux.append(plane.slab_area(lo[0], hi[0], lo[1], hi[1]) / h_side)
    f[mixed] = flux
    F = np.copysign(f * h_side, vel)
    if axis == 0:
        dF, dv = F[1:] - F[:-1], vel[1:] - vel[:-1]
        edges = F[0].sum() - F[-1].sum()
    else:
        dF, dv = F[:, 1:] - F[:, :-1], vel[:, 1:] - vel[:, :-1]
        edges = F[:, 0].sum() - F[:, -1].sum()
    st.alpha -= dF / (h[0] * h[1])
    st.alpha += c_flag * dt * dv / h[axis]
    return float(edges)


def test_sweep_leaves_a_nan_fraction_as_the_reference_does():
    # a NaN donor is neither full nor mixed: no PLIC call, no flux
    fluid, geom = synth_params(1.0, 0.04)
    setup = CaseSetup2D(fluid=fluid, geom=geom, slip=SlipSpec(),
                        nx=8, t_end=1.0)
    sim = Simulator(setup)
    st = sim.state
    st.alpha[3, 16] = np.nan
    st.u[:, :] = 0.01
    st.v[:, :] = -0.02
    sim.apply_boundaries()
    dt = 0.5 * st.grid.dx / 0.02
    c_flag = (st.alpha >= 0.5).astype(float)
    for axis in (0, 1):
        a0 = st.alpha.copy()
        got = sim._sweep(dt, c_flag, axis)
        after, st.alpha = st.alpha, a0
        want = _reference_slice_sweep(sim, dt, c_flag, axis)
        assert _same_bits(after, st.alpha)
        assert float(got).hex() == float(want).hex()
        assert np.isnan(after[3, 16])


def _reference_momentum(sim, dt, A_pad, u_full, v_full, kappa):
    """The momentum update that the one-pass Simulator._momentum replaced:
    every upwind difference and face density formed from its own slices.
    Kept as the reference the new update must match bit for bit."""
    st = sim.state
    fl = sim.setup.fluid
    dx = dy = st.grid.dx
    u, v, alpha = st.u, st.v, st.alpha

    rho_pad = fl.rho_g + (fl.rho_l - fl.rho_g) * A_pad
    mu_pad = fl.mu_g + (fl.mu_l - fl.mu_g) * A_pad

    dudy_n = (u_full[:, 1:] - u_full[:, :-1]) / dy
    dvdx_n = (v_full[1:, 1:-1] - v_full[:-1, 1:-1]) / dx
    mu_n = 4.0 / (1.0 / mu_pad[:-1, :-1] + 1.0 / mu_pad[1:, :-1]
                  + 1.0 / mu_pad[:-1, 1:] + 1.0 / mu_pad[1:, 1:])
    txy = mu_n * (dudy_n + dvdx_n)

    uc = u[1:-1, :]
    dudx_b = (u[1:-1, :] - u[:-2, :]) / dx
    dudx_f = (u[2:, :] - u[1:-1, :]) / dx
    vbar = 0.25 * (v[:-1, :-1] + v[1:, :-1] + v[:-1, 1:] + v[1:, 1:])
    dudy_b = (u_full[1:-1, 1:-1] - u_full[1:-1, :-2]) / dy
    dudy_f = (u_full[1:-1, 2:] - u_full[1:-1, 1:-1]) / dy
    adv_u = (uc * np.where(uc > 0.0, dudx_b, dudx_f)
             + vbar * np.where(vbar > 0.0, dudy_b, dudy_f))

    mu_c = mu_pad[1:-1, 1:-1]
    txx = 2.0 * mu_c * (u[1:, :] - u[:-1, :]) / dx
    visc_u = ((txx[1:, :] - txx[:-1, :]) / dx
              + (txy[1:-1, 1:] - txy[1:-1, :-1]) / dy)

    kappa_u = 0.5 * (kappa[:-1] + kappa[1:])
    f_u = -fl.sigma * kappa_u[:, None] * (alpha[1:, :] - alpha[:-1, :]) / dx

    rho_u = 0.5 * (rho_pad[1:-2, 1:-1] + rho_pad[2:-1, 1:-1])
    u_star = u.copy()
    u_star[1:-1, :] = uc + dt * (-adv_u + (visc_u + f_u) / rho_u)

    vc = v
    ubar = 0.25 * (u_full[:-1, :-1] + u_full[1:, :-1]
                   + u_full[:-1, 1:] + u_full[1:, 1:])
    dvdx_b = (v_full[1:-1, 1:-1] - v_full[:-2, 1:-1]) / dx
    dvdx_f = (v_full[2:, 1:-1] - v_full[1:-1, 1:-1]) / dx
    dvdy_b = (v_full[1:-1, 1:-1] - v_full[1:-1, :-2]) / dy
    dvdy_f = (v_full[1:-1, 2:] - v_full[1:-1, 1:-1]) / dy
    adv_v = (ubar * np.where(ubar > 0.0, dvdx_b, dvdx_f)
             + vc * np.where(vc > 0.0, dvdy_b, dvdy_f))

    tyy = 2.0 * mu_pad[1:-1, :] * (v_full[1:-1, 1:] - v_full[1:-1, :-1]) / dy
    visc_v = ((tyy[:, 1:] - tyy[:, :-1]) / dy
              + (txy[1:, :] - txy[:-1, :]) / dx)

    f_v = -fl.sigma * kappa[:, None] * (A_pad[1:-1, 1:] - A_pad[1:-1, :-1]) / dy

    rho_v = 0.5 * (rho_pad[1:-1, :-1] + rho_pad[1:-1, 1:])
    g_acc = -fl.g if sim.setup.gravity_on else 0.0
    v_star = vc + dt * (-adv_v + (visc_v + f_v) / rho_v + g_acc)
    if sim.setup.closed_bottom:
        v_star[:, 0] = 0.0
    return u_star, v_star, rho_pad


def _reference_project(sim, dt, u_star, v_star, rho_pad):
    """The projection that Simulator._project replaced: mobilities from
    rho_pad, corrections on copies of u_star and v_star."""
    st = sim.state
    dx = dy = st.grid.dx

    beta_x = 1.0 / (0.5 * (rho_pad[:-1, 1:-1] + rho_pad[1:, 1:-1]))
    beta_y = 1.0 / (0.5 * (rho_pad[1:-1, :-1] + rho_pad[1:-1, 1:]))

    div_star = ((u_star[1:, :] - u_star[:-1, :]) / dx
                + (v_star[:, 1:] - v_star[:, :-1]) / dy)

    p = _reference_poisson_solve(st.grid, beta_x, beta_y, div_star / dt,
                                 closed_bottom=sim.setup.closed_bottom)

    u_new = u_star.copy()
    u_new[1:-1, :] -= dt * beta_x[1:-1, :] * (p[1:, :] - p[:-1, :]) / dx
    v_new = v_star.copy()
    v_new[:, 1:-1] -= dt * beta_y[:, 1:-1] * (p[:, 1:] - p[:, :-1]) / dy
    if sim.setup.closed_bottom:
        v_new[:, 0] = 0.0
    else:
        v_new[:, 0] -= dt * beta_y[:, 0] * 2.0 * p[:, 0] / dy
    v_new[:, -1] += dt * beta_y[:, -1] * 2.0 * p[:, -1] / dy

    div_new = ((u_new[1:, :] - u_new[:-1, :]) / dx
               + (v_new[:, 1:] - v_new[:, :-1]) / dy)
    div_inf = float(np.abs(div_new).max())
    before = float(np.abs(div_star).max())
    return u_new, v_new, p, div_inf * dt, div_inf / before


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_step_matches_reference(sim, dt):
    """_momentum and _project from the current fields must equal the
    reference bit for bit, and so must the divergence diagnostics."""
    st = sim.state
    fields = (sim._pad_alpha(st.alpha), sim._u_full(), sim._v_full(),
              curvature_height_function(st.alpha, st.grid.dx,
                                        sim.setup.geom.theta_e))
    ref_u_star, ref_v_star, rho_pad = _reference_momentum(sim, dt, *fields)
    u_star, v_star, beta_x, beta_y = sim._momentum(dt)
    assert _same_bits(u_star, ref_u_star)
    assert _same_bits(v_star, ref_v_star)

    ref_u, ref_v, ref_p, ref_div_step, ref_div_reduction = _reference_project(
        sim, dt, ref_u_star, ref_v_star, rho_pad)
    diag = sim.diag
    sim.diag = RunDiagnostics()
    try:
        u, v, p = sim._project(dt, u_star, v_star, beta_x, beta_y)
        assert _same_bits(p, ref_p)
        assert _same_bits(u, ref_u)
        assert _same_bits(v, ref_v)
        assert sim.diag.div_step_rel_max == ref_div_step
        assert sim.diag.div_reduction_max == ref_div_reduction
    finally:
        sim.diag = diag


class TestStepMatchesReference:
    def test_recorded_rise_fields(self):
        n = 0
        for sim, dt in _recorded_rise(1200, 300):
            _assert_step_matches_reference(sim, dt)
            n += 1
        assert n == 4

    @pytest.mark.parametrize(
        "options",
        [{"slip": SlipSpec()},
         {"closed_bottom": True, "gravity_on": False}, {"nx": 4},
         {"nx": 16}],
        ids=["numerical_slip", "closed_bottom_no_gravity",
             "nx4", "nx16"])
    def test_other_cases(self, options):
        n = 0
        for sim, dt in _recorded_rise(300, 150, **options):
            _assert_step_matches_reference(sim, dt)
            n += 1
        assert n == 2


def _pinned_faces(st, closed_bottom):
    faces = [st.u[0], st.u[-1]] + ([st.v[:, 0]] if closed_bottom else [])
    return all(_same_bits(f, np.zeros_like(f)) for f in faces)


class TestBoundaryPins:
    """A step does not re-pin: __init__ pins the state it is given, and
    momentum and projection leave the wall u faces and a closed bottom's
    v faces at +0.0."""

    @pytest.mark.parametrize(
        "options", [{}, {"closed_bottom": True, "gravity_on": False}],
        ids=["open_navier", "closed_bottom_no_gravity"])
    def test_every_step_keeps_the_pins(self, options):
        fluid, geom = synth_params(1.0, 0.04)
        setup = CaseSetup2D(fluid=fluid, geom=geom, nx=8, t_end=1.0,
                            slip=SlipSpec.navier(geom.R / 5), **options)
        sim = Simulator(setup)
        st, closed = sim.state, setup.closed_bottom
        # seen where advect_alpha, which pins again, takes the fields over
        projected = []
        advect = sim.advect_alpha

        def checked_advect(dt):
            projected.append(_pinned_faces(st, closed))
            advect(dt)

        sim.advect_alpha = checked_advect
        for _ in range(300):
            sim.step(compute_dt(st, fluid))
            assert _pinned_faces(st, closed)
        assert len(projected) == 300 and all(projected)

    def test_init_pins_the_state_it_is_given(self):
        fluid, geom = synth_params(1.0, 0.04)
        state = init_case(geom, 8)
        state.u[:] = 0.05
        state.v[:] = -0.02
        sim = Simulator(CaseSetup2D(fluid=fluid, geom=geom, nx=8, t_end=1.0,
                                    slip=SlipSpec(),
                                    closed_bottom=True), state=state)
        assert sim.state is state and _pinned_faces(state, True)
        assert np.all(state.u[1:-1] == 0.05)
        assert np.all(state.v[:, 1:] == -0.02)


class TestProjectionResidual:
    """_project checks the divergence it leaves, which is dt times the
    pressure solve's residual, against _POISSON_TOL times the one before."""

    @pytest.mark.parametrize("scale, refused, tau", [
        (1e-6, True, 1.0), (1e-9, False, 1.0),
        (1e-6, True, 2.0**20), (1e-9, False, 2.0**20),
    ], ids=["1e-6", "1e-9", "1e-6-tau=2^20", "1e-9-tau=2^20"])
    def test_inaccurate_pressure_is_refused(self, monkeypatch, scale,
                                            refused, tau):
        # p scaled by 1 + scale leaves about scale times the divergence, in
        # any time unit: an absolute floor in s or 1/s would let it through
        # in one of them
        sim, dt = next(_recorded_rise(100, 100, tau=tau))
        fields = sim._momentum(dt)
        exact = solver.poisson_solve
        monkeypatch.setattr(solver, "poisson_solve",
                            lambda *a, **k: exact(*a, **k) * (1.0 + scale))
        if refused:
            with pytest.raises(SolverDiverged, match="residual"):
                sim._project(dt, *fields)
        else:
            sim._project(dt, *fields)
            assert sim.diag.div_reduction_max <= solver._POISSON_TOL

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_residual_raises_solver_diverged(self):
        # an infinite mobility on a Dirichlet bottom face: the solve yields
        # a finite p, the corrected face a NaN divergence, and the residual
        # check must not let that through
        sim, dt = next(_recorded_rise(100, 100))
        u_star, v_star, beta_x, beta_y = sim._momentum(dt)
        beta_y[1, 0] = np.inf
        with pytest.raises(SolverDiverged, match="residual"):
            sim._project(dt, u_star, v_star, beta_x, beta_y)


class TestTracerHook:
    def test_one_plic_call_per_mixed_donor(self, monkeypatch):
        fluid, geom = synth_params(1.0, 0.04)
        setup = CaseSetup2D(fluid=fluid, geom=geom,
                            slip=SlipSpec.navier(geom.R / 5), nx=8, t_end=1.0)
        sim = Simulator(setup)
        calls = []
        seen = []
        plic = solver.plic_reconstruct
        sweep = Simulator._sweep

        def counting_plic(*args):
            calls.append(args)
            return plic(*args)

        def recording_sweep(self, dt, c_flag, axis):
            seen.append((sim._pad_alpha(self.state.alpha), axis, dt))
            return sweep(self, dt, c_flag, axis)

        monkeypatch.setattr(solver, "plic_reconstruct", counting_plic)
        monkeypatch.setattr(Simulator, "_sweep", recording_sweep)
        sim.step(compute_dt(sim.state, fluid))
        # face by face: a moving face whose upwind cell is mixed
        expected = 0
        for A, axis, dt in seen:
            vel = sim.state.u if axis == 0 else sim.state.v
            for i in range(vel.shape[0]):
                for j in range(vel.shape[1]):
                    w = abs(float(vel[i, j])) * dt
                    donor = [i + 1, j + 1]
                    if vel[i, j] > 0.0:
                        donor[axis] -= 1
                    a = float(A[donor[0], donor[1]])
                    if w > 0.0 and _MIXED_EPS < a < 1.0 - _MIXED_EPS:
                        expected += 1
        assert len(seen) == 2
        assert expected > 0
        assert len(calls) == expected

    def test_tracer_targets_install_and_restore(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        originals = [owner.__dict__[attr]
                     for owner, attr, _, _ in tracing.TARGETS]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for (owner, attr, _, _), fn in zip(tracing.TARGETS, originals):
                assert owner.__dict__[attr] is not fn
                assert owner.__dict__[attr].__wrapped__ is fn
        finally:
            tracer.restore()
        for (owner, attr, _, _), fn in zip(tracing.TARGETS, originals):
            assert owner.__dict__[attr] is fn


# ----------------------------------------------------------------------
# The interface scans, the time step, the pressure band, the PLIC donor
# and the clip bookkeeping as they were before they moved to plain floats
# and fewer numpy calls.  Kept as the references the rewrites must match
# bit for bit, error messages included.

def _reference_interface_cell(col):
    idx = np.where(col >= 0.5)[0]
    if idx.size == 0:
        raise StencilInvalid("column holds no interface cell")
    return int(idx[-1])


def _reference_column_height(col, j_center, dy, half):
    j_lo = j_center - half
    j_hi = j_center + half
    if j_lo < 0 or j_hi >= col.size:
        raise StencilInvalid("height window leaves the domain")
    if col[j_lo] < 1.0 - ALPHA_EPS:
        raise StencilInvalid("window bottom is not pure liquid")
    if col[j_hi] > ALPHA_EPS:
        raise StencilInvalid("window top is not pure gas")
    return (j_lo + float(col[j_lo:j_hi + 1].sum())) * dy


def _reference_curvature(alpha, dx, dy, theta):
    nx = alpha.shape[0]
    h = np.empty(nx + 2)
    for i in range(nx):
        col = alpha[i, :]
        jc = _reference_interface_cell(col)
        try:
            h[i + 1] = _reference_column_height(col, jc, dy, half=3)
        except StencilInvalid:
            h[i + 1] = _reference_column_height(col, jc, dy, half=4)
    h[0] = h[1]
    h[nx + 1] = contact_angle_ghost(h[nx], dx, theta)
    hp = (h[2:] - h[:-2]) / (2.0 * dx)
    hpp = (h[2:] - 2.0 * h[1:-1] + h[:-2]) / (dx * dx)
    return hpp / (1.0 + hp * hp) ** 1.5


def _reference_check_single_valued(col):
    partial = np.where((col > ALPHA_EPS) & (col < 1.0 - ALPHA_EPS))[0]
    if partial.size:
        lo, hi = partial[0], partial[-1]
        if hi - lo + 1 != partial.size:
            raise MultiValuedColumn("partial cells are not contiguous")
        if np.any(col[:lo] < 1.0 - ALPHA_EPS):
            raise MultiValuedColumn("gas below the interface band")
        if np.any(col[hi + 1:] > ALPHA_EPS):
            raise MultiValuedColumn("liquid above the interface band")
        return
    full = col > 0.5
    if full.any() and not full.all():
        top = int(np.max(np.where(full)[0]))
        if not full[:top + 1].all():
            raise MultiValuedColumn("detached liquid in column")


def _reference_apex_height(state):
    grid = state.grid
    cols = [state.alpha[0, :]]
    heights = []
    for col in cols:
        _reference_check_single_valued(col)
        heights.append(float(col.sum()) * grid.dx)
    return sum(heights) / len(heights)


def _reference_compute_dt(state, fluid):
    u_max = max(float(np.abs(state.u).max()), float(np.abs(state.v).max()))
    lim = timestep_limits(fluid, state.grid.dx)
    dt_u = state.grid.dx / u_max if u_max > 0.0 else math.inf
    return 0.9 * min(lim.dt_sigma_solver, lim.dt_mu, dt_u)


def _reference_poisson_solve(grid, beta_x, beta_y, rhs, *,
                             closed_bottom=False):
    from scipy.linalg.blas import dnrm2, dsbmv
    from scipy.linalg.lapack import dpbsv

    nx, ny = grid.nx, grid.ny
    cx = beta_x[1:-1, :] / grid.dx ** 2
    cy = beta_y[:, 1:-1] / grid.dx ** 2
    diag = np.zeros((nx, ny))
    diag[1:, :] += cx
    diag[:-1, :] += cx
    diag[:, 1:] += cy
    diag[:, :-1] += cy
    if not closed_bottom:
        diag[:, 0] += 2.0 * beta_y[:, 0] / grid.dx ** 2
    diag[:, -1] += 2.0 * beta_y[:, -1] / grid.dx ** 2
    b = -np.asarray(rhs, dtype=float)
    band = np.zeros((nx + 1, nx, ny), order="F")
    band[0] = diag
    band[1, :-1, :] = -cx
    band[nx, :, :-1] = -cy
    ab = band.reshape((nx + 1, nx * ny), order="F")
    bf = b.flatten("F")
    _, p_vec, info = dpbsv(ab.copy(order="F"), bf, lower=1, overwrite_ab=1)
    assert info == 0
    assert np.all(np.isfinite(p_vec))
    res_norm = dnrm2(dsbmv(nx, 1.0, ab, p_vec, beta=-1.0, y=bf, lower=1))
    assert res_norm / max(dnrm2(bf), 1e-300) <= solver._POISSON_TOL
    return p_vec.reshape((nx, ny), order="F")


_REF_EPS_NORMAL = 1e-14


def _reference_area_pos(n1, n2, d, dx, dy):
    if n1 <= _REF_EPS_NORMAL and n2 <= _REF_EPS_NORMAL:
        return dx * dy if d >= 0.0 else 0.0
    if n1 <= _REF_EPS_NORMAL:
        return dx * min(max(d / n2, 0.0), dy)
    if n2 <= _REF_EPS_NORMAL:
        return min(max(d / n1, 0.0), dx) * dy
    dmax = n1 * dx + n2 * dy
    dc = min(max(d, 0.0), dmax)
    t1 = max(dc - n1 * dx, 0.0)
    t2 = max(dc - n2 * dy, 0.0)
    return (dc * dc - t1 * t1 - t2 * t2) / (2.0 * n1 * n2)


def _reference_offset(normal, area, dx, dy):
    n1, n2 = normal
    a1, a2 = abs(n1), abs(n2)
    if a1 <= _REF_EPS_NORMAL:
        d = a2 * (area / dx)
    elif a2 <= _REF_EPS_NORMAL:
        d = a1 * (area / dy)
    else:
        cell = dx * dy
        d_lo = min(a1 * dx, a2 * dy)
        a_corner = d_lo * d_lo / (2.0 * a1 * a2)
        if area <= a_corner:
            d = math.sqrt(2.0 * a1 * a2 * area)
        elif area >= cell - a_corner:
            d = a1 * dx + a2 * dy - math.sqrt(2.0 * a1 * a2 * (cell - area))
        elif a1 * dx <= a2 * dy:
            d = 0.5 * (2.0 * a2 * area / dx + a1 * dx)
        else:
            d = 0.5 * (2.0 * a1 * area / dy + a2 * dy)
    if n1 < 0.0:
        d = d + n1 * dx
    if n2 < 0.0:
        d = d + n2 * dy
    return d


def _reference_youngs_normal(a, dx, dy):
    gx = (a[2][0] + 2.0 * a[2][1] + a[2][2]
          - a[0][0] - 2.0 * a[0][1] - a[0][2]) / (8.0 * dx)
    gy = (a[0][2] + 2.0 * a[1][2] + a[2][2]
          - a[0][0] - 2.0 * a[1][0] - a[2][0]) / (8.0 * dy)
    norm = math.hypot(gx, gy)
    if norm < _REF_EPS_NORMAL:
        return (0.0, 1.0)
    return (-gx / norm, -gy / norm)


def _reference_plane(alpha3x3, dx, dy):
    """(normal, offset) of the parent's plic_reconstruct."""
    n = _reference_youngs_normal(alpha3x3, dx, dy)
    return n, _reference_offset(n, alpha3x3[1][1] * dx * dy, dx, dy)


def _reference_cell_area(normal, d, dx, dy):
    n1, n2 = normal
    if n1 < 0.0:
        d = d - n1 * dx
        n1 = -n1
    if n2 < 0.0:
        d = d - n2 * dy
        n2 = -n2
    return _reference_area_pos(n1, n2, d, dx, dy)


def _reference_slab_area(normal, offset, x0, x1, y0, y1):
    if x1 <= x0 or y1 <= y0:
        return 0.0
    n1, n2 = normal
    d = offset - n1 * x0 - n2 * y0
    return _reference_cell_area(normal, d, x1 - x0, y1 - y0)


def _reference_advect_alpha(sim, dt):
    """The parent's advect_alpha: the same sweeps, a clip on every step."""
    sim.apply_boundaries()
    st = sim.state
    dx = dy = st.grid.dx
    cell = dx * dy
    cfl = max(float(np.abs(st.u).max()) * dt / dx,
              float(np.abs(st.v).max()) * dt / dy)
    sim.diag.cfl_max = max(sim.diag.cfl_max, cfl)
    vol_before = st.alpha.sum() * cell
    c_flag = (st.alpha >= 0.5).astype(float)
    influx = 0.0
    for axis in (0, 1) if sim.diag.n_steps % 2 == 0 else (1, 0):
        influx += sim._sweep(dt, c_flag, axis)
    sim._boundary_influx += influx
    vol_after = st.alpha.sum() * cell
    balance = abs(vol_after - vol_before - influx) / max(vol_before, cell)
    sim.diag.vol_balance_rel_max = max(sim.diag.vol_balance_rel_max, balance)
    over = max(float(st.alpha.max()) - 1.0, -float(st.alpha.min()), 0.0)
    sim.diag.alpha_overshoot_max = max(sim.diag.alpha_overshoot_max, over)
    clipped = np.clip(st.alpha, 0.0, 1.0)
    sim.diag.clipped_area_total += float(
        np.abs(st.alpha - clipped).sum()) * cell
    st.alpha = clipped


def _bits(x):
    """A float's exact bits, so that 0.0 and -0.0 differ."""
    return float(x).hex()


def _poisson_inputs(sim, dt):
    """beta_x, beta_y and the right-hand side that _project hands to
    poisson_solve from the current fields."""
    dx = sim.state.grid.dx
    u_star, v_star, beta_x, beta_y = sim._momentum(dt)
    div_star = ((u_star[1:, :] - u_star[:-1, :]) / dx
                + (v_star[:, 1:] - v_star[:, :-1]) / dx)
    return beta_x, beta_y, div_star / dt


def _assert_scans_match_reference(sim, dt):
    st, setup = sim.state, sim.setup
    dx, theta = st.grid.dx, setup.geom.theta_e
    assert _same_bits(curvature_height_function(st.alpha, dx, theta),
                      _reference_curvature(st.alpha, dx, dx, theta))
    assert _bits(apex_height(st)) == _bits(_reference_apex_height(st))
    assert _bits(compute_dt(st, setup.fluid)) == \
        _bits(_reference_compute_dt(st, setup.fluid))
    beta_x, beta_y, rhs = _poisson_inputs(sim, dt)
    for closed_bottom in (False, True):
        assert _same_bits(
            poisson_solve(st.grid, beta_x,
                          _close_bottom(beta_y.copy(), closed_bottom), rhs),
            _reference_poisson_solve(st.grid, beta_x, beta_y, rhs,
                                     closed_bottom=closed_bottom))


def _assert_advect_matches_reference(sim, dt):
    """advect_alpha from the current fields against the parent's
    bookkeeping: fractions, diagnostics and boundary influx."""
    st = sim.state
    saved = (st.alpha.copy(), st.u.copy(), st.v.copy(), sim.diag,
             sim._boundary_influx)
    runs = []
    for advect in (Simulator.advect_alpha, _reference_advect_alpha):
        st.alpha, st.u, st.v = (a.copy() for a in saved[:3])
        sim.diag = RunDiagnostics(**vars(saved[3]))
        sim._boundary_influx = saved[4]
        advect(sim, dt)
        runs.append((st.alpha, dataclasses.asdict(sim.diag),
                     sim._boundary_influx))
    (alpha, diag, influx), (ref_alpha, ref_diag, ref_influx) = runs
    assert _same_bits(alpha, ref_alpha)
    assert {k: _bits(x) for k, x in diag.items()} == \
        {k: _bits(x) for k, x in ref_diag.items()}
    assert _bits(influx) == _bits(ref_influx)
    st.alpha, st.u, st.v, sim.diag, sim._boundary_influx = saved


class TestScansMatchReference:
    def test_recorded_rise_fields(self):
        n = 0
        for sim, dt in _recorded_rise(1200, 300):
            _assert_scans_match_reference(sim, dt)
            _assert_advect_matches_reference(sim, dt)
            n += 1
        assert n == 4

    @pytest.mark.parametrize(
        "options",
        [{"slip": SlipSpec()},
         {"closed_bottom": True, "gravity_on": False}, {"nx": 4},
         {"nx": 16}],
        ids=["numerical_slip", "closed_bottom_no_gravity",
             "nx4", "nx16"])
    def test_other_cases(self, options):
        n = 0
        for sim, dt in _recorded_rise(300, 150, **options):
            _assert_scans_match_reference(sim, dt)
            _assert_advect_matches_reference(sim, dt)
            n += 1
        assert n == 2

    @pytest.mark.parametrize("omega, sigma", [(0.1, 0.2), (1.0, 0.04),
                                              (10.0, 0.01), (100.0, 0.001)])
    def test_compute_dt_every_binding_limit(self, omega, sigma):
        # capillary-bound (omega <= 1), viscous-bound (10, 100) and, with
        # fast enough flow, convective-bound steps, at three meshes
        fluid, geom = synth_params(omega, sigma)
        rng = np.random.default_rng(5)
        for nx in (4, 8, 16):
            state = init_case(geom, nx)
            for scale in (0.0, 1e-3, 1e3):
                state.u[:] = scale * rng.standard_normal(state.u.shape)
                state.v[:] = scale * rng.standard_normal(state.v.shape)
                assert _bits(compute_dt(state, fluid)) == \
                    _bits(_reference_compute_dt(state, fluid))

    @pytest.mark.parametrize(
        "options",
        [{}, {"slip": SlipSpec(), "nx": 4, "t_end": 0.1},
         {"closed_bottom": True, "gravity_on": False}],
        ids=["navier_nx8", "numerical_nx4", "closed_bottom_no_gravity"])
    def test_run_steps_at_compute_dt(self, options):
        # every step is compute_dt of the fields it starts from
        fluid, geom = synth_params(1.0, 0.04)
        setup = CaseSetup2D(fluid=fluid, geom=geom, **{
            "t_end": 0.05, "nx": 8, "slip": SlipSpec.navier(geom.R / 5),
            **options})

        class Recording(Simulator):
            def step(self, dt):
                self.dts.append(dt)
                super().step(dt)

        sim = Recording(setup)
        sim.dts = []
        sim.run()
        ref = Simulator(setup)
        ref_dts = []
        while ref.state.t < setup.t_end * (1.0 - 1e-12):
            ref_dts.append(min(_reference_compute_dt(ref.state, fluid),
                               setup.t_end - ref.state.t))
            ref.step(ref_dts[-1])
        assert len(sim.dts) > 50
        assert [_bits(d) for d in sim.dts] == [_bits(d) for d in ref_dts]
        for name in ("alpha", "u", "v", "p"):
            assert _same_bits(getattr(sim.state, name),
                              getattr(ref.state, name))

    def test_run_calls_compute_dt_once_a_step(self, monkeypatch):
        # run() looks compute_dt up on the module, as a tracer wraps it
        fluid, geom = synth_params(1.0, 0.04)
        setup = CaseSetup2D(fluid=fluid, geom=geom, t_end=0.02, nx=4,
                            slip=SlipSpec())
        calls = []

        def counting(state, fluid):
            calls.append(state.t)
            return compute_dt(state, fluid)

        monkeypatch.setattr(solver, "compute_dt", counting)
        _, diag = Simulator(setup).run()
        assert diag.n_steps > 10
        assert len(calls) == diag.n_steps

    def test_advect_with_overshoot_clips_as_before(self):
        # a tilted layer moved at half the CFL limit overshoots [0, 1],
        # so the clip runs and its area is booked
        grid = Grid(8, 1.0)
        ii = np.arange(grid.nx)[:, None]
        jj = np.arange(grid.ny)[None, :]
        alpha = np.clip(12.6 - 0.35 * ii - 0.8 * jj, 0.0, 1.0)
        fluid = FluidPair(rho_l=1.0, rho_g=0.5, mu_l=1e-3, mu_g=1e-4,
                          sigma=1.0, g=1.0)
        setup = CaseSetup2D(fluid=fluid, geom=Geometry(
            R=1.0, theta_e=math.pi / 4, h0=2.0),
            slip=SlipSpec(), nx=8, t_end=1.0)
        sim = Simulator(setup, state=SimState(grid, alpha))
        rng = np.random.default_rng(3)
        sim.state.u[:, :] = rng.uniform(-0.3, 0.3, sim.state.u.shape)
        sim.state.v[:, :] = rng.uniform(-0.3, 0.3, sim.state.v.shape)
        dt = 0.5 * grid.dx / 0.3
        clipped = 0
        for k in range(6):
            sim.diag.n_steps = k
            _assert_advect_matches_reference(sim, dt)
            before = sim.diag.clipped_area_total
            sim.advect_alpha(dt)
            clipped += sim.diag.clipped_area_total > before
        assert clipped > 0


def _random_stencils(rng, n):
    """3x3 fraction stencils with a mixed centre: random, uniform (the
    degenerate normal), x- or y-only gradients (axis-aligned normals)
    and neighbours drawn from {0, 1, centre}."""
    for k in range(n):
        c = float(rng.uniform(1e-9, 1.0 - 1e-9))
        kind = k % 5
        if kind == 0:
            s = rng.uniform(0.0, 1.0, (3, 3))
        elif kind == 1:
            s = np.full((3, 3), c)
        elif kind == 2:
            s = np.repeat(rng.uniform(0.0, 1.0, (1, 3)), 3, axis=0)
        elif kind == 3:
            s = np.repeat(rng.uniform(0.0, 1.0, (3, 1)), 3, axis=1)
        else:
            s = rng.choice([0.0, 1.0, c], (3, 3))
        s[1, 1] = c
        yield s.tolist()


def _slabs(rng, hx, hy):
    """Sub-rectangles a donor cuts: x and y slabs on either side, full
    and zero depth, and one inverted (empty) slab."""
    w = float(rng.uniform(0.0, 1.0))
    for depth_x, depth_y in ((w * hx, w * hy), (hx, hy), (0.0, 0.0)):
        yield (hx - depth_x, hx, 0.0, hy)
        yield (0.0, depth_x, 0.0, hy)
        yield (0.0, hx, hy - depth_y, hy)
        yield (0.0, hx, 0.0, depth_y)
    yield (0.5 * hx, 0.25 * hx, 0.0, hy)


class TestPlicMatchesReference:
    def test_random_stencils(self):
        rng = np.random.default_rng(2024)
        n = 0
        for sten in _random_stencils(rng, 12000):
            hx = float(rng.choice([1.0, 6.25e-4, rng.uniform(0.1, 2.0)]))
            plane = plic_reconstruct(sten, hx)
            normal, offset = _reference_plane(sten, hx, hx)
            assert type(plane) is PlicPlane
            assert plane == (normal, offset)
            assert _bits(plane.offset) == _bits(offset)
            for slab in _slabs(rng, hx, hx):
                assert _bits(plane.slab_area(*slab)) == \
                    _bits(_reference_slab_area(normal, offset, *slab))
            n += 1
        assert n == 12000

    def test_signed_zero_depths(self):
        # depths that come out as -0.0 or 0.0 exactly, through every
        # branch of the clipped area, reflections included; the slab is
        # the whole cell
        for n in ((0.0, 1.0), (-0.0, 1.0), (0.0, -1.0), (1.0, 0.0),
                  (1.0, -0.0), (-1.0, 0.0), (0.6, 0.8), (-0.6, 0.8),
                  (0.0, 0.0), (-0.0, -0.0)):
            for d in (-0.0, 0.0, -1.0, 0.3, 2.0, 0.6 * 0.5, -0.6 * 0.5):
                for dx, dy in ((1.0, 1.0), (0.5, 0.25)):
                    slab = (0.0, dx, 0.0, dy)
                    assert _bits(PlicPlane(n, d).slab_area(*slab)) \
                        == _bits(_reference_slab_area(n, d, *slab)), \
                        (n, d, dx, dy)

    def test_axis_aligned_and_degenerate_normals_are_covered(self):
        rng = np.random.default_rng(2024)
        normals = {youngs_normal(s, 1.0)
                   for s in _random_stencils(rng, 50)}
        assert (0.0, 1.0) in normals
        assert any(n1 == 0.0 and n2 != 0.0 for n1, n2 in normals)
        assert any(n2 == 0.0 and n1 != 0.0 for n1, n2 in normals)


def _outcome(fn, *args, **kwargs):
    """The exact bits of what fn returns, or the type and message of what
    it raised."""
    try:
        value = fn(*args, **kwargs)
    except (StencilInvalid, MultiValuedColumn) as exc:
        return type(exc), str(exc)
    if isinstance(value, np.ndarray):
        return value.shape, value.tobytes()
    return value if isinstance(value, int) else _bits(value)


# columns of 20 cells, interface near row 10 unless the case moves it
_SHARP = [1.0] * 10 + [0.4] + [0.0] * 9
_STENCIL_COLUMNS = {
    "sharp": _SHARP,
    "no_interface": [0.3] * 5 + [0.0] * 15,
    "leaves_bottom": [1.0, 0.6] + [0.0] * 18,
    "leaves_top": [1.0] * 18 + [0.6, 0.0],
    "bottom_not_liquid": [0.5] * 3 + [0.99] * 7 + [0.4] + [0.0] * 9,
    "top_not_gas": [1.0] * 10 + [0.4] + [1e-6] * 9,
    # the 7-cell window fails, the 9-cell one brackets the interface
    "widened": [1.0] * 7 + [0.9, 0.8, 0.7, 0.5, 0.2] + [0.0] * 8,
    # and with a 0.95 at the 9-cell window's bottom neither does
    "widened_fails": [1.0] * 6 + [0.95, 0.9, 0.8, 0.7, 0.5, 0.2] + [0.0] * 8,
    "widened_leaves_top": [1.0] * 12 + [0.9, 0.8, 0.7, 0.5, 0.2] + [0.0] * 3,
    "nan_window": [1.0] * 7 + [np.nan] + [1.0] * 2 + [0.4] + [0.0] * 9,
    "nan_top_no_interface": [0.3] * 5 + [0.0] * 14 + [np.nan],
}
_COLUMN_SCAN_CASES = {
    "pure_liquid": [1.0] * 20,
    "pure_gas": [0.0] * 20,
    "band": [1.0] * 9 + [0.7, 0.2] + [0.0] * 9,
    "not_contiguous": [1.0] * 9 + [0.7, 0.0, 0.2] + [0.0] * 8,
    "gas_below": [1.0] * 5 + [0.0] + [1.0] * 3 + [0.5] + [0.0] * 10,
    "liquid_above": [1.0] * 9 + [0.5] + [0.0] * 5 + [1.0] + [0.0] * 4,
    "detached": [1.0] * 5 + [0.0] * 5 + [1.0] * 2 + [0.0] * 8,
    "nan_partial": [1.0] * 9 + [np.nan, 0.3] + [0.0] * 9,
    "nan_below": [1.0] * 4 + [np.nan] + [1.0] * 4 + [0.3] + [0.0] * 10,
    "nan_pure": [1.0] * 9 + [np.nan] + [0.0] * 10,
    "eps_edges": ([1.0] * 8 + [1.0 - ALPHA_EPS, 0.5, ALPHA_EPS]
                  + [0.0] * 9),
}


class TestScanMessagesMatchReference:
    @pytest.mark.parametrize("case", sorted(_STENCIL_COLUMNS))
    def test_interface_cell_and_column_height(self, case):
        col = np.array(_STENCIL_COLUMNS[case])
        for jc in range(-1, col.size + 1):
            for half in (3, 4):
                assert _outcome(column_height, col, jc, 0.25, half) == \
                    _outcome(_reference_column_height, col, jc, 0.25, half)

    @pytest.mark.parametrize("case", sorted(_STENCIL_COLUMNS))
    @pytest.mark.parametrize("column", [0, 2])
    def test_curvature(self, case, column):
        a = np.array([_SHARP, [1.0] * 10 + [0.6] + [0.0] * 9, _SHARP])
        a[column] = _STENCIL_COLUMNS[case]
        assert _outcome(curvature_height_function, a, 0.25,
                        GEOM.theta_e) == \
            _outcome(_reference_curvature, a, 0.25, 0.25, GEOM.theta_e)

    def test_curvature_first_failing_column_wins(self):
        # column 0 fails its window, column 2 has no interface cell
        a = np.array([_STENCIL_COLUMNS["widened_fails"], _SHARP,
                      _STENCIL_COLUMNS["no_interface"]])
        got = _outcome(curvature_height_function, a, 0.25, GEOM.theta_e)
        assert got == _outcome(_reference_curvature, a, 0.25, 0.25,
                               GEOM.theta_e)
        assert got == (StencilInvalid, "window bottom is not pure liquid")

    @pytest.mark.parametrize("case", sorted(_COLUMN_SCAN_CASES))
    def test_apex_height(self, case):
        # 32 rows of 0.25: gas above the 20-cell columns
        grid = Grid(4, 1.0)
        a = np.zeros((grid.nx, grid.ny))
        a[:, :20] = _COLUMN_SCAN_CASES["band"]
        a[0, :20] = _COLUMN_SCAN_CASES[case]
        state = SimState(grid, a)
        assert _outcome(apex_height, state) == \
            _outcome(_reference_apex_height, state)


class TestNonFiniteVelocity:
    @pytest.fixture(scope="class")
    def rise(self):
        """The nx 8 rise after 50 steps."""
        fluid, geom = synth_params(1.0, 0.04)
        setup = CaseSetup2D(fluid=fluid, geom=geom,
                            slip=SlipSpec.navier(geom.R / 5), nx=8,
                            t_end=1.0)
        sim = Simulator(setup)
        for _ in range(50):
            sim.step(compute_dt(sim.state, fluid))
        return sim

    @pytest.mark.parametrize("component, bad",
                             [("u", np.nan), ("v", np.nan), ("u", np.inf),
                              ("v", -np.inf)],
                             ids=["nan-u", "nan-v", "inf-u", "-inf-v"])
    def test_compute_dt_refuses(self, rise, component, bad):
        state = copy.deepcopy(rise.state)
        getattr(state, component)[2, 20] = bad
        with pytest.raises(CourantViolation, match="not finite"):
            compute_dt(state, rise.setup.fluid)

    @pytest.mark.parametrize("component", ["u", "v"])
    def test_advect_alpha_refuses_nan(self, rise, component):
        sim = copy.deepcopy(rise)
        getattr(sim.state, component)[2, 20] = np.nan
        alpha = sim.state.alpha.copy()
        cfl_max = sim.diag.cfl_max
        with pytest.raises(CourantViolation, match="not at most 1"):
            sim.advect_alpha(1e-5)
        # nothing moved, and the NaN is not booked as a CFL figure
        assert _same_bits(sim.state.alpha, alpha)
        assert sim.diag.cfl_max == cfl_max

    def test_finite_fields_keep_their_step(self, rise):
        assert compute_dt(rise.state, rise.setup.fluid) == \
            _reference_compute_dt(rise.state, rise.setup.fluid)
