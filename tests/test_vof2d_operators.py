"""Discrete operators: curvature, slip ghosts, projection, advection."""

import math

import numpy as np
import pytest

from caprise.core import FluidPair, Geometry, SlipSpec
from caprise.errors import CourantViolation, SolverDiverged, StencilInvalid
from caprise.vof2d.curvature import (column_height, contact_angle_ghost,
                                     curvature_height_function,
                                     interface_cell)
from caprise.vof2d.geometry import Grid, SimState, arc_column_fractions
from caprise.vof2d.solver import (CaseSetup2D, Simulator, compute_dt,
                                  poisson_solve, slip_ghost)

GEOM = Geometry(R=0.005, theta_e=math.radians(30.0), h0=0.01, h_domain=0.04)


class TestColumnHeights:
    def test_interface_cell_picks_topmost_half_full(self):
        col = np.array([1.0, 1.0, 0.8, 0.5, 0.1, 0.0])
        assert interface_cell(col) == 3

    def test_interface_cell_empty_column_raises(self):
        with pytest.raises(StencilInvalid):
            interface_cell(np.array([0.1, 0.2, 0.0]))

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
        grid = Grid.half_gap(8, GEOM.R)
        a = np.zeros((grid.nx, grid.ny))
        a[:, :20] = 1.0
        a[:, 20] = 0.4
        k = curvature_height_function(a, grid.dx, grid.dy, GEOM.theta_e,
                                      wall_left=False, wall_right=False)
        assert np.all(k == 0.0)

    def test_wall_ghost_bends_last_column(self):
        grid = Grid.half_gap(8, GEOM.R)
        a = np.zeros((grid.nx, grid.ny))
        a[:, :20] = 1.0
        a[:, 20] = 0.4
        k = curvature_height_function(a, grid.dx, grid.dy, GEOM.theta_e,
                                      wall_right=True)
        assert np.all(k[:-1] == 0.0)
        assert k[-1] > 0.0

    def test_arc_curvature_converges_to_inverse_radius(self):
        k_exact = math.cos(GEOM.theta_e) / GEOM.R
        errs = {}
        for nx in (8, 16, 32, 64):
            grid = Grid.half_gap(nx, GEOM.R)
            a = arc_column_fractions(GEOM, grid)
            k = curvature_height_function(a, grid.dx, grid.dy, GEOM.theta_e)
            errs[nx] = float(np.abs(k[:-1] - k_exact).max()) / k_exact
        # interior columns approach second order
        mean_rate = math.log2(errs[8] / errs[64]) / 3.0
        assert mean_rate > 1.6
        assert errs[32] < 1e-3

    def test_wall_column_first_order(self):
        k_exact = math.cos(GEOM.theta_e) / GEOM.R
        errs = {}
        for nx in (16, 32, 64):
            grid = Grid.half_gap(nx, GEOM.R)
            a = arc_column_fractions(GEOM, grid)
            k = curvature_height_function(a, grid.dx, grid.dy, GEOM.theta_e)
            errs[nx] = abs(float(k[-1]) - k_exact) / k_exact
        assert math.log2(errs[16] / errs[64]) / 2.0 > 0.7


class TestSlipGhost:
    def test_numerical_is_reflection(self):
        v = np.array([0.4, -0.2])
        assert np.allclose(slip_ghost(v, 0.1, SlipSpec.numerical()), -v)

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


def _dense_operator(grid, beta_x, beta_y, bottom, top):
    """div(beta grad) as a dense matrix, cell (i, j) in row i + nx*j."""
    nx, ny = grid.nx, grid.ny
    dx2, dy2 = grid.dx ** 2, grid.dy ** 2
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
            elif bottom == "dirichlet":
                neighbours.append((None, beta_y[i, 0] / dy2))
            if j < ny - 1:
                neighbours.append((k + nx, beta_y[i, j + 1] / dy2))
            elif top == "dirichlet":
                neighbours.append((None, beta_y[i, ny] / dy2))
            for m, c in neighbours:
                A[k, k] -= c
                if m is None:
                    # ghost value -p puts the boundary value at zero
                    A[k, k] -= c
                else:
                    A[k, m] += c
    return A


class TestPoisson:
    def _mms_error(self, nx, bottom, top):
        R = 1.0
        grid = Grid.half_gap(nx, R)
        H = grid.y_max
        x = (np.arange(grid.nx) + 0.5) * grid.dx
        y = (np.arange(grid.ny) + 0.5) * grid.dy
        X, Y = np.meshgrid(x, y, indexing="ij")
        # the y profile meets the bottom/top conditions at y = 0 and H
        if bottom == "dirichlet":
            ky, profile = math.pi / H, np.sin
        elif top == "dirichlet":
            ky, profile = 0.5 * math.pi / H, np.cos
        else:
            ky, profile = math.pi / H, np.cos
        p_exact = np.cos(math.pi * X / R) * profile(ky * Y)
        lap = -((math.pi / R) ** 2 + ky ** 2) * p_exact
        beta_x = np.ones((grid.nx + 1, grid.ny))
        beta_y = np.ones((grid.nx, grid.ny + 1))
        p = poisson_solve(grid, beta_x, beta_y, lap, bottom=bottom, top=top)
        if bottom == "neumann" and top == "neumann":
            p_exact = p_exact - p_exact.mean()
        return float(np.abs(p - p_exact).max())

    def _assert_second_order(self, bottom, top):
        e8 = self._mms_error(8, bottom, top)
        e16 = self._mms_error(16, bottom, top)
        assert e8 / e16 > 3.4
        assert e16 < 5e-3

    def test_all_neumann_second_order(self):
        self._assert_second_order("neumann", "neumann")

    def test_dirichlet_second_order(self):
        self._assert_second_order("dirichlet", "dirichlet")

    def test_closed_bottom_second_order(self):
        self._assert_second_order("neumann", "dirichlet")

    @pytest.mark.parametrize("bottom,top", [("dirichlet", "dirichlet"),
                                            ("neumann", "dirichlet"),
                                            ("neumann", "neumann")])
    def test_matches_dense_solve(self, bottom, top):
        # mobilities spread over the liquid/gas density ratio of 1000
        rng = np.random.default_rng(7)
        grid = Grid.half_gap(6, 1.0)
        nx, ny = grid.nx, grid.ny
        beta_x = 10.0 ** rng.uniform(-3.0, 0.0, (nx + 1, ny))
        beta_y = 10.0 ** rng.uniform(-3.0, 0.0, (nx, ny + 1))
        rhs = rng.standard_normal((nx, ny))
        p = poisson_solve(grid, beta_x, beta_y, rhs, bottom=bottom, top=top)

        A = _dense_operator(grid, beta_x, beta_y, bottom, top)
        b = rhs.flatten("F")
        if bottom == "neumann" and top == "neumann":
            # constants span the null space; compare zero-mean fields
            b = b - b.mean()
            ref = np.linalg.lstsq(A, b, rcond=None)[0]
            ref -= ref.mean()
        else:
            ref = np.linalg.solve(A, b)
        ref = ref.reshape((nx, ny), order="F")
        assert np.abs(p - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_zero_rhs_gives_zero_field(self):
        grid = Grid.half_gap(4, 1.0)
        p = poisson_solve(grid, np.ones((5, 32)), np.ones((4, 33)),
                          np.zeros((4, 32)))
        assert np.all(p == 0.0)

    @pytest.mark.parametrize("bottom,top", [("dirichlet", "dirichlet"),
                                            ("neumann", "neumann")])
    @pytest.mark.parametrize("bad", ["nan-rhs", "nan-beta-x", "inf-beta-y",
                                     "zero-beta"])
    def test_bad_input_raises_solver_diverged(self, bad, bottom, top):
        grid = Grid.half_gap(4, 1.0)
        beta_x = np.ones((5, 32))
        beta_y = np.ones((4, 33))
        rhs = np.ones((4, 32))
        if bad == "nan-rhs":
            rhs[2, 5] = np.nan
        elif bad == "nan-beta-x":
            beta_x[2, 5] = np.nan
        elif bad == "inf-beta-y":
            beta_y[1, 5] = np.inf
        else:
            beta_x[:] = 0.0
            beta_y[:] = 0.0
        with pytest.raises(SolverDiverged):
            poisson_solve(grid, beta_x, beta_y, rhs, bottom=bottom, top=top)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_residual_raises_solver_diverged(self):
        # an infinite Dirichlet face mobility yields a finite p whose
        # residual is NaN; the residual check must not let that through
        grid = Grid.half_gap(4, 1.0)
        beta_y = np.ones((4, 33))
        beta_y[1, 0] = np.inf
        with pytest.raises(SolverDiverged, match="residual"):
            poisson_solve(grid, np.ones((5, 32)), beta_y, np.ones((4, 32)))


def _single_phase_setup(closed_bottom):
    fluid = FluidPair(rho_l=100.0, rho_g=100.0, mu_l=1e-3, mu_g=1e-3,
                      sigma=0.01, g=9.81)
    grid = Grid.half_gap(8, GEOM.R)
    state = SimState.quiescent(grid, np.ones((grid.nx, grid.ny)))
    setup = CaseSetup2D(fluid=fluid, geom=GEOM, slip=SlipSpec.navier(1e6),
                        nx=8, t_end=1.0, closed_bottom=closed_bottom)
    return Simulator(setup, state=state), fluid


class TestSinglePhaseMomentum:
    def test_open_column_free_falls_uniformly(self):
        sim, fluid = _single_phase_setup(closed_bottom=False)
        dt = compute_dt(sim.state, fluid, 0.9)
        sim.step(dt)
        st = sim.state
        assert np.allclose(st.v, -fluid.g * dt, rtol=1e-12)
        assert np.allclose(st.u, 0.0, atol=1e-15)
        assert np.allclose(st.p, 0.0, atol=1e-9)
        # the falling column drains: gas enters through the top ghost
        assert np.all(st.alpha[:, :-1] == 1.0)
        assert st.alpha[:, -1] == pytest.approx(
            1.0 - fluid.g * dt * dt / st.grid.dy, rel=1e-12)

    def test_closed_column_builds_hydrostatic_pressure(self):
        sim, fluid = _single_phase_setup(closed_bottom=True)
        dt = compute_dt(sim.state, fluid, 0.9)
        sim.step(dt)
        st = sim.state
        assert np.abs(st.v).max() < 1e-12 * fluid.g * dt + 1e-16
        assert np.abs(st.u).max() < 1e-15
        # vertical pressure gradient balances gravity
        dpdy = (st.p[:, 1:] - st.p[:, :-1]) / st.grid.dy
        assert np.allclose(dpdy, -fluid.rho_l * fluid.g, rtol=1e-9)


class TestAdvection:
    def _blob_sim(self):
        grid = Grid.half_gap(8, 1.0)
        alpha = np.zeros((grid.nx, grid.ny))
        alpha[2:6, 28:32] = 1.0
        state = SimState.quiescent(grid, alpha)
        fluid = FluidPair(rho_l=1.0, rho_g=0.5, mu_l=1e-3, mu_g=1e-4,
                          sigma=1.0, g=1.0)
        setup = CaseSetup2D(fluid=fluid, geom=Geometry(
            R=1.0, theta_e=math.pi / 4, h0=2.0, h_domain=8.0),
            slip=SlipSpec.numerical(), nx=8, t_end=1.0)
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
            sim.state.step_count = k
            sim.advect_alpha(dt)
        a1 = sim.state.alpha
        v1 = a1.sum()
        # away from boundaries the fluxes telescope exactly
        assert abs(v1 - v0) / v0 < 1e-13
        x1, y1 = (ii * a1).sum() / v1, (jj * a1).sum() / v1
        assert abs((x1 - x0) - U * dt * n / grid.dx) < 0.02
        assert abs((y1 - y0) - V * dt * n / grid.dy) < 0.02
        assert sim.diag.alpha_overshoot_max < 1e-12
        # translated-square reference: corners round off a little
        ddx, ddy = U * dt * n / grid.dx, V * dt * n / grid.dy
        exact = np.zeros_like(a0)
        for i in range(grid.nx):
            for j in range(grid.ny):
                ox = min(i + 1.0, 6 + ddx) - max(float(i), 2 + ddx)
                oy = min(j + 1.0, 32 + ddy) - max(float(j), 28 + ddy)
                exact[i, j] = max(ox, 0.0) * max(oy, 0.0)
        assert np.abs(a1 - exact).sum() / v0 < 0.25

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
