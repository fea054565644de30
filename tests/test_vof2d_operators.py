"""Discrete operators: curvature, slip ghosts, projection, advection."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from caprise.core import FluidPair, Geometry, SlipSpec
from caprise.errors import CourantViolation, SolverDiverged, StencilInvalid
from caprise.vof2d.curvature import (column_height, contact_angle_ghost,
                                     curvature_height_function,
                                     interface_cell)
from caprise.study import synth_params
from caprise.vof2d import solver
from caprise.vof2d.geometry import Grid, SimState, arc_column_fractions
from caprise.vof2d.plic import plic_reconstruct
from caprise.vof2d.solver import (_MIXED_EPS, CaseSetup2D, RunDiagnostics,
                                  Simulator, compute_dt, poisson_solve,
                                  slip_ghost)

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

    def test_smeared_column_widens_window(self):
        # the smeared column's interface cell is j = 10 and its 7-cell
        # window starts at the 0.9 cell, so its height comes from the 9-cell
        # window; it holds 10.1 cells of liquid, as column 0 of the sharp field
        dx = dy = 0.25
        smeared = [1.0] * 7 + [0.9, 0.8, 0.7, 0.5, 0.2] + [0.0] * 8
        with pytest.raises(StencilInvalid):
            column_height(np.array(smeared), 10, dy, half=3)
        a = np.zeros((3, 20))
        a[:, :10] = 1.0
        a[:, 10] = [0.1, 0.3, 0.6]
        sharp = curvature_height_function(a, dx, dy, GEOM.theta_e)
        a[0] = smeared
        assert curvature_height_function(a, dx, dy, GEOM.theta_e) == \
            pytest.approx(sharp, rel=1e-12)
        # a 0.95 cell at the 9-cell window's bottom too: no window brackets
        a[0, 6] = 0.95
        with pytest.raises(StencilInvalid):
            curvature_height_function(a, dx, dy, GEOM.theta_e)

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


def _dense_operator(grid, beta_x, beta_y, bottom):
    """div(beta grad) as a dense matrix, cell (i, j) in row i + nx*j; the
    top is Dirichlet."""
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


# the bottom condition; the top is always Dirichlet, and the ids name both
BOTTOMS = pytest.mark.parametrize(
    "bottom", ["dirichlet", "neumann"],
    ids=["dirichlet-dirichlet", "neumann-dirichlet"])


class TestPoisson:
    def _mms_error(self, nx, bottom):
        R = 1.0
        grid = Grid.half_gap(nx, R)
        H = grid.ny * grid.dy
        x = (np.arange(grid.nx) + 0.5) * grid.dx
        y = (np.arange(grid.ny) + 0.5) * grid.dy
        X, Y = np.meshgrid(x, y, indexing="ij")
        # the y profile meets the bottom/top conditions at y = 0 and H
        if bottom == "dirichlet":
            ky, profile = math.pi / H, np.sin
        else:
            ky, profile = 0.5 * math.pi / H, np.cos
        p_exact = np.cos(math.pi * X / R) * profile(ky * Y)
        lap = -((math.pi / R) ** 2 + ky ** 2) * p_exact
        beta_x = np.ones((grid.nx + 1, grid.ny))
        beta_y = np.ones((grid.nx, grid.ny + 1))
        p = poisson_solve(grid, beta_x, beta_y, lap, bottom=bottom)
        return float(np.abs(p - p_exact).max())

    def _assert_second_order(self, bottom):
        e8 = self._mms_error(8, bottom)
        e16 = self._mms_error(16, bottom)
        assert e8 / e16 > 3.4
        assert e16 < 5e-3

    def test_dirichlet_second_order(self):
        self._assert_second_order("dirichlet")

    def test_closed_bottom_second_order(self):
        self._assert_second_order("neumann")

    @BOTTOMS
    def test_matches_dense_solve(self, bottom):
        # mobilities spread over the liquid/gas density ratio of 1000
        rng = np.random.default_rng(7)
        grid = Grid.half_gap(6, 1.0)
        nx, ny = grid.nx, grid.ny
        beta_x = 10.0 ** rng.uniform(-3.0, 0.0, (nx + 1, ny))
        beta_y = 10.0 ** rng.uniform(-3.0, 0.0, (nx, ny + 1))
        rhs = rng.standard_normal((nx, ny))
        p = poisson_solve(grid, beta_x, beta_y, rhs, bottom=bottom)

        A = _dense_operator(grid, beta_x, beta_y, bottom)
        ref = np.linalg.solve(A, rhs.flatten("F"))
        ref = ref.reshape((nx, ny), order="F")
        assert np.abs(p - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_zero_rhs_gives_zero_field(self):
        grid = Grid.half_gap(4, 1.0)
        p = poisson_solve(grid, np.ones((5, 32)), np.ones((4, 33)),
                          np.zeros((4, 32)))
        assert np.all(p == 0.0)

    @BOTTOMS
    @pytest.mark.parametrize("bad", ["nan-rhs", "nan-beta-x", "inf-beta-y",
                                     "zero-beta", "neg-beta-x"])
    def test_bad_input_raises_solver_diverged(self, bad, bottom):
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
        elif bad == "zero-beta":
            beta_x[:] = 0.0
            beta_y[:] = 0.0
        else:
            # one strongly negative face makes the matrix indefinite
            beta_x[2, 5] = -10.0
        with pytest.raises(SolverDiverged) as err:
            poisson_solve(grid, beta_x, beta_y, rhs, bottom=bottom)
        if bad in ("zero-beta", "neg-beta-x"):
            # the banded Cholesky factorization itself reports the failure
            assert "not positive definite" in str(err.value)

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
        dt = compute_dt(sim.state, fluid)
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
        dt = compute_dt(sim.state, fluid)
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

    def test_wall_faces_carry_no_flux(self):
        # a mixed symmetry column and wall column under a uniform u that
        # was not pinned on the x boundaries
        grid = Grid.half_gap(8, 1.0)
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
    h = (st.grid.dx, st.grid.dy)
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
        plane = plic_reconstruct(sten.tolist(), h[0], h[1])
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


def _recorded_rise(steps, every, **options):
    """(simulator, dt) snapshots of a rise every few hundred steps; nx 8
    and Navier slip R/5 unless the options say otherwise."""
    fluid, geom = synth_params(1.0, 0.04)
    options = {"nx": 8, "slip": SlipSpec.navier(geom.R / 5), **options}
    setup = CaseSetup2D(fluid=fluid, geom=geom, t_end=1.0, **options)
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

    @pytest.mark.parametrize("layout", [{"closed_bottom": True},
                                        {"full_gap": True}],
                             ids=["closed_bottom", "full_gap"])
    def test_other_layouts(self, layout):
        for sim, dt in _recorded_rise(300, 150, **layout):
            _assert_sweeps_match_reference(sim, dt)

    @pytest.mark.parametrize("U, V", [(0.05, -0.3), (-0.05, -0.3),
                                      (0.05, 0.3), (-0.05, 0.3)],
                             ids=["+x-y", "-x-y", "+x+y", "-x+y"])
    def test_blob_on_the_boundaries(self, U, V):
        grid = Grid.half_gap(8, 1.0)
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
            R=1.0, theta_e=math.pi / 4, h0=2.0, h_domain=8.0),
            slip=SlipSpec.numerical(), nx=8, t_end=1.0)
        sim = Simulator(setup, state=SimState.quiescent(grid, alpha))
        sim.state.u[:, :] = U
        sim.state.v[:, :] = V
        sim.apply_boundaries()
        dt = 0.4 * grid.dx / abs(V)
        for k in range(6):
            _assert_sweeps_match_reference(sim, dt)
            sim.state.step_count = k
            sim.advect_alpha(dt)


def _reference_momentum(sim, dt, A_pad, u_full, v_full, kappa):
    """The momentum update that the one-pass Simulator._momentum replaced:
    every upwind difference and face density formed from its own slices.
    Kept as the reference the new update must match bit for bit."""
    st = sim.state
    fl = sim.setup.fluid
    dx, dy = st.grid.dx, st.grid.dy
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
    dx, dy = st.grid.dx, st.grid.dy

    beta_x = 1.0 / (0.5 * (rho_pad[:-1, 1:-1] + rho_pad[1:, 1:-1]))
    beta_y = 1.0 / (0.5 * (rho_pad[1:-1, :-1] + rho_pad[1:-1, 1:]))

    div_star = ((u_star[1:, :] - u_star[:-1, :]) / dx
                + (v_star[:, 1:] - v_star[:, :-1]) / dy)

    p = poisson_solve(
        st.grid, beta_x, beta_y, div_star / dt,
        bottom="neumann" if sim.setup.closed_bottom else "dirichlet")

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
    sim.apply_boundaries()
    fields = (sim._pad_alpha(st.alpha), sim._u_full(), sim._v_full(),
              sim.curvatures())
    ref_u_star, ref_v_star, rho_pad = _reference_momentum(sim, dt, *fields)
    u_star, v_star, rho_x, rho_y = sim._momentum(dt, *fields)
    assert _same_bits(u_star, ref_u_star)
    assert _same_bits(v_star, ref_v_star)

    ref_u, ref_v, ref_p, ref_div_step, ref_div_reduction = _reference_project(
        sim, dt, ref_u_star, ref_v_star, rho_pad)
    diag = sim.diag
    sim.diag = RunDiagnostics()
    try:
        u, v, p = sim._project(dt, u_star, v_star, rho_x, rho_y)
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
        [{"slip": SlipSpec.numerical()}, {"full_gap": True},
         {"closed_bottom": True, "gravity_on": False}, {"nx": 4},
         {"nx": 16}],
        ids=["numerical_slip", "full_gap", "closed_bottom_no_gravity",
             "nx4", "nx16"])
    def test_other_cases(self, options):
        n = 0
        for sim, dt in _recorded_rise(300, 150, **options):
            _assert_step_matches_reference(sim, dt)
            n += 1
        assert n == 2


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
