"""Explicit projection solver for the two-phase half-gap rise.

One step: build ghost layers, evaluate curvature, advance momentum with
donor-cell advection, full deviatoric viscous stresses and CSF surface
tension, project onto a divergence-free field through a variable-density
Poisson solve, then advect the volume fractions with directionally split
PLIC fluxes and the Weymouth-Yue compression correction.

Surface tension enters as f = -sigma * kappa * grad(alpha) with the
height-function kappa, which is positive for the wetting meniscus.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, solveh_banded

from ..core import FluidPair, Geometry, SlipSpec, stationary_height
from ..errors import CourantViolation, SolverDiverged
from ..odemodels import Trajectory, output_times
from ..study import timestep_limits
from .curvature import curvature_height_function
from .geometry import Grid, SimState, apex_height, init_case
from .plic import plic_reconstruct

_MIXED_EPS = 1e-12
_POISSON_TOL = 1e-8


@dataclass(frozen=True)
class CaseSetup2D:
    """Everything needed to run one half-gap simulation."""

    fluid: FluidPair
    geom: Geometry
    slip: SlipSpec
    nx: int
    t_end: float
    dt_out: float | None = None
    dt_safety: float = 0.9
    closed_bottom: bool = False
    gravity_on: bool = True
    full_gap: bool = False

    def __post_init__(self):
        if self.nx < 4:
            raise ValueError("need at least 4 cells across the half gap")
        if self.t_end <= 0.0:
            raise ValueError("t_end must be positive")
        if not 0.0 < self.dt_safety <= 1.0:
            raise ValueError("dt_safety must be in (0, 1]")
        if self.dt_out is not None and self.dt_out <= 0.0:
            raise ValueError("dt_out must be positive")


@dataclass
class RunDiagnostics:
    """Per-run conservation and stability bookkeeping."""

    n_steps: int = 0
    dt_min: float = math.inf
    dt_max: float = 0.0
    cfl_max: float = 0.0
    div_step_rel_max: float = 0.0
    div_reduction_max: float = 0.0
    vol_balance_rel_max: float = 0.0
    vol_drift_rel: float = 0.0
    clipped_area_total: float = 0.0
    alpha_overshoot_max: float = 0.0
    wall_time_s: float = 0.0


def compute_dt(state: SimState, fluid: FluidPair, safety: float) -> float:
    """Stable step from the surface-tension, viscous and CFL limits."""
    u_max = max(float(np.abs(state.u).max()), float(np.abs(state.v).max()))
    lim = timestep_limits(fluid, state.grid.dx, u_max=u_max)
    return safety * min(lim.dt_sigma_solver, lim.dt_mu, lim.dt_u)


def slip_ghost(v_wall_col: np.ndarray, dx: float, slip: SlipSpec):
    """Ghost tangential velocity across a wall for the given slip model.

    Linear interpolation between the first interior value at dx/2 and
    the ghost at -dx/2 puts the wall value at u_w = (v_int + v_ghost)/2;
    the Navier condition u_w = L * du/dn then gives the ghost formula.
    L = dx/2 zeroes the ghost; L -> inf recovers free slip; numerical
    slip is the plain no-slip reflection.
    """
    if slip.kind == "numerical":
        return -v_wall_col
    L = slip.L
    return v_wall_col * ((2.0 * L - dx) / (2.0 * L + dx))


class Simulator:
    """Owns the state and advances it step by step."""

    def __init__(self, setup: CaseSetup2D, state: SimState | None = None):
        self.setup = setup
        if state is None:
            state = init_case(setup.geom, setup.nx, full_gap=setup.full_gap)
        self.state = state
        self.diag = RunDiagnostics()
        self._vol_start = state.liquid_area()
        self._boundary_influx = 0.0
        self.apply_boundaries()

    # ------------------------------------------------------------------
    # boundary handling

    def apply_boundaries(self) -> None:
        """Pin the hard velocity constraints on the boundary faces."""
        st = self.state
        st.u[0, :] = 0.0
        st.u[-1, :] = 0.0
        if self.setup.closed_bottom:
            st.v[:, 0] = 0.0

    def _pad_alpha(self, alpha: np.ndarray) -> np.ndarray:
        nx, ny = self.state.grid.nx, self.state.grid.ny
        A = np.empty((nx + 2, ny + 2))
        A[1:-1, 1:-1] = alpha
        A[1:-1, 0] = 1.0
        A[1:-1, -1] = 0.0
        # walls and the symmetry plane both mirror the fractions; the
        # contact angle acts only through the curvature ghost
        A[0, :] = A[1, :]
        A[-1, :] = A[-2, :]
        return A

    def _v_full(self) -> np.ndarray:
        st = self.state
        nx, ny = st.grid.nx, st.grid.ny
        dx = st.grid.dx
        vf = np.empty((nx + 2, ny + 3))
        vf[1:-1, 1:-1] = st.v
        if self.setup.full_gap:
            vf[0, 1:-1] = slip_ghost(st.v[0, :], dx, self.setup.slip)
        else:
            vf[0, 1:-1] = st.v[0, :]
        vf[-1, 1:-1] = slip_ghost(st.v[-1, :], dx, self.setup.slip)
        vf[:, 0] = vf[:, 1]
        vf[:, -1] = vf[:, -2]
        return vf

    def _u_full(self) -> np.ndarray:
        st = self.state
        uf = np.empty((st.grid.nx + 1, st.grid.ny + 2))
        uf[:, 1:-1] = st.u
        uf[:, 0] = uf[:, 1]
        uf[:, -1] = uf[:, -2]
        return uf

    # ------------------------------------------------------------------
    # one step

    def curvatures(self) -> np.ndarray:
        alpha = self.state.alpha
        if float(np.ptp(alpha)) < 1e-12:
            # single phase, no interface to reconstruct
            return np.zeros(alpha.shape[0])
        return curvature_height_function(
            alpha, self.state.grid.dx, self.state.grid.dy,
            self.setup.geom.theta_e,
            wall_left=self.setup.full_gap, wall_right=True)

    def _momentum(self, dt: float, A_pad, u_full, v_full, kappa):
        st = self.state
        fl = self.setup.fluid
        dx, dy = st.grid.dx, st.grid.dy
        u, v, alpha = st.u, st.v, st.alpha

        rho_pad = fl.rho_g + (fl.rho_l - fl.rho_g) * A_pad
        mu_pad = fl.mu_g + (fl.mu_l - fl.mu_g) * A_pad

        # node (corner) shear stress, shared by both components; the node
        # viscosity is a harmonic 4-cell mean: an arithmetic mean next to
        # the interface pairs mu ~ mu_l/2 with a gas-density face, an
        # effective diffusivity far beyond the explicit stability limit
        dudy_n = (u_full[:, 1:] - u_full[:, :-1]) / dy
        dvdx_n = (v_full[1:, 1:-1] - v_full[:-1, 1:-1]) / dx
        mu_n = 4.0 / (1.0 / mu_pad[:-1, :-1] + 1.0 / mu_pad[1:, :-1]
                      + 1.0 / mu_pad[:-1, 1:] + 1.0 / mu_pad[1:, 1:])
        txy = mu_n * (dudy_n + dvdx_n)

        # --- u faces, interior only (walls stay pinned)
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

        # --- v faces, all rows (boundary faces are prognostic)
        vc = v
        ubar = 0.25 * (u_full[:-1, :-1] + u_full[1:, :-1]
                       + u_full[:-1, 1:] + u_full[1:, 1:])
        dvdx_b = (v_full[1:-1, 1:-1] - v_full[:-2, 1:-1]) / dx
        dvdx_f = (v_full[2:, 1:-1] - v_full[1:-1, 1:-1]) / dx
        dvdy_b = (v_full[1:-1, 1:-1] - v_full[1:-1, :-2]) / dy
        dvdy_f = (v_full[1:-1, 2:] - v_full[1:-1, 1:-1]) / dy
        adv_v = (ubar * np.where(ubar > 0.0, dvdx_b, dvdx_f)
                 + vc * np.where(vc > 0.0, dvdy_b, dvdy_f))

        # tyy on cells -1..ny so boundary faces see a ghost cell
        tyy = 2.0 * mu_pad[1:-1, :] * (v_full[1:-1, 1:] - v_full[1:-1, :-1]) / dy
        visc_v = ((tyy[:, 1:] - tyy[:, :-1]) / dy
                  + (txy[1:, :] - txy[:-1, :]) / dx)

        f_v = -fl.sigma * kappa[:, None] * (A_pad[1:-1, 1:] - A_pad[1:-1, :-1]) / dy

        rho_v = 0.5 * (rho_pad[1:-1, :-1] + rho_pad[1:-1, 1:])
        g_acc = -fl.g if self.setup.gravity_on else 0.0
        v_star = vc + dt * (-adv_v + (visc_v + f_v) / rho_v + g_acc)
        if self.setup.closed_bottom:
            v_star[:, 0] = 0.0
        return u_star, v_star, rho_pad

    def _project(self, dt: float, u_star, v_star, rho_pad):
        st = self.state
        dx, dy = st.grid.dx, st.grid.dy

        beta_x = 1.0 / (0.5 * (rho_pad[:-1, 1:-1] + rho_pad[1:, 1:-1]))
        beta_y = 1.0 / (0.5 * (rho_pad[1:-1, :-1] + rho_pad[1:-1, 1:]))

        div_star = ((u_star[1:, :] - u_star[:-1, :]) / dx
                    + (v_star[:, 1:] - v_star[:, :-1]) / dy)

        p = poisson_solve(
            st.grid, beta_x, beta_y, div_star / dt,
            bottom="neumann" if self.setup.closed_bottom else "dirichlet",
            top="dirichlet")

        u_new = u_star.copy()
        u_new[1:-1, :] -= dt * beta_x[1:-1, :] * (p[1:, :] - p[:-1, :]) / dx
        v_new = v_star.copy()
        v_new[:, 1:-1] -= dt * beta_y[:, 1:-1] * (p[:, 1:] - p[:, :-1]) / dy
        if self.setup.closed_bottom:
            v_new[:, 0] = 0.0
        else:
            # ghost pressure -p across an open boundary face
            v_new[:, 0] -= dt * beta_y[:, 0] * 2.0 * p[:, 0] / dy
        v_new[:, -1] += dt * beta_y[:, -1] * 2.0 * p[:, -1] / dy

        div_new = ((u_new[1:, :] - u_new[:-1, :]) / dx
                   + (v_new[:, 1:] - v_new[:, :-1]) / dy)
        div_inf = float(np.abs(div_new).max())
        self.diag.div_step_rel_max = max(
            self.diag.div_step_rel_max, div_inf * dt)
        before = float(np.abs(div_star).max())
        if before > 0.0:
            self.diag.div_reduction_max = max(
                self.diag.div_reduction_max, div_inf / before)
        return u_new, v_new, p

    def advect_alpha(self, dt: float) -> None:
        """Directionally split PLIC transport with WY compression.

        The compressed-flag field is frozen at the start of the step and
        the sweep order alternates with the step parity.  Fractions are
        clipped to [0, 1] only after both sweeps; the excursion and the
        clipped area go into the diagnostics.
        """
        st = self.state
        grid = st.grid
        dx, dy = grid.dx, grid.dy
        cell = dx * dy
        u, v = st.u, st.v

        cfl = max(float(np.abs(u).max()) * dt / dx,
                  float(np.abs(v).max()) * dt / dy)
        self.diag.cfl_max = max(self.diag.cfl_max, cfl)
        if cfl > 1.0 + 1e-12:
            raise CourantViolation(f"advection CFL {cfl} exceeds 1")

        vol_before = st.alpha.sum() * cell
        c_flag = (st.alpha >= 0.5).astype(float)
        influx = 0.0

        for axis in (0, 1) if st.step_count % 2 == 0 else (1, 0):
            influx += self._sweep(dt, c_flag, axis)
        self._boundary_influx += influx

        vol_after = st.alpha.sum() * cell
        denom = max(vol_before, cell)
        balance = abs(vol_after - vol_before - influx) / denom
        self.diag.vol_balance_rel_max = max(
            self.diag.vol_balance_rel_max, balance)

        over = max(float(st.alpha.max()) - 1.0, -float(st.alpha.min()), 0.0)
        self.diag.alpha_overshoot_max = max(
            self.diag.alpha_overshoot_max, over)
        clipped = np.clip(st.alpha, 0.0, 1.0)
        self.diag.clipped_area_total += float(
            np.abs(st.alpha - clipped).sum()) * cell
        st.alpha = clipped

    def _sweep(self, dt: float, c_flag, axis: int) -> float:
        """Move fractions along one axis (0 = x, 1 = y); returns the
        boundary influx."""
        st = self.state
        h = (st.grid.dx, st.grid.dy)
        h_side = h[1 - axis]
        vel = st.u if axis == 0 else st.v
        A_pad = self._pad_alpha(st.alpha)
        faces = np.nonzero(vel)
        vf = vel[faces]
        up = vf > 0.0
        w = np.abs(vf) * dt
        # padded index of each face's upwind (donor) cell
        donor = [faces[0] + 1, faces[1] + 1]
        donor[axis] = faces[axis] + ~up
        a = A_pad[tuple(donor)]
        # a donor outside the domain acts as a uniform cell
        ghost = (donor[axis] == 0) | (donor[axis] == A_pad.shape[axis] - 1)
        f = np.where(ghost, w * a, np.where(a >= 1.0 - _MIXED_EPS, w, 0.0))
        mixed = np.flatnonzero(
            ~(ghost | (a <= _MIXED_EPS) | (a >= 1.0 - _MIXED_EPS)))
        for k, i, j, wk, upk in zip(mixed.tolist(), donor[0][mixed].tolist(),
                                    donor[1][mixed].tolist(),
                                    w[mixed].tolist(), up[mixed].tolist()):
            sten = np.clip(A_pad[i - 1:i + 2, j - 1:j + 2], 0.0, 1.0)
            plane = plic_reconstruct(sten.tolist(), h[0], h[1])
            # the slab of depth w on the donor's downwind side
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

    def step(self, dt: float) -> None:
        st = self.state
        self.apply_boundaries()
        A_pad = self._pad_alpha(st.alpha)
        u_full = self._u_full()
        v_full = self._v_full()
        kappa = self.curvatures()
        u_star, v_star, rho_pad = self._momentum(dt, A_pad, u_full, v_full,
                                                 kappa)
        st.u, st.v, st.p = self._project(dt, u_star, v_star, rho_pad)
        self.advect_alpha(dt)
        st.t += dt
        st.step_count += 1
        self.diag.n_steps += 1
        self.diag.dt_min = min(self.diag.dt_min, dt)
        self.diag.dt_max = max(self.diag.dt_max, dt)

    # ------------------------------------------------------------------

    def run(self) -> tuple[Trajectory, RunDiagnostics]:
        setup = self.setup
        t_end = setup.t_end
        t0 = time.perf_counter()
        times = [self.state.t]
        apex = [apex_height(self.state, full_gap=setup.full_gap)]
        while self.state.t < t_end * (1.0 - 1e-12):
            dt = compute_dt(self.state, setup.fluid, setup.dt_safety)
            dt = min(dt, t_end - self.state.t)
            self.step(dt)
            times.append(self.state.t)
            apex.append(apex_height(self.state, full_gap=setup.full_gap))
        self.diag.wall_time_s = time.perf_counter() - t0

        vol_end = self.state.liquid_area()
        denom = max(self._vol_start, self.state.grid.dx * self.state.grid.dy)
        self.diag.vol_drift_rel = abs(
            vol_end - self._vol_start - self._boundary_influx) / denom

        dt_out = setup.dt_out if setup.dt_out is not None else t_end / 500.0
        t_grid = output_times(t_end, dt_out)
        h_grid = np.interp(t_grid, np.asarray(times), np.asarray(apex))
        hdot = np.gradient(h_grid, t_grid)
        traj = Trajectory(
            t=t_grid, h=h_grid, v=hdot,
            metadata={
                "kind": "vof2d",
                "nx": setup.nx,
                "slip": setup.slip.kind,
                "slip_length": setup.slip.L,
                "n_steps": self.diag.n_steps,
                "h_inf": stationary_height(setup.fluid, setup.geom),
                "wall_time_s": self.diag.wall_time_s,
            })
        return traj, self.diag


def run(setup: CaseSetup2D) -> tuple[Trajectory, RunDiagnostics]:
    """Initialise from the arc and integrate to t_end."""
    return Simulator(setup).run()


def poisson_solve(grid: Grid, beta_x, beta_y, rhs, *,
                  bottom: str = "dirichlet", top: str = "dirichlet"):
    """Solve div(beta grad p) = rhs on cell centres.

    beta_x (nx+1, ny) and beta_y (nx, ny+1) are face mobilities.  The
    x-boundaries are always Neumann (wall or symmetry plane); bottom and
    top are "dirichlet" (ghost p = -p, boundary value 0) or "neumann".
    The all-Neumann system is singular: the mean is removed from rhs,
    one cell is pinned, and the returned field has zero mean.  With the
    cell index k = i + nx*j, -div(beta grad) is a symmetric positive
    definite band matrix of half-bandwidth nx: one banded Cholesky solve.
    """
    nx, ny = grid.nx, grid.ny
    # couplings across the interior x and y faces
    cx = beta_x[1:-1, :] / grid.dx ** 2
    cy = beta_y[:, 1:-1] / grid.dy ** 2
    diag = np.zeros((nx, ny))
    diag[1:, :] += cx
    diag[:-1, :] += cx
    diag[:, 1:] += cy
    diag[:, :-1] += cy
    if bottom == "dirichlet":
        diag[:, 0] += 2.0 * beta_y[:, 0] / grid.dy ** 2
    if top == "dirichlet":
        diag[:, -1] += 2.0 * beta_y[:, -1] / grid.dy ** 2
    b = -np.asarray(rhs, dtype=float)

    singular = bottom == "neumann" and top == "neumann"
    if singular:
        b -= b.mean()
        # pin p[0, 0] = 0 and drop its couplings; re-centre afterwards
        diag[0, 0] = 1.0
        cx[0, 0] = 0.0
        cy[0, 0] = 0.0
        b[0, 0] = 0.0

    # lower band: diagonal, east coupling (row 1), north coupling (row nx)
    band = np.zeros((nx + 1, nx, ny), order="F")
    band[0] = diag
    band[1, :-1, :] = -cx
    band[nx, :, :-1] = -cy
    try:
        p_vec = solveh_banded(band.reshape((nx + 1, nx * ny), order="F"),
                              b.flatten("F"), lower=True, overwrite_ab=True,
                              overwrite_b=True, check_finite=False)
    except LinAlgError as exc:
        raise SolverDiverged(f"pressure factorization failed: {exc}") from exc
    if not np.all(np.isfinite(p_vec)):
        raise SolverDiverged("pressure solve produced non-finite values")
    p = p_vec.reshape((nx, ny), order="F")
    res = diag * p - b
    res[:-1, :] -= cx * p[1:, :]
    res[1:, :] -= cx * p[:-1, :]
    res[:, :-1] -= cy * p[:, 1:]
    res[:, 1:] -= cy * p[:, :-1]
    res_norm = float(np.linalg.norm(res))
    rel = res_norm / max(float(np.linalg.norm(b)), 1e-300)
    if not (rel <= _POISSON_TOL or res_norm <= 1e-12):  # NaN fails too
        raise SolverDiverged(f"pressure residual {rel} above {_POISSON_TOL}")
    if singular:
        p = p - p.mean()
    return p
