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
from dataclasses import dataclass

import numpy as np

from ..core import FluidPair, Geometry, SlipSpec, stationary_height
from ..errors import CourantViolation, SolverDiverged
from ..odemodels import Trajectory, output_times
from ..study import timestep_limits
from .curvature import curvature_height_function
from .geometry import Grid, SimState, apex_height, init_case
from .plic import plic_reconstruct

_MIXED_EPS = 1e-12
_ALL, _INNER = slice(None), slice(1, -1)
_BELOW, _ABOVE = slice(None, -1), slice(1, None)
_POISSON_TOL = 1e-8
_DT_SAFETY = 0.9


@dataclass(frozen=True)
class CaseSetup2D:
    """One half-gap simulation; its trajectory is sampled every t_end/500.

    The wall is the Navier ghost of slip length slip.L; at L = 0 that is
    numerical slip, the no-slip ghost, whose effective slip shrinks with
    the mesh.
    """

    fluid: FluidPair
    geom: Geometry
    slip: SlipSpec
    nx: int
    t_end: float
    closed_bottom: bool = False
    gravity_on: bool = True


@dataclass
class RunDiagnostics:
    """Per-run conservation and stability bookkeeping; every completed
    run has div_reduction_max <= 1e-8 (Simulator._project)."""

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


def compute_dt(state: SimState, fluid: FluidPair) -> float:
    """0.9 times the least of the surface-tension, viscous and CFL limits.

    Simulator.run takes every step from this, on the fields the step
    starts from. A NaN or infinite velocity raises CourantViolation.
    """
    dx = state.grid.dx
    u_max = float(np.abs(state.u).max())
    v_max = float(np.abs(state.v).max())
    if not (u_max < math.inf and v_max < math.inf):  # NaN fails too
        raise CourantViolation(
            f"velocity not finite: max |u| {u_max}, max |v| {v_max}")
    speed = max(u_max, v_max)
    dt_u = dx / speed if speed > 0.0 else math.inf
    lim = timestep_limits(fluid, dx)
    return _DT_SAFETY * min(lim.dt_sigma_solver, lim.dt_mu, dt_u)


def slip_ghost(v_wall_col: np.ndarray, dx: float, slip: SlipSpec):
    """Ghost tangential velocity across a wall of slip length slip.L.

    Linear interpolation between the first interior value at dx/2 and
    the ghost at -dx/2 puts the wall value at u_w = (v_int + v_ghost)/2;
    the Navier condition u_w = L * du/dn then gives the ghost formula.
    L = dx/2 zeroes the ghost; L -> inf recovers free slip; numerical
    slip, L = 0, is the no-slip reflection -v (the factor is exactly -1).
    """
    L = slip.L
    return v_wall_col * ((2.0 * L - dx) / (2.0 * L + dx))


def _along(axis: int, index, other=_ALL) -> tuple:
    """A 2D index that is ``index`` along ``axis`` and ``other`` across it."""
    return (index, other) if axis == 0 else (other, index)


class Simulator:
    """Owns the state and advances it step by step."""

    def __init__(self, setup: CaseSetup2D, state: SimState | None = None):
        self.setup = setup
        # refuses a bad horizon before any step
        dt_out = setup.t_end / 500.0
        self._t_out = output_times(setup.t_end, dt_out)
        # run's np.gradient multiplies pairs of output spacings
        if dt_out * dt_out < np.finfo(float).tiny:
            raise ValueError(f"t_end {setup.t_end:g} s is too short for the 2D "
                             "output grid: its spacing t_end/500, squared, underflows")
        if state is None:
            state = init_case(setup.geom, setup.nx)
        self.state = state
        self.diag = RunDiagnostics()
        self._vol_start = state.liquid_area()
        self._boundary_influx = 0.0
        self.apply_boundaries()

    # ------------------------------------------------------------------
    # boundary handling

    def apply_boundaries(self) -> None:
        """Pin the wall u and closed bottom v faces; no step unpins them."""
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
        vf[0, 1:-1] = st.v[0, :]  # mirrored across the symmetry plane
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

    def _momentum(self, dt: float):
        """u_star, v_star and the mobilities beta_x, beta_y = 1/rho from the
        fields; wall u is copied, a closed bottom's v_star and beta_y zero."""
        st = self.state
        fl = self.setup.fluid
        dx = st.grid.dx
        u, v, alpha = st.u, st.v, st.alpha
        A_pad = self._pad_alpha(alpha)
        kappa = curvature_height_function(alpha, dx, self.setup.geom.theta_e)
        u_full, v_full = self._u_full(), self._v_full()

        rho_pad = fl.rho_g + (fl.rho_l - fl.rho_g) * A_pad
        mu_pad = fl.mu_g + (fl.mu_l - fl.mu_g) * A_pad
        # face densities; their inverses are the projection's mobilities
        rho_x = 0.5 * (rho_pad[:-1, 1:-1] + rho_pad[1:, 1:-1])
        rho_y = 0.5 * (rho_pad[1:-1, :-1] + rho_pad[1:-1, 1:])

        # node (corner) shear stress, shared by both components; the node
        # viscosity is a harmonic 4-cell mean: an arithmetic mean next to
        # the interface pairs mu ~ mu_l/2 with a gas-density face, an
        # effective diffusivity far beyond the explicit stability limit
        dudy_n = (u_full[:, 1:] - u_full[:, :-1]) / dx
        dvdx_n = (v_full[1:, 1:-1] - v_full[:-1, 1:-1]) / dx
        inv_mu = 1.0 / mu_pad
        mu_n = 4.0 / (inv_mu[:-1, :-1] + inv_mu[1:, :-1]
                      + inv_mu[:-1, 1:] + inv_mu[1:, 1:])
        txy = mu_n * (dudy_n + dvdx_n)

        # --- u faces, interior only (walls stay pinned)
        uc = u[1:-1, :]
        du = u[1:, :] - u[:-1, :]
        dudx = du / dx
        vbar = 0.25 * (v[:-1, :-1] + v[1:, :-1] + v[:-1, 1:] + v[1:, 1:])
        adv_u = (uc * np.where(uc > 0.0, dudx[:-1], dudx[1:])
                 + vbar * np.where(vbar > 0.0, dudy_n[1:-1, :-1],
                                   dudy_n[1:-1, 1:]))

        # 2 mu on cells -1..ny of each column, shared by txx and tyy
        mu2 = 2.0 * mu_pad[1:-1, :]
        txx = mu2[:, 1:-1] * du / dx
        visc_u = ((txx[1:, :] - txx[:-1, :]) / dx
                  + (txy[1:-1, 1:] - txy[1:-1, :-1]) / dx)

        kappa_u = 0.5 * (kappa[:-1] + kappa[1:])
        f_u = -fl.sigma * kappa_u[:, None] * (alpha[1:, :] - alpha[:-1, :]) / dx

        u_star = u.copy()
        u_star[1:-1, :] += dt * ((visc_u + f_u) / rho_x[1:-1, :] - adv_u)

        # --- v faces, all rows (boundary faces are prognostic)
        ubar = 0.25 * (u_full[:-1, :-1] + u_full[1:, :-1]
                       + u_full[:-1, 1:] + u_full[1:, 1:])
        dv = v_full[1:-1, 1:] - v_full[1:-1, :-1]
        dvdy = dv / dx
        adv_v = (ubar * np.where(ubar > 0.0, dvdx_n[:-1], dvdx_n[1:])
                 + v * np.where(v > 0.0, dvdy[:, :-1], dvdy[:, 1:]))

        # tyy on cells -1..ny so boundary faces see a ghost cell
        tyy = mu2 * dv / dx
        visc_v = ((tyy[:, 1:] - tyy[:, :-1]) / dx
                  + (txy[1:, :] - txy[:-1, :]) / dx)

        f_v = -fl.sigma * kappa[:, None] * (A_pad[1:-1, 1:] - A_pad[1:-1, :-1]) / dx

        g_acc = -fl.g if self.setup.gravity_on else 0.0
        v_star = v + dt * ((visc_v + f_v) / rho_y - adv_v + g_acc)
        beta_x, beta_y = 1.0 / rho_x, 1.0 / rho_y
        if self.setup.closed_bottom:
            # no flow through a closed face: zero mobility makes p Neumann
            v_star[:, 0] = 0.0
            beta_y[:, 0] = 0.0
        return u_star, v_star, beta_x, beta_y

    def _project(self, dt: float, u_star, v_star, beta_x, beta_y):
        """Correct u_star and v_star in place to a divergence-free field.

        The u walls stay pinned; every v face is corrected, across the
        ghost pressure -p at the y-ends, and one of zero mobility keeps its v.

        The corrected divergence is dt times the pressure solve's residual,
        checked here: a max |div| above _POISSON_TOL times the one before,
        or NaN, raises SolverDiverged, so every completed run has
        div_reduction_max <= 1e-8.
        """
        st = self.state
        dx = st.grid.dx

        div_star = ((u_star[1:, :] - u_star[:-1, :]) / dx
                    + (v_star[:, 1:] - v_star[:, :-1]) / dx)

        p = poisson_solve(st.grid, beta_x, beta_y, div_star / dt)

        u_star[1:-1, :] -= dt * beta_x[1:-1, :] * (p[1:, :] - p[:-1, :]) / dx
        p_y = np.concatenate((-p[:, :1], p, -p[:, -1:]), axis=1)
        v_star -= dt * beta_y * (p_y[:, 1:] - p_y[:, :-1]) / dx

        div_new = ((u_star[1:, :] - u_star[:-1, :]) / dx
                   + (v_star[:, 1:] - v_star[:, :-1]) / dx)
        div_inf = float(np.abs(div_new).max())
        self.diag.div_step_rel_max = max(
            self.diag.div_step_rel_max, div_inf * dt)
        before = float(np.abs(div_star).max())
        if before > 0.0:
            self.diag.div_reduction_max = max(self.diag.div_reduction_max,
                                              div_inf / before)
        if not div_inf <= _POISSON_TOL * before:  # NaN fails too
            raise SolverDiverged(f"pressure residual: max |div| {div_inf} "
                                 f"above {_POISSON_TOL} times {before}")
        return u_star, v_star, p

    def advect_alpha(self, dt: float) -> None:
        """Directionally split PLIC transport with WY compression.

        The compressed-flag field is frozen at the start of the step and
        the sweep order alternates with the step parity.  Fractions are
        clipped to [0, 1] only after both sweeps; the excursion and the
        clipped area go into the diagnostics.  Nothing crosses the walls
        or the symmetry plane: the boundary constraints are pinned first.
        """
        self.apply_boundaries()
        st = self.state
        dx = st.grid.dx
        cell = dx * dx

        u_max, v_max = float(np.abs(st.u).max()), float(np.abs(st.v).max())
        cfl_x = u_max * dt / dx
        cfl_y = v_max * dt / dx
        self.diag.cfl_max = max(self.diag.cfl_max, cfl_x, cfl_y)
        if not (cfl_x <= 1.0 + 1e-12 and cfl_y <= 1.0 + 1e-12):  # NaN fails too
            raise CourantViolation(
                f"advection CFL (x {cfl_x}, y {cfl_y}) is not at most 1")

        vol_before = st.alpha.sum() * cell
        c_flag = (st.alpha >= 0.5).astype(float)
        influx = 0.0

        for axis in (0, 1) if self.diag.n_steps % 2 == 0 else (1, 0):
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
        if not over <= 0.0:  # inside [0, 1] the clip would change nothing
            clipped = st.alpha.clip(0.0, 1.0)
            self.diag.clipped_area_total += float(
                np.abs(st.alpha - clipped).sum()) * cell
            st.alpha = clipped

    def _sweep(self, dt: float, c_flag, axis: int) -> float:
        """Move fractions along one axis (0 = x, 1 = y); returns the
        boundary influx.

        A face on the bottom or top boundary draws from the ghost row,
        which holds exactly 1 or 0, so the pure-donor rule covers it; the
        x-boundary faces carry nothing because u is pinned there.
        """
        st = self.state
        dx = st.grid.dx
        vel = st.u if axis == 0 else st.v
        A = self._pad_alpha(st.alpha)
        # clipping moves no donor across _MIXED_EPS, so it can come first
        A.clip(0.0, 1.0, out=A)
        w = np.abs(vel) * dt
        # the donor of each face is its upwind cell
        a = np.where(vel > 0.0, A[_along(axis, _BELOW, _INNER)],
                     A[_along(axis, _ABOVE, _INNER)])
        full = a >= 1.0 - _MIXED_EPS
        f = np.where(full, w, 0.0)
        # a full donor is above _MIXED_EPS too: the rest are the mixed
        # ones, and a NaN fraction is neither
        mixed = (a > _MIXED_EPS) ^ full
        di, dj = _along(axis, 1, 0)
        ncol = vel.shape[1]
        faces = mixed.ravel().nonzero()[0]
        moving, flux = [], []
        for k, vk in zip(faces.tolist(), vel.take(faces).tolist()):
            wk = abs(vk) * dt  # w[k], bit for bit
            if not wk > 0.0:
                continue
            # face (i, j): A[i:i+3, j:j+3] is the stencil of the cell on
            # its high side, one back along the axis that of the low side;
            # the slab [s0, s1] of depth w lies on the donor's downwind side
            i, j = divmod(k, ncol)
            if vk > 0.0:
                i, j = i - di, j - dj
                s0, s1 = dx - wk, dx
            else:
                s0, s1 = 0.0, wk
            plane = plic_reconstruct(A[i:i + 3, j:j + 3].tolist(), dx)
            area = (plane.slab_area(s0, s1, 0.0, dx) if axis == 0
                    else plane.slab_area(0.0, dx, s0, s1))
            moving.append(k)
            flux.append(area / dx)
        f.put(moving, flux)
        F = np.copysign(f * dx, vel)
        below, above = _along(axis, _BELOW), _along(axis, _ABOVE)
        st.alpha -= (F[above] - F[below]) / (dx * dx)
        st.alpha += c_flag * dt * (vel[above] - vel[below]) / dx
        return float(F[_along(axis, 0)].sum() - F[_along(axis, -1)].sum())

    def step(self, dt: float) -> None:
        """Momentum, projection, then advection; the pins hold throughout."""
        st = self.state
        st.u, st.v, st.p = self._project(dt, *self._momentum(dt))
        self.advect_alpha(dt)
        st.t += dt
        self.diag.n_steps += 1
        self.diag.dt_min = min(self.diag.dt_min, dt)
        self.diag.dt_max = max(self.diag.dt_max, dt)

    # ------------------------------------------------------------------

    def run(self) -> tuple[Trajectory, RunDiagnostics]:
        """Step to setup.t_end; each step is compute_dt of the fields it
        starts from, the last one cut to land on t_end."""
        setup = self.setup
        t_end = setup.t_end
        times = [self.state.t]
        apex = [apex_height(self.state)]
        while self.state.t < t_end * (1.0 - 1e-12):
            self.step(min(compute_dt(self.state, setup.fluid),
                          t_end - self.state.t))
            times.append(self.state.t)
            apex.append(apex_height(self.state))

        vol_end = self.state.liquid_area()
        denom = max(self._vol_start, self.state.grid.dx * self.state.grid.dx)
        self.diag.vol_drift_rel = abs(
            vol_end - self._vol_start - self._boundary_influx) / denom

        h_grid = np.interp(self._t_out, np.asarray(times), np.asarray(apex))
        hdot = np.gradient(h_grid, self._t_out)
        traj = Trajectory(
            t=self._t_out, h=h_grid, v=hdot,
            metadata={"h_inf": stationary_height(setup.fluid, setup.geom)})
        return traj, self.diag


def poisson_solve(grid: Grid, beta_x, beta_y, rhs):
    """Solve div(beta grad p) = rhs on cell centres.

    beta_x (nx+1, ny) and beta_y (nx, ny+1) are face mobilities.  The
    x-boundaries are Neumann (wall or symmetry plane).  Beyond both y-ends
    the ghost pressure is -p, coupled through that end face's mobility:
    the boundary value is 0 (Dirichlet), and a face of zero mobility is
    closed (Neumann).  With the cell index k = i + nx*j, -div(beta grad)
    is a symmetric positive definite band matrix of half-bandwidth nx:
    one banded Cholesky solve.  Simulator._project checks its residual,
    so every completed run has div_reduction_max <= 1e-8.
    """
    from scipy.linalg.lapack import dpbsv  # import caprise skips scipy.linalg
    nx, ny = grid.nx, grid.ny
    # lower band, cell index k = i + nx*j: the diagonal (row 0), the east
    # coupling (row 1) and the north coupling (row nx), written in place
    band = np.zeros((nx + 1, nx, ny), order="F")
    diag, east, north = band[0], band[1, :-1, :], band[nx, :, :-1]
    # -(beta/h^2), bit for bit, and diag - (-c) is diag + c
    np.divide(beta_x[1:-1, :], -grid.dx ** 2, out=east)
    np.divide(beta_y[:, 1:-1], -grid.dx ** 2, out=north)
    diag[1:, :] -= east
    diag[:-1, :] -= east
    diag[:, 1:] -= north
    diag[:, :-1] -= north
    diag[:, 0] += 2.0 * beta_y[:, 0] / grid.dx ** 2
    diag[:, -1] += 2.0 * beta_y[:, -1] / grid.dx ** 2
    ab = band.reshape((nx + 1, nx * ny), order="F")
    bf = np.negative(rhs, order="F", dtype=float).ravel(order="F")
    # both arrays are this call's own: dpbsv may overwrite them
    _, p_vec, info = dpbsv(ab, bf, lower=1, overwrite_ab=1, overwrite_b=1)
    if info > 0:
        raise SolverDiverged(
            f"pressure factorization failed: leading minor {info} is not "
            "positive definite")
    if not np.isfinite(p_vec).all():
        raise SolverDiverged("pressure solve produced non-finite values")
    return p_vec.reshape((nx, ny), order="F")

