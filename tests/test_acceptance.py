"""End-to-end acceptance scoreboard, one test per criterion.

Each test aggregates its sub-checks and prints a single [PASS]/[FAIL]
line with the measured numbers (visible with -s, or in the captured
output when a criterion fails); the same condition backs the assertion.
The 2D solver criteria share one module-scoped set of runs, so the
first of them pays the few minutes of simulation time for all three.
"""

import math
import sys
import time

import numpy as np
import pytest
from scipy.integrate import quad

from caprise import cli
from caprise.core import Geometry, SlipSpec, height_correction
from caprise.harness import compare, omega_suite, run_case
from caprise.odemodels import (
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    ModelSpec,
    detect_peaks,
    integrate,
    model_balance,
    slip_groups,
    solve_rk45,
)
from caprise.scaling import (
    SCALING_KINDS,
    auto_t_end,
    coefficients,
    nondimensionalize,
    scaled_balance,
    units,
)
from caprise.study import crossover_cells, step_counts, synth_params
from caprise.vof2d import CaseSetup2D, Simulator, compute_dt
from caprise.vof2d import solver as vof2d_solver
from caprise.vof2d.solver import _POISSON_TOL

# published reference rows: omega -> (sigma, rho_l, g); the last two rows
# are printed unrounded and must reproduce exactly
PARAM_ROWS = {
    0.1: (0.2, 1663.8, 1.04),
    0.5: (0.1, 133.0, 6.51),
    1.0: (0.04, 83.1, 4.17),
    10.0: (0.01, 3.3255, 26.042),
    100.0: (0.001, 0.33255, 26.042),
}

# published cell-count rows at 32 cells per half-width:
# omega -> (crossover cells, (I, II, III) sigma-limited, (I, II, III)
# viscosity-limited); the I columns are printed a factor sqrt(cos theta)
# below the exact definition and the III columns a factor sqrt(3) above
COUNT_ROWS = {
    0.1: (5804, (2.57e2, 2.76e3, 4.78e4), (1.91e1, 2.05e2, 3.55e3)),
    0.5: (232, (1.28e3, 2.76e3, 9.55e3), (4.76e2, 1.02e3, 3.55e3)),
    1.0: (58, (2.57e3, 2.76e3, 4.78e3), (1.91e3, 2.05e3, 3.55e3)),
    10.0: (0.58, (2.57e4, 2.76e3, 4.78e2), (1.91e5, 2.05e4, 3.55e3)),
    100.0: (0.006, (2.57e5, 2.76e3, 4.78e1), (1.91e7, 2.05e5, 3.55e3)),
}

# published peak capillary numbers for the monotone cases
CA_ROWS = {10.0: 0.106, 100.0: 0.110}

# published corrected stationary height for the omega = 1 case [m]
H_INF_OMEGA1 = 0.0191605


def _verdict(num, text, fails, detail=""):
    ok = not fails
    extra = detail if ok else "; ".join(fails)
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {text}"
    if extra:
        line += f"  [{extra}]"
    print(line, file=sys.stderr, flush=True)
    assert ok, line


def _printed_decimals(x):
    s = f"{x!r}"
    return len(s.split(".")[1]) if "." in s else 0


def _n_maxima(peaklist):
    return sum(p.is_max for p in peaklist)


def _first_overshoot(traj):
    """Height of the first maximum above the stationary target, 0 if none."""
    h_inf = traj.metadata["h_inf"]
    for p in detect_peaks(traj):
        if p.is_max:
            return p.h - h_inf
    return 0.0


@pytest.fixture(scope="module")
def ode_results():
    """Both reduced models on all five cases at auto t_end."""
    out = {}
    for case in omega_suite():
        for model in ("classical", "extended"):
            out[(case.omega_nominal, model)] = run_case(case, model)
    return out


def _pde_setup(name, nx):
    """The omega = 1 rise to the auto horizon, Navier R/5 or numerical slip."""
    fluid, geom = synth_params(1.0, 0.04)
    slip = (SlipSpec.navier(geom.R / 5.0) if name == "navier"
            else SlipSpec())
    return CaseSetup2D(fluid=fluid, geom=geom, slip=slip, nx=nx,
                       t_end=auto_t_end(fluid, geom))


def _timed_run(setup):
    """The trajectory, the diagnostics and the wall time [s] of one run."""
    t0 = time.perf_counter()
    traj, diag = Simulator(setup).run()
    return traj, diag, time.perf_counter() - t0


@pytest.fixture(scope="module")
def pde_runs():
    """2D solver on the omega = 1 case, both slip models, three meshes."""
    return {(name, nx): _timed_run(_pde_setup(name, nx))
            for name in ("navier", "numerical") for nx in (4, 8, 16)}


def test_criterion_01_parameter_synthesis_rows():
    """Synthesized (rho, g) match the reference rows to 0.1% printed."""
    t0 = time.perf_counter()
    fails = []
    for omega, (sigma, rho_tab, g_tab) in sorted(PARAM_ROWS.items()):
        fluid, _ = synth_params(omega, sigma)
        rho_r = round(fluid.rho_l, _printed_decimals(rho_tab))
        g_r = round(fluid.g, _printed_decimals(g_tab))
        if abs(rho_r - rho_tab) / rho_tab > 1e-3:
            fails.append(f"rho({omega:g}) = {fluid.rho_l:.6f} vs {rho_tab}")
        if abs(g_r - g_tab) / g_tab > 1e-3:
            fails.append(f"g({omega:g}) = {fluid.g:.6f} vs {g_tab}")
        if omega in (10.0, 100.0):
            if abs(rho_r - rho_tab) > 1e-12 or abs(g_r - g_tab) > 1e-12:
                fails.append(f"unrounded row omega={omega:g} not exact")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        fails.append(f"runtime {elapsed:.2f} s >= 1 s")
    _verdict(1, "parameter synthesis reproduces the reference rows",
             fails, f"5 rows, {elapsed * 1e3:.0f} ms")


def test_criterion_02_cell_count_table():
    """Crossover and step-count columns match the reference table."""
    t0 = time.perf_counter()
    fails = []
    fac_i = math.sqrt(math.cos(math.radians(30.0)))
    fac_iii = math.sqrt(3.0)
    worst = 0.0
    for omega, (n_star, row_s, row_m) in sorted(COUNT_ROWS.items()):
        sigma = PARAM_ROWS[omega][0]
        fluid, geom = synth_params(omega, sigma)
        ns = crossover_cells(fluid, geom)
        ns_r = round(ns, _printed_decimals(n_star))
        rel = abs(ns_r - n_star) / n_star
        worst = max(worst, rel)
        if rel > 1e-2:
            fails.append(f"crossover({omega:g}) = {ns:.4g} vs {n_star}")
        sc = step_counts(fluid, geom, 32.0)
        for tab, ours, tag in ((row_s, sc.n_sigma, "sigma"),
                               (row_m, sc.n_mu, "mu")):
            if abs(ours[1] - tab[1]) / tab[1] > 2e-2:
                fails.append(f"II {tag}({omega:g}) = {ours[1]:.4g} vs {tab[1]:g}")
            # I and III only reproduce the table up to known constant factors
            for idx, fac, kind in ((0, fac_i, "I"), (2, fac_iii, "III")):
                ratio = tab[idx] / (ours[idx] * fac)
                if not 0.98 <= ratio <= 1.02:
                    fails.append(f"{kind} {tag}({omega:g}) factor off: {ratio:.4f}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        fails.append(f"runtime {elapsed:.2f} s >= 1 s")
    _verdict(2, "cell-count table reproduced (II exact, I/III up to factors)",
             fails, f"worst crossover rel {worst:.1e}, {elapsed * 1e3:.0f} ms")


def test_criterion_03_meniscus_correction_oracle():
    """Closed-form correction matches arc quadrature; 30 deg value pinned."""
    fails = []
    R = 0.005
    worst = 0.0
    for deg in (5, 15, 30, 45, 60, 75, 85):
        th = math.radians(deg)
        geom = Geometry(R=R, theta_e=th, h0=0.0)
        r = R / math.cos(th)
        area, _ = quad(lambda x: r - math.sqrt(r * r - x * x), 0.0, R,
                       epsabs=1e-16, epsrel=1e-13)
        rel = abs(height_correction(geom) - area / R) / (area / R)
        worst = max(worst, rel)
        if rel > 1e-9:
            fails.append(f"{deg} deg: rel {rel:.1e}")
    geom30 = Geometry(R=R, theta_e=math.radians(30.0), h0=0.0)
    # the 0.1678936 reference keeps 7 decimals; stay within one last-digit ulp
    ulps = round(height_correction(geom30) / R * 1e7) - 1678936
    if abs(ulps) > 1:
        fails.append(f"30 deg ratio off by {ulps} ulps of 1e-7")
    _verdict(3, "meniscus correction matches quadrature to 1e-9",
             fails, f"worst rel {worst:.1e}")


def test_criterion_04_scaling_consistency():
    """Nondimensionalized trajectory equals direct scaled integration."""
    t0 = time.perf_counter()
    fails = []
    worst = 0.0
    for omega in (0.1, 1.0, 10.0):
        fluid, geom = synth_params(omega, PARAM_ROWS[omega][0])
        L = geom.R / 5.0
        t_end = auto_t_end(fluid, geom)
        traj = integrate(ModelSpec("extended", SlipSpec(L)), fluid, geom, t_end)
        s = coefficients(fluid, geom)
        groups = slip_groups(L, geom.R)
        hh = height_correction(geom)
        for kind in SCALING_KINDS:
            u = units(kind, s)
            ref = nondimensionalize(traj, kind, s)
            direct = solve_rk45(
                scaled_balance(kind, s.omega, groups, hh * u.h_rate),
                geom.h0 * u.h_rate, 0.0, t_end * u.t_rate,
                dt_out=(t_end / 2000.0) * u.t_rate)
            if len(direct) != len(ref):
                fails.append(f"{kind} omega={omega:g}: output grids differ")
                continue
            err = np.max(np.abs(direct.h - ref.h)) / np.max(np.abs(ref.h))
            worst = max(worst, err)
            if err > 1e-6:
                fails.append(f"{kind} omega={omega:g}: Linf {err:.1e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        fails.append(f"runtime {elapsed:.2f} s >= 10 s")
    _verdict(4, "all three scaled forms consistent with dimensional runs",
             fails, f"worst Linf {worst:.1e}, {elapsed:.1f} s")


def test_criterion_05_extended_reduces_to_classical():
    """L=0, no correction, no convective term collapses onto classical."""
    fluid, geom = synth_params(1.0, 0.04)
    t_end = auto_t_end(fluid, geom)
    base = integrate(ModelSpec("classical"), fluid, geom, t_end)
    # L = 0, no convective term (D = -1), no meniscus correction (h_hat = 0)
    row = model_balance(ModelSpec("extended"), fluid, geom)._replace(D=-1.0, h_hat=0.0)
    reduced = solve_rk45(row, geom.h0, 0.0, t_end)
    tol = 10.0 * (DEFAULT_RTOL * np.abs(base.h) + DEFAULT_ATOL)
    gap = np.abs(reduced.h - base.h)
    fails = []
    if len(base) != len(reduced):
        fails.append("output grids differ")
    elif np.any(gap > tol):
        fails.append(f"max gap {gap.max():.1e} > {tol.min():.1e}")
    _verdict(5, "reduced extended model equals classical within 10x tolerance",
             fails, f"max gap {gap.max():.1e}")


def test_criterion_06_stationary_limits(ode_results):
    """Each model settles on its own stationary height to 1e-4 relative."""
    fails = []
    retried = 0
    for (omega, model), res in sorted(ode_results.items()):
        target = res.trajectory.metadata["h_inf"]
        err = abs(res.h_final - target) / target
        if err <= 1e-4:
            continue
        # only oscillatory cases may take the longer window
        if _n_maxima(res.peaks) == 0:
            fails.append(f"{model} omega={omega:g}: rel {err:.1e}, monotone")
            continue
        retried += 1
        case = res.case
        long = run_case(case, model,
                        t_end=4.0 * auto_t_end(case.fluid, case.geom))
        err = abs(long.h_final - long.trajectory.metadata["h_inf"]) \
            / long.trajectory.metadata["h_inf"]
        if err > 1e-4:
            fails.append(f"{model} omega={omega:g}: rel {err:.1e} at 4x t_end")
    _verdict(6, "stationary limits reached for all cases and models",
             fails, f"{retried} oscillatory cases used the 4x window")


def test_criterion_07_oscillation_regimes(ode_results):
    """Many maxima at omega 0.1, at most one big one at 1, none at 10+."""
    fails = []
    n_small = _n_maxima(ode_results[(0.1, "extended")].peaks)
    if n_small < 4:
        fails.append(f"omega=0.1: {n_small} maxima < 4")
    # overshoot-scale prominence: a tenth of the stationary height
    big = detect_peaks(ode_results[(1.0, "extended")].trajectory, eps_peak=0.1)
    n_one = _n_maxima(big)
    if n_one > 1:
        fails.append(f"omega=1: {n_one} overshoot-scale maxima > 1")
    for omega in (10.0, 100.0):
        n = len(ode_results[(omega, "extended")].peaks)
        if n:
            fails.append(f"omega={omega:g}: {n} peaks in monotone regime")
    _verdict(7, "oscillation regimes split across the omega range",
             fails, f"maxima 0.1/1/10/100: {n_small}/{n_one}/0/0")


def test_criterion_08_first_overshoot_ratio(ode_results):
    """Classical-vs-extended first-overshoot ratio sits near one half."""
    m = compare(ode_results[(0.1, "classical")].trajectory,
                ode_results[(0.1, "extended")].trajectory)
    r = m.first_peak_overshoot_ratio
    fails = []
    if r is None:
        fails.append("overshoot ratio undefined")
    elif not 0.35 <= r <= 0.65:
        fails.append(f"ratio {r:.3f} outside [0.35, 0.65]")
    _verdict(8, "first-overshoot ratio at omega 0.1 is about one half",
             fails, f"ratio {r:.3f}" if r is not None else "")


def test_criterion_09_peak_capillary_number(ode_results):
    """Peak Ca of the monotone cases within 30% of the reference values."""
    fails = []
    got = {}
    for omega, ca_ref in sorted(CA_ROWS.items()):
        ca = ode_results[(omega, "extended")].ca_max
        got[omega] = ca
        if abs(ca - ca_ref) / ca_ref > 0.30:
            fails.append(f"omega={omega:g}: Ca {ca:.3f} vs {ca_ref}")
    _verdict(9, "peak capillary numbers within 30% of reference",
             fails, ", ".join(f"{o:g}: {c:.3f}" for o, c in got.items()))


def test_criterion_10_vof2d_steady_state(pde_runs):
    """Finest Navier-slip run ends within 5% of the corrected height."""
    traj, _, wall_s = pde_runs[("navier", 16)]
    rel = abs(traj.h[-1] - H_INF_OMEGA1) / H_INF_OMEGA1
    fails = []
    if rel > 0.05:
        fails.append(f"final apex rel {rel:.3f} > 0.05")
    if wall_s > 1800.0:
        fails.append(f"run took {wall_s:.0f} s > 1800 s")
    _verdict(10, "2D solver levels off at the corrected stationary height",
             fails, f"rel {rel:.3f}, {wall_s:.0f} s")


def test_criterion_11_vof2d_slip_trends(pde_runs):
    """Numerical slip damps with the mesh; Navier runs converge."""
    fails = []
    overs = [_first_overshoot(pde_runs[("numerical", nx)][0])
             for nx in (4, 8, 16)]
    if not overs[0] > overs[1] > overs[2]:
        fails.append("numerical-slip overshoots not strictly decreasing: "
                     + ", ".join(f"{o:.2e}" for o in overs))
    d_fine = compare(pde_runs[("navier", 16)][0],
                     pde_runs[("navier", 8)][0]).l2_rel
    d_coarse = compare(pde_runs[("navier", 8)][0],
                       pde_runs[("navier", 4)][0]).l2_rel
    if not d_fine < d_coarse:
        fails.append(f"Navier distances not shrinking: "
                     f"d(16,8) = {d_fine:.2e}, d(8,4) = {d_coarse:.2e}")
    _verdict(11, "slip phenomenology trends hold across meshes", fails,
             f"overshoots {overs[0]:.2e} > {overs[1]:.2e} > {overs[2]:.2e}, "
             f"d {d_fine:.2e} < {d_coarse:.2e}")


def test_criterion_12_vof2d_invariants(pde_runs):
    """Conservation, boundedness, projection quality, static currents."""
    fails = []
    for (name, nx), (_, diag, _) in sorted(pde_runs.items()):
        tag = f"{name} nx={nx}"
        if diag.vol_balance_rel_max > 1e-10:
            fails.append(f"{tag}: volume balance {diag.vol_balance_rel_max:.1e}")
        if diag.alpha_overshoot_max > 1e-10:
            fails.append(f"{tag}: fraction bound {diag.alpha_overshoot_max:.1e}")
        if diag.div_reduction_max > 10.0 * _POISSON_TOL:
            fails.append(f"{tag}: divergence {diag.div_reduction_max:.1e}")
    # closed box, gravity off: the meniscus must not drive a flow
    fluid, geom = synth_params(1.0, 0.04)
    setup = CaseSetup2D(fluid=fluid, geom=geom,
                        slip=SlipSpec.navier(geom.R / 5.0), nx=16,
                        t_end=1.0, closed_bottom=True, gravity_on=False)
    sim = Simulator(setup)
    speed = 0.0
    for _ in range(100):
        sim.step(compute_dt(sim.state, fluid))
        speed = max(speed, float(np.abs(sim.state.u).max()),
                    float(np.abs(sim.state.v).max()))
    bound = 1e-3 * fluid.sigma / fluid.mu_l
    if speed > bound:
        fails.append(f"static spurious speed {speed:.2e} > {bound:.1e}")
    _verdict(12, "solver invariants hold on all runs", fails,
             f"static speed {speed:.2e} <= {bound:.1e}")


@pytest.mark.parametrize("name", ["navier", "numerical"])
def test_vof2d_temporal_self_convergence(pde_runs, name, monkeypatch):
    """Halving the 2D step moves the nx 8 rise far less than the mesh does."""
    # measured l2_rel: 3.0e-4 against 1.35e-2 (Navier R/5), 2.3e-4
    # against 1.86e-2 (numerical slip)
    monkeypatch.setattr(vof2d_solver, "_DT_SAFETY",
                        0.5 * vof2d_solver._DT_SAFETY)
    half, diag = Simulator(_pde_setup(name, 8)).run()
    full = pde_runs[(name, 8)][0]
    assert diag.n_steps > 1.9 * pde_runs[(name, 8)][1].n_steps
    d_time = compare(full, half).l2_rel
    d_mesh = compare(full, pde_runs[(name, 4)][0]).l2_rel
    print(f"{name}: half step {d_time:.2e}, nx 8 vs 4 {d_mesh:.2e}",
          file=sys.stderr)
    assert d_time < 1e-3
    assert d_time < 0.1 * d_mesh


def test_criterion_13_bench_determinism(tmp_path):
    """Two identical bench invocations write byte-identical files."""
    fails = []
    outs = []
    for sub in ("first", "second"):
        d = tmp_path / sub
        rc = cli.main(["bench", "--suite", "omega-study",
                       "--out-dir", str(d)])
        if rc != 0:
            fails.append(f"bench exit code {rc}")
            break
        outs.append({p.name: p.read_bytes() for p in d.iterdir()})
    if len(outs) == 2:
        if set(outs[0]) != set(outs[1]):
            fails.append("file sets differ")
        else:
            diff = [n for n in sorted(outs[0]) if outs[0][n] != outs[1][n]]
            if diff:
                fails.append("bytes differ: " + ", ".join(diff[:3]))
    _verdict(13, "repeated bench runs are byte-identical", fails,
             f"{len(outs[0]) if outs else 0} files compared")
