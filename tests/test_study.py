"""Parameter synthesis and the timestep cost analysis."""

import dataclasses
import math
import random

import pytest

from caprise.core import FluidPair, Geometry, dimensionless_numbers, jurin_height
from caprise.scaling import SCALING_KINDS
from caprise.study import (
    STUDY_R,
    DtLimits,
    cost_table,
    crossover_cells,
    synth_params,
    timestep_limits,
)

# (omega, sigma) -> table-printed (rho, g)
TABLE_ROWS = {
    0.1: (0.2, 1663.8, 1.04),
    0.5: (0.1, 133.0, 6.51),
    1.0: (0.04, 83.1, 4.17),
    10.0: (0.01, 3.3255, 26.042),
    100.0: (0.001, 0.33255, 26.042),
}

# exact reconstructions, frozen
EXACT_RHO_G = {
    0.1: (1662.768775, 1.0416667),
    0.5: (133.021502, 6.5104167),
    1.0: (83.138439, 4.1666667),
    10.0: (3.325538, 26.0416667),
    100.0: (0.332554, 26.0416667),
}


def test_synth_params_validation():
    with pytest.raises(ValueError):
        synth_params(0.0, 0.04)
    with pytest.raises(ValueError):
        synth_params(1.0, -0.1)


@pytest.mark.parametrize("omega", sorted(TABLE_ROWS))
def test_synth_params_frozen(omega):
    sigma, _, _ = TABLE_ROWS[omega]
    fluid, geom = synth_params(omega, sigma)
    rho_want, g_want = EXACT_RHO_G[omega]
    assert fluid.rho_l == pytest.approx(rho_want, rel=1e-6)
    assert fluid.g == pytest.approx(g_want, rel=1e-6)
    assert fluid.rho_g == pytest.approx(fluid.rho_l / 1000.0, rel=1e-15)
    assert fluid.mu_g == pytest.approx(fluid.mu_l / 1000.0, rel=1e-15)
    assert geom.R == STUDY_R
    assert geom.h0 == pytest.approx(2 * STUDY_R)


@pytest.mark.parametrize("omega", sorted(TABLE_ROWS))
def test_synth_params_constraints(omega):
    sigma, _, _ = TABLE_ROWS[omega]
    fluid, geom = synth_params(omega, sigma)
    # the defining constraints: h_Jurin = 4R and the requested omega
    assert jurin_height(fluid, geom) == pytest.approx(4 * STUDY_R, rel=1e-12)
    assert dimensionless_numbers(fluid, geom).omega == pytest.approx(omega,
                                                                     rel=1e-12)


def test_synth_params_random_constraints():
    rng = random.Random(31337)
    for _ in range(200):
        omega = 10 ** rng.uniform(-1.5, 2.5)
        sigma = 10 ** rng.uniform(-3.5, 0.0)
        fluid, geom = synth_params(omega, sigma)
        assert jurin_height(fluid, geom) == pytest.approx(4 * STUDY_R, rel=1e-12)
        assert dimensionless_numbers(fluid, geom).omega == pytest.approx(omega,
                                                                         rel=1e-12)


@pytest.mark.parametrize("omega", sorted(TABLE_ROWS))
def test_synth_params_match_printed_table(omega):
    # compare after rounding to the table's printed precision
    sigma, rho_tab, g_tab = TABLE_ROWS[omega]
    fluid, _ = synth_params(omega, sigma)

    def printed_decimals(x):
        s = f"{x!r}"
        return len(s.split(".")[1]) if "." in s else 0

    rho_r = round(fluid.rho_l, printed_decimals(rho_tab))
    g_r = round(fluid.g, printed_decimals(g_tab))
    assert abs(rho_r - rho_tab) / rho_tab <= 1e-3
    assert abs(g_r - g_tab) / g_tab <= 1e-3
    if omega in (10.0, 100.0):  # unrounded rows reproduce exactly
        assert rho_r == pytest.approx(rho_tab, abs=1e-12)
        assert g_r == pytest.approx(g_tab, abs=1e-12)


def test_timestep_limits_frozen():
    fluid = FluidPair(rho_l=83.1, rho_g=0.0831, mu_l=0.01, mu_g=1e-5,
                      sigma=0.04, g=4.17)
    lim = timestep_limits(fluid, 0.005 / 32)
    # the cost table's estimate at the same dx, R/32 = 0.005/32
    geom = Geometry(R=0.005, theta_e=math.radians(30.0), h0=0.01)
    dt_sigma_estimate = cost_table(fluid, geom, 32)["dt_sigma_estimate"]
    assert dt_sigma_estimate == pytest.approx(2.5112828063850368e-5, rel=1e-12)
    assert dt_sigma_estimate == pytest.approx(2.5113e-5, rel=1e-4)
    assert lim.dt_mu == pytest.approx(3.38134765625e-5, rel=1e-12)
    assert lim.dt_mu == pytest.approx(3.3813e-5, rel=1e-4)
    # the solver variant (one-cell crossing of the 2 dx capillary wave)
    # carries the gas density too and sits 2 above Brackbill's bound
    assert lim.dt_sigma_solver == pytest.approx(5.025076268069472e-5, rel=1e-12)
    assert lim.dt_sigma_solver / dt_sigma_estimate == pytest.approx(
        2.0 * math.sqrt(1.001), rel=1e-12)


def test_timestep_limits_are_the_solver_ceilings_only():
    # the cost table's estimate is no ceiling of the 2D step, so no step
    # computes it
    assert [f.name for f in dataclasses.fields(DtLimits)] == [
        "dt_sigma_solver", "dt_mu"]


def test_timestep_limits_power_law():
    fluid, geom = synth_params(1.0, 0.04)
    a = timestep_limits(fluid, 1e-4)
    b = timestep_limits(fluid, 5e-5)
    # the cost table's estimate at dx = R/50 and R/100, 1e-4 and 5e-5
    est_a, est_b = (cost_table(fluid, geom, n)["dt_sigma_estimate"]
                    for n in (50, 100))
    assert est_a / est_b == pytest.approx(2**1.5, rel=1e-12)
    assert a.dt_mu / b.dt_mu == pytest.approx(4.0, rel=1e-12)
    with pytest.raises(ValueError):
        timestep_limits(fluid, -1e-4)


CROSSOVER = {0.1: 5804.157965549497, 0.5: 232.16631862197988,
             1.0: 58.041579655494964, 10.0: 0.5804157965549497,
             100.0: 0.005804157965549498}


@pytest.mark.parametrize("omega", sorted(CROSSOVER))
def test_crossover_cells_frozen(omega):
    sigma = TABLE_ROWS[omega][0]
    fluid, geom = synth_params(omega, sigma)
    assert crossover_cells(fluid, geom) == pytest.approx(CROSSOVER[omega],
                                                         rel=1e-9)


def test_crossover_property():
    # dt_sigma dominates below N*, dt_mu above
    fluid, geom = synth_params(1.0, 0.04)
    n_star = crossover_cells(fluid, geom)
    lo = cost_table(fluid, geom, math.floor(n_star))
    hi = cost_table(fluid, geom, math.ceil(n_star))
    assert lo["dt_sigma_estimate"] <= lo["dt_mu"]
    assert hi["dt_mu"] <= hi["dt_sigma_estimate"]


def test_step_counts_frozen_omega_one():
    fluid, geom = synth_params(1.0, 0.04)
    ii = cost_table(fluid, geom, 32)["n_steps"]["II"]
    assert ii["sigma"] == pytest.approx(2758.1925111574496, rel=1e-9)
    assert ii["mu"] == pytest.approx(2048.0, rel=1e-9)
    # table prints 2.76e3 and 2.05e3
    assert ii["sigma"] == pytest.approx(2.76e3, rel=1e-2)
    assert ii["mu"] == pytest.approx(2.05e3, rel=1e-2)


def test_step_counts_scaling_ii_sigma_constant_across_rows():
    vals = []
    for omega, (sigma, _, _) in TABLE_ROWS.items():
        fluid, geom = synth_params(omega, sigma)
        vals.append(cost_table(fluid, geom, 32)["n_steps"]["II"]["sigma"])
    assert all(v == pytest.approx(vals[0], rel=1e-9) for v in vals)


def test_step_counts_power_laws():
    fluid, geom = synth_params(0.5, 0.1)
    a = cost_table(fluid, geom, 16)["n_steps"]
    b = cost_table(fluid, geom, 32)["n_steps"]
    for kind in SCALING_KINDS:
        assert b[kind]["sigma"] / a[kind]["sigma"] == pytest.approx(2**1.5,
                                                                    rel=1e-12)
        assert b[kind]["mu"] / a[kind]["mu"] == pytest.approx(4.0, rel=1e-12)


def test_step_counts_internal_consistency():
    fluid, geom = synth_params(10.0, 0.01)
    table = cost_table(fluid, geom, 32)
    for n in table["n_steps"].values():
        assert n["sigma"] / n["mu"] == pytest.approx(
            table["dt_mu"] / table["dt_sigma_estimate"], rel=1e-12)


def test_step_counts_bold_ordering():
    # the dominant sigma-limited column flips from scaling III to scaling I
    # as omega grows
    for omega in (0.1, 0.5, 1.0):
        fluid, geom = synth_params(omega, TABLE_ROWS[omega][0])
        n_sigma = {kind: n["sigma"] for kind, n
                   in cost_table(fluid, geom, 32)["n_steps"].items()}
        # at omega=1 all three tie up to rounding
        assert n_sigma["III"] >= max(n_sigma.values()) * (1.0 - 1e-9)
    for omega in (10.0, 100.0):
        fluid, geom = synth_params(omega, TABLE_ROWS[omega][0])
        n_sigma = {kind: n["sigma"] for kind, n
                   in cost_table(fluid, geom, 32)["n_steps"].items()}
        assert n_sigma["I"] >= max(n_sigma.values()) * (1.0 - 1e-9)
