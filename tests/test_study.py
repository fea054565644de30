"""Parameter synthesis and the timestep cost analysis."""

import math
import random

import pytest

from caprise.core import FluidPair, Geometry, dimensionless_numbers, jurin_height
from caprise.study import (
    STUDY_R,
    crossover_cells,
    step_counts,
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
    assert lim.dt_sigma_estimate == pytest.approx(2.5112828063850368e-5, rel=1e-12)
    assert lim.dt_sigma_estimate == pytest.approx(2.5113e-5, rel=1e-4)
    assert lim.dt_mu == pytest.approx(3.38134765625e-5, rel=1e-12)
    assert lim.dt_mu == pytest.approx(3.3813e-5, rel=1e-4)
    # the solver variant (one-cell crossing of the 2 dx capillary wave)
    # carries the gas density too and sits 2 above Brackbill's bound
    assert lim.dt_sigma_solver == pytest.approx(5.025076268069472e-5, rel=1e-12)
    assert lim.dt_sigma_solver / lim.dt_sigma_estimate == pytest.approx(
        2.0 * math.sqrt(1.001), rel=1e-12)


def test_timestep_limits_power_law():
    fluid, _ = synth_params(1.0, 0.04)
    a = timestep_limits(fluid, 1e-4)
    b = timestep_limits(fluid, 5e-5)
    assert a.dt_sigma_estimate / b.dt_sigma_estimate == pytest.approx(2**1.5,
                                                                      rel=1e-12)
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
    lo = timestep_limits(fluid, geom.R / math.floor(n_star))
    hi = timestep_limits(fluid, geom.R / math.ceil(n_star))
    assert lo.dt_sigma_estimate <= lo.dt_mu
    assert hi.dt_mu <= hi.dt_sigma_estimate


def test_step_counts_frozen_omega_one():
    fluid, geom = synth_params(1.0, 0.04)
    sc = step_counts(fluid, geom, 32)
    assert sc.n_sigma[1] == pytest.approx(2758.1925111574496, rel=1e-9)
    assert sc.n_mu[1] == pytest.approx(2048.0, rel=1e-9)
    # table prints 2.76e3 and 2.05e3
    assert sc.n_sigma[1] == pytest.approx(2.76e3, rel=1e-2)
    assert sc.n_mu[1] == pytest.approx(2.05e3, rel=1e-2)


def test_step_counts_scaling_ii_sigma_constant_across_rows():
    vals = []
    for omega, (sigma, _, _) in TABLE_ROWS.items():
        fluid, geom = synth_params(omega, sigma)
        vals.append(step_counts(fluid, geom, 32).n_sigma[1])
    assert all(v == pytest.approx(vals[0], rel=1e-9) for v in vals)


def test_step_counts_power_laws():
    fluid, geom = synth_params(0.5, 0.1)
    a = step_counts(fluid, geom, 16)
    b = step_counts(fluid, geom, 32)
    for k in range(3):
        assert b.n_sigma[k] / a.n_sigma[k] == pytest.approx(2**1.5, rel=1e-12)
        assert b.n_mu[k] / a.n_mu[k] == pytest.approx(4.0, rel=1e-12)


def test_step_counts_internal_consistency():
    fluid, geom = synth_params(10.0, 0.01)
    lim = timestep_limits(fluid, geom.R / 32)
    sc = step_counts(fluid, geom, 32)
    for k in range(3):
        assert sc.n_sigma[k] / sc.n_mu[k] == pytest.approx(
            lim.dt_mu / lim.dt_sigma_estimate, rel=1e-12)


def test_step_counts_bold_ordering():
    # the dominant sigma-limited column flips from scaling III to scaling I
    # as omega grows
    for omega in (0.1, 0.5, 1.0):
        fluid, geom = synth_params(omega, TABLE_ROWS[omega][0])
        sc = step_counts(fluid, geom, 32)
        # at omega=1 all three tie up to rounding
        assert sc.n_sigma[2] >= max(sc.n_sigma) * (1.0 - 1e-9)
    for omega in (10.0, 100.0):
        fluid, geom = synth_params(omega, TABLE_ROWS[omega][0])
        sc = step_counts(fluid, geom, 32)
        assert sc.n_sigma[0] >= max(sc.n_sigma) * (1.0 - 1e-9)
