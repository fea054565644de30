"""Parameter types, stationary heights, dimensionless groups."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from caprise.core import (
    SLIP_LENGTH_MAX,
    CaseSpec,
    FluidPair,
    Geometry,
    SlipSpec,
    dimensionless_numbers,
    height_correction,
    jurin_height,
    stationary_height,
)
from caprise.errors import NonWettingAngle
from caprise.harness import format_slip, parse_slip
from caprise.odemodels import slip_groups
from caprise.study import synth_params
from caprise.vof2d.solver import slip_ghost


def make_fluid(**kw):
    base = dict(rho_l=1000.0, rho_g=1.0, mu_l=1e-3, mu_g=1e-5, sigma=0.07, g=9.81)
    base.update(kw)
    return FluidPair(**base)


# table-rounded omega=1 study row, used by several frozen-value checks
FLUID_OM1_TAB = FluidPair(rho_l=83.1, rho_g=0.0831, mu_l=0.01, mu_g=1e-5,
                          sigma=0.04, g=4.17)
GEOM_STD = Geometry(R=0.005, theta_e=math.radians(30.0), h0=0.01)


def test_fluid_validation():
    with pytest.raises(ValueError):
        make_fluid(sigma=-0.01)
    with pytest.raises(ValueError):
        make_fluid(rho_l=0.5, rho_g=1.0)  # lighter liquid than gas
    with pytest.raises(ValueError):
        make_fluid(mu_l=1e-6, mu_g=1e-5)
    with pytest.raises(ValueError):
        make_fluid(g=0.0)


def test_geometry_validation():
    with pytest.raises(ValueError):
        Geometry(R=-1.0, theta_e=0.5, h0=0.0)
    with pytest.raises(ValueError):
        Geometry(R=1.0, theta_e=0.0, h0=0.0)
    with pytest.raises(ValueError):
        Geometry(R=1.0, theta_e=math.radians(120.0), h0=0.0)
    for h0 in (-1e-3, math.inf, math.nan):
        with pytest.raises(ValueError, match="h0"):
            Geometry(R=1.0, theta_e=0.5, h0=h0)
    # theta_e = pi/2 itself is a legal geometry
    Geometry(R=1.0, theta_e=0.5 * math.pi, h0=0.0)
    # the channel has no top: only the 2D grid bounds the fill
    Geometry(R=1.0, theta_e=0.5, h0=100.0)


def test_slip_spec():
    # a wall is one slip length; numerical slip is L = 0
    assert SlipSpec() == SlipSpec(0.0) == parse_slip("numerical")
    assert SlipSpec.navier(1e-3) == SlipSpec(1e-3)
    assert SlipSpec.navier(1e-3).L == 1e-3
    assert format_slip(SlipSpec(0.0)) == "numerical"
    for L in (-1e-3, math.inf, math.nan):
        with pytest.raises(ValueError):
            SlipSpec(L)
    # navier names a positive length: "navier:0" is never written
    for L in (0.0, math.inf):
        with pytest.raises(ValueError, match="finite L > 0"):
            SlipSpec.navier(L)


def test_slip_length_bound_keeps_both_wall_formulas_finite():
    # the longest slip length: the extended model's groups and the 2D wall
    # ghost stay finite there, and one ulp more is refused
    R = 0.005
    groups = slip_groups(SlipSpec.navier(SLIP_LENGTH_MAX).L, R)
    assert 0.0 < groups.k < 1e-150 and groups.q == pytest.approx(1.0)
    for nx in (4, 32):
        ghost = slip_ghost(np.ones(2), R / nx, SlipSpec(SLIP_LENGTH_MAX))
        assert np.all(ghost == 1.0)  # free slip
    too_long = math.nextafter(SLIP_LENGTH_MAX, math.inf)
    for make in (SlipSpec, SlipSpec.navier):
        with pytest.raises(ValueError, match="at most 1e\\+150 m"):
            make(too_long)


def test_case_spec_validation():
    fluid, geom = synth_params(1.0, 0.04)
    with pytest.raises(ValueError):
        CaseSpec(label="", fluid=fluid, geom=geom, slip=SlipSpec(),
                 omega_nominal=1.0)
    with pytest.raises(ValueError):
        CaseSpec(label="x", fluid=fluid, geom=geom, slip=SlipSpec(),
                 omega_nominal=0.0)


def test_jurin_height_exact_synth():
    # the study synthesis pins h_Jurin at 4R by construction
    fluid, geom = synth_params(1.0, 0.04)
    assert jurin_height(fluid, geom) == pytest.approx(0.02, rel=1e-12)


def test_jurin_height_table_rounded_row():
    fluid = FluidPair(rho_l=1663.8, rho_g=1.6638, mu_l=0.01, mu_g=1e-5,
                      sigma=0.2, g=1.04)
    geom = Geometry(R=0.005, theta_e=math.radians(30.0), h0=0.01)
    assert jurin_height(fluid, geom) == pytest.approx(0.02001963539868047, rel=1e-12)


def test_jurin_scales_inversely_with_R():
    fluid = make_fluid()
    g1 = Geometry(R=0.004, theta_e=0.5, h0=0.0)
    g2 = Geometry(R=0.002, theta_e=0.5, h0=0.0)
    ratio = jurin_height(fluid, g2) / jurin_height(fluid, g1)
    assert ratio == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("deg", [5, 15, 30, 45, 60, 75, 85])
def test_height_correction_matches_quadrature(deg):
    # oracle: direct area integral of the circular arc, r = R/cos(theta)
    R = 0.005
    th = math.radians(deg)
    geom = Geometry(R=R, theta_e=th, h0=0.0)
    r = R / math.cos(th)
    area, _ = quad(lambda x: r - math.sqrt(r * r - x * x), 0.0, R,
                   epsabs=1e-16, epsrel=1e-13)
    assert height_correction(geom) == pytest.approx(area / R, rel=1e-9)


def test_height_correction_frozen_30deg():
    assert height_correction(GEOM_STD) == pytest.approx(8.394685149335336e-4, rel=1e-12)
    # the 0.1678936 reference is quoted to 7 decimals with a truncated last
    # digit; compare in integer ulps of that precision to dodge float ties
    ulps = round(height_correction(GEOM_STD) / 0.005 * 1e7) - 1678936
    assert abs(ulps) <= 1


def test_height_correction_full_wetting_limit():
    # theta -> 0: the arc is a half circle, h_hat/R = 1 - pi/4
    geom = Geometry(R=1.0, theta_e=1e-9, h0=0.0)
    assert height_correction(geom) == pytest.approx(1.0 - math.pi / 4.0, rel=1e-6)


def test_height_correction_series_window():
    # the series fallback continues the closed form smoothly at the switch
    R = 0.005
    just_out = Geometry(R=R, theta_e=0.5 * math.pi - 2e-6, h0=0.0)
    just_in = Geometry(R=R, theta_e=0.5 * math.pi - 5e-7, h0=0.0)
    assert height_correction(just_in) < height_correction(just_out)
    assert height_correction(just_in) == pytest.approx(R * 5e-7 / 6.0, rel=1e-5)
    flat = Geometry(R=R, theta_e=0.5 * math.pi, h0=0.0)
    assert abs(height_correction(flat)) < 1e-18


def test_stationary_height_frozen():
    fluid, geom = synth_params(1.0, 0.04)
    assert stationary_height(fluid, geom) == pytest.approx(0.019160531485066468,
                                                           rel=1e-12)


def test_stationary_height_may_be_negative():
    # gravity so strong that the meniscus correction exceeds the Jurin height
    fluid = make_fluid(sigma=1e-4, g=100.0)
    geom = Geometry(R=0.01, theta_e=math.radians(30.0), h0=0.0)
    assert stationary_height(fluid, geom) < 0.0


def test_dimensionless_numbers_omega_row():
    fluid, geom = synth_params(1.0, 0.04)
    dn = dimensionless_numbers(fluid, geom)
    assert dn.omega == pytest.approx(1.0, rel=1e-12)
    assert dn.eo == pytest.approx(0.21628984459516354, rel=1e-12)
    assert dn.oh == pytest.approx(0.07755040492517497, rel=1e-12)
    assert dn.l_cap == pytest.approx(math.sqrt(0.04 / (fluid.rho_l * fluid.g)),
                                     rel=1e-12)


def test_dimensionless_numbers_rejects_90deg():
    fluid = make_fluid()
    geom = Geometry(R=0.005, theta_e=0.5 * math.pi, h0=0.0)
    with pytest.raises(NonWettingAngle):
        dimensionless_numbers(fluid, geom)


def test_oh_omega_identity_random():
    # Oh = omega * Eo_liquid / (3 sqrt(cos theta)) with the liquid-density Eo
    import random
    rng = random.Random(20240817)
    for _ in range(200):
        fluid = make_fluid(rho_l=10 ** rng.uniform(-1, 3.5),
                           rho_g=1e-3,
                           mu_l=10 ** rng.uniform(-4, -1),
                           sigma=10 ** rng.uniform(-3, 0),
                           g=10 ** rng.uniform(-1, 2))
        geom = Geometry(R=10 ** rng.uniform(-4, -1),
                        theta_e=rng.uniform(0.05, 1.5), h0=0.0)
        dn = dimensionless_numbers(fluid, geom)
        eo_liquid = dn.eo * fluid.rho_l / (fluid.rho_l - fluid.rho_g)
        rhs = dn.omega * eo_liquid / (3.0 * math.sqrt(math.cos(geom.theta_e)))
        assert dn.oh == pytest.approx(rhs, rel=1e-12)
