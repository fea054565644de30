"""Scaling coefficients, slip groups, scaled model, consistency theorem."""

import math
import random

import numpy as np
import pytest

from caprise.core import FluidPair, Geometry, SlipSpec, dimensionless_numbers, \
    height_correction, jurin_height
from caprise.errors import NonWettingAngle
from caprise.harness import read_trajectory_csv, write_trajectory_csv
from caprise.odemodels import ModelSpec, Trajectory, detect_peaks, \
    integrate, slip_groups, solve_rk45
from caprise.scaling import (
    SCALING_KINDS,
    ScaleSet,
    auto_t_end,
    coefficients,
    nondimensionalize,
    scaled_balance,
    units,
)
from caprise.study import synth_params

FLUID_OM1_TAB = FluidPair(rho_l=83.1, rho_g=0.0831, mu_l=0.01, mu_g=1e-5,
                          sigma=0.04, g=4.17)
GEOM_STD = Geometry(R=0.005, theta_e=math.radians(30.0), h0=0.01)


def random_fluid_geom(rng):
    fluid = FluidPair(rho_l=10 ** rng.uniform(-1, 3.5), rho_g=1e-3,
                      mu_l=10 ** rng.uniform(-4, -1), mu_g=1e-6,
                      sigma=10 ** rng.uniform(-3, 0), g=10 ** rng.uniform(-1, 2))
    geom = Geometry(R=10 ** rng.uniform(-4, -1), theta_e=rng.uniform(0.05, 1.5),
                    h0=0.0)
    return fluid, geom


def test_coefficients_table_row():
    s = coefficients(FLUID_OM1_TAB, GEOM_STD, "2d")
    assert s.a == pytest.approx(11.994451842414474, rel=1e-12)
    assert s.b == pytest.approx(173.20508075688772, rel=1e-12)
    assert s.c == pytest.approx(50.01686418286836, rel=1e-12)
    assert s.omega == pytest.approx(1.0, rel=5e-3)  # table rounding


def test_coefficients_rejects_nonwetting():
    geom = Geometry(R=0.005, theta_e=0.5 * math.pi, h0=0.0)
    with pytest.raises(NonWettingAngle):
        coefficients(FLUID_OM1_TAB, geom)


def test_c_is_inverse_jurin_height():
    rng = random.Random(11)
    for _ in range(50):
        fluid, geom = random_fluid_geom(rng)
        s = coefficients(fluid, geom, "2d")
        assert s.c * jurin_height(fluid, geom) == pytest.approx(1.0, rel=1e-12)


def test_sigma_doubling():
    f1 = FLUID_OM1_TAB
    f2 = FluidPair(rho_l=f1.rho_l, rho_g=f1.rho_g, mu_l=f1.mu_l, mu_g=f1.mu_g,
                   sigma=2 * f1.sigma, g=f1.g)
    s1 = coefficients(f1, GEOM_STD)
    s2 = coefficients(f2, GEOM_STD)
    assert s2.a == pytest.approx(s1.a / 2, rel=1e-12)
    assert s2.b == pytest.approx(s1.b / 2, rel=1e-12)
    assert s2.c == pytest.approx(s1.c / 2, rel=1e-12)
    assert s2.omega / s1.omega == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_omega_matches_core_random():
    rng = random.Random(20240818)
    for _ in range(1000):
        fluid, geom = random_fluid_geom(rng)
        s = coefficients(fluid, geom, "2d")
        assert s.omega == pytest.approx(dimensionless_numbers(fluid, geom).omega,
                                        rel=1e-12)


def test_coefficients_3d_formulas():
    # each coefficient has the bits of its closed form, plates and tube
    rng = random.Random(5)
    for fluid, geom in [(FLUID_OM1_TAB, GEOM_STD)] + [random_fluid_geom(rng)
                                                      for _ in range(200)]:
        rho, mu, g, R = fluid.rho_l, fluid.mu_l, fluid.g, geom.R
        sc = fluid.sigma * math.cos(geom.theta_e)
        s2 = coefficients(fluid, geom, "2d")
        s3 = coefficients(fluid, geom, "3d")
        assert (s2.a, s2.b, s2.c) == (rho * R / sc, 3.0 * mu / (R * sc), rho * g * R / sc)
        assert (s3.a, s3.b, s3.c) == (rho * R / (2.0 * sc), 4.0 * mu / (R * sc),
                                      rho * g * R / (2.0 * sc))
    with pytest.raises(ValueError, match="dim must be '2d' or '3d'"):
        coefficients(FLUID_OM1_TAB, GEOM_STD, "1d")
    # omega_3d = sqrt(128 sigma cos mu^2/(rho^3 g^2 R^5)) by substitution
    f, g = FLUID_OM1_TAB, GEOM_STD
    s3 = coefficients(f, g, "3d")
    want = math.sqrt(128.0 * f.sigma * math.cos(g.theta_e) * f.mu_l**2
                     / (f.rho_l**3 * f.g**2 * g.R**5))
    assert s3.omega == pytest.approx(want, rel=1e-12)


def test_units_frozen_values():
    s = coefficients(FLUID_OM1_TAB, GEOM_STD, "2d")
    u1 = units("I", s)
    assert u1.t_rate == pytest.approx(14.443494912247353, rel=1e-12)
    assert u1.t_rate == pytest.approx(14.443, abs=5e-4)
    assert u1.h_rate == s.c
    u3 = units("III", s)
    assert u3.h_rate == pytest.approx(35.36351510258478, rel=1e-12)
    assert round(u3.h_rate, 3) == pytest.approx(35.364)
    with pytest.raises(ValueError):
        units("IV", s)


def test_units_scaling_II_equals_I_at_omega_one():
    # b^2 = a c^2 makes the viscous and inertial time rates coincide
    a, c = 2.0, 3.0
    b = math.sqrt(a) * c
    s = ScaleSet(a=a, b=b, c=c)
    assert s.omega == pytest.approx(1.0, rel=1e-15)
    assert units("I", s).t_rate == pytest.approx(units("II", s).t_rate, rel=1e-15)
    assert units("I", s).h_rate == units("II", s).h_rate


def test_scaling_iii_equilibrium_identity():
    # h_rate_III * h_Jurin = omega/sqrt(2), exactly, for any parameters
    rng = random.Random(5)
    for _ in range(50):
        fluid, geom = random_fluid_geom(rng)
        s = coefficients(fluid, geom, "2d")
        val = units("III", s).h_rate * jurin_height(fluid, geom)
        assert val == pytest.approx(s.omega / math.sqrt(2.0), rel=1e-12)


def test_slip_groups_frozen():
    g = slip_groups(0.001, 0.005)
    assert g.k == pytest.approx(0.625, rel=1e-15)
    assert g.q == pytest.approx(1.078125, rel=1e-12)
    g0 = slip_groups(0.0, 1.0)
    assert g0.k == 1.0
    assert g0.q == pytest.approx(1.2, rel=1e-15)
    ginf = slip_groups(1e12, 1.0)
    assert ginf.k == pytest.approx(0.0, abs=1e-11)
    assert ginf.q == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize("make", [
    SlipSpec.navier, lambda L: ModelSpec("extended", SlipSpec(L)),
    lambda L: slip_groups(L, 0.005),
], ids=["SlipSpec.navier", "ModelSpec", "slip_groups"])
@pytest.mark.parametrize("L", [math.inf, math.nan], ids=["inf", "nan"])
def test_non_finite_slip_length_refused(make, L):
    # an infinite slip length later ends in a NaN step or pressure field
    with pytest.raises(ValueError, match="finite"):
        make(L)


def test_slip_groups_monotone():
    ss = np.linspace(0.0, 50.0, 400)
    ks = [slip_groups(s, 1.0).k for s in ss]
    qs = [slip_groups(s, 1.0).q for s in ss]
    assert all(b < a for a, b in zip(ks, ks[1:]))
    assert all(b < a for a, b in zip(qs, qs[1:]))


def test_nondimensionalize_equilibrium_and_rates():
    fluid, geom = synth_params(1.0, 0.04)
    s = coefficients(fluid, geom)
    h_j = jurin_height(fluid, geom)
    t = np.linspace(0.0, 1.0, 11)
    v = np.linspace(-0.1, 0.1, 11)
    traj = Trajectory(t=t, h=np.full_like(t, h_j), v=v, metadata={"h_inf": h_j})
    scaled = nondimensionalize(traj, "I", s)
    assert np.allclose(scaled.h, 1.0, rtol=1e-12, atol=0)
    assert scaled.metadata["h_inf"] == pytest.approx(1.0, rel=1e-12)
    for kind in SCALING_KINDS:
        u = units(kind, s)
        scaled = nondimensionalize(traj, kind, s)
        assert np.array_equal(scaled.t, t * u.t_rate)
        assert np.array_equal(scaled.h, traj.h * u.h_rate)
        assert np.array_equal(scaled.v, v * u.v_rate)
        assert scaled.metadata["h_inf"] == h_j * u.h_rate
        assert (scaled.metadata["scaling"], scaled.metadata["t_rate"],
                scaled.metadata["h_rate"]) == (kind, u.t_rate, u.h_rate)
    assert traj.metadata == {"h_inf": h_j}  # the input is left as it was


def test_nondimensionalize_refuses_scaled_trajectory(tmp_path):
    # its metadata records one set of rates, so a second scaling could
    # not be undone from them
    fluid, geom = synth_params(1.0, 0.04)
    s = coefficients(fluid, geom)
    t = np.linspace(0.0, 1.0, 11)
    traj = Trajectory(t=t, h=np.full_like(t, 0.01), v=np.zeros_like(t))
    scaled = nondimensionalize(traj, "II", s)
    path = tmp_path / "rise_II.csv"
    write_trajectory_csv(scaled, path)
    for again in (scaled, read_trajectory_csv(path)):
        for kind in SCALING_KINDS:
            with pytest.raises(ValueError, match="already in scaling II"):
                nondimensionalize(again, kind, s)


def test_nondimensionalize_time_value():
    s = coefficients(FLUID_OM1_TAB, GEOM_STD)
    t = np.array([0.0, 0.06924])
    traj = Trajectory(t=t, h=np.full_like(t, 0.01), v=np.zeros_like(t))
    scaled = nondimensionalize(traj, "I", s)
    assert scaled.t[-1] == pytest.approx(1.0001, abs=1e-4)


def test_rhs_scaled_equilibria():
    groups = slip_groups(0.001, 0.005)
    for omega in (0.1, 1.0, 10.0):
        hh = 0.042
        dh, dv = scaled_balance("I", omega, groups, hh)(1.0 - hh, 0.0)
        assert dh == 0.0 and abs(dv) <= 1e-12
        dh, dv = scaled_balance("II", omega, groups, hh)(1.0 - hh, 0.0)
        assert abs(dv) <= 1e-12
        heq = omega / math.sqrt(2.0) - hh
        dh, dv = scaled_balance("III", omega, groups, hh)(heq, 0.0)
        assert abs(dv) <= 1e-12


@pytest.mark.parametrize("kind", SCALING_KINDS)
@pytest.mark.parametrize("omega", [0.0, -1.0, math.nan], ids=["0", "-1", "nan"])
def test_scaled_balance_refuses_non_positive_omega(kind, omega):
    with pytest.raises(ValueError, match="omega"):
        scaled_balance(kind, omega, slip_groups(0.001, 0.005), 0.04)


def test_rhs_scaled_generic_frozen():
    groups = slip_groups(0.001, 0.005)  # S = 0.2
    _, dv = scaled_balance("II", 1.0, groups, 0.042)(0.5, 0.1)
    assert dv == pytest.approx(0.7839598708487084, rel=1e-12)


def test_rhs_scaled_row_residuals_random():
    # the returned dv must zero the unexpanded Table-row forms
    rng = random.Random(99)
    for _ in range(200):
        omega = 10 ** rng.uniform(-1.5, 1.5)
        groups = slip_groups(rng.uniform(0.0, 2.0), 1.0)
        hh = rng.uniform(0.0, 0.2)
        h = rng.uniform(0.05, 2.0)
        v = rng.uniform(-1.0, 1.0)
        H = h + hh
        k, q = groups.k, groups.q
        _, dv = scaled_balance("I", omega, groups, hh)(h, v)
        res = (dv * H + v * v) / omega**2 + k * v * H + H - 1.0 - q * v * v / omega**2
        assert abs(res) <= 1e-12 * (1.0 + abs(dv * H) / omega**2)
        _, dv = scaled_balance("II", omega, groups, hh)(h, v)
        res = dv * H + v * v + k * omega * v * H + H - 1.0 - q * v * v
        assert abs(res) <= 1e-12 * (1.0 + abs(dv * H))
        _, dv = scaled_balance("III", omega, groups, hh)(h, v)
        res = (2.0 * (dv * H + v * v) + 2.0 * k * v * H
               + math.sqrt(2.0) / omega * H - 1.0 - 2.0 * q * v * v)
        assert abs(res) <= 1e-12 * (1.0 + abs(dv * H))


def test_integrate_scaled_reaches_equilibrium():
    groups = slip_groups(0.001, 0.005)
    fluid, geom = synth_params(1.0, 0.04)
    s = coefficients(fluid, geom)
    hh = height_correction(geom) * units("II", s).h_rate
    tr = solve_rk45(scaled_balance("II", 1.0, groups, hh),
                    0.01 * units("II", s).h_rate, 0.0, t_end=60.0)
    assert tr.h[-1] + hh == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("omega", [0.1, 0.2])
@pytest.mark.parametrize("L", [1e-3, 1e-4])
def test_scaled_ii_small_omega_linearisation(omega, L):
    # oracle: around H = 1 scaling II is x'' + k omega x' + x = 0, a damped
    # oscillator of period T = 2 pi/sqrt(1 - (k omega/2)^2) whose successive
    # overshoots shrink by exp(-k omega/2 T)
    hh = 0.04
    groups = slip_groups(L, 0.005)
    tr = solve_rk45(scaled_balance("II", omega, groups, hh), 0.46, 0.0, 200.0,
                    dt_out=0.005, metadata={"h_inf": 1.0})
    decay = groups.k * omega / 2.0
    period = 2.0 * math.pi / math.sqrt(1.0 - decay * decay)
    ratio = math.exp(-decay * period)
    maxima = [p for p in detect_peaks(tr, eps_peak=1e-12)
              if p.is_max]
    # late enough to be linear, early enough to stand above sampling noise
    pairs = [(a, b) for a, b in zip(maxima, maxima[1:])
             if 1e-5 <= a.h + hh - 1.0 <= 5e-3]
    assert len(pairs) >= 2
    for a, b in pairs:
        assert abs((b.t - a.t) / period - 1.0) <= 1e-4
        assert abs((b.h + hh - 1.0) / (a.h + hh - 1.0) / ratio - 1.0) <= 1e-3


@pytest.mark.parametrize("L", [1e-3, 1e-4])
def test_scaled_ii_critical_omega(L):
    # oracle: x'' + k omega x' + x = 0 is critically damped at omega = 2/k.
    # Started just below H = 1 at rest, the column overshoots below that
    # omega and creeps up to H = 1 without crossing it above
    hh, H0 = 0.04, 1.0 - 1e-3
    groups = slip_groups(L, 0.005)
    omega_c = 2.0 / groups.k
    under = solve_rk45(scaled_balance("II", 0.8 * omega_c, groups, hh), H0 - hh, 0.0,
                       40.0)
    over = solve_rk45(scaled_balance("II", 1.25 * omega_c, groups, hh), H0 - hh, 0.0,
                      40.0)
    overshoot = np.max(under.h) + hh - 1.0
    assert overshoot > 1e-6
    # the linear first overshoot, exp(-pi zeta/sqrt(1 - zeta^2)) at zeta 0.8
    assert overshoot == pytest.approx(1e-3 * math.exp(-math.pi * 0.8 / 0.6), rel=1e-2)
    assert np.max(over.h) + hh - 1.0 <= 1e-9


def test_scaled_i_viscous_limit():
    # oracle: as omega -> inf scaling I tends to k H H' = 1 - H, solved by
    # t = k[(H0 - H) + ln((1 - H0)/(1 - H))]; the gap closes as 1/omega^2
    hh, H0 = 0.04, 0.5
    groups = slip_groups(0.2, 1.0)  # k = 0.625
    k = groups.k
    gaps = []
    for omega in (10.0, 30.0):
        tr = solve_rk45(scaled_balance("I", omega, groups, hh), H0 - hh, 0.0, 3.0)
        late = tr.t > 0.5  # past the inertial start-up layer
        H = tr.h[late] + hh
        t_closed = k * ((H0 - H) + np.log((1.0 - H0) / (1.0 - H)))
        gaps.append(float(np.max(np.abs(tr.t[late] - t_closed))))
    order = math.log(gaps[0] / gaps[1]) / math.log(3.0)
    assert 1.8 <= order <= 2.2
    assert gaps[1] <= 0.02


@pytest.mark.parametrize("kind", SCALING_KINDS)
def test_consistency_theorem_omega_one(kind):
    # dimensional integrate + nondimensionalize == direct scaled integrate
    fluid, geom = synth_params(1.0, 0.04)
    L = geom.R / 5.0
    t_end = auto_t_end(fluid, geom)
    traj = integrate(ModelSpec("extended", SlipSpec(L)), fluid, geom, t_end)
    s = coefficients(fluid, geom)
    scaled_ref = nondimensionalize(traj, kind, s)
    u = units(kind, s)
    groups = slip_groups(L, geom.R)
    direct = solve_rk45(scaled_balance(kind, s.omega, groups,
                                       height_correction(geom) * u.h_rate),
                        geom.h0 * u.h_rate, 0.0, t_end * u.t_rate,
                        dt_out=(t_end / 2000.0) * u.t_rate)
    assert len(direct) == len(scaled_ref)
    assert np.max(np.abs(direct.t - scaled_ref.t)) <= 1e-9 * direct.t[-1]
    err = np.max(np.abs(direct.h - scaled_ref.h)) / np.max(np.abs(scaled_ref.h))
    assert err <= 1e-6


def test_auto_t_end_frozen():
    fluid, geom = synth_params(1.0, 0.04)
    assert auto_t_end(fluid, geom) == pytest.approx(0.6928203230275511, rel=1e-12)
    fluid, geom = synth_params(0.1, 0.2)
    assert auto_t_end(fluid, geom) == pytest.approx(13.85640646055102, rel=1e-12)
