"""Case registry, comparison metrics, CSV contract and suite execution."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from caprise import harness, odemodels
from caprise.core import CaseSpec, FluidPair, Geometry, SlipSpec, \
    dimensionless_numbers, jurin_height, stationary_height
from caprise.errors import NoOverlap
from caprise.harness import (
    BenchResult,
    compare,
    format_slip,
    omega_suite,
    parse_slip,
    read_trajectory_csv,
    run_case,
    run_suite,
    trajectory_csv_text,
    write_scale_sidecar,
    write_trajectory_csv,
)
from caprise.odemodels import (ModelSpec, RiseBalance, Trajectory,
                               model_balance, solve_rk45)
from caprise.scaling import auto_t_end


def _reference_csv_text(traj):
    """The per-row CSV form that trajectory_csv_text's one %-format
    replaced; kept as the reference its bytes must match."""
    rows = zip(traj.t.tolist(), traj.h.tolist(), traj.v.tolist())
    return "t,h,hdot\n" + "".join(["%.17g,%.17g,%.17g\n" % r for r in rows])


def _sunken_case():
    """Water, R = 2 cm, theta = 30 deg: the meniscus correction exceeds
    the Jurin height, so the corrected stationary height is -3.04 mm."""
    fluid = FluidPair(rho_l=1000.0, rho_g=1.2, mu_l=1e-3, mu_g=1.8e-5,
                      sigma=0.072, g=9.81)
    geom = Geometry(R=0.02, theta_e=math.radians(30.0), h0=0.04)
    return CaseSpec(label="sunken", fluid=fluid, geom=geom,
                    slip=SlipSpec.navier(0.004),
                    omega_nominal=dimensionless_numbers(fluid, geom).omega)


@pytest.fixture(scope="module")
def suite():
    return omega_suite()


@pytest.fixture(scope="module")
def osc_pair(suite):
    """Classical and extended runs of the strongly oscillatory case."""
    case = suite[0]
    assert case.omega_nominal == 0.1
    return (run_case(case, "classical"), run_case(case, "extended"))


class TestOmegaSuite:
    def test_five_cases_with_unique_labels(self, suite):
        assert [c.label for c in suite] == [
            "omega0.1", "omega0.5", "omega1", "omega10", "omega100"]

    def test_omega100_row(self, suite):
        case = suite[-1]
        assert case.fluid.sigma == 0.001
        assert case.fluid.g == pytest.approx(26.042, rel=1e-3)

    def test_eotvos_shared_by_all_cases(self, suite):
        for case in suite:
            eo = dimensionless_numbers(case.fluid, case.geom).eo
            assert eo == pytest.approx(0.2165, abs=1e-3)

    def test_synthesis_hits_nominal_omega(self, suite):
        for case in suite:
            om = dimensionless_numbers(case.fluid, case.geom).omega
            assert om == pytest.approx(case.omega_nominal, rel=1e-12)

    def test_slip_variants(self):
        assert omega_suite()[0].slip == SlipSpec.navier(0.001)
        assert omega_suite("navier-r50")[0].slip == SlipSpec.navier(1e-4)
        assert omega_suite("numerical")[0].slip == SlipSpec()
        with pytest.raises(ValueError):
            omega_suite("free-slip")

    def test_slip_string_roundtrip(self):
        for slip in (SlipSpec(), SlipSpec.navier(0.001),
                     SlipSpec.navier(0.005 / 3.0)):
            assert parse_slip(format_slip(slip)) == slip
        for bad in ("slippy", "navier:x", "navier:-1", "navier:0"):
            with pytest.raises(ValueError):
                parse_slip(bad)


class TestCompare:
    def test_self_comparison(self, osc_pair):
        _, ext = osc_pair
        m = compare(ext.trajectory, ext.trajectory)
        assert m.l2_rel == 0.0
        assert m.linf_rel == 0.0
        assert m.first_peak_time_ratio == 1.0
        assert m.first_peak_overshoot_ratio == 1.0
        assert m.peak_count_a == m.peak_count_b > 0

    def test_constant_shift_sets_linf(self, osc_pair):
        _, ext = osc_pair
        a = ext.trajectory
        delta = 1e-10
        b = Trajectory(t=a.t, h=a.h + delta, v=a.v, metadata=dict(a.metadata))
        m = compare(b, a)
        assert abs(m.linf_rel - delta / np.max(np.abs(a.h))) <= 1e-12

    def test_l2_numerator_symmetric_under_swap(self, osc_pair):
        cls, ext = osc_pair
        a, b = cls.trajectory, ext.trajectory
        m_ab = compare(a, b)
        m_ba = compare(b, a)
        # rebuild the union grid to recover the un-normalized numerators
        tg = np.union1d(a.t, b.t)
        tg = tg[(tg >= max(a.t[0], b.t[0])) & (tg <= min(a.t[-1], b.t[-1]))]
        na = np.linalg.norm(np.interp(tg, a.t, a.h))
        nb = np.linalg.norm(np.interp(tg, b.t, b.h))
        assert abs(m_ab.l2_rel * nb - m_ba.l2_rel * na) <= 1e-15

    def test_resampling_error_small_on_smooth_data(self, suite):
        # a trajectory against its own half-rate subsample isolates the
        # linear-interpolation error, which shrinks as dt_out^2
        case = suite[2]
        t_end = auto_t_end(case.fluid, case.geom)
        row = model_balance(ModelSpec("extended", case.slip), case.fluid,
                            case.geom)
        errs = []
        for n in (2000, 4000):
            a = solve_rk45(row, case.geom.h0, 0.0, t_end, dt_out=t_end / n)
            b = Trajectory(t=a.t[::2], h=a.h[::2], v=a.v[::2],
                           metadata=dict(a.metadata))
            errs.append(compare(b, a).l2_rel)
        assert errs[1] <= 1e-6
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)

    @pytest.mark.parametrize("shift, factor_a, factor, error, match", [
        (2.0, 1.0, 1.0, NoOverlap, "share no interval"),
        # the relative norms were inf, which is not JSON
        (0.0, 1.0, 0.0, ValueError,
         r"reference trajectory is zero on the overlap \[0, "),
        # |h|^2 underflows, so the l2 norm it would divide by is 0
        (0.0, 1.0, 1e-170, ValueError, "or its norm underflows"),
        # |h|^2 overflows, so the l2 norm it would divide by is inf
        (0.0, 1.0, 1e160, ValueError, "or its norm underflows or overflows"),
        # the reference's norm is finite, the difference's is not
        (0.0, 1e200, 1.0, ValueError,
         "the 2-norm of the difference from the reference overflows"),
    ], ids=["disjoint", "zero", "norm-underflow", "norm-overflow",
            "diff-overflow"])
    def test_unusable_reference_refused(self, osc_pair, shift, factor_a,
                                        factor, error, match):
        _, ext = osc_pair
        a = dataclasses.replace(ext.trajectory, h=factor_a * ext.trajectory.h)
        b = Trajectory(t=a.t + shift * a.t[-1], h=factor * ext.trajectory.h,
                       v=a.v)
        with pytest.raises(error, match=match):
            compare(a, b)

    @pytest.mark.parametrize("ka, kb", [("III", None), ("III", "I"),
                                        (None, "II")])
    def test_mixed_scalings_refused(self, osc_pair, ka, kb):
        # the same numbers in two scalings are two different trajectories
        a = osc_pair[1].trajectory
        tr = [Trajectory(t=a.t, h=a.h, v=a.v,
                         metadata={} if k is None else {"scaling": k})
              for k in (ka, kb)]
        names = [k or "none" for k in (ka, kb)]
        with pytest.raises(ValueError, match="cannot compare scaling "
                           f"{names[0]} with scaling {names[1]}"):
            compare(*tr)
        assert compare(tr[0], tr[0]).l2_rel == 0.0

    def test_first_overshoot_ratio_near_half(self, osc_pair):
        cls, ext = osc_pair
        m = compare(cls.trajectory, ext.trajectory)
        assert m.first_peak_time_ratio is not None
        assert 0.35 <= m.first_peak_overshoot_ratio <= 0.65

    def test_monotone_case_has_no_ratios(self, suite):
        case = suite[-1]
        cls = run_case(case, "classical").trajectory
        ext = run_case(case, "extended").trajectory
        m = compare(cls, ext)
        assert m.peak_count_a == m.peak_count_b == 0
        assert m.first_peak_time_ratio is None
        assert m.first_peak_overshoot_ratio is None

    def test_overshoot_ratio_needs_stationary_heights(self, osc_pair):
        cls, ext = osc_pair
        a = cls.trajectory
        bare = Trajectory(t=a.t, h=a.h, v=a.v, metadata={})
        m = compare(bare, ext.trajectory)
        assert m.first_peak_time_ratio is not None
        assert m.first_peak_overshoot_ratio is None

    def test_first_maximum_at_time_zero_has_no_time_ratio(self):
        # a CSV may start below t = 0, which can put a first maximum at 0
        tr = Trajectory(t=[-1.0, 0.0, 1.0], h=[0.0, 1.0, 0.0], v=[0.0, 0.0, 0.0],
                        metadata={"h_inf": 0.5})
        m = compare(tr, tr)
        assert m.peak_count_a == m.peak_count_b == 1
        assert m.first_peak_time_ratio is None
        assert m.first_peak_overshoot_ratio == 1.0


class TestCsvContract:
    def test_roundtrip_is_exact(self, tmp_path, osc_pair):
        _, ext = osc_pair
        path = tmp_path / "traj.csv"
        write_trajectory_csv(ext.trajectory, path)
        back = read_trajectory_csv(path)
        assert np.array_equal(back.t, ext.trajectory.t)
        assert np.array_equal(back.h, ext.trajectory.h)
        assert np.array_equal(back.v, ext.trajectory.v)

    def test_byte_format(self, tmp_path, osc_pair):
        _, ext = osc_pair
        path = tmp_path / "traj.csv"
        write_trajectory_csv(ext.trajectory, path)
        raw = path.read_bytes()
        assert raw.startswith(b"t,h,hdot\n")
        assert b"\r" not in raw
        assert raw.endswith(b"\n") and not raw.endswith(b",\n")
        assert raw == trajectory_csv_text(ext.trajectory).encode()

    def test_text_matches_float64_formatting(self):
        # the export %-formats Python floats; the bytes must equal those of
        # np.float64 formatting and of the earlier f-string join, including
        # signed zero, subnormals and the extremes
        t = np.array([-0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 0.1, 1.0,
                      1e300])
        h = np.array([-0.0, 1e-300, 4.9e-324, -1.5e-310, 1 / 3,
                      1.7976931348623157e308, -1e300])
        v = np.array([1e-300, -0.0, 2.225e-308, -5e-324, -math.pi, 123456789.0,
                      -1e-300])
        traj = Trajectory(t=t, h=h, v=v)
        text = trajectory_csv_text(traj)
        numpy_rows = "t,h,hdot\n" + "".join(
            f"{a:.17g},{b:.17g},{c:.17g}\n"
            for a, b, c in zip(traj.t, traj.h, traj.v))
        joined = "\n".join(["t,h,hdot"] + [
            f"{a:.17g},{b:.17g},{c:.17g}"
            for a, b, c in zip(t.tolist(), h.tolist(), v.tolist())]) + "\n"
        assert text == numpy_rows
        assert text == joined
        assert text == _reference_csv_text(traj)
        assert "\n-0,-0,1e-300\n" in text and "4.9406564584124654e-324" in text
        assert ("\n1.0000000000000001e+300,-1.0000000000000001e+300,-1e-300\n"
                in text)

    def test_one_row_matches_reference(self):
        traj = Trajectory(t=np.array([0.0]), h=np.array([-0.0]),
                          v=np.array([-1.7976931348623157e308]))
        text = trajectory_csv_text(traj)
        assert text == _reference_csv_text(traj)
        assert text == "t,h,hdot\n0,-0,-1.7976931348623157e+308\n"

    def test_suite_export_matches_reference(self, tmp_path, suite, monkeypatch):
        texts = []

        def checked(traj):
            text = trajectory_csv_text(traj)
            assert text == _reference_csv_text(traj)
            texts.append(text)
            return text

        monkeypatch.setattr(harness, "trajectory_csv_text", checked)
        run_suite(suite, scalings=("none", "I", "II", "III"), out_dir=tmp_path)
        assert len(texts) == 40
        written = sorted(p.read_text() for p in tmp_path.glob("*.csv"))
        assert written == sorted(texts)

    def test_header_is_validated(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,height,speed\n0,0,0\n")
        with pytest.raises(ValueError):
            read_trajectory_csv(bad)

    def test_empty_file_is_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("t,h,hdot\n")
        with pytest.raises(ValueError):
            read_trajectory_csv(empty)

    def test_sidecar_merges_into_metadata(self, tmp_path, osc_pair):
        _, ext = osc_pair
        path = tmp_path / "traj.csv"
        write_trajectory_csv(ext.trajectory, path)
        write_scale_sidecar(path, {"scaling": "II", "t_rate": 2.0,
                                   "h_rate": 3.0, "h_inf": 0.5})
        back = read_trajectory_csv(path)
        assert back.metadata["scaling"] == "II"
        assert back.metadata["t_rate"] == 2.0
        assert back.metadata["h_inf"] == 0.5

    @pytest.mark.parametrize("name, h_inf, match", [
        # rise.csv, rise.txt and rise all paired with rise.scale.json
        ("traj.txt", 0.5, "named <stem>.csv"),
        ("traj", 0.5, "named <stem>.csv"),
        ("traj.CSV", 0.5, "named <stem>.csv"),
        ("traj.csv", math.inf, "not JSON compliant"),
    ], ids=["txt", "no-suffix", "upper-case", "h_inf-inf"])
    def test_refused_before_writing(self, tmp_path, osc_pair, name, h_inf, match):
        a = osc_pair[1].trajectory
        traj = Trajectory(t=a.t, h=a.h, v=a.v, metadata={"h_inf": h_inf})
        with pytest.raises(ValueError, match=match):
            write_trajectory_csv(traj, tmp_path / name)
        assert list(tmp_path.iterdir()) == []

    def test_other_names_read_bare(self, tmp_path, osc_pair):
        # a stdout capture next to a scaled CSV of the same stem
        traj = osc_pair[1].trajectory
        scaled = Trajectory(t=traj.t, h=traj.h, v=traj.v,
                            metadata={"scaling": "II", "t_rate": 2.0,
                                      "h_rate": 3.0})
        write_trajectory_csv(scaled, tmp_path / "rise.csv")
        for name in ("rise.txt", "rise"):
            (tmp_path / name).write_text(trajectory_csv_text(traj))
            back = read_trajectory_csv(tmp_path / name)
            assert back.metadata == {}
            assert np.array_equal(back.h, traj.h)
        assert read_trajectory_csv(tmp_path / "rise.csv").metadata["scaling"] == "II"

    def test_sidecar_integer_rates_read_as_floats(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("t,h,hdot\n0,1,0\n1,1,0\n")
        path.with_suffix(".scale.json").write_text(
            '{"scaling": "I", "t_rate": 2, "h_rate": 3, "h_inf": 1}')
        meta = read_trajectory_csv(path).metadata
        assert [type(meta[k]) for k in ("t_rate", "h_rate", "h_inf")] == [float] * 3

    @pytest.mark.parametrize("sidecar, match", [
        ('[1, 2]', "JSON object"),
        ('{"t_rate": 2.0, "h_rate": 3.0}', "scaling"),
        ('{"scaling": "IV", "t_rate": 2.0, "h_rate": 3.0}', "scaling"),
        ('{"scaling": "II", "h_rate": 3.0}', "t_rate"),
        ('{"scaling": "II", "t_rate": "2", "h_rate": 3.0}', "t_rate"),
        ('{"scaling": "II", "t_rate": true, "h_rate": 3.0}', "t_rate"),
        ('{"scaling": "II", "t_rate": 0.0, "h_rate": 3.0}', "t_rate"),
        ('{"scaling": "II", "t_rate": NaN, "h_rate": 3.0}', "t_rate"),
        ('{"scaling": "none", "t_rate": 2.0, "h_rate": 1.0}', "t_rate"),
        ('{"scaling": "II", "t_rate": 2.0, "h_rate": -3.0}', "h_rate"),
        ('{"scaling": "II", "t_rate": 2.0, "h_rate": Infinity}', "h_rate"),
        ('{"scaling": "II", "t_rate": 2.0, "h_rate": 3.0, "h_inf": "x"}', "h_inf"),
        ('{"scaling": "II", "t_rate": 2.0, "h_rate": 3.0, "h_inf": NaN}', "h_inf"),
        ('{"scaling": "II", "t_rate": 2.0, "h_rate": 3.0, "h_inf": 1%s}' % ("0" * 400),
         "h_inf"),
        ('{"scaling": "II"', "Expecting"),
    ], ids=["list", "no-scaling", "scaling-IV", "no-t_rate", "t_rate-text",
            "t_rate-bool", "t_rate-0", "t_rate-nan", "none-t_rate-2", "h_rate<0",
            "h_rate-inf", "h_inf-text", "h_inf-nan", "h_inf-huge-int", "not-json"])
    def test_malformed_sidecar_refused(self, tmp_path, sidecar, match):
        path = tmp_path / "traj.csv"
        path.write_text("t,h,hdot\n0,1,0\n1,1,0\n")
        path.with_suffix(".scale.json").write_text(sidecar)
        with pytest.raises(ValueError, match=match):
            read_trajectory_csv(path)


class TestRunCase:
    def test_classical_metrics(self, osc_pair):
        cls, _ = osc_pair
        case = cls.case
        h_inf = stationary_height(case.fluid, case.geom)
        assert cls.h_inf_predicted == h_inf
        assert cls.rel_stationary_err == abs(cls.h_final - h_inf) / h_inf
        # the classical trajectory oscillates about the uncorrected height
        assert cls.trajectory.metadata["h_inf"] == jurin_height(case.fluid,
                                                                case.geom)
        assert cls.step_count > 0

    @pytest.mark.parametrize("model", ["classical", "extended", "vof2d"])
    def test_non_positive_stationary_height_refused(self, model, monkeypatch):
        case = _sunken_case()
        assert stationary_height(case.fluid, case.geom) == pytest.approx(
            -3.04e-3, rel=1e-3)

        def no_run(*args, **kwargs):
            raise AssertionError("a model ran")
        monkeypatch.setattr(harness, "integrate", no_run)
        monkeypatch.setattr(harness, "Simulator", no_run)
        with pytest.raises(ValueError, match="stationary height"):
            run_case(case, model, nx=4)

    def test_computes_no_summary_figures(self, suite, monkeypatch):
        def no_peaks(traj):
            raise AssertionError("peaks detected")
        monkeypatch.setattr(harness, "detect_peaks", no_peaks)
        res = run_case(suite[2], "classical")
        assert res.step_count > 0
        assert res.ca_max > 0.0
        assert res.t_settle is None or res.t_settle > 0.0
        with pytest.raises(AssertionError, match="peaks detected"):
            res.peaks

    def test_vof2d_needs_resolution(self, suite):
        with pytest.raises(ValueError):
            run_case(suite[2], "vof2d")
        with pytest.raises(ValueError, match="integer nx >= 4"):
            run_case(suite[2], "vof2d", nx=8.5)
        with pytest.raises(ValueError):
            run_case(suite[2], "sph")


class TestStationaryTargets:
    def test_models_settle_on_their_own_heights(self, suite):
        # oscillatory case at 4x the auto horizon, monotone case at 1x
        for case, factor in ((suite[1], 4.0), (suite[3], 1.0)):
            t_end = factor * auto_t_end(case.fluid, case.geom)
            hj = jurin_height(case.fluid, case.geom)
            hs = stationary_height(case.fluid, case.geom)
            cls = run_case(case, "classical", t_end=t_end)
            ext = run_case(case, "extended", t_end=t_end)
            assert abs(cls.h_final - hj) / hj <= 1e-4
            assert abs(ext.h_final - hs) / hs <= 1e-4
            # the targets are distinct: classical misses the corrected height
            assert cls.rel_stationary_err > 0.04
            assert ext.rel_stationary_err <= 1e-4


class TestRunSuite:
    def test_extended_suite_levels_at_corrected_height(self, tmp_path, suite):
        out = tmp_path / "suite"
        results = run_suite(suite, models=("extended",), out_dir=out)
        assert len(results) == 5
        for res in results:
            assert res.rel_stationary_err <= 0.03
            csv = out / f"{res.case.label}_extended_none.csv"
            back = read_trajectory_csv(csv)
            assert back.h[-1] == res.h_final
        summary = json.loads((out / "summary.json").read_text())
        assert [e["label"] for e in summary] == [c.label for c in suite]
        assert all("error" not in e for e in summary)
        assert {e["slip"] for e in summary} == {"navier:0.001"}

    def test_dimensional_export_has_sidecar(self, tmp_path, suite):
        results = run_suite(suite[2:3], scalings=("none",), out_dir=tmp_path)
        for res in results:
            side = tmp_path / f"{res.case.label}_{res.model}_none.scale.json"
            assert json.loads(side.read_text()) == {
                "scaling": "none", "t_rate": 1.0, "h_rate": 1.0,
                "h_inf": res.trajectory.metadata["h_inf"]}
        assert [r.model for r in results] == ["classical", "extended"]

    def test_summary_follows_input_order(self, tmp_path, suite):
        # one entry per (case, model) pair in input order, whatever the
        # order; each file holds the bytes of the default-order run
        rev, std = tmp_path / "reversed", tmp_path / "default"
        results = run_suite([suite[1], suite[0]], models=("extended", "classical"),
                            scalings=("III", "none"), out_dir=rev)
        run_suite(suite[:2], scalings=("none", "III"), out_dir=std)
        pairs = [(c.label, m) for c in (suite[1], suite[0])
                 for m in ("extended", "classical")]
        assert [(r.case.label, r.model) for r in results] == pairs
        summary = json.loads((rev / "summary.json").read_text())
        assert [(e["label"], e["model"]) for e in summary] == pairs
        names = sorted(p.name for p in std.iterdir())
        assert names == sorted(p.name for p in rev.iterdir())
        assert len(names) == 1 + 4 * 2 * 2
        for name in names:
            if name != "summary.json":
                assert (rev / name).read_bytes() == (std / name).read_bytes()

    def test_suite_reruns_byte_identical(self, tmp_path, suite):
        sel = suite[:2]
        dirs = (tmp_path / "r1", tmp_path / "r2")
        for d in dirs:
            run_suite(sel, models=("classical", "extended"),
                      scalings=("none", "II"), out_dir=d)
        files = sorted(p.name for p in dirs[0].iterdir())
        assert files == sorted(p.name for p in dirs[1].iterdir())
        for name in files:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_scaling_two_separates_stiff_cases(self, tmp_path, suite):
        out = tmp_path / "scaled"
        run_suite([suite[3], suite[4]], models=("extended",),
                  scalings=("II",), out_dir=out)
        t99 = {}
        for label in ("omega10", "omega100"):
            tr = read_trajectory_csv(out / f"{label}_extended_II.csv")
            hs = tr.metadata["h_inf"]
            t99[label] = tr.t[np.nonzero(tr.h >= 0.99 * hs)[0][0]]
        assert t99["omega100"] > 2.0 * t99["omega10"]

    def test_empty_selection(self, tmp_path):
        out = tmp_path / "empty"
        assert run_suite([], out_dir=out) == []
        assert json.loads((out / "summary.json").read_text()) == []
        assert sorted(p.name for p in out.iterdir()) == ["summary.json"]

    @staticmethod
    def _assert_refused(parent, selection, match=None, **kw):
        # a refused suite writes nothing, not even its out_dir
        parent.mkdir()
        with pytest.raises(ValueError, match=match):
            run_suite(selection, out_dir=parent / "out", **kw)
        assert list(parent.iterdir()) == []

    def test_duplicate_labels_rejected(self, tmp_path, suite):
        self._assert_refused(tmp_path / "labels", [suite[0], suite[0]],
                             match="case labels must be unique")

    def test_bad_model_and_scaling_rejected(self, tmp_path, suite, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run_case",
                            lambda *a, **k: calls.append(a))
        self._assert_refused(tmp_path / "euler", suite[:1], models=("euler",))
        self._assert_refused(tmp_path / "IV", suite[:1], scalings=("IV",))
        # one summary entry per (case, model) pair, one CSV per scaling
        self._assert_refused(tmp_path / "models", suite,
                             match="models must be unique",
                             models=("extended", "extended"))
        self._assert_refused(tmp_path / "scalings", suite,
                             match="scalings must be unique",
                             scalings=("none", "I", "none"))
        # models lists the reduced models; with_pde adds vof2d
        for with_pde in (None, 4):
            self._assert_refused(tmp_path / f"vof2d-{with_pde}", suite[:1],
                                 match="with_pde",
                                 models=("classical", "vof2d"),
                                 with_pde=with_pde)
        assert calls == []

    def test_coarse_pde_rejected_before_any_run(self, tmp_path, suite,
                                                monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run_case",
                            lambda *a, **k: calls.append(a))
        for with_pde in (2, 8.5, 8.0):
            self._assert_refused(tmp_path / f"coarse-{with_pde}", suite,
                                 match=r"with_pde: .*integer nx >= 4",
                                 models=("classical",), with_pde=with_pde)
        # a pressure band of 64 PB: refused by the grid, not by numpy
        self._assert_refused(tmp_path / "huge", suite,
                             match=r"with_pde: .*at most nx = 128 cells, got 100000$",
                             models=("classical",), with_pde=10**5)
        assert calls == []

    def test_work_bound_recorded(self, tmp_path, suite, monkeypatch):
        # omega 100 classical spends 241,316 evaluations, omega 1 1,328
        monkeypatch.setattr(odemodels, "MAX_RHS_EVALS", 10_000)
        out = tmp_path / "bound"
        results = run_suite([suite[4], suite[2]], models=("classical",),
                            out_dir=out)
        assert [r.case.label for r in results] == ["omega1"]
        summary = json.loads((out / "summary.json").read_text())
        assert re.match(r"WorkBoundExceeded: 100\d\d right-hand-side "
                        r"evaluations exceed the bound 10000 at t = 0\.\d+ of ",
                        summary[0]["error"])
        assert "error" not in summary[1]
        assert not (out / "omega100_classical_none.csv").exists()

    def test_failures_recorded_without_aborting(self, tmp_path, suite):
        # h0 = 0 is a valid geometry but the classical model refuses it
        bad_geom = dataclasses.replace(suite[2].geom, h0=0.0)
        bad = dataclasses.replace(suite[2], label="degenerate", geom=bad_geom)
        out = tmp_path / "mixed"
        results = run_suite([bad, suite[3]], models=("classical",), out_dir=out)
        assert len(results) == 1
        assert results[0].case.label == "omega10"
        summary = json.loads((out / "summary.json").read_text())
        assert summary[0]["label"] == "degenerate"
        assert "ValueError" in summary[0]["error"]
        assert "error" not in summary[1]
        assert not (out / "degenerate_classical_none.csv").exists()

    def test_non_positive_stationary_height_recorded(self, tmp_path, suite):
        out = tmp_path / "sunken"
        results = run_suite([_sunken_case(), suite[3]], out_dir=out)
        assert [(r.case.label, r.model) for r in results] == [
            ("omega10", "classical"), ("omega10", "extended")]
        summary = json.loads((out / "summary.json").read_text())
        assert [e["model"] for e in summary[:2]] == ["classical", "extended"]
        assert all(e["error"].startswith("ValueError: stationary height")
                   for e in summary[:2])

    def test_unstartable_integration_recorded(self, tmp_path, suite, monkeypatch):
        # a row whose first derivative overflows the initial-step estimate
        overflow = RiseBalance(1.5e308, 1e308, 0.0, -1.0, 0.0, 1e-3)
        monkeypatch.setattr(odemodels, "model_balance", lambda *args: overflow)
        out = tmp_path / "overflow"
        assert run_suite([suite[2]], models=("classical",), out_dir=out) == []
        entry = json.loads((out / "summary.json").read_text())[0]
        assert entry["error"] == ("StepSizeUnderflow: step size 0.0 fell below "
                                  "5e-323 at t = 0.0")

    def test_pde_runs_through_suite(self, tmp_path, suite):
        out = tmp_path / "pde"
        results = run_suite([suite[2]], models=("classical",), with_pde=4,
                            out_dir=out)
        # with_pde adds vof2d after the reduced models, as bench writes it
        assert [r.model for r in results] == ["classical", "vof2d"]
        res = results[1]
        assert res.step_count > 10
        assert res.h_final > suite[2].geom.h0
        summary = json.loads((out / "summary.json").read_text())
        assert [e["model"] for e in summary] == ["classical", "vof2d"]
        entry = summary[1]
        assert entry["n_steps"] == res.step_count
        assert (out / "omega1_vof2d_none.csv").exists()
        # the run's diagnostics reach the summary
        assert entry["diagnostics"] == dataclasses.asdict(res.diagnostics)
        assert entry["diagnostics"]["n_steps"] == res.step_count

    def test_summary_entry_fields(self, tmp_path, suite):
        out = tmp_path / "fields"
        run_suite([suite[2]], models=("extended",), out_dir=out)
        entry = json.loads((out / "summary.json").read_text())[0]
        assert sorted(entry) == sorted([
            "label", "omega", "model", "slip", "params", "h_jurin", "h_hat",
            "h_inf", "h_final", "rel_stationary_err", "ca_max", "t_settle",
            "peaks", "n_steps", "wall_time_s"])
        assert sorted(entry["params"]) == sorted(
            ["rho", "mu", "sigma", "g", "R", "theta_deg"])
        assert entry["params"]["theta_deg"] == 30.0
        assert entry["h_inf"] == entry["h_jurin"] - entry["h_hat"]
        assert entry["wall_time_s"] is None
        assert all(set(p) == {"t", "h", "is_max"} for p in entry["peaks"])
