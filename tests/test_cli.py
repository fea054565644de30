"""Command line interface: subcommand behavior and exit codes."""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from caprise.cli import main
from caprise.core import SlipSpec, stationary_height
from caprise.errors import StepSizeUnderflow
from caprise.harness import (_study_case, compare, read_trajectory_csv,
                             run_case, trajectory_csv_text,
                             write_trajectory_csv)
from caprise.odemodels import ModelSpec, Trajectory, integrate
from caprise.scaling import auto_t_end, coefficients, units
from caprise.study import synth_params
from caprise.vof2d import CaseSetup2D, Simulator


def run_ok(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


def _in_memory_overshoot_ratio(omega, sigma, slip_length):
    """compare() of the classical and extended run_case trajectories of
    the study row, as `caprise ode` builds its case."""
    case = _study_case(omega, sigma, lambda R: SlipSpec(slip_length))
    cls, ext = (run_case(case, m).trajectory for m in ("classical", "extended"))
    return compare(cls, ext).first_peak_overshoot_ratio


class TestQueries:
    def test_steady(self, capsys):
        out = json.loads(run_ok(capsys, ["steady", "--omega", "1",
                                         "--sigma", "0.04"]))
        assert out["h_inf"] == pytest.approx(out["h_jurin"] - out["h_hat"],
                                             rel=1e-15)
        assert out["h_jurin"] == pytest.approx(0.02, rel=1e-12)

    def test_params(self, capsys):
        out = json.loads(run_ok(capsys, ["params", "--omega", "100",
                                         "--sigma", "0.001"]))
        assert out["g"] == pytest.approx(26.042, rel=1e-3)
        assert out["theta_deg"] == 30.0
        assert out["rho"] / out["rho_g"] == pytest.approx(1000.0, rel=1e-12)
        # the 2D grid's height, 8 R, to the bit
        assert out["h_domain"] == 8 * 0.005

    def test_cost(self, capsys):
        out = json.loads(run_ok(capsys, ["cost", "--omega", "0.1",
                                         "--sigma", "0.2", "--cells", "32"]))
        assert out["n_star_cells"] == pytest.approx(5804, rel=0.01)
        assert set(out["n_steps"]) == {"I", "II", "III"}
        assert all(set(v) == {"sigma", "mu"} for v in out["n_steps"].values())
        assert out["dt_sigma_solver"] > 0.0

    # rows whose density, gravity or dimensionless numbers overflow or
    # vanish in floats: synth_params refuses them
    @pytest.mark.parametrize("omega, sigma", [
        ("1e-200", "0.04"), ("1e-100", "0.04"), ("1e75", "0.04"),
        ("1e155", "0.04"), ("inf", "0.04"), ("1", "inf")])
    @pytest.mark.parametrize("cmd", [["steady"], ["params"],
                                     ["cost", "--cells", "8"]],
                             ids=["steady", "params", "cost"])
    def test_out_of_range_row_exits_2(self, capsys, cmd, omega, sigma):
        assert main(cmd + ["--omega", omega, "--sigma", sigma]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("cmd", [
        ["ode", "--model", "classical"],
        ["sim2d", "--cells-per-radius", "4", "--slip", "numerical"]],
        ids=["ode", "sim2d"])
    def test_out_of_range_row_is_refused_before_a_run(self, tmp_path, capsys,
                                                      cmd):
        # both ran past 20 s before the row was checked
        out = tmp_path / "x.csv"
        assert main(cmd + ["--omega", "1e-100", "--sigma", "0.04",
                           "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("cmd", [
        ["ode", "--model", "classical"],
        ["sim2d", "--cells-per-radius", "4", "--slip", "numerical"]],
        ids=["ode", "sim2d"])
    def test_other_output_name_is_refused_before_a_run(self, tmp_path, capsys,
                                                       monkeypatch, cmd):
        def no_run(*args, **kwargs):
            pytest.fail("a run started before the output name was checked")
        monkeypatch.setattr("caprise.cli.run_case", no_run)
        monkeypatch.setattr(Simulator, "step", no_run)
        out = tmp_path / "x.txt"
        assert main(cmd + ["--omega", "1", "--sigma", "0.04",
                           "--out", str(out)]) == 2
        assert "named <stem>.csv" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_cost_rejects_zero_cells(self, capsys):
        assert main(["cost", "--omega", "1", "--sigma", "0.04",
                     "--cells", "0"]) == 2
        # step_counts refuses it, before any division by the cell count
        assert "n_cells must be >= 1" in capsys.readouterr().err


class TestOde:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        run_ok(capsys, ["ode", "--model", "extended", "--omega", "1",
                        "--sigma", "0.04", "--slip-length", "0.001",
                        "--t-end", "0.1", "--out", str(out)])
        traj = read_trajectory_csv(out)
        assert traj.h[0] == 0.01  # default h0 = 2R
        assert traj.t[-1] == 0.1

    def test_stdout_matches_file(self, tmp_path, capsys):
        argv = ["ode", "--model", "classical", "--omega", "10",
                "--sigma", "0.01", "--t-end", "0.05"]
        text = run_ok(capsys, argv)
        out = tmp_path / "run.csv"
        run_ok(capsys, argv + ["--out", str(out)])
        assert out.read_text() == text

    def test_h0_override(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        run_ok(capsys, ["ode", "--model", "extended", "--omega", "1",
                        "--sigma", "0.04", "--h0", "0.012",
                        "--t-end", "0.05", "--out", str(out)])
        assert read_trajectory_csv(out).h[0] == 0.012

    @pytest.mark.parametrize("argv,model,h0", [
        (["--model", "extended"], ModelSpec("extended"), None),
        (["--model", "extended", "--slip-length", "0"],
         ModelSpec("extended"), None),
        (["--model", "extended", "--slip-length", "1e-3"],
         ModelSpec("extended", SlipSpec(1e-3)), None),
        (["--model", "classical", "--h0", "0.012"], ModelSpec("classical"), 0.012),
    ], ids=["extended-no-slip-length", "extended-slip-length-0",
            "extended-slip-length-1e-3", "classical-h0"])
    def test_bytes_match_integrate(self, capsys, argv, model, h0):
        # no slip length, or 0, runs the extended model at L = 0
        fluid, geom = synth_params(1.0, 0.04)
        if h0 is not None:
            geom = dataclasses.replace(geom, h0=h0)
        traj = integrate(model, fluid, geom, auto_t_end(fluid, geom))
        # from rest at geom.h0, the 2D solver's initial state too
        assert traj.h[0] == geom.h0
        assert traj.v[0] == 0.0
        out = run_ok(capsys, ["ode", "--omega", "1", "--sigma", "0.04"] + argv)
        assert out == trajectory_csv_text(traj)

    def test_classical_rejects_slip_length(self):
        assert main(["ode", "--model", "classical", "--omega", "1",
                     "--sigma", "0.04", "--slip-length", "0.001"]) == 2

    def test_negative_slip_length(self, capsys):
        assert main(["ode", "--model", "extended", "--omega", "1",
                     "--sigma", "0.04", "--slip-length", "-1"]) == 2
        assert "slip length" in capsys.readouterr().err

    @pytest.mark.parametrize("t_end", ["inf", "nan", "-1", "0"])
    def test_bad_horizon_exits_2(self, capsys, t_end):
        assert main(["ode", "--model", "classical", "--omega", "1",
                     "--sigma", "0.04", "--t-end", t_end]) == 2
        assert "t_end" in capsys.readouterr().err

    def test_infinite_slip_length(self, capsys):
        assert main(["ode", "--model", "extended", "--omega", "1",
                     "--sigma", "0.04", "--slip-length", "inf"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_huge_slip_length(self, capsys):
        # (R + 3L)^2 overflowed at 1e154
        assert main(["ode", "--model", "extended", "--omega", "1",
                     "--sigma", "0.04", "--slip-length", "1e154"]) == 2
        assert ("error: slip length L must be at most 1e+150 m"
                in capsys.readouterr().err)

    def test_bad_t_end(self):
        with pytest.raises(SystemExit) as exc:
            main(["ode", "--model", "classical", "--omega", "1",
                  "--sigma", "0.04", "--t-end", "soon"])
        assert exc.value.code == 2

    def test_numerical_failure_maps_to_exit_3(self, monkeypatch):
        def boom(*args, **kwargs):
            raise StepSizeUnderflow("step size underflow")
        monkeypatch.setattr("caprise.harness.integrate", boom)
        assert main(["ode", "--model", "classical", "--omega", "1",
                     "--sigma", "0.04"]) == 3

    def test_work_bound_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr("caprise.odemodels.MAX_RHS_EVALS", 10_000)
        assert main(["ode", "--model", "classical", "--omega", "100",
                     "--sigma", "0.001"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: 100")
        assert "right-hand-side evaluations exceed the bound 10000 at t = " in err


class TestScale:
    def test_rescales_and_writes_sidecar(self, tmp_path, capsys):
        src = tmp_path / "dim.csv"
        run_ok(capsys, ["ode", "--model", "extended", "--omega", "1",
                        "--sigma", "0.04", "--t-end", "0.1",
                        "--out", str(src)])
        dst = tmp_path / "dim_II.csv"
        run_ok(capsys, ["scale", "--input", str(src), "--scaling", "II",
                        "--omega", "1", "--sigma", "0.04", "--out", str(dst)])
        scaled = read_trajectory_csv(dst)
        # h* = h / h_Jurin, so the start height 2R maps to 0.5
        assert scaled.h[0] == pytest.approx(0.5, rel=1e-12)
        assert scaled.metadata["scaling"] == "II"
        # the input's sidecar carries h_inf, so the output's carries h_inf*
        fluid, geom = synth_params(1.0, 0.04)
        h_rate = units("II", coefficients(fluid, geom)).h_rate
        side = json.loads((tmp_path / "dim_II.scale.json").read_text())
        assert side["h_inf"] == stationary_height(fluid, geom) * h_rate
        assert side["h_rate"] == h_rate

    def test_dim3_changes_rates(self, tmp_path, capsys):
        src = tmp_path / "dim.csv"
        run_ok(capsys, ["ode", "--model", "classical", "--omega", "1",
                        "--sigma", "0.04", "--t-end", "0.1",
                        "--out", str(src)])
        outs = []
        for dim in ("2", "3"):
            dst = tmp_path / f"s{dim}.csv"
            run_ok(capsys, ["scale", "--input", str(src), "--scaling", "I",
                            "--omega", "1", "--sigma", "0.04",
                            "--dim", dim, "--out", str(dst)])
            outs.append(read_trajectory_csv(dst).metadata["t_rate"])
        assert outs[0] != outs[1]

    def test_refuses_already_scaled_input(self, tmp_path, capsys):
        src = tmp_path / "dim.csv"
        run_ok(capsys, ["ode", "--model", "extended", "--omega", "1",
                        "--sigma", "0.04", "--t-end", "0.1",
                        "--out", str(src)])
        dst = tmp_path / "rise_II.csv"
        args = ["--scaling", "II", "--omega", "1", "--sigma", "0.04",
                "--out", str(dst)]
        run_ok(capsys, ["scale", "--input", str(src)] + args)
        before = dst.read_bytes(), dst.with_suffix(".scale.json").read_bytes()
        # scaling the output again, onto itself, would apply the rates twice
        assert main(["scale", "--input", str(dst)] + args) == 2
        assert "already in scaling II" in capsys.readouterr().err
        assert (dst.read_bytes(), dst.with_suffix(".scale.json").read_bytes()) \
            == before

    def test_other_output_name_exits_2(self, tmp_path, capsys):
        # rise.txt shared rise.csv's sidecar: scaling wrote III into it, and
        # rise.csv then read as already scaled
        src = tmp_path / "rise.csv"
        run_ok(capsys, ["ode", "--model", "extended", "--omega", "1",
                        "--sigma", "0.04", "--t-end", "0.1", "--out", str(src)])
        sidecar = (tmp_path / "rise.scale.json").read_bytes()
        assert main(["scale", "--input", str(src), "--scaling", "III",
                     "--omega", "1", "--sigma", "0.04",
                     "--out", str(tmp_path / "rise.txt")]) == 2
        assert "named <stem>.csv" in capsys.readouterr().err
        assert (tmp_path / "rise.scale.json").read_bytes() == sidecar
        assert not (tmp_path / "rise.txt").exists()
        assert read_trajectory_csv(src).metadata["scaling"] == "none"

    def test_missing_input(self, tmp_path):
        assert main(["scale", "--input", str(tmp_path / "nope.csv"),
                     "--scaling", "I", "--omega", "1", "--sigma", "0.04",
                     "--out", str(tmp_path / "out.csv")]) == 2


class TestSim2d:
    def test_short_run(self, tmp_path, capsys):
        out = tmp_path / "pde.csv"
        run_ok(capsys, ["sim2d", "--omega", "1", "--sigma", "0.04",
                        "--cells-per-radius", "4", "--slip", "navier:0.001",
                        "--t-end", "0.005", "--out", str(out)])
        traj = read_trajectory_csv(out)
        assert traj.t[-1] == 0.005
        assert np.all(traj.h > 0.0)
        assert traj.metadata == {"scaling": "none", "t_rate": 1.0, "h_rate": 1.0,
                                 "h_inf": stationary_height(*synth_params(1.0, 0.04))}

    def test_underflowing_output_spacing_exits_2(self, tmp_path, capsys):
        # np.gradient of the apex multiplies pairs of output spacings; at
        # 1e-160 s they underflowed to zero and numpy warned
        out = tmp_path / "x.csv"
        argv = ["sim2d", "--omega", "1", "--sigma", "0.04",
                "--cells-per-radius", "4", "--slip", "numerical", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--t-end", "1e-160"]) == 2
            assert ("error: t_end 1e-160 s is too short for the 2D output grid"
                    in capsys.readouterr().err)
            assert not out.exists()
            run_ok(capsys, argv + ["--t-end", "1e-150"])
        assert read_trajectory_csv(out).t[-1] == 1e-150

    def test_prints_diagnostics(self, tmp_path, capsys):
        out = tmp_path / "pde.csv"
        argv = ["sim2d", "--omega", "1", "--sigma", "0.04",
                "--cells-per-radius", "4", "--slip", "navier:0.001",
                "--t-end", "0.005", "--out", str(out)]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        diag = json.loads(lines[0])
        assert set(diag) == {
            "n_steps", "dt_min", "dt_max", "cfl_max", "div_step_rel_max",
            "div_reduction_max", "vol_balance_rel_max", "vol_drift_rel",
            "clipped_area_total", "alpha_overshoot_max"}
        assert diag["n_steps"] > 0
        assert 0.0 < diag["dt_min"] <= diag["dt_max"]
        assert 0.0 < diag["cfl_max"] <= 1.0

        fluid, geom = synth_params(1.0, 0.04)
        traj, run_diag = Simulator(CaseSetup2D(
            fluid=fluid, geom=geom, slip=SlipSpec.navier(0.001), nx=4,
            t_end=0.005)).run()
        assert diag["n_steps"] == run_diag.n_steps
        assert out.read_text(encoding="utf-8") == trajectory_csv_text(traj)

    def test_infinite_horizon_exits_2(self, tmp_path, capsys, monkeypatch):
        def no_step(self, dt):
            pytest.fail("a step ran before the horizon was checked")
        monkeypatch.setattr(Simulator, "step", no_step)
        out = tmp_path / "x.csv"
        assert main(["sim2d", "--omega", "1", "--sigma", "0.04",
                     "--cells-per-radius", "4", "--slip", "navier:0.001",
                     "--t-end", "inf", "--out", str(out)]) == 2
        assert "t_end" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_mesh_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["sim2d", "--omega", "1", "--sigma", "0.04",
                     "--cells-per-radius", "100000", "--slip", "numerical",
                     "--out", str(out)]) == 2
        assert ("error: the half gap takes at most nx = 128 cells, got 100000"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_infinite_slip_length(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sim2d", "--omega", "1", "--sigma", "0.04",
                  "--cells-per-radius", "4", "--slip", "navier:inf",
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert ("argument --slip: navier slip requires a finite L > 0"
                in capsys.readouterr().err)

    def test_huge_slip_length(self, tmp_path, capsys):
        # the wall ghost's factor was inf/inf at 1e308
        with pytest.raises(SystemExit) as exc:
            main(["sim2d", "--omega", "1", "--sigma", "0.04",
                  "--cells-per-radius", "4", "--slip", "navier:1e308",
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert ("argument --slip: slip length L must be at most 1e+150 m"
                in capsys.readouterr().err)

    def test_zero_navier_length(self, tmp_path, capsys):
        # L = 0 is spelt "numerical"; "navier:0" names no positive length
        with pytest.raises(SystemExit) as exc:
            main(["sim2d", "--omega", "1", "--sigma", "0.04",
                  "--cells-per-radius", "4", "--slip", "navier:0",
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert ("argument --slip: navier slip requires a finite L > 0"
                in capsys.readouterr().err)

    def test_bad_slip(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sim2d", "--omega", "1", "--sigma", "0.04",
                  "--cells-per-radius", "4", "--slip", "foo",
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert ("argument --slip: slip must be 'numerical' or 'navier:<metres>', "
                "got 'foo'" in capsys.readouterr().err)


class TestBench:
    def test_default_suite(self, tmp_path, capsys):
        out = tmp_path / "bench"
        run_ok(capsys, ["bench", "--suite", "omega-study",
                        "--out-dir", str(out)])
        names = sorted(p.name for p in out.iterdir())
        assert "summary.json" in names
        assert len([n for n in names if n.endswith(".csv")]) == 10
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary) == 10
        assert all(e["wall_time_s"] is None for e in summary)

    def test_coarse_pde_exits_2(self, tmp_path, capsys):
        for nx, reason in (("2", "needs an integer nx >= 4"),
                           ("100000", "takes at most nx = 128 cells")):
            out = tmp_path / f"bench-{nx}"
            assert main(["bench", "--suite", "omega-study", "--models",
                         "classical", "--with-pde", nx,
                         "--out-dir", str(out)]) == 2
            assert (f"vof2d with_pde: the half gap {reason}"
                    in capsys.readouterr().err)
            assert not out.exists()

    def test_repeated_model_or_scaling_exits_2(self, tmp_path, capsys):
        for flag, values in (("--models", ["extended", "extended"]),
                             ("--scalings", ["none", "none"])):
            out = tmp_path / flag.lstrip("-")
            assert main(["bench", "--suite", "omega-study", flag, *values,
                         "--out-dir", str(out)]) == 2
            assert (f"{flag.lstrip('-')} must be unique"
                    in capsys.readouterr().err)
            assert not out.exists()

    def test_vof2d_is_not_a_model_choice(self, tmp_path, capsys):
        # --with-pde adds vof2d; --models takes the reduced models
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--suite", "omega-study", "--models", "vof2d",
                  "--out-dir", str(tmp_path / "b")])
        assert exc.value.code == 2
        assert ("argument --models: invalid choice: 'vof2d'"
                in capsys.readouterr().err)
        assert not (tmp_path / "b").exists()

    def test_unknown_suite(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--suite", "tube-study",
                  "--out-dir", str(tmp_path / "b")])
        assert exc.value.code == 2


class TestCompareCmd:
    def test_metrics_json(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path, model in ((a, "classical"), (b, "extended")):
            run_ok(capsys, ["ode", "--model", model, "--omega", "0.1",
                            "--sigma", "0.2", "--out", str(path)])
        out = json.loads(run_ok(capsys, ["compare", "--a", str(a),
                                         "--b", str(b)]))
        assert out["l2_rel"] > 0.0
        assert out["peak_count_a"] >= 4
        # the files' sidecars carry each model's h_inf, so the read-backs
        # give the in-memory runs' overshoot ratio
        assert out["first_peak_overshoot_ratio"] == \
            _in_memory_overshoot_ratio(0.1, 0.2, 0.0)

    def test_ode_files_give_in_memory_overshoot_ratio(self, tmp_path, capsys):
        a, b = tmp_path / "classical.csv", tmp_path / "extended.csv"
        for path, extra in ((a, ["--model", "classical"]),
                            (b, ["--model", "extended", "--slip-length", "1e-3"])):
            run_ok(capsys, ["ode", "--omega", "1", "--sigma", "0.04",
                            "--out", str(path)] + extra)
        out = json.loads(run_ok(capsys, ["compare", "--a", str(a),
                                         "--b", str(b)]))
        ratio = _in_memory_overshoot_ratio(1.0, 0.04, 1e-3)
        assert ratio is not None
        assert out["first_peak_overshoot_ratio"] == ratio

    def test_self_compare_is_zero(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        run_ok(capsys, ["ode", "--model", "classical", "--omega", "1",
                        "--sigma", "0.04", "--t-end", "0.1", "--out", str(a)])
        out = json.loads(run_ok(capsys, ["compare", "--a", str(a),
                                         "--b", str(a)]))
        assert out["l2_rel"] == 0.0 and out["linf_rel"] == 0.0

    @pytest.mark.parametrize("shift, h_b, match", [
        (5.0, 1.0, "share no interval"),
        # the relative norms were printed as Infinity, which is not JSON
        (0.0, 0.0, "reference trajectory is zero on the overlap"),
        # |h|^2 underflows, so the l2 norm it would divide by is 0; no
        # numpy warning may escape
        (0.0, 1e-170, "zero on the overlap [0, 1], or its norm underflows"),
    ], ids=["disjoint", "zero", "norm-underflow"])
    def test_unusable_reference_exits_2(self, tmp_path, capsys, shift, h_b,
                                        match):
        t = np.linspace(0.0, 1.0, 5)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectory_csv(Trajectory(t=t, h=np.full(5, 2.0 * h_b), v=t), a)
        write_trajectory_csv(Trajectory(t=t + shift, h=np.full(5, h_b), v=t), b)
        assert main(["compare", "--a", str(a), "--b", str(b)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert match in captured.err

    def test_first_maximum_at_time_zero(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("t,h,hdot\n-1,0,0\n0,1,0\n1,0,0\n")
        out = json.loads(run_ok(capsys, ["compare", "--a", str(a),
                                         "--b", str(a)]))
        assert out["first_peak_time_ratio"] is None

    def test_mixed_scalings_exit_2(self, tmp_path, capsys):
        dim = tmp_path / "dim.csv"
        run_ok(capsys, ["ode", "--model", "classical", "--omega", "1",
                        "--sigma", "0.04", "--t-end", "0.1", "--out", str(dim)])
        scaled = {}
        for kind in ("I", "III"):
            scaled[kind] = tmp_path / f"dim_{kind}.csv"
            run_ok(capsys, ["scale", "--input", str(dim), "--scaling", kind,
                            "--omega", "1", "--sigma", "0.04",
                            "--out", str(scaled[kind])])
        for a, b, names in ((scaled["III"], dim, "III with scaling none"),
                            (scaled["III"], scaled["I"], "III with scaling I")):
            assert main(["compare", "--a", str(a), "--b", str(b)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"cannot compare scaling {names}" in captured.err
        out = json.loads(run_ok(capsys, ["compare", "--a", str(scaled["III"]),
                                         "--b", str(scaled["III"])]))
        assert out["l2_rel"] == 0.0

    def test_malformed_sidecar_exits_2(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        t = np.linspace(0.0, 1.0, 5)
        write_trajectory_csv(Trajectory(t=t, h=t + 1.0, v=t), a)
        a.with_suffix(".scale.json").write_text('{"scaling": "II", "t_rate": '
                                                '2.0, "h_rate": 3.0, "h_inf": "x"}')
        assert main(["compare", "--a", str(a), "--b", str(a)]) == 2
        assert "h_inf must be finite" in capsys.readouterr().err


def test_subcommand_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
