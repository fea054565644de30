"""Command line interface: subcommand behavior and exit codes."""

import json

import numpy as np
import pytest

from caprise.cli import main
from caprise.core import SlipSpec
from caprise.errors import StepSizeUnderflow
from caprise.harness import (read_trajectory_csv, trajectory_csv_text,
                             write_trajectory_csv)
from caprise.odemodels import Trajectory
from caprise.study import synth_params
from caprise.vof2d import CaseSetup2D
from caprise.vof2d import run as run_vof2d


def run_ok(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


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

    def test_cost(self, capsys):
        out = json.loads(run_ok(capsys, ["cost", "--omega", "0.1",
                                         "--sigma", "0.2", "--cells", "32"]))
        assert out["n_star_cells"] == pytest.approx(5804, rel=0.01)
        assert set(out["n_steps"]) == {"I", "II", "III"}
        assert all(set(v) == {"sigma", "mu"} for v in out["n_steps"].values())
        assert out["dt_sigma_solver"] > 0.0

    def test_cost_rejects_zero_cells(self, capsys):
        assert main(["cost", "--omega", "1", "--sigma", "0.04",
                     "--cells", "0"]) == 2


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

    def test_classical_rejects_slip_length(self):
        assert main(["ode", "--model", "classical", "--omega", "1",
                     "--sigma", "0.04", "--slip-length", "0.001"]) == 2

    def test_bad_t_end(self):
        with pytest.raises(SystemExit) as exc:
            main(["ode", "--model", "classical", "--omega", "1",
                  "--sigma", "0.04", "--t-end", "soon"])
        assert exc.value.code == 2

    def test_numerical_failure_maps_to_exit_3(self, monkeypatch):
        def boom(*args, **kwargs):
            raise StepSizeUnderflow("step size underflow")
        monkeypatch.setattr("caprise.cli.integrate", boom)
        assert main(["ode", "--model", "classical", "--omega", "1",
                     "--sigma", "0.04"]) == 3


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
        assert (tmp_path / "dim_II.scale.json").exists()

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
        traj, run_diag = run_vof2d(CaseSetup2D(
            fluid=fluid, geom=geom, slip=SlipSpec.navier(0.001), nx=4,
            t_end=0.005))
        assert diag["n_steps"] == run_diag.n_steps
        assert out.read_text(encoding="utf-8") == trajectory_csv_text(traj)

    def test_bad_slip(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sim2d", "--omega", "1", "--sigma", "0.04",
                  "--cells-per-radius", "4", "--slip", "sticky",
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2


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
        # bare CSVs carry no stationary heights, so no overshoot ratio
        assert out["first_peak_overshoot_ratio"] is None

    def test_self_compare_is_zero(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        run_ok(capsys, ["ode", "--model", "classical", "--omega", "1",
                        "--sigma", "0.04", "--t-end", "0.1", "--out", str(a)])
        out = json.loads(run_ok(capsys, ["compare", "--a", str(a),
                                         "--b", str(a)]))
        assert out["l2_rel"] == 0.0 and out["linf_rel"] == 0.0

    def test_disjoint_ranges(self, tmp_path):
        t = np.linspace(0.0, 1.0, 5)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectory_csv(Trajectory(t=t, h=t + 1.0, v=t), a)
        write_trajectory_csv(Trajectory(t=t + 5.0, h=t + 1.0, v=t), b)
        assert main(["compare", "--a", str(a), "--b", str(b)]) == 2


def test_subcommand_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
