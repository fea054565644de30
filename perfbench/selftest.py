"""Self-test of the caprise benchmark.

    python3 perfbench/selftest.py

Checks, in order:
  * seed 0 reproduces the paper's rows bit for bit, other seeds stay in
    the [0.8, 1.25] sigma band and repeat;
  * every gate passes a good output and rejects corrupted ones;
  * run.py, on every workload in both trace modes, prints exactly the
    metric names BENCHMARK.json lists, in a well-formed result line;
  * run.py fails without a result in a directory that holds only
    BENCHMARK.json and the benchmark.
Takes a few minutes (the runs); writes only under .bench_build/.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import gates  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from caprise import harness  # noqa: E402
from caprise.study import synth_params  # noqa: E402

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}")
    if not ok:
        failures.append(what)


def check_inputs() -> None:
    check(inputs.ode_cases(0) == harness.omega_suite(),
          "seed 0 reproduces omega_suite()")
    check(inputs.pde_params(0) == synth_params(1.0, 0.04),
          "seed 0 reproduces synth_params(1.0, 0.04)")
    factors = [f for s in range(1, 200) for f in inputs.sigma_factors(s).values()]
    check(all(inputs.FACTOR_LO <= f <= inputs.FACTOR_HI for f in factors),
          "sigma factors stay in [0.8, 1.25]")
    check(inputs.ode_cases(5) == inputs.ode_cases(5)
          and inputs.ode_cases(5) != inputs.ode_cases(6),
          "one seed gives one input set, another seed another")


def check_gates() -> None:
    good = {"label": "omega10", "omega": 10.0, "model": "classical",
            "h_jurin": 0.02, "h_inf": 0.0195, "h_final": 0.02}
    check(gates.entry_failures(good) == [], "good monotone entry passes")
    check(gates.entry_failures({**good, "error": "SolverDiverged: x"}) != [],
          "entry with an error field is rejected")
    check(gates.entry_failures({**good, "h_final": 0.02 * (1 + 1e-3)}) != [],
          "monotone entry 1e-3 off its own limit is rejected")
    ext = {**good, "model": "extended", "h_final": 0.0195}
    check(gates.entry_failures(ext) == []
          and gates.entry_failures({**ext, "h_final": 0.02}) != [],
          "extended entries are held to h_inf, not h_jurin")
    check(gates.summary_failures([good] * 10) == []
          and gates.summary_failures([good] * 9) != [],
          "a summary without 10 entries is rejected")
    check(gates.bytes_failures(b"[1]\n", b"[1]\n") == []
          and gates.bytes_failures(b"[1]\n", b"[2]\n") != [],
          "differing summary bytes are rejected")

    traj = SimpleNamespace(t=[0.0, 1.0], h=[1.0, 2.0], v=[1.0, 1.0])
    bad = SimpleNamespace(t=[0.0, 1.0], h=[1.0, 2.0 + 1e-16 * 4], v=[1.0, 1.0])
    check(gates.roundtrip_failures("x", traj, traj) == []
          and gates.roundtrip_failures("x", traj, bad) != [],
          "a CSV read-back that differs in the last bit is rejected")
    dev = SimpleNamespace(l2_rel=0.01, linf_rel=0.02)
    check(gates.compare_failures("x", dev) == []
          and gates.compare_failures("x", SimpleNamespace(l2_rel=math.nan,
                                                          linf_rel=0.0)) != [],
          "non-finite deviation metrics are rejected")

    diag = SimpleNamespace(vol_balance_rel_max=1e-14, alpha_overshoot_max=0.0,
                           div_reduction_max=1e-9)
    tol = 1e-8
    check(gates.rise_failures(0.0202, 0.02, diag, tol) == [],
          "good 2D rise passes")
    check(gates.rise_failures(0.022, 0.02, diag, tol) != [],
          "2D rise with the apex 10% off is rejected")
    for name, value in (("vol_balance_rel_max", 1e-9),
                        ("alpha_overshoot_max", 1e-9),
                        ("div_reduction_max", 1e-6)):
        worse = SimpleNamespace(**{**vars(diag), name: value})
        check(gates.rise_failures(0.0202, 0.02, worse, tol) != [],
              f"2D rise with {name} = {value:g} is rejected")


def result_line(stdout: str) -> dict:
    res = json.loads(stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert isinstance(res["failed"], int)
    for m in res["metrics"].values():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    return res


def check_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in run.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "0", "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=600)
            tag = f"{workload} --trace {trace}"
            try:
                res = result_line(proc.stdout)
            except (AssertionError, ValueError, IndexError) as exc:
                check(False, f"{tag}: malformed result line ({exc!r})")
                continue
            check(proc.returncode == 0 and res["correct"] and res["failed"] == 0,
                  f"{tag}: gates pass ({res['attempted']} operations)")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, f"{tag}: prints every {section} metric of "
                               "BENCHMARK.json with its unit")
            table = {line.split()[0] for line in proc.stdout.splitlines()[:-1]
                     if line.strip()}
            check(set(want) | {"error_rate"} <= table,
                  f"{tag}: the table prints every metric and error_rate")


def check_bare_directory() -> None:
    bare = run.WORK / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ode-suite",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180)
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              "without caprise sources the run fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_inputs()
    check_gates()
    check_bare_directory()
    check_runs()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
