"""Measure a baseline: ten seeds per workload, plus two traced runs.

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

For every workload the end-to-end metrics are run on seeds 0..RUNS-1.
For each metric the script prints the median and the quartile spread
(q3 - q1, from statistics.quantiles(values, n=4), over the median)
next to the bound in BENCHMARK.json, and keeps every value. Two traced
runs of seed 0 give the per-layer figures, and the exact counts must
agree between them. The result goes to --out, together with the machine
and the map from each layer metric to the end-to-end metric it should
move. Untraced runs take about 60 s each, traced ones 50 to 80 s; the
whole script about 25 minutes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402

RUNS = 10
EXACT_COUNTS = ("odemodels.nfev", "vof2d.steps", "vof2d.plic.calls_per_step",
                "vof2d.faces_per_step")
ODE = ["ode-suite"]
PDE = ["pde-rise-nx8"]

# which end-to-end metric, on which workloads, each layer metric should
# move; on the other workloads the prediction is no change
LAYER_MAP = {
    "odemodels.": (["wall_s", "steps_per_s"], ODE),
    "harness.": (["wall_s"], ODE),
    "scaling.": (["wall_s"], ODE),
    "vof2d.init_case.s": (["setup_s"], PDE),
    "vof2d.steps": (["wall_s", "steps_per_s"], PDE),
    "vof2d.step.ms_": (["wall_s", "steps_per_s"], PDE),
    "vof2d.": (["steps_per_s"], PDE),
    "trace_overhead": ([], []),
}


def layer_target(name: str) -> dict:
    for prefix, (metrics, workloads) in LAYER_MAP.items():
        if name.startswith(prefix):
            return {"end_to_end": metrics, "workloads": workloads}
    raise KeyError(name)


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not res["correct"]:
        raise SystemExit(f"{workload} seed {seed}: gates failed\n{proc.stderr}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", default=str(BENCH_DIR / "baseline.json"))
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    end_to_end, per_layer = {}, {}
    for workload in run.WORKLOADS:
        values: dict[str, list[float]] = {}
        for seed in range(RUNS):
            for k, v in bench(workload, seed, seconds, 0).items():
                values.setdefault(k, []).append(v)
        end_to_end[workload] = {}
        for k, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            end_to_end[workload][k] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": (q3 - q1) / med, "values": vs}
            print(f"{workload:16} {k:12} median {med:12.6g}  spread "
                  f"{(q3 - q1) / med:.3f}  bound {bounds[k]}", flush=True)

        first, second = (bench(workload, 0, seconds, 1) for _ in range(2))
        for k in EXACT_COUNTS:
            if first[k] != second[k]:
                raise SystemExit(f"{workload}: {k} differs between traced runs: "
                                 f"{first[k]} vs {second[k]}")
        per_layer[workload] = first

    baseline = {
        "machine": run.machine(),
        "run_seconds": seconds,
        "seeds": list(range(RUNS)),
        "end_to_end": end_to_end,
        "per_layer_seed0": per_layer,
        "layer_map": {m["name"]: layer_target(m["name"]) for m in spec["per_layer"]},
    }
    Path(args.out).write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
