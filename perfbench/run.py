"""caprise benchmark: one workload, timed, checked, one JSON result line.

    python3 perfbench/run.py --workload ode-suite --seed 0 --seconds 55 --trace 0

Run from the root of a caprise checkout; the package is imported from
``src/``.  Workloads:

  ode-suite        run_suite on the five-omega suite (classical and
                   extended, scalings none I II III, default pool), then
                   every CSV read back and compare(classical, extended);
  pde-rise-nx8     the 2D acceptance rise (omega 1, Navier slip R/5,
                   nx 8) from the arc to the auto horizon.

One repetition is one such unit of work.  Repetitions run while the
next one should end within ``--seconds`` (at least three for ode-suite,
one for the rise).  The process pins itself to one CPU, and hostclock
samples that CPU's speed while the program runs.  wall_s is the median
repetition in seconds at the reference host speed, and steps_per_s
divides its steps by it.  setup_s is the median of three
fresh processes.  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` runs the loop untraced for
half of ``--seconds``, then again with spans installed (see
tracing.py), and reports the per-layer metrics as medians over traced
repetitions.  Every repetition's outputs pass through the gates in
gates.py; the result line counts checked operations and failed ones.
The process exits 1 when a gate failed and 2 when the checkout has no
caprise sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("ode-suite", "pde-rise-nx8")
SETUP_REPS = 3

# set-up as a user pays it: a fresh interpreter importing caprise and
# generating the workload's inputs
SETUP_SNIPPET = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import caprise
import inputs
inputs.generate(sys.argv[3], int(sys.argv[4]))
"""


def repeat(run, seconds: float, min_reps: int) -> list:
    """Repetitions while the next one, as long as the last, ends in time."""
    reps = []
    start = time.perf_counter()
    while (len(reps) < min_reps
           or time.perf_counter() - start + reps[-1].wall < seconds):
        reps.append(run())
    return reps


def median_wall(reps: list) -> float:
    """Median repetition, in seconds at the reference host speed."""
    return statistics.median(r.ref_wall for r in reps)


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh processes doing import plus set-up."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC),
                        str(BENCH_DIR), workload, str(seed)],
                       check=True, timeout=120, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def machine() -> str:
    import numpy
    import scipy
    return (f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
            f"numpy {numpy.__version__}, scipy {scipy.__version__}")


def traced_values(run, seconds: float, min_reps: int, untraced: list,
                  workload: str, seed: int):
    """Repeat with spans installed; per-layer medians and the traced reps."""
    import inputs
    import tracing

    tracer = tracing.Tracer()
    spans = []

    def traced_run():
        rep = run()
        spans.append(tracer.take())
        return rep

    tracer.install()
    try:
        traced = repeat(traced_run, seconds, min_reps)
    finally:
        tracer.restore()
    tracing.write_spans(WORK / f"spans-{workload}.jsonl", spans)
    labels = [c.label for c in inputs.ode_cases(seed)]
    values = tracing.median_metrics([tracing.layer_metrics(s, labels) for s in spans])
    values["trace_overhead"] = median_wall(traced) / median_wall(untraced) - 1.0
    return values, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "caprise" / "__init__.py").is_file():
        print(f"no caprise sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import hostclock
    import inputs
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    cpu = hostclock.pin_to_one_cpu()
    clock = hostclock.HostClock()
    try:
        run, min_reps = workloads.rep_runner(args.workload, args.seed, work, clock)
        traced = []
        clock.start()
        try:
            if args.trace:
                reps = repeat(run, args.seconds / 2, min_reps)
                values, traced = traced_values(run, args.seconds / 2, min_reps, reps,
                                               args.workload, args.seed)
            else:
                reps = repeat(run, args.seconds, min_reps)
        finally:
            clock.stop()
        if args.trace:
            wanted = spec["per_layer"]
        else:
            wall = median_wall(reps)
            values = {
                "wall_s": wall,
                "steps_per_s": reps[0].steps / wall,
                "setup_s": setup_seconds(args.workload, args.seed),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    all_reps = reps + traced
    ops = [op for r in all_reps for op in r.ops] + workloads.byte_identity_ops(all_reps)
    failed = sum(1 for op in ops if op)
    for op in ops:
        for msg in op:
            print(f"gate failed: {msg}", file=sys.stderr)

    factors = inputs.sigma_factors(args.seed)
    print(f"workload {args.workload}  seed {args.seed}  sigma factors "
          + " ".join(f"{f:.6f}" for f in factors.values()))
    print(f"machine: {machine()}; pinned to CPU {cpu}")
    print(f"repetitions: {len(reps)} untraced, {len(traced)} traced")
    for r in reps:
        print(f"  untraced repetition: {r.wall:.4g} s measured, reference kernel "
              f"{r.kernel_s * 1e6:.1f} us, {r.ref_wall:.4g} s at reference speed")
    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<44} {value:>14.6g} {m['unit']}")
    print(f"{'error_rate':<44} {failed / len(ops):>14.6g} "
          f"failed/attempted ({failed}/{len(ops)})")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
