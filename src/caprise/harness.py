"""Benchmark harness: the five-omega case registry, trajectory deviation
metrics, and suite execution with CSV / summary JSON export.

File contracts are bit-exact so reruns can be diffed:
  * trajectory CSV: UTF-8, LF endings, header ``t,h,hdot``, then three
    values per line at 17 significant digits, no trailing separator;
  * scaled exports get a ``<name>.scale.json`` sidecar recording the
    scaling kind and the t/h rates;
  * one ``summary.json`` per suite, a list with one entry per (case,
    model) pair in input order.  Failed cases appear as entries with an
    ``error`` field instead of results.
"""

from __future__ import annotations

import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    CaseSpec,
    SlipSpec,
    height_correction,
    jurin_height,
    stationary_height,
)
from .errors import CapriseError, NoOverlap
from .odemodels import (
    ModelSpec,
    PeakList,
    RiseState,
    Trajectory,
    ca_max,
    detect_peaks,
    integrate,
    settle_metrics,
)
from .scaling import SCALING_KINDS, auto_t_end, coefficients, nondimensionalize
from .study import synth_params
from .vof2d import CaseSetup2D
from .vof2d import run as run_vof2d

MODELS = ("classical", "extended", "vof2d")

# (omega, sigma) rows of the study; the remaining parameters follow from
# the fixed-stationary-height synthesis in module study.
OMEGA_SUITE = ((0.1, 0.2), (0.5, 0.1), (1.0, 0.04), (10.0, 0.01), (100.0, 0.001))

# Wall models exercised by the study: the default Navier slip length R/5,
# the short variant R/50, and mesh-dependent numerical slip.
SLIP_VARIANTS = {
    "navier-r5": lambda R: SlipSpec.navier(R / 5.0),
    "navier-r50": lambda R: SlipSpec.navier(R / 50.0),
    "numerical": lambda R: SlipSpec.numerical(),
}
DEFAULT_SLIP = "navier-r5"


def omega_suite(slip_variant: str = DEFAULT_SLIP) -> list[CaseSpec]:
    """The five benchmark cases, all with the same wall model."""
    if slip_variant not in SLIP_VARIANTS:
        raise ValueError(f"unknown slip variant {slip_variant!r}; "
                         f"choose from {sorted(SLIP_VARIANTS)}")
    cases = []
    for omega, sigma in OMEGA_SUITE:
        fluid, geom = synth_params(omega, sigma)
        cases.append(CaseSpec(label=f"omega{omega:g}", fluid=fluid, geom=geom,
                              slip=SLIP_VARIANTS[slip_variant](geom.R),
                              omega_nominal=omega))
    return cases


def format_slip(slip: SlipSpec) -> str:
    """Slip model as text, "numerical" or "navier:<L>" with L in metres."""
    if slip.kind == "numerical":
        return "numerical"
    return f"navier:{slip.L!r}"


def parse_slip(text: str) -> SlipSpec:
    """Inverse of :func:`format_slip`."""
    if text == "numerical":
        return SlipSpec.numerical()
    if text.startswith("navier:"):
        try:
            L = float(text[len("navier:"):])
        except ValueError:
            raise ValueError(f"bad navier slip length in {text!r}") from None
        return SlipSpec.navier(L)
    raise ValueError(f"slip must be 'numerical' or 'navier:<metres>', got {text!r}")


# ----------------------------------------------------------------------
# trajectory comparison


@dataclass(frozen=True)
class DeviationMetrics:
    """Pointwise and first-maximum deviations between two trajectories.

    The peak ratios are a/b for the first local maximum (time, and height
    above each trajectory's own stationary height); they are None unless
    both trajectories have a first maximum, both carry an ``h_inf`` in
    their metadata, and both overshoots are positive.  peak_count_* count
    detected maxima.
    """

    l2_rel: float
    linf_rel: float
    first_peak_time_ratio: float | None
    first_peak_overshoot_ratio: float | None
    peak_count_a: int
    peak_count_b: int


def _rel(num: float, den: float) -> float:
    if num == 0.0:
        return 0.0
    return num / den if den != 0.0 else math.inf


def compare(a: Trajectory, b: Trajectory, *,
            eps_peak: float = 1e-4) -> DeviationMetrics:
    """Deviation metrics of a against reference b.

    Both are resampled by linear interpolation onto the union of their
    time grids restricted to the overlap; the norms are normalized by b.
    """
    lo = max(float(a.t[0]), float(b.t[0]))
    hi = min(float(a.t[-1]), float(b.t[-1]))
    if not hi > lo:
        raise NoOverlap(
            f"time ranges [{a.t[0]:g}, {a.t[-1]:g}] and "
            f"[{b.t[0]:g}, {b.t[-1]:g}] share no interval")
    tg = np.union1d(a.t, b.t)
    tg = tg[(tg >= lo) & (tg <= hi)]
    ha = np.interp(tg, a.t, a.h)
    hb = np.interp(tg, b.t, b.h)
    diff = ha - hb
    l2 = _rel(float(np.linalg.norm(diff)), float(np.linalg.norm(hb)))
    linf = _rel(float(np.max(np.abs(diff))), float(np.max(np.abs(hb))))

    pa = detect_peaks(a, eps_peak=eps_peak) if len(a) >= 3 else PeakList(peaks=())
    pb = detect_peaks(b, eps_peak=eps_peak) if len(b) >= 3 else PeakList(peaks=())
    ma, mb = pa.maxima(), pb.maxima()
    t_ratio: float | None = None
    o_ratio: float | None = None
    if ma and mb:
        t_ratio = ma[0].t / mb[0].t
        ha_inf = a.metadata.get("h_inf")
        hb_inf = b.metadata.get("h_inf")
        if ha_inf is not None and hb_inf is not None:
            over_a = ma[0].h - ha_inf
            over_b = mb[0].h - hb_inf
            if over_a > 0.0 and over_b > 0.0:
                o_ratio = over_a / over_b
    return DeviationMetrics(l2_rel=l2, linf_rel=linf,
                            first_peak_time_ratio=t_ratio,
                            first_peak_overshoot_ratio=o_ratio,
                            peak_count_a=len(ma), peak_count_b=len(mb))


# ----------------------------------------------------------------------
# CSV contract


def trajectory_csv_text(traj: Trajectory) -> str:
    """The trajectory as CSV text: header t,h,hdot then 17-digit values."""
    lines = ["t,h,hdot"]
    lines += [f"{t:.17g},{h:.17g},{v:.17g}"
              for t, h, v in zip(traj.t, traj.h, traj.v)]
    return "\n".join(lines) + "\n"


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    """Write the CSV contract bytes: UTF-8, LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(trajectory_csv_text(traj))


def read_trajectory_csv(path: str | Path) -> Trajectory:
    """Read a trajectory CSV; a ``.scale.json`` sidecar, when present,
    is merged into the metadata."""
    path = Path(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = fh.readline().rstrip("\r\n")
        if header != "t,h,hdot":
            raise ValueError(f"expected header 't,h,hdot', got {header!r}")
        body = fh.read()
    if not body.strip():
        raise ValueError("trajectory CSV holds no data rows")
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    if data.shape[1] != 3:
        raise ValueError("trajectory CSV must hold rows of t,h,hdot")
    meta: dict = {"source": str(path)}
    sidecar = path.with_suffix(".scale.json")
    if sidecar.exists():
        meta.update(json.loads(sidecar.read_text(encoding="utf-8")))
    return Trajectory(t=data[:, 0], h=data[:, 1], v=data[:, 2], metadata=meta)


# ----------------------------------------------------------------------
# benchmark execution


@dataclass(frozen=True)
class BenchResult:
    """Outcome of one (case, model) run.

    rel_stationary_err is measured against the corrected stationary
    height (h_inf_predicted) for every model; t_settle and the peak list
    use the model's own limit, which for the classical model is the
    uncorrected Jurin height.
    """

    case: CaseSpec
    model: str
    trajectory: Trajectory
    h_inf_predicted: float
    h_final: float
    rel_stationary_err: float
    peaks: PeakList
    ca_max: float
    t_settle: float | None
    wall_time_s: float | None
    step_count: int


def _own_target(case: CaseSpec, model: str) -> float:
    """Stationary height the given model converges to."""
    if model == "classical":
        return jurin_height(case.fluid, case.geom)
    return stationary_height(case.fluid, case.geom)


def run_case(case: CaseSpec, model: str, *, t_end: float | None = None,
             dt_out: float | None = None, nx: int | None = None,
             timings: bool = False) -> BenchResult:
    """Run one model on one case and collect the standard metrics.

    t_end defaults to the auto policy (scaled time 10 in every scaling).
    vof2d needs an explicit resolution nx; it is never chosen silently.
    wall_time_s stays None unless timings is set, keeping repeated
    exports byte-identical.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; choose from {MODELS}")
    if t_end is None:
        t_end = auto_t_end(case.fluid, case.geom)
    t0 = time.perf_counter()
    if model == "classical":
        traj = integrate(ModelSpec.classical(), case.fluid, case.geom,
                         RiseState(h=case.geom.h0, v=0.0), t_end,
                         dt_out=dt_out, label=case.label)
    elif model == "extended":
        # numerical slip has no continuum parameter; its mesh-converged
        # limit is no slip, so the reduced model runs with L = 0
        L = case.slip.L if case.slip.kind == "navier" else 0.0
        traj = integrate(ModelSpec.extended(slip_length=L), case.fluid,
                         case.geom, RiseState(h=case.geom.h0, v=0.0), t_end,
                         dt_out=dt_out, label=case.label)
    else:
        if nx is None:
            raise ValueError("vof2d runs need an explicit cells-per-radius nx")
        setup = CaseSetup2D(fluid=case.fluid, geom=case.geom, slip=case.slip,
                            nx=nx, t_end=t_end, dt_out=dt_out)
        traj, _ = run_vof2d(setup)
    wall = time.perf_counter() - t0

    traj.metadata["h_inf"] = _own_target(case, model)
    h_inf_pred = stationary_height(case.fluid, case.geom)
    settle = settle_metrics(traj, traj.metadata["h_inf"])
    h_final = float(traj.h[-1])
    steps = traj.metadata.get("n_steps", traj.metadata.get("nfev", 0))
    return BenchResult(
        case=case, model=model, trajectory=traj,
        h_inf_predicted=h_inf_pred, h_final=h_final,
        rel_stationary_err=abs(h_final - h_inf_pred) / h_inf_pred,
        peaks=detect_peaks(traj), ca_max=ca_max(traj, case.fluid),
        t_settle=settle.t_settle,
        wall_time_s=wall if timings else None, step_count=int(steps))


def _summary_entry(case: CaseSpec, model: str, res: BenchResult) -> dict:
    f, gm = case.fluid, case.geom
    return {
        "label": case.label,
        "omega": case.omega_nominal,
        "model": model,
        "slip": format_slip(case.slip),
        "params": {"rho": f.rho_l, "mu": f.mu_l, "sigma": f.sigma, "g": f.g,
                   # radians(30) does not round-trip exactly; drop the noise
                   "R": gm.R, "theta_deg": round(math.degrees(gm.theta_e), 12)},
        "h_jurin": jurin_height(f, gm),
        "h_hat": height_correction(gm),
        "h_inf": stationary_height(f, gm),
        "h_final": res.h_final,
        "rel_stationary_err": res.rel_stationary_err,
        "ca_max": res.ca_max,
        "t_settle": res.t_settle,
        "peaks": [{"t": p.t, "h": p.h, "is_max": p.is_max}
                  for p in res.peaks.peaks],
        "n_steps": res.step_count,
        "wall_time_s": res.wall_time_s,
    }


def _failure_entry(case: CaseSpec, model: str, exc: Exception) -> dict:
    return {
        "label": case.label,
        "omega": case.omega_nominal,
        "model": model,
        "slip": format_slip(case.slip),
        "error": f"{type(exc).__name__}: {exc}",
    }


def write_scale_sidecar(csv_path: str | Path, metadata: dict) -> Path:
    """Record the scaling kind and rates next to a scaled CSV export."""
    sidecar = {"scaling": metadata["scaling"], "t_rate": metadata["t_rate"],
               "h_rate": metadata["h_rate"]}
    if "h_inf" in metadata:
        sidecar["h_inf"] = metadata["h_inf"]
    target = Path(csv_path).with_suffix(".scale.json")
    with open(target, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return target


def _export_case(out: Path, case: CaseSpec, model: str, traj: Trajectory,
                 scalings: tuple[str, ...]) -> None:
    for kind in scalings:
        target = out / f"{case.label}_{model}_{kind}.csv"
        if kind == "none":
            write_trajectory_csv(traj, target)
            continue
        scaled = nondimensionalize(traj, kind, coefficients(case.fluid, case.geom))
        write_trajectory_csv(scaled, target)
        write_scale_sidecar(target, scaled.metadata)


def run_suite(selection, *, models: tuple[str, ...] = ("classical", "extended"),
              scalings: tuple[str, ...] = ("none",),
              out_dir: str | Path | None = None, with_pde: int | None = None,
              t_end: float | None = None, dt_out: float | None = None,
              timings: bool = False) -> list[BenchResult]:
    """Run every (case, model) pair, export CSVs and one summary.json.

    Pairs run one after another in input order.  A case that fails
    numerically is recorded in the summary with an ``error`` field and
    the suite continues.  Returns the successful results.
    """
    selection = list(selection)
    labels = [c.label for c in selection]
    if len(set(labels)) != len(labels):
        raise ValueError("case labels must be unique within a suite")
    for m in models:
        if m not in MODELS:
            raise ValueError(f"unknown model {m!r}; choose from {MODELS}")
    allowed = ("none",) + SCALING_KINDS
    for k in scalings:
        if k not in allowed:
            raise ValueError(f"unknown scaling {k!r}; choose from {allowed}")
    if "vof2d" in models and with_pde is None:
        raise ValueError("vof2d in the model list needs with_pde (cells per radius)")

    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    jobs = [(case, m) for case in selection for m in models]
    results: list[BenchResult] = []
    entries: list[dict] = []
    for case, m in jobs:
        try:
            res = run_case(case, m, t_end=t_end, dt_out=dt_out, nx=with_pde,
                           timings=timings)
        except (CapriseError, ValueError) as exc:
            entries.append(_failure_entry(case, m, exc))
            continue
        results.append(res)
        entries.append(_summary_entry(case, m, res))
        if out is not None:
            _export_case(out, case, m, res.trajectory, tuple(scalings))
    if out is not None:
        with open(out / "summary.json", "w", encoding="utf-8", newline="\n") as fh:
            json.dump(entries, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return results
