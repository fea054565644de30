"""Benchmark harness: the five-omega case registry, trajectory deviation
metrics, and suite execution with CSV / summary JSON export.

File contracts are bit-exact so reruns can be diffed:
  * trajectory CSV: UTF-8, LF endings, header ``t,h,hdot``, then three
    values per line at 17 significant digits, no trailing separator;
  * every CSV file gets a ``<name>.scale.json`` sidecar recording the
    scaling kind (``none``: rates 1.0), the t/h rates and h_inf if known;
  * one ``summary.json`` per suite, a list with one entry per (case,
    model) pair in input order.  Failed cases appear as entries with an
    ``error`` field instead of results.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .core import (
    CaseSpec,
    FluidPair,
    Geometry,
    SlipSpec,
    height_correction,
    jurin_height,
    stationary_height,
)
from .errors import CapriseError, NoOverlap
from .odemodels import (
    REDUCED_MODELS,
    ModelSpec,
    Peak,
    Trajectory,
    ca_max,
    detect_peaks,
    integrate,
    settle_time,
)
from .scaling import SCALING_KINDS, auto_t_end, coefficients, nondimensionalize
from .study import synth_params
from .vof2d import CaseSetup2D, Grid, Simulator
from .vof2d.solver import RunDiagnostics

MODELS = REDUCED_MODELS + ("vof2d",)

# (omega, sigma) rows of the study; the remaining parameters follow from
# the fixed-stationary-height synthesis in module study.
OMEGA_SUITE = ((0.1, 0.2), (0.5, 0.1), (1.0, 0.04), (10.0, 0.01), (100.0, 0.001))

# Wall models exercised by the study: the default Navier slip length R/5,
# the short variant R/50, and mesh-dependent numerical slip.
SLIP_VARIANTS = {
    "navier-r5": lambda R: SlipSpec.navier(R / 5.0),
    "navier-r50": lambda R: SlipSpec.navier(R / 50.0),
    "numerical": lambda R: SlipSpec(),
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
    """Slip model as text, "numerical" at L = 0, else "navier:<L>" in metres."""
    if slip.L == 0.0:
        return "numerical"
    return f"navier:{slip.L!r}"


def parse_slip(text: str) -> SlipSpec:
    """Inverse of :func:`format_slip`."""
    if text == "numerical":
        return SlipSpec()
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
    both trajectories have a first maximum and both times, or both
    overshoots, are positive.  The overshoot ratio also needs an
    ``h_inf`` in both metadata.  peak_count_* count detected maxima.
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


def compare(a: Trajectory, b: Trajectory) -> DeviationMetrics:
    """Deviation metrics of a against reference b.

    Both are resampled by linear interpolation onto the union of their
    time grids restricted to the overlap; the norms are normalized by b.
    Both must be in one scaling; one without a "scaling" is dimensional.
    """
    ka, kb = (tr.metadata.get("scaling", "none") for tr in (a, b))
    if ka != kb:
        raise ValueError(f"cannot compare scaling {ka} with scaling {kb}")
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

    ma, mb = ([p for p in detect_peaks(tr) if p.is_max] if len(tr) >= 3 else []
              for tr in (a, b))
    t_ratio: float | None = None
    o_ratio: float | None = None
    if ma and mb:
        if ma[0].t > 0.0 and mb[0].t > 0.0:
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
    # one %-format over the row-major values; Python floats format to the
    # same bytes as np.float64, and faster
    values = np.column_stack((traj.t, traj.h, traj.v)).ravel().tolist()
    return "t,h,hdot\n" + ("%.17g,%.17g,%.17g\n" * len(traj)) % tuple(values)


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    """Write the CSV contract bytes (UTF-8, LF endings) and its sidecar."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(trajectory_csv_text(traj))
    write_scale_sidecar(path, traj.metadata)


def write_scale_sidecar(csv_path: str | Path, metadata: dict) -> Path:
    """Record the scaling kind, rates and h_inf, when known, next to a
    CSV; metadata without a scaling is dimensional: none, rates 1.0."""
    sidecar = {"scaling": metadata.get("scaling", "none"),
               "t_rate": metadata.get("t_rate", 1.0),
               "h_rate": metadata.get("h_rate", 1.0)}
    if "h_inf" in metadata:
        sidecar["h_inf"] = metadata["h_inf"]
    target = Path(csv_path).with_suffix(".scale.json")
    with open(target, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return target


def read_trajectory_csv(path: str | Path) -> Trajectory:
    """Read a trajectory CSV; its ``.scale.json`` sidecar, when present
    (not for stdout captures), is checked and merged into the metadata."""
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
    meta: dict = {}
    sidecar = path.with_suffix(".scale.json")
    if sidecar.exists():
        # integers parse as floats, so an oversized one is inf
        side = json.loads(sidecar.read_text(encoding="utf-8"), parse_int=float)
        kinds = ("none",) + SCALING_KINDS
        if not (isinstance(side, dict) and side.get("scaling") in kinds):
            raise ValueError(f"scale sidecar must be a JSON object with scaling "
                             f"in {kinds}")
        for key in ("t_rate", "h_rate"):
            if not (type(side.get(key)) is float and 0.0 < side[key] < math.inf):
                raise ValueError(f"scale sidecar {key} must be finite and positive")
            if side["scaling"] == "none" and side[key] != 1.0:
                raise ValueError(f"scale sidecar {key} must be 1.0 in scaling none")
        h_inf = side.get("h_inf", 0.0)
        if not (type(h_inf) is float and math.isfinite(h_inf)):
            raise ValueError("scale sidecar h_inf must be finite")
        meta.update(side)
    return Trajectory(t=data[:, 0], h=data[:, 1], v=data[:, 2], metadata=meta)


# ----------------------------------------------------------------------
# benchmark execution


@dataclass(frozen=True)
class BenchResult:
    """Outcome of one (case, model) run; every figure is read from it.

    rel_stationary_err is measured against the corrected stationary
    height (h_inf_predicted) for every model; t_settle and the peak list
    use the model's own limit, which for the classical model is the
    uncorrected Jurin height.  diagnostics holds the vof2d run's
    conservation and stability figures and is None for the ODE models.
    """

    case: CaseSpec
    model: str
    trajectory: Trajectory
    diagnostics: RunDiagnostics | None = None

    @property
    def h_inf_predicted(self) -> float:
        return stationary_height(self.case.fluid, self.case.geom)

    @property
    def h_final(self) -> float:
        return float(self.trajectory.h[-1])

    @property
    def rel_stationary_err(self) -> float:
        h_inf = self.h_inf_predicted
        return abs(self.h_final - h_inf) / h_inf

    @property
    def peaks(self) -> tuple[Peak, ...]:
        return detect_peaks(self.trajectory)

    @property
    def ca_max(self) -> float:
        return ca_max(self.trajectory, self.case.fluid)

    @property
    def t_settle(self) -> float | None:
        return settle_time(self.trajectory, self.trajectory.metadata["h_inf"])

    @property
    def step_count(self) -> int:
        # solver steps for vof2d, right-hand-side evaluations for an ODE
        if self.diagnostics is not None:
            return self.diagnostics.n_steps
        return self.trajectory.metadata["nfev"]


def run_case(case: CaseSpec, model: str, *, t_end: float | None = None,
             nx: int | None = None) -> BenchResult:
    """Run one model on one case.

    t_end defaults to the auto policy (scaled time 10 in every scaling).
    vof2d needs an explicit resolution nx; it is never chosen silently.
    A case whose corrected stationary height is not positive is refused
    before any model runs.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; choose from {MODELS}")
    h_inf_pred = stationary_height(case.fluid, case.geom)
    if not h_inf_pred > 0.0:
        raise ValueError(f"stationary height {h_inf_pred:g} m is not positive")
    if t_end is None:
        t_end = auto_t_end(case.fluid, case.geom)
    diag = None
    if model == "vof2d":
        if nx is None:
            raise ValueError("vof2d runs need an explicit cells-per-radius nx")
        setup = CaseSetup2D(fluid=case.fluid, geom=case.geom, slip=case.slip,
                            nx=nx, t_end=t_end)
        traj, diag = Simulator(setup).run()
    else:
        spec = ModelSpec(model, SlipSpec() if model == "classical" else case.slip)
        traj = integrate(spec, case.fluid, case.geom, t_end, label=case.label)
    return BenchResult(case=case, model=model, trajectory=traj, diagnostics=diag)


def _steady_heights(fluid: FluidPair, geom: Geometry) -> dict:
    return {"h_jurin": jurin_height(fluid, geom),
            "h_hat": height_correction(geom),
            "h_inf": stationary_height(fluid, geom)}


def _study_params(fluid: FluidPair, geom: Geometry) -> dict:
    return {"rho": fluid.rho_l, "mu": fluid.mu_l, "sigma": fluid.sigma,
            "g": fluid.g, "R": geom.R,
            # radians(30) does not round-trip exactly; drop the noise
            "theta_deg": round(math.degrees(geom.theta_e), 12)}


def _entry_head(case: CaseSpec, model: str) -> dict:
    return {"label": case.label, "omega": case.omega_nominal, "model": model,
            "slip": format_slip(case.slip)}


def _summary_entry(res: BenchResult) -> dict:
    case = res.case
    entry = {
        **_entry_head(case, res.model),
        **_steady_heights(case.fluid, case.geom),
        "params": _study_params(case.fluid, case.geom),
        "h_final": res.h_final,
        "rel_stationary_err": res.rel_stationary_err,
        "ca_max": res.ca_max,
        "t_settle": res.t_settle,
        "peaks": [{"t": p.t, "h": p.h, "is_max": p.is_max}
                  for p in res.peaks],
        "n_steps": res.step_count,
        # no run records its wall time; the key stays for the byte contract
        "wall_time_s": None,
    }
    if res.diagnostics is not None:
        entry["diagnostics"] = asdict(res.diagnostics)
    return entry


def run_suite(selection, *, models: tuple[str, ...] = REDUCED_MODELS,
              scalings: tuple[str, ...] = ("none",),
              out_dir: str | Path,
              with_pde: int | None = None) -> list[BenchResult]:
    """Run every (case, model) pair, export CSVs and one summary.json.

    models are reduced models; with_pde=N adds vof2d at N cells per
    radius after them, and each case's vof2d Grid must accept N.  Case
    labels, models and scalings must each be unique; a refused suite
    writes nothing.  Pairs run to the auto horizon in input order, each
    writing one CSV per scaling to out_dir.  A failed run is recorded in
    the summary with an ``error`` field and the suite continues.  Returns
    the successful runs.
    """
    selection, models, scalings = list(selection), tuple(models), tuple(scalings)
    for what, names in (("case labels", [c.label for c in selection]),
                        ("models", models), ("scalings", scalings)):
        if len(set(names)) != len(names):
            raise ValueError(f"{what} must be unique within a suite, got {names}")
    for m in models:
        if m not in REDUCED_MODELS:
            raise ValueError(f"unknown model {m!r}; choose from {REDUCED_MODELS}, "
                             "and add vof2d with with_pde")
    allowed = ("none",) + SCALING_KINDS
    for k in scalings:
        if k not in allowed:
            raise ValueError(f"unknown scaling {k!r}; choose from {allowed}")
    if with_pde is not None:
        for case in selection:  # the grid owns the mesh rule
            try:
                Grid(with_pde, case.geom.R)
            except ValueError as exc:
                raise ValueError(f"vof2d with_pde: {exc}") from None
        models += ("vof2d",)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results: list[BenchResult] = []
    entries: list[dict] = []
    for case in selection:
        for m in models:
            try:
                res = run_case(case, m, nx=with_pde)
                entries.append(_summary_entry(res))
            except (CapriseError, ValueError) as exc:
                entries.append({**_entry_head(case, m),
                                "error": f"{type(exc).__name__}: {exc}"})
                continue
            results.append(res)
            for kind in scalings:
                traj = res.trajectory if kind == "none" else nondimensionalize(
                    res.trajectory, kind, coefficients(case.fluid, case.geom))
                write_trajectory_csv(traj, out / f"{case.label}_{m}_{kind}.csv")
    with open(out / "summary.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(entries, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return results
