"""Spans around the public names the caprise layers call each other by.

The tracer replaces module and class attributes (``harness.integrate``,
``solver.poisson_solve``, ``Simulator.step``, ...) with timing wrappers
and puts the originals back on ``restore``.  Callers look these names
up at call time, so every call is seen without touching the program.
Spans live in memory: (id, parent id, name, thread, start, end, attrs).
Install the tracer only in a traced run; untraced runs never import
this module's wrappers into the call path.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import threading
import time

import numpy as np

from caprise import harness, vof2d
from caprise.vof2d import solver


def _integrate_attrs(args, kwargs, result):
    return {"label": kwargs.get("label", ""), "model": args[0].kind,
            "nfev": int(result.metadata["nfev"])}


def _csv_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _sidecar_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


def _faces_attrs(args, kwargs, result):
    # velocities do not change during advection: these are the faces the
    # two sweeps visit one by one
    st = args[0].state
    return {"faces": int(np.count_nonzero(st.u)) + int(np.count_nonzero(st.v))}


# (owner, attribute, span name, attrs from (args, kwargs, result))
TARGETS = (
    (harness, "run_suite", "harness.run_suite", None),
    (harness, "run_case", "harness.run_case", None),
    (harness, "integrate", "odemodels.integrate", _integrate_attrs),
    (harness, "detect_peaks", "odemodels.detect_peaks", None),
    (harness, "nondimensionalize", "scaling.nondimensionalize", None),
    (harness, "write_trajectory_csv", "harness.export", _csv_attrs),
    (harness, "write_scale_sidecar", "harness.export", _sidecar_attrs),
    (harness, "read_trajectory_csv", "harness.read", None),
    (harness, "compare", "harness.compare", None),
    (solver, "init_case", "vof2d.init_case", None),
    (vof2d.Simulator, "step", "vof2d.step", None),
    (vof2d.Simulator, "advect_alpha", "vof2d.advect", _faces_attrs),
    (solver, "plic_reconstruct", "vof2d.plic", None),
    (solver, "poisson_solve", "vof2d.poisson", None),
    (solver, "curvature_height_function", "vof2d.curvature", None),
    (solver, "compute_dt", "vof2d.compute_dt", None),
    (solver, "apex_height", "vof2d.apex", None),
)


class Tracer:
    """Records spans from wrapped callables; safe across threads."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, attrs_fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            attrs = attrs_fn(args, kwargs, result) if attrs_fn else None
            tracer.spans.append((span_id, parent, name, threading.get_ident(),
                                 t0, t1, attrs))
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, attrs_fn in TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, attrs_fn))

    def restore(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def take(self) -> list[tuple]:
        """Spans recorded since the last call."""
        spans, self.spans = self.spans, []
        return spans


def write_spans(path, reps: list[list[tuple]]) -> None:
    """A header line of field names, then one JSON array per span."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(["rep", "id", "parent", "name", "thread", "start",
                             "end", "attrs"]) + "\n")
        for rep, spans in enumerate(reps):
            for span in spans:
                fh.write(json.dumps([rep, *span]) + "\n")


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans: list[tuple], pair_labels: list[str]) -> dict[str, float]:
    """Per-layer figures of one repetition from its spans."""
    dur: dict[str, list[float]] = {}
    attrs: dict[str, list[dict]] = {}
    for _, _, name, _, t0, t1, at in spans:
        dur.setdefault(name, []).append(t1 - t0)
        if at is not None:
            attrs.setdefault(name, []).append(at)

    def total(name):
        return sum(dur.get(name, ()))

    def attr_sum(name, key):
        return sum(a[key] for a in attrs.get(name, ()))

    m: dict[str, float] = {}
    integ = attrs.get("odemodels.integrate", [])
    integ_s = dur.get("odemodels.integrate", [])
    m["odemodels.integrate.s"] = sum(integ_s)
    m["odemodels.nfev"] = attr_sum("odemodels.integrate", "nfev")
    m["odemodels.us_per_rhs"] = (1e6 * m["odemodels.integrate.s"] / m["odemodels.nfev"]
                                 if m["odemodels.nfev"] else 0.0)
    for label in pair_labels:
        for model in ("classical", "extended"):
            sel = [(s, a["nfev"]) for s, a in zip(integ_s, integ)
                   if a["label"] == label and a["model"] == model]
            m[f"odemodels.integrate.s.{label}.{model}"] = sum(s for s, _ in sel)
            m[f"odemodels.nfev.{label}.{model}"] = sum(n for _, n in sel)
    m["odemodels.detect_peaks.s"] = total("odemodels.detect_peaks")

    suite_s = total("harness.run_suite")
    m["harness.run_case.sum_s"] = total("harness.run_case")
    m["harness.pool_overlap"] = m["harness.run_case.sum_s"] / suite_s if suite_s else 0.0
    m["harness.export.s"] = total("harness.export")
    m["harness.export.bytes"] = attr_sum("harness.export", "bytes")
    m["harness.read.s"] = total("harness.read")
    m["harness.compare.s"] = total("harness.compare")
    m["scaling.nondimensionalize.s"] = total("scaling.nondimensionalize")

    steps_ms = [1e3 * d for d in dur.get("vof2d.step", ())]
    steps = len(steps_ms)

    def per_step(value):
        return value / steps if steps else 0.0

    m["vof2d.init_case.s"] = total("vof2d.init_case")
    m["vof2d.steps"] = steps
    m["vof2d.step.ms_p50"] = _pct(steps_ms, 50)
    m["vof2d.step.ms_p99"] = _pct(steps_ms, 99)
    faces = attr_sum("vof2d.advect", "faces")
    plic_calls = len(dur.get("vof2d.plic", ()))
    m["vof2d.faces_per_step"] = per_step(faces)
    m["vof2d.plic.calls_per_step"] = per_step(plic_calls)
    m["vof2d.plic.useful_ratio"] = plic_calls / faces if faces else 0.0
    phase_ms = {}
    for phase in ("advect", "poisson", "curvature", "compute_dt", "apex"):
        phase_ms[phase] = 1e3 * total(f"vof2d.{phase}")
        m[f"vof2d.{phase}.ms_per_step"] = per_step(phase_ms[phase])
    m["vof2d.step.other_ms_per_step"] = per_step(
        sum(steps_ms) - phase_ms["advect"] - phase_ms["poisson"]
        - phase_ms["curvature"])
    return m


def median_metrics(per_rep: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in per_rep) for k in per_rep[0]}
