"""Correctness gates of the benchmark.

Each function takes one operation's outputs as plain values and returns
a list of failure messages; an empty list means the operation passed.
Every failed gate counts as one failed operation in the error rate.
"""

from __future__ import annotations

import math

import numpy as np

ODE_ENTRIES = 10              # five cases x (classical, extended)
MONOTONE_OMEGAS = (10.0, 100.0)
MONOTONE_TOL = 1e-4           # relative, against the model's own limit
RISE_APEX_TOL = 0.05          # relative to the corrected h_inf
RISE_CONSERVATION_TOL = 1e-10
RISE_DIV_FACTOR = 10.0        # times the solver's Poisson tolerance


def summary_failures(entries: list[dict]) -> list[str]:
    """The suite summary holds one entry per (case, model) pair."""
    if len(entries) != ODE_ENTRIES:
        return [f"summary has {len(entries)} entries, expected {ODE_ENTRIES}"]
    return []


def entry_failures(entry: dict) -> list[str]:
    """One (case, model) summary entry: no error, monotone cases settle."""
    tag = f"{entry.get('label')}/{entry.get('model')}"
    if "error" in entry:
        return [f"{tag}: {entry['error']}"]
    if entry["omega"] not in MONOTONE_OMEGAS:
        return []
    own = entry["h_jurin"] if entry["model"] == "classical" else entry["h_inf"]
    rel = abs(entry["h_final"] - own) / own
    if not rel <= MONOTONE_TOL:
        return [f"{tag}: final height {rel:.2e} from its own limit"]
    return []


def roundtrip_failures(tag: str, written, read) -> list[str]:
    """A trajectory read back from its CSV equals the one written."""
    same = all(np.array_equal(getattr(written, k), getattr(read, k))
               for k in ("t", "h", "v"))
    return [] if same else [f"{tag}: CSV read-back differs from the run"]


def compare_failures(tag: str, metrics) -> list[str]:
    """Deviation metrics between the two reduced models are finite."""
    if math.isfinite(metrics.l2_rel) and math.isfinite(metrics.linf_rel):
        return []
    return [f"{tag}: non-finite deviation {metrics.l2_rel}, {metrics.linf_rel}"]


def bytes_failures(first: bytes, again: bytes) -> list[str]:
    """summary.json is byte-identical between two runs of one seed."""
    return [] if first == again else ["summary.json bytes differ between runs"]


def rise_failures(h_final: float, h_inf: float, diag, poisson_tol: float) -> list[str]:
    """The 2D rise settles at h_inf and keeps the solver invariants."""
    fails = []
    rel = abs(h_final - h_inf) / h_inf
    if not rel <= RISE_APEX_TOL:
        fails.append(f"final apex {rel:.3f} from h_inf")
    for name in ("vol_balance_rel_max", "alpha_overshoot_max"):
        value = getattr(diag, name)
        if not value <= RISE_CONSERVATION_TOL:
            fails.append(f"{name} {value:.2e} > {RISE_CONSERVATION_TOL:.0e}")
    if not diag.div_reduction_max <= RISE_DIV_FACTOR * poisson_tol:
        fails.append(f"div_reduction_max {diag.div_reduction_max:.2e} > "
                     f"{RISE_DIV_FACTOR * poisson_tol:.0e}")
    return fails

