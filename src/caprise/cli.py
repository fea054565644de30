"""Command line interface.

Exit codes: 0 success, 2 invalid arguments (including malformed input
files and non-wetting parameter combinations), 3 numerical failure.
The one check made here: `ode` refuses --slip-length for the classical model.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .core import CaseSpec, SlipSpec, dimensionless_numbers
from .errors import CapriseError
from .harness import (
    _steady_heights,
    _study_params,
    compare,
    omega_suite,
    parse_slip,
    read_trajectory_csv,
    run_case,
    run_suite,
    trajectory_csv_text,
    write_trajectory_csv,
)
from .odemodels import REDUCED_MODELS
from .scaling import SCALING_KINDS, coefficients, nondimensionalize
from .study import crossover_cells, step_counts, synth_params, timestep_limits
from .vof2d.geometry import DOMAIN_RADII


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _t_end_arg(text: str):
    """Horizon flag: seconds, or "auto"; the run checks the range."""
    if text == "auto":
        return None
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected seconds or 'auto', got {text!r}") from None


def _slip_arg(text: str) -> SlipSpec:
    """--slip flag: argparse drops a ValueError's text, but prints an
    ArgumentTypeError's, so parse_slip's reason reaches the user."""
    try:
        return parse_slip(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _case_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--omega", type=float, required=True,
                     help="oscillation number of the study row")
    sub.add_argument("--sigma", type=float, required=True,
                     help="surface tension [N/m]")


def _case(args, slip: SlipSpec, h0: float | None = None) -> CaseSpec:
    """The study row of --omega/--sigma as a case; h0 replaces 2R if given."""
    fluid, geom = synth_params(args.omega, args.sigma)
    if h0 is not None:
        geom = dataclasses.replace(geom, h0=h0)
    return CaseSpec(label=f"omega{args.omega:g}", fluid=fluid, geom=geom,
                    slip=slip, omega_nominal=args.omega)


def _cmd_steady(args) -> int:
    _print_json(_steady_heights(*synth_params(args.omega, args.sigma)))
    return 0


def _cmd_params(args) -> int:
    fluid, geom = synth_params(args.omega, args.sigma)
    nums = dimensionless_numbers(fluid, geom)
    _print_json({
        **_study_params(fluid, geom),
        "omega": nums.omega,
        "rho_g": fluid.rho_g,
        "mu_g": fluid.mu_g,
        "h0": geom.h0,
        "h_domain": DOMAIN_RADII * geom.R,
        "eo": nums.eo,
        "oh": nums.oh,
        "l_cap": nums.l_cap,
    })
    return 0


def _cmd_cost(args) -> int:
    fluid, geom = synth_params(args.omega, args.sigma)
    counts = step_counts(fluid, geom, args.cells)
    lim = timestep_limits(fluid, geom.R / args.cells)
    n_steps = {kind: {"sigma": counts.n_sigma[i], "mu": counts.n_mu[i]}
               for i, kind in enumerate(SCALING_KINDS)}
    _print_json({
        "dt_sigma_estimate": lim.dt_sigma_estimate,
        "dt_sigma_solver": lim.dt_sigma_solver,
        "dt_mu": lim.dt_mu,
        "n_star_cells": crossover_cells(fluid, geom),
        "n_steps": n_steps,
    })
    return 0


def _cmd_ode(args) -> int:
    if args.model == "classical" and args.slip_length is not None:
        raise ValueError("--slip-length applies to the extended model only")
    slip = SlipSpec(args.slip_length or 0.0)  # no length: numerical slip
    traj = run_case(_case(args, slip, args.h0), args.model,
                    t_end=args.t_end).trajectory
    if args.out:
        write_trajectory_csv(traj, args.out)
    else:
        sys.stdout.write(trajectory_csv_text(traj))
    return 0


def _cmd_scale(args) -> int:
    traj = read_trajectory_csv(args.input)
    fluid, geom = synth_params(args.omega, args.sigma)
    coeffs = coefficients(fluid, geom, "2d" if args.dim == 2 else "3d")
    scaled = nondimensionalize(traj, args.scaling, coeffs)
    write_trajectory_csv(scaled, args.out)
    return 0


def _cmd_sim2d(args) -> int:
    res = run_case(_case(args, args.slip), "vof2d", t_end=args.t_end,
                   nx=args.cells_per_radius)
    write_trajectory_csv(res.trajectory, args.out)
    print(json.dumps(dataclasses.asdict(res.diagnostics), sort_keys=True),
          file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    run_suite(omega_suite(), models=args.models, scalings=args.scalings,
              out_dir=args.out_dir, with_pde=args.with_pde)
    return 0


def _cmd_compare(args) -> int:
    metrics = compare(read_trajectory_csv(args.a), read_trajectory_csv(args.b))
    _print_json(dataclasses.asdict(metrics))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caprise",
        description="Capillary rise between parallel plates: stationary "
                    "heights, reduced ODE models, scalings and a 2D "
                    "two-phase reference solver.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("steady", help="stationary rise heights")
    _case_args(sub)
    sub.set_defaults(func=_cmd_steady)

    sub = subs.add_parser("params", help="synthesized study parameters")
    _case_args(sub)
    sub.set_defaults(func=_cmd_params)

    sub = subs.add_parser("cost", help="timestep ceilings and step counts")
    _case_args(sub)
    sub.add_argument("--cells", type=int, required=True,
                     help="cells across the half gap width")
    sub.set_defaults(func=_cmd_cost)

    sub = subs.add_parser("ode", help="integrate a reduced rise model")
    sub.add_argument("--model", choices=REDUCED_MODELS, required=True)
    _case_args(sub)
    sub.add_argument("--slip-length", type=float, default=None,
                     help="Navier slip length [m], extended only, default 0 (no slip)")
    sub.add_argument("--h0", type=float, default=None,
                     help="initial apex height [m], default 2R")
    sub.add_argument("--t-end", type=_t_end_arg, default=None,
                     help="horizon in seconds, or 'auto' (default)")
    sub.add_argument("--out", default=None,
                     help="CSV path; omitted prints CSV to stdout")
    sub.set_defaults(func=_cmd_ode)

    sub = subs.add_parser("scale", help="rescale a trajectory CSV")
    sub.add_argument("--input", required=True, help="dimensional CSV")
    sub.add_argument("--scaling", choices=SCALING_KINDS, required=True)
    _case_args(sub)
    sub.add_argument("--dim", type=int, choices=(2, 3), default=2,
                     help="planar (2) or tube (3) coefficients")
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=_cmd_scale)

    sub = subs.add_parser("sim2d", help="run the 2D two-phase solver")
    _case_args(sub)
    sub.add_argument("--cells-per-radius", type=int, required=True)
    sub.add_argument("--slip", type=_slip_arg, required=True,
                     help="'numerical' or 'navier:<metres>'")
    sub.add_argument("--t-end", type=_t_end_arg, default=None,
                     help="horizon in seconds, or 'auto' (default)")
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=_cmd_sim2d)

    sub = subs.add_parser("bench", help="run the benchmark suite")
    sub.add_argument("--suite", choices=("omega-study",), required=True)
    sub.add_argument("--models", nargs="+", choices=REDUCED_MODELS,
                     default=REDUCED_MODELS)
    sub.add_argument("--scalings", nargs="+",
                     choices=("none",) + SCALING_KINDS, default=["none"])
    sub.add_argument("--with-pde", type=int, default=None,
                     help="cells per radius; adds vof2d after the models")
    sub.add_argument("--out-dir", required=True)
    sub.set_defaults(func=_cmd_bench)

    sub = subs.add_parser("compare", help="deviation metrics of two CSVs")
    sub.add_argument("--a", required=True, help="trajectory under test")
    sub.add_argument("--b", required=True, help="reference trajectory")
    sub.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # covers the CapriseError subclasses that signal bad inputs,
        # plus unreadable or unwritable files
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapriseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
