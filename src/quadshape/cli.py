"""Command line front end.

Usage: ``quadshape COMMAND CONFIG [--out DIR] [--dump-operators] [--quiet]``
with commands evaluate, gradient, hessian, flow, diagnose, spectrum.  Every
command reads one plain-text config (see quadshape.config), writes a
deterministic ``report.json`` plus command-specific CSV files into the
output directory, and prints a short summary.

``main`` is the one pipeline: it loads the config and builds the curve.
``flow`` descends from that curve; every other command is a state command,
``cmd_X(run, state, args)``, run on the state solved once on the curve,
after which ``curve.csv``, ``state.csv`` and, with ``--dump-operators``,
``single_layer.csv`` and ``dtn.csv`` are written.  A command returns only
its report body and prints its own summary line; ``main`` writes
``report.json`` as the command name, the config echo and that body.

Exit codes: 0 on success, 2 for configuration or geometry validation
errors, 3 for numerical failures (singular systems, collapsed line search,
a Newton system that no shift makes positive definite, curves degenerating
mid-run).

Reports are byte-identical across reruns of the same config because the
package root pins BLAS to one thread before numpy loads (see quadshape).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict

import numpy as np

from .bem import SolverError
from .config import ConfigError, load_config
from .flow import convergence_report, descend
from .geometry import GeometryError, NormalField, curve_to_csv, metric_norm
from .potential import clearance_margin
from .reports import (curve_dict, metric_params_dict, solver_dict,
                      source_dict, write_curves_svg, write_json,
                      write_matrix_csv, write_state_csv, write_trace)
from .riemannian import (check_metric_compatibility,
                         curvature_normal_derivative,
                         curvature_normal_derivative_fd, riemannian_gradient,
                         torsion)
from .shape import (evaluate_J, fd_first_derivative, hadamard_derivative,
                    hessian_report, psi_normal_derivative, solve_state,
                    stability_controls, symmetric_spectrum)

COMMANDS = ("evaluate", "gradient", "hessian", "flow", "diagnose", "spectrum")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quadshape",
        description="free-boundary shape functional toolbox")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("config_path", nargs="?", default=None,
                        help="path to the run config")
    parser.add_argument("--out", default="out",
                        help="output directory (default: ./out)")
    parser.add_argument("--dump-operators", action="store_true",
                        help="also write the dense boundary operator "
                             "matrices as CSV")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the summary printed to stdout")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.config_path is None:
        print("error: no config file given", file=sys.stderr)
        return 2

    try:
        run = load_config(args.config_path)
        curve = run.build_curve()
    except (ConfigError, GeometryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    os.makedirs(args.out, exist_ok=True)
    try:
        if args.command == "flow":
            body = cmd_flow(run, curve, args)
        else:
            state = solve_state(curve, run.source, run.params.k)
            body = _STATE_COMMANDS[args.command](run, state, args)
            _write_common(state, args)
    except (SolverError, GeometryError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    report = {"command": args.command, "config": _config_echo(run, curve),
              **body}
    report_path = os.path.join(args.out, "report.json")
    write_json(report, report_path)
    if not args.quiet:
        print(f"report written to {report_path}")
    return 0


def _config_echo(run, curve):
    geo = asdict(run.geometry)
    geo["cos"] = {str(k): v for k, v in sorted(geo["cos"].items())}
    geo["sin"] = {str(k): v for k, v in sorted(geo["sin"].items())}
    return {
        "geometry": geo,
        "source": source_dict(run.source),
        "params": metric_params_dict(run.params),
        "fd": {"t_step": run.fd.t_step},
        "directions": list(run.directions),
        "curve": curve_dict(curve),
    }


def _write_curve(curve, path):
    with open(path, "w", newline="\n") as fh:
        fh.write(curve_to_csv(curve))


def _write_common(state, args):
    _write_curve(state.curve, os.path.join(args.out, "curve.csv"))
    write_state_csv(state, os.path.join(args.out, "state.csv"))
    if args.dump_operators:
        write_matrix_csv(state.ops.single_layer_matrix(),
                         os.path.join(args.out, "single_layer.csv"))
        write_matrix_csv(state.ops.dtn_matrix,
                         os.path.join(args.out, "dtn.csv"))


def cmd_evaluate(run, state, args):
    J = evaluate_J(state)
    body = {
        "J": J,
        "u_nu": {
            "min": float(np.min(state.u_nu)),
            "max": float(np.max(state.u_nu)),
            "mean": float(np.mean(state.u_nu)),
        },
        "psi": {
            "min": float(np.min(state.psi)),
            "max": float(np.max(state.psi)),
            "max_abs": float(np.max(np.abs(state.psi))),
        },
        "clearance_margin": clearance_margin(run.source, state.curve),
        "solver": solver_dict(state.ops),
    }
    if not args.quiet:
        print(f"J = {J:.12g}")
    return body


def cmd_gradient(run, state, args):
    curve = state.curve
    grad = riemannian_gradient(curve, run.params, state.psi)
    entries = []
    boundary = []
    fd = []
    for mode in run.directions:
        direction = NormalField.from_mode(mode, curve.n)
        b = hadamard_derivative(state, direction)
        f = fd_first_derivative(state, direction, t_step=run.fd.t_step)
        boundary.append(b)
        fd.append(f)
        entries.append({"direction": mode, "boundary_form": b,
                        "fd": f, "ratio": f / b if b != 0.0 else float("nan")})
    b_arr = np.array(boundary)
    denom = float(b_arr @ b_arr)
    fitted = float(np.array(fd) @ b_arr / denom) if denom > 0 else float("nan")
    body = {
        "J": evaluate_J(state),
        "gradient_norm": metric_norm(curve, run.params, grad.values),
        "directions": entries,
        "fitted_fd_over_boundary": fitted,
    }
    if not args.quiet:
        print(f"metric gradient norm = {body['gradient_norm']:.6g}; "
              f"fd/boundary ratio fit = {fitted:.6g}")
    return body


def cmd_hessian(run, state, args):
    rep = hessian_report(state, list(run.directions), A=run.params.A,
                         t_step=run.fd.t_step)
    if not args.quiet:
        slopes = ", ".join(f"{k}={v:.4g}"
                           for k, v in rep["fitted_slopes"].items())
        print(f"hessian routes over {len(rep['pairs'])} pairs; "
              f"fits vs fd: {slopes}")
    return {"J": evaluate_J(state), "hessian": rep}


# flow stop reasons that end the command with exit 3, and their messages
_FLOW_FAILURES = {
    "step_collapse": "line search collapsed",
    "direction_failure": "no positive definite Newton system",
}


def cmd_flow(run, curve, args):
    snap_dir = os.path.join(args.out, "snapshots")
    os.makedirs(snap_dir, exist_ok=True)
    every = run.output.snapshot_every
    snapshots = []

    def snapshot(iteration, cv):
        _write_curve(cv, os.path.join(snap_dir, f"iter{iteration:04d}.csv"))
        snapshots.append((iteration, cv))

    def callback(record, cv):
        if record.iteration % every == 0:
            snapshot(record.iteration, cv)

    result = descend(curve, run.source, run.params, run.flow, callback)
    if not snapshots or snapshots[-1][0] != result.iterations:
        snapshot(result.iterations, result.curve)

    write_trace(result, os.path.join(args.out, "trace.csv"))
    _write_curve(result.curve, os.path.join(args.out, "curve.csv"))
    if run.output.svg:
        picks = snapshots
        if len(picks) > 6:
            idx = [round(i * (len(picks) - 1) / 5) for i in range(6)]
            picks = [picks[i] for i in idx]
        write_curves_svg([cv for _, cv in picks],
                         [f"iter {it}" for it, _ in picks],
                         os.path.join(args.out, "flow.svg"))
    if result.reason in _FLOW_FAILURES:
        # artifacts above stay for inspection; main maps this to exit 3
        raise SolverError(f"{_FLOW_FAILURES[result.reason]} after "
                          f"{result.iterations} iterations")

    conv = convergence_report(result)
    if not args.quiet:
        print(f"{conv['reason']} after {conv['iterations']} iterations; "
              f"grad {conv['grad_norm_initial']:.3g} -> "
              f"{conv['grad_norm_final']:.3g}; J {conv['J_final']:.10g}")
    return {"flow": conv, "final_curve": curve_dict(result.curve)}


def cmd_diagnose(run, state, args):
    curve = state.curve
    stab = stability_controls(state, run.output.max_eigs)

    dpsi_closed = psi_normal_derivative(state, "interior")
    dpsi_sampled = psi_normal_derivative(state, "sampled")
    scale = float(np.max(np.abs(dpsi_closed))) or 1.0

    modes = list(run.directions)
    while len(modes) < 3:
        modes.append(modes[-1])
    h, m, l = (NormalField.from_mode(s, curve.n) for s in modes[:3])
    t = run.fd.t_step
    compat = check_metric_compatibility(curve, run.params, h, m, l, t_step=t)
    compat_half = check_metric_compatibility(curve, run.params, h, m, l,
                                             t_step=0.5 * t)
    tor = torsion(curve, run.params, h, m)

    kfd = curvature_normal_derivative_fd(curve)
    k_out = curvature_normal_derivative(curve, "outward")
    k_in = curvature_normal_derivative(curve, "inward")

    body = {
        "clearance_margin": clearance_margin(run.source, curve),
        "solver": {**solver_dict(state.ops),
                   "capacity_estimate": state.ops.capacity_estimate},
        "stability": stab,
        "psi_normal_derivative": {
            "max_abs_closed": scale,
            "max_diff_sampled": float(np.max(np.abs(dpsi_closed - dpsi_sampled))),
            "rel_diff_sampled": float(np.max(np.abs(dpsi_closed - dpsi_sampled)) / scale),
        },
        "connection": {
            "fields": modes[:3],
            "torsion_max": float(np.max(np.abs(tor))),
            "compatibility_residual": compat,
            "compatibility_residual_half_step": compat_half,
            "compatibility_order": (
                float(np.log2(compat / compat_half))
                if compat > 0 and compat_half > 0 else float("nan")),
        },
        "curvature_normal_derivative": {
            "max_diff_outward_vs_fd": float(np.max(np.abs(k_out - kfd))),
            "max_diff_inward_vs_fd": float(np.max(np.abs(k_in - kfd))),
        },
    }
    if not args.quiet:
        print(f"lambda0(minus) = {stab['lambda0_minus']:.6g}, "
              f"lambda0(plus) = {stab['lambda0_plus']:.6g}, "
              f"min kappa = {stab['min_kappa']:.6g}, "
              f"coercive_minus = {stab['verdicts']['coercive_minus']}")
    return body


def cmd_spectrum(run, state, args):
    count = run.output.max_eigs
    # L is positive semidefinite up to rounding: -1 is a Weyl floor
    dtn_vals = symmetric_spectrum(state.ops.dtn_matrix, state.curve.weights,
                                  count, floor=-1.0)
    stab = stability_controls(state, count)
    if not args.quiet:
        head = ", ".join(f"{v:.6g}" for v in dtn_vals[:6])
        print(f"leading DtN eigenvalues: {head}")
    return {
        "dtn_eigenvalues": dtn_vals.tolist(),
        "stability_minus": stab["eigenvalues_minus"],
        "stability_plus": stab["eigenvalues_plus"],
        "lambda0_minus": stab["lambda0_minus"],
        "lambda0_plus": stab["lambda0_plus"],
    }


_STATE_COMMANDS = {
    "evaluate": cmd_evaluate,
    "gradient": cmd_gradient,
    "hessian": cmd_hessian,
    "diagnose": cmd_diagnose,
    "spectrum": cmd_spectrum,
}


if __name__ == "__main__":
    sys.exit(main(argv=None))
