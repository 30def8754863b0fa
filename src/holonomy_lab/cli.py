"""Command-line front end: evolve, sweep, verify.

Exit codes: 0 success, 1 numerical/invariant failure, 2 usage or config
error, an output path the OS refuses included. Machine-readable output goes
to --out, else the config's output.path, else stdout, as UTF-8;
human-readable progress goes to stderr and is silenced by --quiet. Each
subcommand accepts only the flags it reads.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import spin_model, sweep as sweep_mod, verify as verify_mod
from .config import RunConfig, build_config, load_config, tolerance_overrides
from .errors import ConfigError
from .evolution import fidelity
from .phases import circular_distance
from .tolerances import DEFAULT

__all__ = ["main"]


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _emit(args, path: str | None, text: str) -> None:
    """Write text to the resolved output path (--out over output.path), or to
    stdout when there is none or it is empty."""
    if path:
        Path(path).write_text(text, encoding="utf-8")
        _say(args, f"wrote {path}")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _check_output_path(path: str | None) -> None:
    """Refuse, before the run, an output path that names a directory or lies
    in a directory that does not exist."""
    if path:
        target = Path(path)
        if target.is_dir():
            raise ConfigError(f"output path {path} is a directory")
        if not target.parent.is_dir():
            raise ConfigError(f"output directory {target.parent} does not exist")


def _build_config(args) -> RunConfig:
    mapping = load_config(args.config) if args.config else {}
    if not mapping:
        raise ConfigError("this command needs --config with at least theta and omega or eta")
    config = build_config(
        mapping,
        steps=args.steps,
        output_path=args.out,
        output_format=args.format,
    )
    _check_output_path(config.output_path)
    return config


def cmd_evolve(args) -> int:
    config = _build_config(args)
    eta = config.require_single_point()
    tol = config.tolerances()
    params = spin_model.ModelParams.from_eta(
        theta=config.theta, eta=eta, mu=config.mu, b_field=config.b_field, hbar=config.hbar
    )
    (traj,), (report,) = sweep_mod._solve(
        params, (+1,), config.steps, config.n_periods, deviation_target=None, tol=tol
    )
    grid = traj.grid
    exact = spin_model.exact_trajectory(params, +1, grid)
    fid = fidelity(traj, exact)
    exact_geom = spin_model.geometric_phase_exact(params, +1, config.n_periods)
    tilt = spin_model.tilt_angle(params)
    payload = {
        "model": {
            "theta": params.theta,
            "mu": params.mu,
            "b_field": params.b_field,
            "omega": params.omega,
            "eta": params.eta,
            "hbar": params.hbar,
            "n_periods": config.n_periods,
            "steps": grid.steps,
            "tilt_alpha": tilt.alpha,
            "tilt_branch_denominator_negative": tilt.denominator_negative,
        },
        "trajectory": {
            "t_end": grid.t_end,
            "steps": grid.steps,
            "norm_drift": traj.norm_drift(),
            "endpoint_overlap_modulus": report.endpoint_overlap_modulus,
        },
        "phase_report": asdict(report),
        "fidelity_vs_exact": fid,
        "geometric_phase_exact": exact_geom,
        "deviation_from_exact": circular_distance(report.geometric, exact_geom),
    }
    if config.output_format == "json":
        _emit(args, config.output_path, json.dumps(payload, indent=2))
    else:
        row = {"eta": params.eta, "theta": params.theta, "alpha": tilt.alpha, "total": report.total,
               "dynamical": report.dynamical, "geometric": report.geometric, "geometric_exact": exact_geom,
               "deviation_from_exact": payload["deviation_from_exact"], "fidelity_vs_exact": fid,
               "steps_used": grid.steps}
        lines = [sweep_mod.CSV_BANNER, ",".join(row), ",".join(sweep_mod.csv_value(v) for v in row.values())]
        _emit(args, config.output_path, "\n".join(lines) + "\n")
    _say(
        args,
        f"geometric phase {report.geometric:.9f} rad "
        f"(exact {exact_geom:.9f}, deviation {payload['deviation_from_exact']:.3e}), "
        f"fidelity {fid:.12f}",
    )
    return 0


def cmd_sweep(args) -> int:
    config = _build_config(args)
    if config.sweep is None:
        raise ConfigError("sweep command needs sweep.eta_min, sweep.eta_max, sweep.points")
    tol = config.tolerances()
    etas = sweep_mod.eta_grid(
        config.sweep.eta_min, config.sweep.eta_max, config.sweep.points, log=config.sweep.log
    )
    rows = sweep_mod.run_sweep(
        config.theta,
        etas,
        mu=config.mu,
        b_field=config.b_field,
        hbar=config.hbar,
        base_steps=config.steps,
        n_periods=config.n_periods,
        tol=tol,
    )
    text = sweep_mod.rows_to_csv(rows) if config.output_format == "csv" else sweep_mod.rows_to_json(rows)
    _emit(args, config.output_path, text)
    n_bad = sum(r.status != "ok" for r in rows)
    _say(args, f"{len(rows)} rows, {n_bad} failed")
    return 0


def cmd_verify(args) -> int:
    # verify accepts either a full run config or a tolerance-only one
    tol, path = DEFAULT, args.out
    if args.config:
        mapping = load_config(args.config)
        if any(not key.startswith("tol.") for key in mapping):
            config = build_config(mapping, output_path=args.out)
            tol, path = config.tolerances(), config.output_path
        else:
            tol = DEFAULT.replace(**tolerance_overrides(mapping))
    _check_output_path(path)
    results = verify_mod.run_suite(tol=tol, quick=args.quick, seed=args.seed)
    _emit(args, path, verify_mod.render_report(results) + "\n")
    return 0 if all(r.passed for r in results) else 1


def _seed(text: str) -> int:
    """A --seed value; anything but a non-negative integer is a usage error."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holonomy-lab",
        description="Geometric phases of driven finite-dimensional quantum systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = (
        ("evolve", cmd_evolve, "propagate one run and report its phase decomposition"),
        ("sweep", cmd_sweep, "sweep eta and tabulate geometric phases (CSV/JSON)"),
        ("verify", cmd_verify, "run the full invariant suite and report pass/fail"),
    )
    for name, fn, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="key = value or JSON config file")
        p.add_argument("--out", metavar="PATH", help="write machine-readable output here")
        if name == "verify":
            p.add_argument("--seed", type=_seed, default=0, help="seed for randomized gauge checks")
            p.add_argument("--quick", action="store_true", help="reduced, faster check suite")
        else:
            p.add_argument("--format", choices=("csv", "json"), default=None, help="output format")
            p.add_argument("--steps", type=int, default=None, help="override grid steps")
        p.add_argument("--quiet", action="store_true", help="suppress progress messages")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, OSError) as exc:  # OSError: the OS refused the output path
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
