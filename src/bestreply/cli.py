"""Command-line entry points: run, validate, report.

Exit codes: 0 success, 1 validation failure (including a run that meets a
non-finite cost, position or moment), 2 run finished without reaching a
zero-modification equilibrium, 3 I/O problem (unreadable config, unwritable
output directory, missing or malformed artifacts).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

from .config import ConfigError, parse_config
from .controls import validate_parameters
from .engine import NonFiniteCostError, run_two_phase
from .outputs import write_outputs

_EXIT_OK = 0
_EXIT_VALIDATION = 1
_EXIT_NOT_CONVERGED = 2
_EXIT_IO = 3


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _load_config(path: str):
    try:
        return parse_config(path), _EXIT_OK
    except ConfigError as exc:
        _fail(str(exc))
        return None, _EXIT_VALIDATION
    except OSError as exc:
        _fail(str(exc))
        return None, _EXIT_IO


def _sweeps_text(result) -> str:
    reports = result.reports
    text = f"{len(reports)} sweep(s)"
    if reports:
        text += f", final modifications {reports[-1].modifications}"
    return text


def _cmd_run(args: argparse.Namespace) -> int:
    cfg, rc = _load_config(args.config)
    if cfg is None:
        return rc
    try:
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        model = cfg.build_model()
    except ConfigError as exc:
        _fail(str(exc))
        return _EXIT_VALIDATION
    try:
        outcome = run_two_phase(
            model,
            cfg.build_grid(),
            n_particles=cfg.n_particles,
            dt=cfg.dt,
            n_steps=cfg.n_steps,
            seed=cfg.seed,
            max_sweeps=cfg.max_sweeps,
            options=cfg.sweep_options(),
            phase1_enabled=cfg.phase1_enabled,
            phase1_particles=cfg.phase1_particles,
            keep_fraction=cfg.phase1_keep_fraction,
        )
    except NonFiniteCostError as exc:
        _fail(str(exc))
        return _EXIT_VALIDATION
    try:
        manifest = write_outputs(cfg, outcome, Path(args.out))
    except NonFiniteCostError as exc:
        _fail(str(exc))
        return _EXIT_VALIDATION
    except OSError as exc:
        _fail(str(exc))
        return _EXIT_IO
    if outcome.converged:
        status = f"converged after {_sweeps_text(outcome.phase2)}"
    else:
        phases = ((1, outcome.phase1), (2, outcome.phase2))
        status = "did not converge: " + "; ".join(
            f"phase {number} ran out after {_sweeps_text(result)}"
            for number, result in phases
            if result is not None and not result.converged
        )
    print(f"{cfg.model}: {status}")
    print(f"artifacts written to {manifest.parent}")
    return _EXIT_OK if outcome.converged else _EXIT_NOT_CONVERGED


def _cmd_validate(args: argparse.Namespace) -> int:
    cfg, rc = _load_config(args.config)
    if cfg is None:
        return rc
    checks: list[tuple[str, bool, str]] = []
    try:
        model = cfg.build_model()
    except ConfigError as exc:
        _fail(str(exc))
        return _EXIT_VALIDATION
    checks.append(("model parameters", True, "accepted"))

    bound = max(abs(cfg.control_lo), abs(cfg.control_hi))
    if cfg.model == "refinancing":
        report = validate_parameters(cfg.eps, bound, lip_phi_prime=0.0, sup_phi_prime=cfg.m1)
        detail = (
            f"margin {report.margin:.6g}"
            if report.passed
            else "violated: " + "; ".join(report.reasons)
        )
        checks.append(("contraction gates", report.passed, detail))

    # the sweep's quadratic and coupling costs, in its order of operations;
    # |theta| <= max|a| because the weights sum to at most 1
    quad = cfg.dt * model.quad_weight * bound * bound
    coupling = cfg.dt * model.coupling_coef * bound * bound
    checks.append((
        "finite control costs",
        math.isfinite(quad + coupling),
        f"dt*eps*max|a|^2 {quad:.6g}, dt*coupling_coef*max|a|^2 {coupling:.6g}",
    ))

    coef = model.coupling_coef
    checks.append((
        "coupling monotonicity",
        coef >= 0.0,
        f"integral = coupling_coef*(theta1-theta2)^2, coupling_coef {coef:.6g}",
    ))

    all_ok = all(ok for _name, ok, _detail in checks)
    for name, ok, detail in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    return _EXIT_OK if all_ok else _EXIT_VALIDATION


def _csv_rows(path: Path, n_fields: int) -> list[list[str]]:
    """Fields of each data row of a CSV artifact.

    Raises ValueError when the file is not UTF-8 or a row has fewer than
    ``n_fields`` fields.
    """
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]
    for number, row in enumerate(rows, start=2):
        if len(row) < n_fields:
            raise ValueError(f"{path.name} line {number} has fewer than {n_fields} fields")
    return rows


def _cmd_report(args: argparse.Namespace) -> int:
    out = Path(args.out)
    manifest = out / "manifest.txt"
    iterations = out / "iterations.csv"
    mass = out / "mass.csv"
    for path in (manifest, iterations, mass):
        if not path.exists():
            _fail(f"missing artifact {path}")
            return _EXIT_IO
    try:
        cfg = parse_config(manifest)
    except ConfigError as exc:
        _fail(f"manifest does not parse: {exc}")
        return _EXIT_VALIDATION
    except OSError as exc:
        _fail(str(exc))
        return _EXIT_IO

    logs = [iterations]
    if cfg.phase1_enabled:
        logs.append(out / "iterations_phase1.csv")
        if not logs[1].exists():
            _fail(f"missing artifact {logs[1]}")
            return _EXIT_IO
    try:
        phase_rows = [_csv_rows(log, 4) for log in logs]
        mass_rows = _csv_rows(mass, 2)
        final_mass = float(mass_rows[-1][1]) if mass_rows else float("nan")
    except ValueError as exc:
        _fail(f"malformed artifact in {out}: {exc}")
        return _EXIT_IO
    except OSError as exc:
        _fail(str(exc))
        return _EXIT_IO
    iteration_rows = phase_rows[0]
    # as for ``run``: converged only if every phase that ran ended converged
    converged = all(log and log[-1][3] == "true" for log in phase_rows)

    rows = [
        ("model", cfg.model),
        ("particles", str(cfg.n_particles)),
        ("steps", str(cfg.n_steps)),
        ("dt", "%g" % cfg.dt),
        ("seed", str(cfg.seed)),
        ("sweeps", str(len(iteration_rows))),
        ("converged", "true" if converged else "false"),
        ("final mass", "%g" % final_mass),
    ]
    if iteration_rows:
        rows.insert(6, ("final modifications", iteration_rows[-1][1]))
    if cfg.phase1_enabled:
        rows.insert(5, ("phase 1 sweeps", str(len(phase_rows[1]))))
    width = max(len(name) for name, _value in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")
    return _EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bestreply",
        description=(
            "Particle best-reply solver for absorbing-boundary populations "
            "with mean-control interaction"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="simulate to equilibrium and write artifacts")
    run_parser.add_argument("--config", required=True, help="run configuration file")
    run_parser.add_argument("--out", required=True, help="output directory")
    run_parser.add_argument("--seed", type=int, default=None,
                            help="override the configured seed")
    run_parser.set_defaults(func=_cmd_run)

    validate_parser = sub.add_parser(
        "validate",
        help="check a configuration: parameter gates and coupling monotonicity",
    )
    validate_parser.add_argument("--config", required=True)
    validate_parser.set_defaults(func=_cmd_validate)

    report_parser = sub.add_parser("report", help="summarize a finished run directory")
    report_parser.add_argument("--out", required=True)
    report_parser.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
