"""Command-line entry points: run, validate, report.

Exit codes: 0 success, 1 validation failure (including a model that prices
a candidate control at a non-finite cost), 2 run finished without reaching
a zero-modification equilibrium, 3 I/O problem (unreadable config, unwritable
output directory, missing artifacts).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

import numpy as np

from .config import ConfigError, RunConfig, parse_config
from .controls import ControlParams, validate_parameters
from .engine import NonFiniteCostError, run_two_phase
from .measures import EmpiricalJointMeasure, monotonicity_check
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


def _random_measure(rng: np.random.Generator, cfg: RunConfig) -> EmpiricalJointMeasure:
    n = int(rng.integers(2, 12))
    x = rng.uniform(cfg.domain_lo, cfg.domain_hi, n)
    alpha = rng.uniform(cfg.control_lo, cfg.control_hi, n)
    w = rng.uniform(0.1, 1.0, n)
    w = w / w.sum() * rng.uniform(0.3, 1.0)
    return EmpiricalJointMeasure(
        x=x, alpha=alpha, w=w,
        domain=(cfg.domain_lo, cfg.domain_hi),
        control_bounds=(cfg.control_lo, cfg.control_hi),
    )


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

    if cfg.model == "refinancing":
        bound = max(abs(cfg.control_lo), abs(cfg.control_hi))
        report = validate_parameters(
            ControlParams(M1=cfg.m1, M2=0.0, eps=cfg.eps, M=bound),
            lip_phi_prime=0.0,
            sup_phi_prime=cfg.m1,
        )
        detail = (
            f"margin {report.margin:.6g}"
            if report.passed
            else "violated: " + "; ".join(report.reasons)
        )
        checks.append(("contraction gates", report.passed, detail))

    # coupling-term monotonicity on random sub-probability measure pairs:
    # the measure-dependent cost term must never decrease against the
    # difference of the measures it is integrated with
    rng = np.random.default_rng(0)
    integrand = model.lagrangian if cfg.model == "refinancing" else model.interaction
    worst = 0.0
    for _ in range(40):
        nu1 = _random_measure(rng, cfg)
        nu2 = _random_measure(rng, cfg)
        value = monotonicity_check(integrand, nu1, nu2, 0.0)
        worst = min(worst, value)
    checks.append((
        "coupling monotonicity",
        worst >= -1e-12,
        f"worst signed integral {worst:.3g}",
    ))

    all_ok = all(ok for _name, ok, _detail in checks)
    for name, ok, detail in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    return _EXIT_OK if all_ok else _EXIT_VALIDATION


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

    logs = [iterations]
    if cfg.phase1_enabled:
        logs.append(out / "iterations_phase1.csv")
        if not logs[1].exists():
            _fail(f"missing artifact {logs[1]}")
            return _EXIT_IO
    phase_lines = [log.read_text().splitlines()[1:] for log in logs]
    iteration_lines = phase_lines[0]
    mass_lines = mass.read_text().splitlines()[1:]
    # as for ``run``: converged only if every phase that ran ended converged
    converged = all(lines and lines[-1].split(",")[3] == "true" for lines in phase_lines)
    final_mass = float(mass_lines[-1].split(",")[1]) if mass_lines else float("nan")

    rows = [
        ("model", cfg.model),
        ("particles", str(cfg.n_particles)),
        ("steps", str(cfg.n_steps)),
        ("dt", "%g" % cfg.dt),
        ("seed", str(cfg.seed)),
        ("sweeps", str(len(iteration_lines))),
        ("converged", "true" if converged else "false"),
        ("final mass", "%g" % final_mass),
    ]
    if iteration_lines:
        last = iteration_lines[-1].split(",")
        rows.insert(6, ("final modifications", last[1]))
    if cfg.phase1_enabled:
        rows.insert(5, ("phase 1 sweeps", str(len(phase_lines[1]))))
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
