"""Deterministic run artifacts: CSV series, density snapshots, manifest, plots.

Every file is written with Unix newlines, dot decimals, and floats at 17
significant digits, so identical runs produce byte-identical directories and
any float round-trips exactly through its text form. The manifest is itself a
valid configuration file reproducing the run.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Union

import numpy as np

from .config import DENSITY_GRID_POINTS, RunConfig, format_config
from .engine import Flow, TwoPhaseResult, value_function_trace
from .kernels import ShapeKernel

__all__ = ["format_float", "write_outputs"]


def format_float(value: float) -> str:
    """17-significant-digit, locale-independent float text (round-trip exact)."""
    return "%.17g" % value


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    with open(path, "w", newline="\n") as handle:
        for line in lines:
            handle.write(line)
            handle.write("\n")


def _write_csv(path: Path, header: str, rows: Iterable[tuple]) -> None:
    _write_lines(path, [header] + [",".join(row) for row in rows])


def _snapshot_name(time: float) -> str:
    return "density_t%g.csv" % time


def _value_name(start: float) -> str:
    return "value_x%g.csv" % start


def write_outputs(config: RunConfig, outcome: TwoPhaseResult, out_dir: Union[str, Path]) -> Path:
    """Write the full artifact set for a finished run; returns the manifest path.

    Writes mass.csv, iterations.csv (plus iterations_phase1.csv when the
    pruning phase ran), one density_t<time>.csv per snapshot time, one
    value_x<start>.csv per requested trace start, manifest.txt, and plots.gp.
    Non-converged runs are written the same way; the iteration log records
    the shortfall. The value traces are priced before anything is written,
    so a ``NonFiniteCostError`` from them leaves no directory behind.
    """
    traj = outcome.phase2.trajectories
    dt = config.dt
    # the trace of the particle that started nearest each trace start
    starts = traj.x[:, 0]
    traced = [int(np.argmin(np.abs(starts - start))) for start in config.value_trace_starts]
    traces = []
    if traced:
        traces = value_function_trace(traj, config.build_model(), config.sweep_options())[traced]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    flow = Flow.of(traj)
    mass, first_moment = flow.mass, flow.first_moment
    with np.errstate(invalid="ignore", divide="ignore"):
        center = np.where(mass > 0.0, first_moment / mass, np.nan)
    _write_csv(
        out / "mass.csv",
        "t,total_mass,first_moment,center_of_mass",
        (
            (
                format_float(n * dt),
                format_float(mass[n]),
                format_float(first_moment[n]),
                format_float(center[n]),
            )
            for n in range(traj.n_steps + 1)
        ),
    )

    def iteration_rows(reports):
        for report in reports:
            yield (
                str(report.sweep),
                str(report.modifications),
                format_float(report.distribution_change),
                "true" if report.converged else "false",
            )

    iteration_header = "sweep,modifications,distribution_change,converged"
    _write_csv(out / "iterations.csv", iteration_header, iteration_rows(outcome.phase2.reports))
    if outcome.phase1 is not None:
        _write_csv(
            out / "iterations_phase1.csv",
            iteration_header,
            iteration_rows(outcome.phase1.reports),
        )

    kernel = ShapeKernel(bandwidth=config.kde_bandwidth)
    queries = np.linspace(config.domain_lo, config.domain_hi, DENSITY_GRID_POINTS)
    density_files = []
    for snapshot_time in config.snapshot_times:
        step = int(round(snapshot_time / dt))
        step = min(max(step, 0), traj.n_steps)
        alive = traj.exit_step > step
        positions = traj.x[alive, step]
        weights = np.full(positions.size, traj.weight)
        density = kernel.density(positions, weights, queries)
        name = _snapshot_name(snapshot_time)
        density_files.append(name)
        _write_csv(
            out / name,
            "x,density",
            ((format_float(x), format_float(d)) for x, d in zip(queries, density)),
        )

    value_files = []
    for start, trace in zip(config.value_trace_starts, traces):
        name = _value_name(start)
        value_files.append(name)
        _write_csv(
            out / name,
            "t,u",
            ((format_float(n * dt), format_float(u)) for n, u in enumerate(trace.tolist())),
        )

    manifest = out / "manifest.txt"
    from . import __version__

    manifest_text = (
        f"# bestreply {__version__} run manifest\n"
        "# parseable as a run configuration; replays this run exactly\n"
        + format_config(config)
    )
    with open(manifest, "w", newline="\n") as handle:
        handle.write(manifest_text)

    _write_lines(out / "plots.gp", _plot_script(density_files, value_files))
    return manifest


def _plot_script(density_files: list[str], value_files: list[str]) -> list[str]:
    lines = [
        "# gnuplot script over the CSV artifacts in this directory",
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set terminal pngcairo size 960,640",
        "",
        "set output 'mass.png'",
        "set xlabel 't'",
        "plot 'mass.csv' using 1:2 with lines title 'total mass'",
        "",
        "set output 'iterations.png'",
        "set xlabel 'sweep'",
        "set logscale y",
        "plot 'iterations.csv' using 1:($2 > 0 ? $2 : 1/0) with linespoints title 'modifications'",
        "unset logscale y",
    ]
    if density_files:
        parts = ", ".join(
            f"'{name}' using 1:2 with lines title '{name[9:-4]}'" for name in density_files
        )
        lines += ["", "set output 'density.png'", "set xlabel 'x'", f"plot {parts}"]
    if value_files:
        parts = ", ".join(
            f"'{name}' using 1:2 with lines title 'start {name[7:-4]}'" for name in value_files
        )
        lines += ["", "set output 'value.png'", "set xlabel 't'", f"plot {parts}"]
    return lines
