import filecmp
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bestreply.cli import main
from bestreply.config import (
    _KEYS,
    _REMOVED_KEYS,
    DENSITY_GRID_POINTS,
    ConfigError,
    RunConfig,
    format_config,
    parse_config,
    shipped_config_path,
)
from bestreply.engine import run_two_phase
from bestreply.outputs import format_float, write_outputs


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _mini_refinancing(tmp_path, **overrides):
    lines = {
        "model": "refinancing",
        "n_particles": "40",
        "dt": "0.004",
        "T": "0.4",
        "seed": "5",
        "max_sweeps": "10",
        "snapshot_times": "0.2",
        "value_trace_starts": "0.0",
    }
    lines.update({k: str(v) for k, v in overrides.items()})
    text = "\n".join(f"{k} = {v}" for k, v in lines.items()) + "\n"
    return _write(tmp_path, text)


def _mini_evacuation(tmp_path, **overrides):
    lines = {
        "model": "evacuation",
        "n_particles": "30",
        "dt": "0.004",
        "T": "0.6",
        "seed": "1",
        "max_sweeps": "25",
        "snapshot_times": "0.012,0.2",
        "value_trace_starts": "0.6,0.8",
    }
    lines.update({k: str(v) for k, v in overrides.items()})
    text = "\n".join(f"{k} = {v}" for k, v in lines.items()) + "\n"
    return _write(tmp_path, text, name="evac.cfg")


# ---------------------------------------------------------------- parsing

def test_parse_minimal_fills_documented_defaults(tmp_path):
    cfg = parse_config(_write(tmp_path, "model = evacuation\n"))
    assert cfg.model == "evacuation"
    assert (cfg.domain_lo, cfg.domain_hi) == (0.0, 1.0)
    assert (cfg.control_lo, cfg.control_hi) == (-0.2, 0.2)
    assert cfg.n_particles == 600
    assert cfg.n_alpha == 11
    assert cfg.dt == 0.004
    assert cfg.T == 4.0
    assert cfg.sigma == 2.5e-9
    assert cfg.seed == 0
    assert (cfg.eta, cfg.beta, cfg.eps, cfg.softening) == (4.0, 1.0, 0.5, 0.2)
    assert cfg.kde_bandwidth == 0.05
    assert cfg.snapshot_times == ()
    assert cfg.value_trace_starts == ()
    assert cfg.phase1_enabled is False
    assert cfg.phase1_particles == 150
    assert cfg.phase1_keep_fraction == 0.01
    assert cfg.max_sweeps == 50
    assert cfg.theta_self == "exclude"
    assert cfg.n_steps == 1000


def test_refinancing_defaults(tmp_path):
    cfg = parse_config(_write(tmp_path, "model = refinancing\n"))
    assert (cfg.domain_lo, cfg.domain_hi) == (-1.0, 1.0)
    assert (cfg.control_lo, cfg.control_hi) == (-0.05, 0.05)
    assert cfg.m1 == 0.1
    assert cfg.eps == 0.5


def test_comments_blank_lines_and_spacing(tmp_path):
    text = (
        "# leading comment\n"
        "\n"
        "model = evacuation   # trailing comment\n"
        "   seed=9\n"
        "eta   =   2.5\n"
    )
    cfg = parse_config(_write(tmp_path, text))
    assert cfg.seed == 9
    assert cfg.eta == 2.5


def test_unknown_key_rejected_with_line_number(tmp_path):
    path = _write(tmp_path, "model = evacuation\n\nwibble = 3\n")
    with pytest.raises(ConfigError, match="line 3") as exc:
        parse_config(path)
    assert "wibble" in str(exc.value)


def test_missing_equals_is_parse_error_with_line(tmp_path):
    path = _write(tmp_path, "model = evacuation\njust some words\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(path)


def test_bad_number_is_parse_error_with_line(tmp_path):
    path = _write(tmp_path, "model = evacuation\ndt = fast\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(path)


@pytest.mark.parametrize("key, value", [
    ("workers", "1"),
    ("sweep_mode", "all_particles_per_step"),
    ("rate_choice", "default"),
    ("state_cost_choice", "default"),
    ("cost_eval", "post_step"),
    ("convergence_threshold", "0"),
])
def test_removed_key_rejected_by_name(tmp_path, key, value):
    path = _write(tmp_path, f"model = evacuation\n{key} = {value}\n")
    with pytest.raises(ConfigError, match="line 2") as exc:
        parse_config(path)
    message = str(exc.value)
    assert f"{key!r} was removed" in message
    assert "\n" not in message


@pytest.mark.parametrize("line", ["eta = nan", "T = inf", "snapshot_times = 0.5,-inf"])
def test_non_finite_float_rejected(tmp_path, line):
    # a NaN weight would make every candidate's cost NaN, and the argmin
    # would silently pick the first grid control
    key = line.split()[0]
    with pytest.raises(ConfigError, match=f"line 2.*'{key}'.*finite"):
        parse_config(_write(tmp_path, f"model = evacuation\n{line}\n"))


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_rejected(tmp_path, seed):
    # seeds key the Philox streams as an unsigned 64-bit word
    with pytest.raises(ConfigError, match=r"seed must lie in \[0, 2\*\*64\)"):
        parse_config(_write(tmp_path, f"model = evacuation\nseed = {seed}\n"))
    assert parse_config(_write(tmp_path, f"model = evacuation\nseed = {2**64 - 1}\n"))


_BIG = "1" + "0" * 400  # a count no float can hold

_config_value = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
    st.integers(min_value=-(10**450), max_value=10**450).map(str),
    st.floats().map(repr),
    st.sampled_from(["evacuation", "refinancing", "true", "false", "0.5, 1", ""]),
)
_config_line = st.one_of(
    st.tuples(
        st.sampled_from(sorted(_KEYS) + sorted(_REMOVED_KEYS)) | st.text(max_size=8),
        _config_value,
    ).map(lambda kv: f"{kv[0]} = {kv[1]}".encode("utf-8")),
    st.binary(max_size=6),  # stray bytes, most of them not UTF-8
)
_config_bytes = st.builds(
    lambda head, lines: head + b"\n".join(lines),
    st.sampled_from([b"", b"model = evacuation\n", b"model = refinancing\n"]),
    st.lists(_config_line, max_size=8),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(b"model = evacuation\n# caf\xe9\n")
@example(f"model = evacuation\nn_particles = {_BIG}\n".encode())
@given(data=_config_bytes)
def test_any_config_text_parses_or_raises_config_error(tmp_path, data):
    path = tmp_path / "fuzz.cfg"
    path.write_bytes(data)
    try:
        cfg = parse_config(path)
    except ConfigError as exc:
        assert "\n" not in str(exc)
    else:
        assert isinstance(cfg, RunConfig)


def test_duplicate_key_rejected(tmp_path):
    path = _write(tmp_path, "model = evacuation\nseed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="line 3"):
        parse_config(path)


def test_model_is_required(tmp_path):
    with pytest.raises(ConfigError, match="model"):
        parse_config(_write(tmp_path, "seed = 1\n"))


def test_unknown_model_rejected(tmp_path):
    with pytest.raises(ConfigError, match="model"):
        parse_config(_write(tmp_path, "model = traffic\n"))


def test_dt_zero_rejected(tmp_path):
    with pytest.raises(ConfigError, match="dt"):
        parse_config(_write(tmp_path, "model = evacuation\ndt = 0\n"))


def test_horizon_must_be_step_multiple(tmp_path):
    path = _write(tmp_path, "model = evacuation\ndt = 0.3\nT = 1\n")
    with pytest.raises(ConfigError, match="T"):
        parse_config(path)


def test_snapshot_outside_horizon_rejected(tmp_path):
    path = _write(tmp_path, "model = evacuation\nT = 4\nsnapshot_times = 5\n")
    with pytest.raises(ConfigError, match="snapshot"):
        parse_config(path)


def test_n_alpha_too_small_rejected(tmp_path):
    with pytest.raises(ConfigError, match="n_alpha"):
        parse_config(_write(tmp_path, "model = evacuation\nn_alpha = 1\n"))


def test_model_specific_key_on_wrong_model_rejected(tmp_path):
    with pytest.raises(ConfigError, match="eta"):
        parse_config(_write(tmp_path, "model = refinancing\neta = 4\n"))
    with pytest.raises(ConfigError, match="m1"):
        parse_config(_write(tmp_path, "model = evacuation\nm1 = 0.1\n"))


def test_bad_model_parameter_rejected(tmp_path):
    with pytest.raises(ConfigError, match="eta"):
        parse_config(_write(tmp_path, "model = evacuation\neta = -1\n"))
    with pytest.raises(ConfigError, match="eps"):
        parse_config(_write(tmp_path, "model = refinancing\neps = 0\n"))


def test_boolean_and_list_values(tmp_path):
    text = (
        "model = evacuation\n"
        "phase1_enabled = true\n"
        "snapshot_times = 0.1, 0.2,0.3\n"
        "value_trace_starts =\n"
    )
    cfg = parse_config(_write(tmp_path, text))
    assert cfg.phase1_enabled is True
    assert cfg.snapshot_times == (0.1, 0.2, 0.3)
    assert cfg.value_trace_starts == ()
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(_write(tmp_path, "model = evacuation\nphase1_enabled = maybe\n"))


def test_format_parse_roundtrip(tmp_path):
    cfg = parse_config(_mini_evacuation(tmp_path, phase1_enabled="true", theta_self="include"))
    text = format_config(cfg)
    back = parse_config(_write(tmp_path, text, name="round.cfg"))
    assert back == cfg


def test_shipped_configs_parse():
    full = parse_config(shipped_config_path("evacuation_full.cfg"))
    assert full.model == "evacuation"
    assert full.n_particles == 6000
    assert full.n_alpha == 11
    assert (full.eta, full.beta, full.eps) == (4.0, 1.0, 0.5)
    assert full.sigma == 2.5e-9
    assert full.dt == 0.004
    assert full.n_steps == 1000
    assert len(full.snapshot_times) == 6

    desk = parse_config(shipped_config_path("evacuation_desk.cfg"))
    assert desk.model == "evacuation"
    assert desk.n_particles == 600
    assert desk.n_steps == 1000
    assert desk.phase1_enabled is True
    assert set(desk.value_trace_starts) >= {0.6, 0.7, 0.8}

    refi = parse_config(shipped_config_path("refinancing_default.cfg"))
    assert refi.model == "refinancing"
    assert refi.n_particles == 600
    assert (refi.control_lo, refi.control_hi) == (-0.05, 0.05)
    assert refi.m1 == 0.1


def test_readme_config_table_lists_every_key():
    # the backticked names in the first column of README's configuration table
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("## Configuration files", 1)[1]
    table = [line for line in section.splitlines() if line.startswith("| `")]
    documented = [name for row in table for name in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(documented) == sorted(_KEYS)


def test_build_model_grid_and_options(tmp_path):
    cfg = parse_config(_mini_evacuation(tmp_path, theta_self="include"))
    model = cfg.build_model()
    assert model.state_gain_is_zero and model.coupling_coef == 1.0
    assert model.domain == (0.0, 1.0)
    assert model.diffusion == 2.5e-9
    grid = cfg.build_grid()
    assert grid.n_points == 11
    assert grid.lo == -0.2 and grid.hi == 0.2
    opts = cfg.sweep_options()
    assert opts.theta_self == "include"


# ---------------------------------------------------------------- outputs

def test_format_float_is_17_digit_and_roundtrips():
    assert format_float(1.0) == "1"
    assert format_float(0.1) == "0.10000000000000001"
    for value in (0.004, 2.5e-9, -0.2, 1 / 3, 1e300):
        assert float(format_float(value)) == value


@pytest.fixture(scope="module")
def evac_outcome(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("evacrun")
    cfg = parse_config(_mini_evacuation(tmp))
    outcome = run_two_phase(
        cfg.build_model(), cfg.build_grid(),
        n_particles=cfg.n_particles, dt=cfg.dt, n_steps=cfg.n_steps,
        seed=cfg.seed, max_sweeps=cfg.max_sweeps, options=cfg.sweep_options(),
        phase1_enabled=cfg.phase1_enabled, phase1_particles=cfg.phase1_particles,
        keep_fraction=cfg.phase1_keep_fraction,
    )
    return cfg, outcome


def test_write_outputs_creates_contracted_files(evac_outcome, tmp_path):
    cfg, outcome = evac_outcome
    out = tmp_path / "out"
    manifest = write_outputs(cfg, outcome, out)
    assert manifest == out / "manifest.txt"
    expected = {
        "mass.csv", "iterations.csv", "manifest.txt", "plots.gp",
        "density_t0.012.csv", "density_t0.2.csv",
        "value_x0.6.csv", "value_x0.8.csv",
    }
    assert expected.issubset({p.name for p in out.iterdir()})


def test_mass_csv_schema_and_monotone_mass(evac_outcome, tmp_path):
    cfg, outcome = evac_outcome
    out = tmp_path / "out"
    write_outputs(cfg, outcome, out)
    lines = (out / "mass.csv").read_text().splitlines()
    assert lines[0] == "t,total_mass,first_moment,center_of_mass"
    assert len(lines) == cfg.n_steps + 2
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] == "1"
    data = np.genfromtxt(out / "mass.csv", delimiter=",", skip_header=1)
    assert np.all(np.diff(data[:, 1]) <= 0.0)
    finite = data[:, 1] > 0
    assert np.allclose(data[finite, 3], data[finite, 2] / data[finite, 1])


def test_iterations_csv_matches_reports(evac_outcome, tmp_path):
    cfg, outcome = evac_outcome
    out = tmp_path / "out"
    write_outputs(cfg, outcome, out)
    lines = (out / "iterations.csv").read_text().splitlines()
    assert lines[0] == "sweep,modifications,distribution_change,converged"
    assert len(lines) == len(outcome.phase2.reports) + 1
    last = lines[-1].split(",")
    assert last[3] == ("true" if outcome.phase2.reports[-1].converged else "false")
    if outcome.converged:
        assert last[1] == "0"
    assert not (out / "iterations_phase1.csv").exists()


def test_phase1_iterations_written_when_enabled(tmp_path):
    cfg = parse_config(_mini_evacuation(
        tmp_path, phase1_enabled="true", phase1_particles="20",
        phase1_keep_fraction="0.01",
    ))
    outcome = run_two_phase(
        cfg.build_model(), cfg.build_grid(),
        n_particles=cfg.n_particles, dt=cfg.dt, n_steps=cfg.n_steps,
        seed=cfg.seed, max_sweeps=cfg.max_sweeps, options=cfg.sweep_options(),
        phase1_enabled=True, phase1_particles=cfg.phase1_particles,
        keep_fraction=cfg.phase1_keep_fraction,
    )
    out = tmp_path / "out"
    write_outputs(cfg, outcome, out)
    lines = (out / "iterations_phase1.csv").read_text().splitlines()
    assert lines[0] == "sweep,modifications,distribution_change,converged"
    assert len(lines) == len(outcome.phase1.reports) + 1


def test_density_snapshots_on_512_grid(evac_outcome, tmp_path):
    cfg, outcome = evac_outcome
    out = tmp_path / "out"
    write_outputs(cfg, outcome, out)
    data = np.genfromtxt(out / "density_t0.2.csv", delimiter=",", skip_header=1)
    assert data.shape == (512, 2)
    assert data[0, 0] == 0.0 and data[-1, 0] == 1.0
    spacing = np.diff(data[:, 0])
    assert np.allclose(spacing, spacing[0])
    assert np.all(data[:, 1] >= 0.0)
    step = int(round(0.2 / cfg.dt))
    traj = outcome.phase2.trajectories
    mass = np.count_nonzero(traj.exit_step > step) / traj.n_particles
    integral = np.trapezoid(data[:, 1], data[:, 0])
    assert integral <= mass + 1e-9
    assert integral >= 0.5 * mass


def test_value_trace_schema(evac_outcome, tmp_path):
    cfg, outcome = evac_outcome
    out = tmp_path / "out"
    write_outputs(cfg, outcome, out)
    lines = (out / "value_x0.6.csv").read_text().splitlines()
    assert lines[0] == "t,u"
    assert len(lines) == cfg.n_steps + 2
    data = np.genfromtxt(out / "value_x0.6.csv", delimiter=",", skip_header=1)
    assert np.allclose(data[:, 0], np.arange(cfg.n_steps + 1) * cfg.dt)
    assert np.all(np.isfinite(data[:, 1]))


def test_manifest_roundtrips_to_same_config(evac_outcome, tmp_path):
    cfg, outcome = evac_outcome
    out = tmp_path / "out"
    manifest = write_outputs(cfg, outcome, out)
    assert parse_config(manifest) == cfg


def test_write_outputs_is_deterministic(evac_outcome, tmp_path):
    cfg, outcome = evac_outcome
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    write_outputs(cfg, outcome, out_a)
    write_outputs(cfg, outcome, out_b)
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(out_a, out_b, names, shallow=False)
    assert mismatch == [] and errors == []


def test_plot_script_references_written_csvs(evac_outcome, tmp_path):
    cfg, outcome = evac_outcome
    out = tmp_path / "out"
    write_outputs(cfg, outcome, out)
    script = (out / "plots.gp").read_text()
    assert "mass.csv" in script
    assert "iterations.csv" in script
    assert "density_t0.2.csv" in script
    assert "value_x0.6.csv" in script


# -------------------------------------------------------------------- cli

def test_cli_run_converges_and_is_deterministic(tmp_path, capsys):
    cfg_path = _mini_refinancing(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out2)]) == 0
    for name in ("mass.csv", "iterations.csv", "manifest.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    lines = (out1 / "iterations.csv").read_text().splitlines()
    assert lines[-1].split(",")[1] == "0"
    assert lines[-1].split(",")[3] == "true"


def test_cli_run_seed_override_recorded(tmp_path):
    cfg_path = _mini_refinancing(tmp_path)
    out = tmp_path / "seeded"
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--seed", "7"]) == 0
    assert parse_config(out / "manifest.txt").seed == 7


def test_cli_run_nonconverged_exits_2_with_partial_outputs(tmp_path):
    cfg_path = _mini_refinancing(tmp_path, max_sweeps="1")
    out = tmp_path / "partial"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    lines = (out / "iterations.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[3] == "false"
    assert (out / "mass.csv").exists()


def test_cli_run_missing_config_exits_3(tmp_path):
    rc = main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")])
    assert rc == 3


def test_cli_run_invalid_config_exits_1(tmp_path):
    cfg_path = _write(tmp_path, "model = evacuation\ndt = 0\n")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1


def test_cli_run_out_of_range_seed_override_exits_1(tmp_path, capsys):
    cfg_path = _mini_refinancing(tmp_path)
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seed must lie in") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("line", [
    "dt = 1e-300",
    "T = 1e300",
    "n_particles = 100000000",
    f"n_alpha = {10**15}",
    f"n_alpha = {10**22}",
    pytest.param(f"n_particles = {_BIG}", id="n_particles = 401 digits"),
    pytest.param(f"n_alpha = {_BIG}", id="n_alpha = 401 digits"),
    pytest.param(f"phase1_enabled = true\nphase1_particles = {_BIG}",
                 id="phase1_particles = 401 digits"),
])
def test_cli_run_oversized_run_refused_at_parse(tmp_path, capsys, line):
    # refused before any trajectory or control-grid array is allocated
    cfg_path = _write(tmp_path, f"model = evacuation\n{line}\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: run too large:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "validate"])
def test_cli_non_utf8_config_exits_1(tmp_path, capsys, command):
    cfg_path = tmp_path / "latin1.cfg"
    cfg_path.write_bytes(b"model = evacuation\n# caf\xe9\n")
    out = tmp_path / "o"
    args = ["--out", str(out)] if command == "run" else []
    assert main([command, "--config", str(cfg_path), *args]) == 1
    err = capsys.readouterr().err
    assert err == "error: line 2: not valid UTF-8 text\n"
    assert not out.exists()


def test_cli_run_nan_parameter_exits_1(tmp_path, capsys):
    cfg_path = _mini_evacuation(tmp_path, eta="nan")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert "eta" in capsys.readouterr().err


def test_cli_run_overflowing_cost_exits_1(tmp_path, capsys):
    # a finite eta whose congestion cost overflows to inf: refused when the
    # sweep prices it, not solved against
    cfg_path = _mini_evacuation(tmp_path, eta="1e308", n_particles="40")
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: non-finite cost at step 0 ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_cli_run_overflowing_control_grid_is_one_line(tmp_path, capsys):
    # a^2 overflows on the grid points; that surfaces as the refused
    # non-finite cost, with no numpy warning ahead of it
    cfg_path = _mini_refinancing(tmp_path, control_lo="-1e300", control_hi="1e300")
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: non-finite cost at step 0 ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("side", ["domain", "control"])
def test_cli_run_infinite_width_refused_at_parse(tmp_path, capsys, side):
    # each bound is a finite float, but hi - lo overflows
    cfg_path = _mini_evacuation(tmp_path, **{f"{side}_lo": "-1.7e308", f"{side}_hi": "1.7e308"})
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {side}_lo must be below {side}_hi, by a finite width\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("mini, key, value", [
    pytest.param(_mini_evacuation, "domain_hi", "0.4", id="evacuation domain_hi = 0.4"),
    pytest.param(_mini_refinancing, "domain_lo", "0.5", id="refinancing domain_lo = 0.5"),
])
def test_cli_domain_missing_initial_density_exits_1(tmp_path, capsys, command, mini, key, value):
    cfg_path = mini(tmp_path, **{key: value})
    out = tmp_path / "o"
    args = ["--out", str(out)] if command == "run" else []
    assert main([command, "--config", str(cfg_path), *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: initial density is zero at all 4097 grid points of [")
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "validate"])
def test_cli_domain_too_wide_to_place_particles_exits_1(tmp_path, capsys, command):
    # the density (1 on (-0.5, 0.5)) is positive at the grid's first point
    # only, so the CDF grid would place every particle beyond its support
    cfg_path = _mini_refinancing(tmp_path, domain_lo="1e-300", domain_hi="1e300",
                                 kde_bandwidth="1e300")
    out = tmp_path / "o"
    args = ["--out", str(out)] if command == "run" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(cfg_path), *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: 40 of 40 particles would start where the initial "
                                   "density is zero")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_kde_bandwidth_below_density_grid_spacing_refused(tmp_path, capsys):
    spacing = 1.0 / (DENSITY_GRID_POINTS - 1)
    assert parse_config(_mini_evacuation(tmp_path, kde_bandwidth=repr(spacing))).kde_bandwidth == spacing
    cfg_path = _mini_evacuation(tmp_path, kde_bandwidth="1e-300")
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: kde_bandwidth must be at least the 0.00195695 spacing of "
                            "the 512-point density grid, got 1e-300\n")
    assert not out.exists()
    with pytest.raises(ConfigError, match="kde_bandwidth"):
        parse_config(_mini_evacuation(tmp_path, kde_bandwidth=repr(spacing * 0.999)))


def test_cli_run_unwritable_out_exits_3(tmp_path):
    cfg_path = _mini_refinancing(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory\n")
    rc = main(["run", "--config", str(cfg_path), "--out", str(blocker / "sub")])
    assert rc == 3


def test_cli_run_artifacts_independent_of_blas_threads(tmp_path):
    cfg_path = _mini_evacuation(tmp_path)
    src = Path(__file__).resolve().parent.parent / "src"
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        subprocess.run(
            [sys.executable, "-m", "bestreply.cli", "run", "--config", str(cfg_path),
             "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        names = sorted(p.name for p in out.glob("*.csv")) + ["manifest.txt"]
        digests.append({name: (out / name).read_bytes() for name in names})
    assert len(digests[0]) > 5
    assert digests[0] == digests[1]


def test_cli_validate_shipped_configs_pass(capsys):
    assert main(["validate", "--config", str(shipped_config_path("refinancing_default.cfg"))]) == 0
    captured = capsys.readouterr()
    assert "ok" in captured.out
    assert main(["validate", "--config", str(shipped_config_path("evacuation_desk.cfg"))]) == 0


def test_cli_validate_gate_violation_exits_1(tmp_path, capsys):
    text = "model = refinancing\ncontrol_lo = -1\ncontrol_hi = 1\n"
    cfg_path = _write(tmp_path, text)
    assert main(["validate", "--config", str(cfg_path)]) == 1
    assert "fail" in capsys.readouterr().out.lower()


def test_cli_validate_huge_control_bounds_fail_the_gates(tmp_path, capsys):
    cfg_path = _mini_refinancing(tmp_path, control_lo="-1e300", control_hi="1e300")
    assert main(["validate", "--config", str(cfg_path)]) == 1
    assert "FAIL contraction gates: violated: " in capsys.readouterr().out


def test_cli_validate_agrees_with_run_on_overflowing_control_costs(tmp_path, capsys):
    # eps*a^2 overflows on the grid: validate fails it, as run refuses it
    cfg_path = _mini_evacuation(tmp_path, control_lo="-1e200", control_hi="1e200",
                                n_particles="40", T="0.4")
    assert main(["validate", "--config", str(cfg_path)]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert failed == ["FAIL finite control costs: dt*eps*max|a|^2 inf, "
                      "dt*coupling_coef*max|a|^2 inf"]
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: non-finite cost at step 0 ")


def test_cli_validate_error_codes(tmp_path):
    assert main(["validate", "--config", str(tmp_path / "ghost.cfg")]) == 3
    bad = _write(tmp_path, "model = evacuation\nn_alpha = 1\n")
    assert main(["validate", "--config", str(bad)]) == 1


def test_cli_report_prints_summary(tmp_path, capsys):
    cfg_path = _mini_refinancing(tmp_path)
    out = tmp_path / "rep"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "refinancing" in text
    assert "converged" in text
    assert main(["report", "--out", str(tmp_path / "missing")]) == 3


def test_cli_report_agrees_with_run_when_phase1_runs_out(tmp_path, capsys):
    # phase 1 runs out of sweeps (modifications 1804, 1312) while phase 2
    # converges (34, 0): the run has not converged, and both commands say so
    text = (
        "model = evacuation\nn_particles = 40\nT = 0.4\ndt = 0.004\n"
        "phase1_enabled = true\nphase1_particles = 20\nphase1_keep_fraction = 0.5\n"
        "max_sweeps = 2\nseed = 0\n"
    )
    out = tmp_path / "o"
    assert main(["run", "--config", str(_write(tmp_path, text)), "--out", str(out)]) == 2
    summary = capsys.readouterr().out.splitlines()[0]
    assert summary == (
        "evacuation: did not converge: phase 1 ran out after 2 sweep(s), "
        "final modifications 1312"
    )
    assert main(["report", "--out", str(out)]) == 0
    report = capsys.readouterr().out.splitlines()
    rows = dict(re.split(r"\s{2,}", line, maxsplit=1) for line in report)
    assert rows["converged"] == "false"
    assert rows["phase 1 sweeps"] == "2"
    assert rows["final modifications"] == "0"
    (out / "iterations_phase1.csv").unlink()
    assert main(["report", "--out", str(out)]) == 3


@pytest.mark.parametrize("artifact, text", [
    pytest.param("iterations.csv", "sweep,modifications,distribution_change,converged\n1,0,0\n",
                 id="short iterations row"),
    pytest.param("mass.csv", "t,total_mass,first_moment,center_of_mass\n0,heavy,0,\n",
                 id="mass not a float"),
])
def test_cli_report_malformed_artifact_exits_3(tmp_path, capsys, artifact, text):
    cfg_path = _mini_refinancing(tmp_path)
    out = tmp_path / "rep"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    capsys.readouterr()
    (out / artifact).write_text(text)
    assert main(["report", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed artifact in ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("artifact", ["manifest.txt", "mass.csv"])
def test_cli_report_unreadable_artifact_exits_3(tmp_path, capsys, artifact):
    cfg_path = _mini_refinancing(tmp_path)
    out = tmp_path / "rep"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    capsys.readouterr()
    (out / artifact).unlink()
    (out / artifact).mkdir()
    assert main(["report", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_evacuation_default_pricing_lets_particles_leave(tmp_path):
    # the congestion cost reacts to where a step lands, so people walk out;
    # priced at the pre-step position it would be the same for every
    # candidate, and everyone would stay in the room
    out = tmp_path / "o"
    cfg_path = _write(tmp_path, "model = evacuation\nn_particles = 60\nT = 2\n")
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    final_mass = float((out / "mass.csv").read_text().splitlines()[-1].split(",")[1])
    assert final_mass < 1.0


# ------------------------------------------------- run never ends in a traceback

_PROBE = ["0", "1", "-1", "0.5", "1e200", "-1e200", "1e300", "-1e300", "1e-300"]
_PROBE_KEYS = {
    "evacuation": ("eta", "beta", "softening"),
    "refinancing": ("m1",),
}
_SHARED_PROBE_KEYS = ("domain_lo", "domain_hi", "control_lo", "control_hi", "sigma", "eps",
                      "kde_bandwidth", "phase1_keep_fraction")


@st.composite
def _tiny_run_configs(draw):
    """Config text of a run with 1-8 particles and at most 20 steps, whose
    float keys take ordinary, zero, huge and tiny values or their defaults."""
    model = draw(st.sampled_from(["evacuation", "refinancing"]))
    dt = draw(st.sampled_from(["0.004", "0.1"] + _PROBE))
    lines = {
        "model": model,
        "n_particles": draw(st.integers(1, 8)),
        "dt": dt,
        "T": repr(draw(st.integers(1, 20)) * float(dt)),
        "n_alpha": draw(st.integers(2, 5)),
        "max_sweeps": draw(st.integers(0, 4)),
        "phase1_enabled": draw(st.sampled_from(["true", "false"])),
        "phase1_particles": draw(st.integers(1, 8)),
        "theta_self": draw(st.sampled_from(["exclude", "include"])),
        "snapshot_times": draw(st.sampled_from(["", "0"])),
        "value_trace_starts": draw(st.sampled_from(["", "0.5"] + _PROBE)),
    }
    for key in _SHARED_PROBE_KEYS + _PROBE_KEYS[model]:
        value = draw(st.none() | st.sampled_from(_PROBE))
        if value is not None:
            lines[key] = value
    return "".join(f"{k} = {v}\n" for k, v in lines.items())


@settings(max_examples=150, deadline=None)
# a bandwidth far below the density grid's spacing (numpy warnings and
# all-zero densities before it was refused)
@example("model = evacuation\nn_particles = 8\nT = 0.08\nkde_bandwidth = 1e-300\n"
         "snapshot_times = 0\n")
# a domain whose CDF grid placed every particle outside the density's
# support (an overflow in the moments before it was refused)
@example("model = refinancing\nn_particles = 8\nT = 0.08\ndomain_lo = 1e-300\n"
         "domain_hi = 1e300\nkde_bandwidth = 1e300\n")
# no sweep prices the huge start control of the particle nearer the upper
# boundary, so only the value trace overflows
@example("model = refinancing\nn_particles = 2\nT = 0.004\nn_alpha = 2\nmax_sweeps = 0\n"
         "value_trace_starts = 0.5\ncontrol_hi = 1e200\n")
# costs stay finite without eps and beta, but the moments of a^2 overflow
@example("model = evacuation\neps = 0\nbeta = 0\ncontrol_lo = -1e200\ncontrol_hi = 1e200\n"
         "n_particles = 4\nT = 0.04\nmax_sweeps = 2\n")
@given(text=_tiny_run_configs())
def test_cli_run_ends_in_an_exit_code_never_a_traceback(text):
    with tempfile.TemporaryDirectory() as work:
        cfg_path = Path(work) / "run.cfg"
        cfg_path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("error")
            rc = main(["run", "--config", str(cfg_path), "--out", str(Path(work) / "o")])
    assert rc in (0, 1, 2, 3)
    if rc in (1, 3):
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
