"""The benchmark's bindings into the program, checked on tiny runs.

``perfbench/child.py`` drives ``cli.main`` and, in its ``trace`` mode, wraps
engine, config, kernels and outputs functions by name (``perfbench/spans.py``).
A change that renames or deletes one of them, or that stops calling a model
hook once per decision, breaks the benchmark; these tests make it break here
first. Nothing under ``perfbench/`` is imported into the test process: the
child runs as its own subprocess, as the benchmark runs it.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"

_TINY = {
    "evacuation": (
        "model = evacuation\nn_particles = 30\nT = 0.6\nseed = 1\nmax_sweeps = 25\n"
        "phase1_enabled = true\nphase1_particles = 10\nphase1_keep_fraction = 0.1\n"
        "snapshot_times = 0.2\nvalue_trace_starts = 0.7\n"
    ),
    "refinancing": (
        "model = refinancing\nn_particles = 40\nT = 0.4\nseed = 5\nmax_sweeps = 10\n"
        "snapshot_times = 0.2\nvalue_trace_starts = 0\n"
    ),
}


@pytest.mark.parametrize("model", sorted(_TINY))
def test_traced_child_run_verifies_and_counts_one_hook_call_per_decision(tmp_path, model):
    config = tmp_path / "run.cfg"
    config.write_text(_TINY[model])
    result_path = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(CHILD), "trace", str(config), str(tmp_path / "out"),
         str(result_path), "--verify"],
        cwd=ROOT, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(result_path.read_text())
    assert result["rc"] == 0
    assert result["verify"]["modifications"] == 0
    assert result["sweep_log"]
    for row in result["sweep_log"]:
        assert row["decisions"] == row["hook_calls"] > 0


@pytest.mark.parametrize("module", ["bestreply", "config", "controls", "engine", "models", "outputs"])
def test_every_exported_name_exists(module):
    mod = importlib.import_module(module if module == "bestreply" else f"bestreply.{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module}.__all__ names missing {name!r}"
