"""End-to-end acceptance checks.

One test per shipped guarantee, each asserting at its stated tolerance and
printing a single pass/fail line (visible with -s or on failure; the -v test
names mirror the criterion numbering). The desk-scale evacuation run is
computed once per session and shared by the criteria that inspect it.
"""

import hashlib
import math
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bestreply.config import parse_config, shipped_config_path
from bestreply.controls import (
    cross_check_exponential_control,
    linear_control_closed_loop,
    validate_parameters,
)
from bestreply.engine import (
    Flow,
    run_two_phase,
    value_function_trace,
    verify_equilibrium,
)
from bestreply.kernels import lambert_w0
from bestreply.models import evacuation_model
from bestreply.outputs import write_outputs
from monotone import monotonicity_integral, random_atoms

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_MASS_SHA256 = "8f59dd5ce29813a84db7cbeddb56c05d1ce116e1d79bc7411fb527a846f3b77b"
GOLDEN_VALUE_SHA256 = {
    "value_x0.6.csv": "a1126b71fefcaee253022a6f1817e162479b49baa285fb6de88d90fc50ca6904",
    "value_x0.7.csv": "2d3438b6b14a9296356aa0ce9f705ba7533d48688b8f48b25cd27ab4f0b17c22",
    "value_x0.8.csv": "87778f962f52f0954f6a5f055febd60f858591c101beddbd0d75c2735c3bbd59",
}


def _line(tag: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {tag}: {status}{suffix}")
    assert ok, f"{tag}: {detail}"


def _run_config(cfg):
    model = cfg.build_model()
    grid = cfg.build_grid()
    options = cfg.sweep_options()
    start = time.perf_counter()
    outcome = run_two_phase(
        model, grid,
        n_particles=cfg.n_particles, dt=cfg.dt, n_steps=cfg.n_steps,
        seed=cfg.seed, max_sweeps=cfg.max_sweeps, options=options,
        phase1_enabled=cfg.phase1_enabled,
        phase1_particles=cfg.phase1_particles,
        keep_fraction=cfg.phase1_keep_fraction,
    )
    elapsed = time.perf_counter() - start
    return SimpleNamespace(
        cfg=cfg, model=model, grid=grid, options=options,
        outcome=outcome, elapsed=elapsed,
    )


@pytest.fixture(scope="session")
def desk(tmp_path_factory):
    cfg = parse_config(shipped_config_path("evacuation_desk.cfg"))
    run = _run_config(cfg)
    run.out = tmp_path_factory.mktemp("desk_run")
    write_outputs(cfg, run.outcome, run.out)
    return run


# criterion 1 ---------------------------------------------------------------

def test_c1_lambert_w_identity_and_anchors():
    start = time.perf_counter()
    shift = 1.0 / math.e
    xs = np.geomspace(1e-9, 1e6 + shift, 1000) - shift
    worst = 0.0
    for x in xs:
        w = lambert_w0(float(x))
        residual = abs(w * math.exp(w) - x) / max(1.0, abs(x))
        worst = max(worst, residual)
    anchor_zero = abs(lambert_w0(0.0))
    anchor_e = abs(lambert_w0(math.e) - 1.0)
    elapsed = time.perf_counter() - start
    _line(
        "1 Lambert W",
        worst <= 1e-12 and anchor_zero <= 1e-14 and anchor_e <= 1e-14
        and elapsed < 1.0,
        f"worst residual {worst:.2e}, W(0) err {anchor_zero:.1e}, "
        f"W(e) err {anchor_e:.1e}, {elapsed:.2f} s",
    )


# criterion 2 ---------------------------------------------------------------

def test_c2_exponential_control_cross_check():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    silent_disagreements = 0
    flagged = 0
    solver_finite = True
    for _ in range(100):
        p = float(rng.uniform(-2.0, 2.0))
        q = float(rng.uniform(-2.0, 2.0))
        m1 = float(10.0 ** rng.uniform(-1.3, 0.3))
        m2 = float(10.0 ** rng.uniform(-1.3, 0.3))
        check = cross_check_exponential_control(p, q, m1, m2)
        solver_finite &= bool(np.all(np.isfinite(check.solver)))
        if not check.agrees:
            flagged += 1
        elif check.max_gap > 1e-8:
            silent_disagreements += 1
    elapsed = time.perf_counter() - start
    _line(
        "2 exponential-control cross-check",
        silent_disagreements == 0 and solver_finite and elapsed < 1.0,
        f"{flagged} flagged of 100, 0 silent required "
        f"(saw {silent_disagreements}), {elapsed:.2f} s",
    )


# criterion 3 ---------------------------------------------------------------

def test_c3_linear_closed_loop_analytic_case():
    entries = [(x, 1.0, 0.1) for x in np.linspace(0.05, 0.95, 10)]
    solution = linear_control_closed_loop(entries, m1=1.0)
    worst = max(abs(alpha + 0.5) for _x, alpha in solution)
    _line(
        "3 linear closed loop",
        worst <= 1e-12,
        f"max |alpha + 0.5| = {worst:.2e}",
    )


# criterion 4 ---------------------------------------------------------------

def test_c4_monotonicity_suites():
    start = time.perf_counter()
    refi_cfg = parse_config(shipped_config_path("refinancing_default.cfg"))
    refinancing = refi_cfg.build_model()
    refi_bounds = (refi_cfg.control_lo, refi_cfg.control_hi)
    evacuation = evacuation_model()

    rng = np.random.default_rng(11)
    worst_refi = 0.0
    for _ in range(200):
        nu1 = random_atoms(rng, refinancing.domain, refi_bounds)
        nu2 = random_atoms(rng, refinancing.domain, refi_bounds)
        worst_refi = min(worst_refi, monotonicity_integral(refinancing, nu1, nu2))

    rng = np.random.default_rng(12)
    worst_evac = 0.0
    for _ in range(200):
        nu1 = random_atoms(rng, evacuation.domain, (-0.2, 0.2))
        nu2 = random_atoms(rng, evacuation.domain, (-0.2, 0.2))
        worst_evac = min(
            worst_evac, monotonicity_integral(evacuation, nu1, nu2, state_cost=False)
        )

    elapsed = time.perf_counter() - start
    _line(
        "4 monotonicity suites",
        worst_refi >= -1e-12 and worst_evac >= -1e-12 and elapsed < 5.0,
        f"worst refinancing {worst_refi:.2e}, worst evacuation {worst_evac:.2e}, "
        f"{elapsed:.2f} s",
    )


# criterion 5 ---------------------------------------------------------------

def test_c5_parameter_gates():
    cfg = parse_config(shipped_config_path("refinancing_default.cfg"))
    bound = max(abs(cfg.control_lo), abs(cfg.control_hi))
    shipped = validate_parameters(cfg.eps, bound, lip_phi_prime=0.0, sup_phi_prime=cfg.m1)
    failing = validate_parameters(0.5, 1.0, lip_phi_prime=0.0, sup_phi_prime=cfg.m1)
    _line(
        "5 parameter gates",
        shipped.passed and not failing.passed and "a" in failing.violations,
        f"shipped margin {shipped.margin:.6g}; M=1 violates {failing.violations}",
    )


# criterion 6 ---------------------------------------------------------------

def test_c6a_initial_mass_and_center(desk):
    traj = desk.outcome.phase2.trajectories
    mass0 = float(Flow.of(traj).mass[0])
    center0 = float(traj.x[:, 0].mean())
    _line(
        "6a initial mass and center",
        mass0 == 1.0 and abs(center0 - 0.75) <= 0.02,
        f"mass {mass0}, center {center0:.4f}",
    )


def test_c6b_mass_decay(desk):
    mass = Flow.of(desk.outcome.phase2.trajectories).mass
    _line(
        "6b mass decay",
        bool(np.all(np.diff(mass) <= 0.0)) and mass[-1] < mass[0],
        f"final mass {mass[-1]:.4f}",
    )


def test_c6c_pruned_convergence_shape(desk):
    counts = [r.modifications for r in desk.outcome.phase2.reports]
    decreasing = all(a > b for a, b in zip(counts, counts[1:]))
    ratio = counts[1] / counts[0] if len(counts) > 1 and counts[0] else float("inf")
    _line(
        "6c pruned convergence shape",
        desk.outcome.converged
        and len(counts) <= 10
        and counts[-1] == 0
        and decreasing
        and ratio < 0.10,
        f"counts {counts}, sweep2/sweep1 {ratio:.4f}",
    )


def test_c6d_nash_stationarity(desk):
    mods, residual = verify_equilibrium(
        desk.outcome.phase2.trajectories,
        desk.model,
        desk.outcome.grid_pruned,
        seed=desk.cfg.seed,
        phase=0,
        options=desk.options,
        sweep_index=len(desk.outcome.phase2.reports) + 1,
    )
    _line(
        "6d Nash stationarity",
        mods == 0 and residual == 0.0,
        f"verification sweep: {mods} modifications, residual {residual}",
    )


def test_c6e_value_traces(desk):
    traj = desk.outcome.phase2.trajectories
    u = value_function_trace(traj, desk.model, desk.options)
    ok = True
    details = []
    for start in (0.6, 0.7, 0.8):
        k = int(np.argmin(np.abs(traj.x[:, 0] - start)))
        increases = float(np.max(np.diff(u[k])))
        ok &= increases <= 1e-12
        exit_step = int(traj.exit_step[k])
        if exit_step <= traj.n_steps:
            ok &= bool(np.all(u[k, exit_step:] == 0.0))
        details.append(f"x={start}: u(0)={u[k, 0]:.3f}, exit step {exit_step}")
    _line("6e value traces", ok, "; ".join(details))


def test_c6_runtime(desk):
    _line(
        "6 runtime",
        desk.elapsed < 60.0,
        f"{desk.elapsed:.1f} s single-threaded",
    )


# criterion 7 ---------------------------------------------------------------

def test_c7_determinism(desk, tmp_path):
    rerun = _run_config(desk.cfg)
    rerun_dir = tmp_path / "rerun"
    write_outputs(desk.cfg, rerun.outcome, rerun_dir)

    csvs = sorted(p.name for p in desk.out.glob("*.csv"))
    mismatched = []
    for name in csvs:
        base = (desk.out / name).read_bytes()
        if (rerun_dir / name).read_bytes() != base:
            mismatched.append(f"rerun:{name}")
    manifest_same = (
        (desk.out / "manifest.txt").read_bytes()
        == (rerun_dir / "manifest.txt").read_bytes()
    )
    _line(
        "7 determinism",
        not mismatched and manifest_same,
        f"{len(csvs)} CSVs byte-identical across reruns"
        + (f"; mismatches {mismatched}" if mismatched else ""),
    )


# criterion 8 ---------------------------------------------------------------

def test_c8_refinancing_smoke():
    cfg = parse_config(shipped_config_path("refinancing_default.cfg"))
    run = _run_config(cfg)
    mass = Flow.of(run.outcome.phase2.trajectories).mass
    bounds = (cfg.control_lo, cfg.control_hi)
    gates = validate_parameters(
        cfg.eps, max(map(abs, bounds)), lip_phi_prime=0.0, sup_phi_prime=cfg.m1
    )
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(200):
        nu1 = random_atoms(rng, run.model.domain, bounds)
        nu2 = random_atoms(rng, run.model.domain, bounds)
        worst = min(worst, monotonicity_integral(run.model, nu1, nu2))
    _line(
        "8 refinancing smoke",
        run.outcome.converged
        and bool(np.all(np.diff(mass) <= 0.0))
        and gates.passed
        and worst >= -1e-12
        and run.elapsed < 60.0,
        f"{len(run.outcome.phase2.reports)} sweeps, final mass {mass[-1]:.4f}, "
        f"gate margin {gates.margin:.3g}, worst integral {worst:.1e}, "
        f"{run.elapsed:.1f} s",
    )


# golden regression ----------------------------------------------------------

def test_golden_desk_regression(desk):
    iterations_ok = (
        (desk.out / "iterations.csv").read_bytes()
        == (GOLDEN_DIR / "desk_iterations.csv").read_bytes()
    )
    phase1_ok = (
        (desk.out / "iterations_phase1.csv").read_bytes()
        == (GOLDEN_DIR / "desk_iterations_phase1.csv").read_bytes()
    )
    mass_sha = hashlib.sha256((desk.out / "mass.csv").read_bytes()).hexdigest()
    value_mismatch = sorted(
        name for name, digest in GOLDEN_VALUE_SHA256.items()
        if hashlib.sha256((desk.out / name).read_bytes()).hexdigest() != digest
    )
    _line(
        "golden regression",
        iterations_ok and phase1_ok and mass_sha == GOLDEN_MASS_SHA256 and not value_mismatch,
        f"iteration logs verbatim: {iterations_ok and phase1_ok}, "
        f"mass sha256 {'match' if mass_sha == GOLDEN_MASS_SHA256 else mass_sha}, "
        f"value sha256 mismatches {value_mismatch}",
    )
