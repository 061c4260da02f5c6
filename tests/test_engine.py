from dataclasses import replace

import numpy as np
import pytest

from bestreply.controls import ControlGrid
from bestreply.engine import (
    EquilibriumResult,
    Flow,
    NonFiniteCostError,
    SweepOptions,
    TrajectorySet,
    initial_controls,
    initial_positions,
    make_noise,
    max_greedy_gap,
    prune_control_set,
    run_to_equilibrium,
    run_two_phase,
    simulate_controls,
    sweep_best_reply,
    time_averaged_moments,
    value_function_trace,
    verify_equilibrium,
    warm_start_controls,
)
from bestreply.kernels import monomial_exponents, monomial_moments
from bestreply.models import ModelSpec, evacuation_model, refinancing_model


def _grid11():
    return ControlGrid.uniform(-0.2, 0.2, 11)


def _noninteracting(sigma=0.0):
    return evacuation_model(eta=0.0, beta=0.0, eps=0.5, softening=0.2, sigma=sigma)


def _start(model, grid, n, n_steps):
    """Positions of n particles and their nearest-boundary control matrix."""
    x0 = initial_positions(n, model.initial_density, model.domain)
    return x0, np.tile(initial_controls(x0, model.domain, grid)[:, None], (1, n_steps))


def _rollout(model, grid, n, xi, dt):
    """The frozen-control starting run of ``_start``'s particles."""
    x0, controls = _start(model, grid, n, xi.shape[1])
    return simulate_controls(x0, 1.0 / n, controls, model, xi, dt)


def _constant_cost_model(rate=20.0):
    return ModelSpec(
        diffusion=0.0,
        domain=(0.0, 1.0),
        quad_weight=0.0,
        coupling_coef=0.0,
        state_cost=lambda t, xq, fm: np.full_like(xq, rate),
        state_gain=lambda th: 0.0,
        state_gain_is_zero=True,
        initial_density=lambda x: np.ones_like(x),
    )


# ----------------------------------------------- one Euler step (the SDE step)

def _one_step(x0, control, dt):
    # one particle, zero noise: the evacuation drift is the control alone
    traj = simulate_controls(np.array([x0]), 1.0, np.array([[control]]),
                             _noninteracting(), np.zeros((1, 1)), dt)
    return traj.x[0, 1], bool(traj.exit_step[0] == 1)


def test_step_sde_paper_scale_step():
    x_new, exited = _one_step(0.5, 0.2, 0.004)
    assert x_new == pytest.approx(0.5008, rel=1e-15)
    assert not exited


def test_step_sde_crossing_clamps_and_exits():
    x_new, exited = _one_step(0.95, 0.2, 0.5)
    assert x_new == 1.0
    assert exited


def test_step_sde_no_drift_no_noise():
    x_new, exited = _one_step(0.4, 0.0, 0.01)
    assert x_new == 0.4
    assert not exited


def test_step_sde_lower_exit():
    x_new, exited = _one_step(0.01, -0.2, 0.5)
    assert x_new == 0.0
    assert exited


# ------------------------------------------------------------ initialization

def test_initial_positions_sample_inside_support():
    model = evacuation_model()
    x0 = initial_positions(600, model.initial_density, model.domain)
    assert x0.shape == (600,)
    assert np.all(x0 > 0.5)
    assert np.all(x0 < 1.0)
    assert np.mean(x0) == pytest.approx(0.75, abs=0.005)


def test_initial_controls_point_to_nearest_boundary():
    grid = _grid11()
    out = initial_controls(np.array([0.9, 0.5, 0.2]), (0.0, 1.0), grid)
    assert out.tolist() == [0.2, -0.2, -0.2]


def test_initial_positions_reject_bad_density():
    with pytest.raises(ValueError):
        initial_positions(10, lambda x: -np.ones_like(x), (0.0, 1.0))
    with pytest.raises(ValueError):
        initial_positions(10, lambda x: np.zeros_like(x), (0.0, 1.0))


def test_make_noise_is_deterministic_per_particle():
    a = make_noise(7, 0, 5, 20)
    b = make_noise(7, 0, 5, 20)
    c = make_noise(8, 0, 5, 20)
    assert a.shape == (5, 20)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a[0], a[1])


def test_initial_mass_is_exactly_one():
    model = evacuation_model()
    xi = make_noise(0, 0, 600, 50)
    traj = _rollout(model, _grid11(), 600, xi, 0.004)
    mass = Flow.of(traj).mass
    assert mass[0] == 1.0


def test_initial_simulation_freezes_exited_particles():
    model = _noninteracting()
    grid = _grid11()
    xi = make_noise(0, 0, 40, 400)
    traj = _rollout(model, grid, 40, xi, 0.01)
    exited = traj.exit_step <= 400
    assert np.any(exited)  # +0.2 drift reaches the upper boundary
    for k in np.nonzero(exited)[0][:5]:
        m = traj.exit_step[k]
        assert traj.x[k, m] in (0.0, 1.0)
        assert np.all(traj.x[k, m:] == traj.x[k, m])
        assert np.all(traj.alpha[k, m:] == 0.0)


# ------------------------------------------------------- best-reply sweeps

def test_noninteracting_model_converges_in_two_sweeps():
    model = _noninteracting()
    grid = _grid11()
    result = run_to_equilibrium(
        model, grid, *_start(model, grid, 30, 50), dt=0.004, seed=3, max_sweeps=5,
        options=SweepOptions(),
    )
    assert result.converged
    assert len(result.reports) == 2
    assert result.reports[0].modifications == 30 * 50
    assert result.reports[1].modifications == 0
    assert result.reports[1].distribution_change == 0.0
    zero = grid.points[5]
    assert np.all(result.trajectories.alpha == zero)


def test_no_interaction_no_noise_means_seed_irrelevant():
    model = _noninteracting()
    grid = _grid11()
    r1 = run_to_equilibrium(model, grid, *_start(model, grid, 20, 40), dt=0.004, seed=0,
                            max_sweeps=5, options=SweepOptions())
    r2 = run_to_equilibrium(model, grid, *_start(model, grid, 20, 40), dt=0.004, seed=99,
                            max_sweeps=5, options=SweepOptions())
    assert np.array_equal(r1.trajectories.x, r2.trajectories.x)
    assert np.array_equal(r1.trajectories.alpha, r2.trajectories.alpha)


def test_max_sweeps_zero_returns_initialization():
    model = _noninteracting()
    grid = _grid11()
    x0, start = _start(model, grid, 10, 20)
    result = run_to_equilibrium(model, grid, x0, start, dt=0.004, seed=0,
                                max_sweeps=0, options=SweepOptions())
    assert not result.converged
    assert result.reports == []
    assert np.all(result.trajectories.alpha[:, 0] == start[:, 0])
    assert result.trajectories.weight == 1.0 / 10


def test_evacuation_run_mass_monotone_and_contained():
    model = evacuation_model()
    grid = _grid11()
    result = run_to_equilibrium(
        model, grid, *_start(model, grid, 60, 250), dt=0.004, seed=1, max_sweeps=12,
        options=SweepOptions(),
    )
    traj = result.trajectories
    mass = Flow.of(traj).mass
    assert np.all(np.diff(mass) <= 0.0)
    for n in range(0, traj.n_steps + 1, 50):
        active = traj.exit_step > n
        assert np.all(traj.x[active, n] > 0.0)
        assert np.all(traj.x[active, n] < 1.0)
        inactive = ~active
        if inactive.any():
            at_boundary = np.isin(traj.x[inactive, n], (0.0, 1.0))
            assert np.all(at_boundary)


def test_nash_stationarity_and_verification():
    model = evacuation_model()
    grid = _grid11()
    opts = SweepOptions()
    result = run_to_equilibrium(model, grid, *_start(model, grid, 40, 150), dt=0.004, seed=5,
                                max_sweeps=15, options=opts)
    assert result.converged
    mods, residual = verify_equilibrium(
        result.trajectories, model, grid, seed=5, phase=0, options=opts,
        sweep_index=len(result.reports) + 1,
    )
    assert mods == 0
    assert residual == 0.0
    # a further sweep must reproduce the trajectories bit for bit
    xi = make_noise(5, 0, 40, 150)
    again, report = sweep_best_reply(
        result.trajectories, model, grid, seed=5, phase=0,
        sweep_index=len(result.reports) + 2, xi=xi, options=opts,
    )
    assert report.modifications == 0
    assert np.array_equal(again.x, result.trajectories.x)
    assert np.array_equal(again.alpha, result.trajectories.alpha)
    assert np.array_equal(again.exit_step, result.trajectories.exit_step)


def test_greedy_optimality_spot_check():
    model = evacuation_model()
    grid = _grid11()
    opts = SweepOptions()
    result = run_to_equilibrium(model, grid, *_start(model, grid, 40, 150), dt=0.004, seed=5,
                                max_sweeps=15, options=opts)
    assert result.converged
    gap = max_greedy_gap(result.trajectories, model, grid, options=opts)
    assert gap <= 1e-12


def test_refinancing_smoke_run():
    model = refinancing_model()
    grid = ControlGrid.uniform(-0.05, 0.05, 11)
    result = run_to_equilibrium(model, grid, *_start(model, grid, 50, 250), dt=0.004, seed=0,
                                max_sweeps=10, options=SweepOptions())
    assert result.converged
    mass = Flow.of(result.trajectories).mass
    assert np.all(np.diff(mass) <= 0.0)
    assert mass[-1] < mass[0]  # compounding debt pushes tails out
    # the fixed point a = -M1*theta/(2*eps) of the best reply projects onto
    # the grid point 0, so every live control is 0
    traj = result.trajectories
    live = traj.exit_step[:, None] > np.arange(traj.n_steps)[None, :]
    assert np.all(traj.alpha[live] == 0.0)


@pytest.mark.parametrize("model, bound", [(evacuation_model(), 0.2), (refinancing_model(), 0.05)],
                         ids=["post-step", "pre-step"])
def test_sweep_calls_each_model_hook_once_per_decision(model, bound):
    # the benchmark's traced gate counts hook calls as decisions: a change
    # that batches the hooks has to change this test on purpose
    calls = {"state_cost": 0, "state_gain": 0}

    def counted(name, fn):
        def hook(*args):
            calls[name] += 1
            return fn(*args)
        return hook

    counting = replace(
        model,
        state_cost=counted("state_cost", model.state_cost),
        state_gain=counted("state_gain", model.state_gain),
    )
    grid = ControlGrid.uniform(-bound, bound, 11)
    xi = make_noise(3, 0, 40, 150)
    traj = _rollout(model, grid, 40, xi, 0.004)
    for sweep_index in range(1, 5):
        calls.update(state_cost=0, state_gain=0)
        traj, _report = sweep_best_reply(
            traj, counting, grid, seed=3, phase=0, sweep_index=sweep_index, xi=xi,
            options=SweepOptions(),
        )
        decisions = int(traj.exit_step.clip(max=traj.n_steps).sum())
        priced = "state_cost" if model.state_gain_is_zero else "state_gain"
        assert decisions > 0
        assert calls == {"state_cost": 0, "state_gain": 0, priced: decisions}


def test_sweep_refuses_a_non_finite_cost():
    model = evacuation_model()
    grid = _grid11()

    def nan_past_index_0(t, xq, fm):
        cost = model.state_cost(t, xq, fm)
        cost[..., 3] = np.nan
        return cost

    xi = make_noise(0, 0, 20, 30)
    traj = _rollout(model, grid, 20, xi, 0.004)
    with pytest.raises(NonFiniteCostError, match="step 0 .* sweep 1 of the main phase"):
        sweep_best_reply(
            traj, replace(model, state_cost=nan_past_index_0), grid,
            seed=0, phase=0, sweep_index=1, xi=xi, options=SweepOptions(),
        )


# ---------------------------------------------------------- flow and values

def test_flow_sums_live_particles_only():
    traj = TrajectorySet(
        x=np.array([[0.5, 0.6, 0.7], [0.2, 0.0, 0.0]]),
        alpha=np.array([[0.1, -0.2], [0.2, 0.0]]),
        exit_step=np.array([3, 1]),
        weight=0.5,
        dt=0.1,
    )
    flow = Flow.of(traj)
    assert flow.mass.tolist() == [1.0, 0.5, 0.5]
    assert flow.first_moment.tolist() == [0.5 * (0.5 + 0.2), 0.5 * 0.6, 0.5 * 0.7]
    assert flow.mean_control.tolist() == [0.5 * (0.1 + 0.2), 0.5 * -0.2]

def test_value_trace_backward_recursion_constant_cost():
    model = _constant_cost_model(20.0)
    n_steps = 5
    traj = TrajectorySet(
        x=np.full((2, n_steps + 1), 0.7),
        alpha=np.zeros((2, n_steps)),
        exit_step=np.array([n_steps + 1, 3]),
        weight=0.5,
        dt=0.004,
    )
    traj.x[1, 3:] = 1.0
    u = value_function_trace(traj, model, SweepOptions())
    assert u[0, n_steps] == 0.0
    deltas = u[0, :-1] - u[0, 1:]
    assert np.allclose(deltas, 0.08, atol=1e-15)
    assert np.all(u[1, 3:] == 0.0)
    assert u[1, 2] == pytest.approx(0.08, rel=1e-12)
    assert u[1, 0] == pytest.approx(0.24, rel=1e-12)


def test_value_traces_nonincreasing_and_zero_after_exit():
    model = evacuation_model()
    grid = _grid11()
    opts = SweepOptions()
    result = run_to_equilibrium(model, grid, *_start(model, grid, 40, 200), dt=0.004, seed=6,
                                max_sweeps=15, options=opts)
    u = value_function_trace(result.trajectories, model, opts)
    assert np.all(np.diff(u, axis=1) <= 1e-12)
    for k in range(40):
        m = result.trajectories.exit_step[k]
        if m <= 200:
            assert np.all(u[k, m:] == 0.0)
            assert u[k, m - 1] > 0.0


# ------------------------------------------------------------------- pruning

def _manual_traj(alphas, n_steps):
    alphas = np.asarray(alphas, dtype=float)
    n = alphas.shape[0]
    return TrajectorySet(
        x=np.full((n, n_steps + 1), 0.6),
        alpha=alphas,
        exit_step=np.full(n, n_steps + 1),
        weight=1.0 / n,
        dt=0.004,
    )


def test_prune_keeps_only_used_controls():
    grid = _grid11()
    traj = _manual_traj([[0.2, 0.2, -0.2], [-0.2, 0.2, 0.2]], 3)
    pruned = prune_control_set(traj, grid, 0.05)
    assert pruned.points.tolist() == [-0.2, 0.2]


def test_prune_zero_threshold_keeps_everything():
    grid = _grid11()
    traj = _manual_traj([[0.2, 0.2, -0.2]], 3)
    pruned = prune_control_set(traj, grid, 0.0)
    assert np.array_equal(pruned.points, grid.points)


def test_prune_never_returns_fewer_than_two():
    grid = _grid11()
    traj = _manual_traj([[0.2, 0.2, 0.2, -0.2]], 4)
    pruned = prune_control_set(traj, grid, 0.9)
    assert pruned.n_points == 2
    assert pruned.points.tolist() == [-0.2, 0.2]


def test_prune_ignores_post_exit_entries():
    grid = _grid11()
    traj = _manual_traj([[0.2, 0.0, 0.0, 0.0]], 4)
    traj.exit_step[0] = 1  # only the first step was played
    pruned = prune_control_set(traj, grid, 0.5)
    assert 0.2 in pruned.points.tolist()
    assert 0.0 not in pruned.points.tolist()


# ----------------------------------------------------------------- metrics

def test_time_averaged_moments_match_reference_route():
    # positive states and controls, so every moment is a sum of positive
    # terms and a relative tolerance is meaningful; the entries after each
    # exit are left nonzero, so only the live mask can drop them
    rng = np.random.default_rng(3)
    n, n_steps, w = 40, 50, 1.0 / 40
    traj = TrajectorySet(
        x=rng.uniform(0.1, 1.0, (n, n_steps + 1)),
        alpha=rng.uniform(0.01, 0.2, (n, n_steps)),
        exit_step=rng.integers(0, n_steps + 2, n),
        weight=w,
        dt=0.004,
    )
    live = traj.exit_step[:, None] > np.arange(n_steps)[None, :]
    pairs = np.column_stack([traj.x[:, :n_steps][live], traj.alpha[live]])
    weights = np.full(len(pairs), w / n_steps)
    for n_terms in (1, 3, 20):
        table = time_averaged_moments(traj, n_terms)
        reference = monomial_moments(pairs, weights, monomial_exponents(2, n_terms))
        assert np.allclose(table, reference, rtol=1e-13, atol=0.0)


def test_time_averaged_moments_zero_distance_for_identical_runs():
    model = _noninteracting()
    grid = _grid11()
    xi = make_noise(0, 0, 10, 30)
    t1 = _rollout(model, grid, 10, xi, 0.004)
    t2 = _rollout(model, grid, 10, xi, 0.004)
    m1 = time_averaged_moments(t1, 20)
    m2 = time_averaged_moments(t2, 20)
    assert np.array_equal(m1, m2)


# ---------------------------------------------------------------- two-phase

def test_two_phase_pipeline_smoke():
    model = evacuation_model()
    grid = _grid11()
    result = run_two_phase(
        model, grid,
        n_particles=80, dt=0.004, n_steps=200, seed=9, max_sweeps=15,
        options=SweepOptions(),
        phase1_enabled=True, phase1_particles=30, keep_fraction=0.02,
    )
    assert result.phase2.converged
    assert result.grid_pruned.n_points <= grid.n_points
    assert result.grid_pruned.n_points >= 2
    assert set(result.grid_pruned.points.tolist()) <= set(grid.points.tolist())
    mass = Flow.of(result.phase2.trajectories).mass
    assert mass[0] == 1.0
    assert np.all(np.diff(mass) <= 0.0)


def test_two_phase_disabled_uses_full_grid():
    model = _noninteracting()
    grid = _grid11()
    result = run_two_phase(
        model, grid,
        n_particles=10, dt=0.004, n_steps=20, seed=0, max_sweeps=5,
        options=SweepOptions(),
        phase1_enabled=False, phase1_particles=0, keep_fraction=0.0,
    )
    assert result.phase1 is None
    assert np.array_equal(result.grid_pruned.points, grid.points)
    assert result.phase2.converged


def test_simulate_controls_follows_given_paths():
    model = _noninteracting()  # drift is the control itself, sigma = 0
    controls = np.array([
        [0.1, -0.2, 0.0, 0.1],
        [0.2, 0.2, 0.2, 0.2],
    ])
    x0 = np.array([0.5, 0.9995])
    xi = np.zeros((2, 4))
    traj = simulate_controls(x0, 0.5, controls, model, xi, dt=0.004)
    expected_x0 = 0.5 + 0.004 * np.cumsum(controls[0])
    assert np.allclose(traj.x[0, 1:], expected_x0, atol=1e-15)
    assert traj.exit_step[0] == 5  # never exits
    # second particle crosses the upper boundary on the first step
    assert traj.exit_step[1] == 1
    assert traj.x[1, 1] == 1.0
    assert np.all(traj.x[1, 1:] == 1.0)
    # stored controls match the matrix while alive, zero afterwards
    assert np.array_equal(traj.alpha[0], controls[0])
    assert traj.alpha[1, 0] == 0.2
    assert np.all(traj.alpha[1, 1:] == 0.0)


def test_boundary_start_is_constant_path_rollout():
    # without phase 1 the main phase starts from the nearest-boundary rule,
    # held at every step
    model = _noninteracting(sigma=1e-6)
    grid = _grid11()
    by_rule = run_two_phase(
        model, grid,
        n_particles=7, dt=0.004, n_steps=25, seed=3, max_sweeps=0,
        options=SweepOptions(),
        phase1_enabled=False, phase1_particles=1, keep_fraction=0.0,
    ).phase2.trajectories
    x0 = initial_positions(7, model.initial_density, model.domain)
    matrix = np.tile(initial_controls(x0, model.domain, grid)[:, None], (1, 25))
    by_matrix = simulate_controls(x0, 1.0 / 7, matrix, model, make_noise(3, 0, 7, 25), 0.004)
    assert np.array_equal(by_rule.x, by_matrix.x)
    assert np.array_equal(by_rule.alpha, by_matrix.alpha)
    assert np.array_equal(by_rule.exit_step, by_matrix.exit_step)


def test_warm_start_controls_clones_nearest_quantile_donor():
    alpha = np.array([
        [0.11, 0.02, -0.03],
        [-0.07, -0.12, 0.09],
    ])
    traj = TrajectorySet(
        x=np.zeros((2, 4)) + 0.5,
        alpha=alpha,
        exit_step=np.array([4, 4], dtype=np.int64),
        weight=0.5,
        dt=0.004,
    )
    grid = ControlGrid(points=np.array([-0.1, 0.1]))
    warm = warm_start_controls(traj, 4, grid)
    assert warm.shape == (4, 3)
    # particles 0-1 clone donor 0, particles 2-3 clone donor 1, snapped
    assert warm[0].tolist() == [0.1, 0.1, -0.1]
    assert np.array_equal(warm[0], warm[1])
    assert warm[2].tolist() == [-0.1, -0.1, 0.1]
    assert np.array_equal(warm[2], warm[3])


def test_warm_start_is_identity_at_equal_size_and_matching_grid():
    grid = _grid11()
    alpha = np.array([[0.2, -0.2], [0.04, 0.0], [-0.12, 0.08]])
    traj = TrajectorySet(
        x=np.zeros((3, 3)) + 0.5,
        alpha=alpha,
        exit_step=np.array([3, 3, 3], dtype=np.int64),
        weight=1 / 3,
        dt=0.01,
    )
    warm = warm_start_controls(traj, 3, grid)
    assert np.allclose(warm, alpha, atol=1e-15)


def test_two_phase_warm_start_needs_no_phase2_changes_when_pruning_is_exact():
    # Non-interacting quadratic cost: phase 1 settles on the zero control
    # everywhere, so the cloned start is already the phase-2 equilibrium and
    # the first phase-2 sweep confirms it without a single modification.
    model = _noninteracting()
    grid = _grid11()
    result = run_two_phase(
        model, grid,
        n_particles=24, dt=0.004, n_steps=30, seed=2, max_sweeps=6,
        options=SweepOptions(),
        phase1_enabled=True, phase1_particles=8, keep_fraction=0.5,
    )
    assert result.phase1.converged
    assert 0.0 in result.grid_pruned.points.tolist()
    assert result.phase2.converged
    assert len(result.phase2.reports) == 1
    assert result.phase2.reports[0].modifications == 0
