"""Differential oracle for the best-reply sweep.

``reference_sweep`` is the executable specification of one sweep: the
straightforward numpy-per-decision loop, written without any of the engine's
speed-ups. Hypothesis generates small runs over both models (evacuation
priced post-step, its drift having no state gain; refinancing pre-step) and
both ``theta_self`` values, chains a few sweeps, and requires the engine to
reproduce the reference bit for bit.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bestreply.controls import ControlGrid
from bestreply.engine import (
    SweepOptions,
    TrajectorySet,
    initial_controls,
    initial_positions,
    make_noise,
    simulate_controls,
    sweep_best_reply,
    time_averaged_moments,
)
from bestreply.kernels import METRIC_TERMS, weak_star_distance_from_moments
from bestreply.models import evacuation_model, refinancing_model

# the shipped control bounds of each model, by whether it has a state gain
_BOUNDS = {True: (-0.2, 0.2), False: (-0.05, 0.05)}


def reference_sweep(prev, model, grid, *, seed, phase, sweep_index, xi, options):
    """One sweep, decision by decision; returns (trajectories, mods, change)."""
    n, n_steps = prev.n_particles, prev.n_steps
    w, dt = prev.weight, prev.dt
    g = grid.points
    lo, hi = model.domain
    post = model.state_gain_is_zero
    include_self = options.theta_self == "include"
    quad = dt * model.quad_weight * g * g
    coef_dt = dt * model.coupling_coef
    noise_scale = 2.0 * math.sqrt(model.diffusion) * math.sqrt(dt)
    g_dt = g * dt

    new_x = np.empty((n, n_steps + 1))
    new_x[:, 0] = prev.x[:, 0]
    new_alpha = np.zeros((n, n_steps))
    new_exit = np.full(n, n_steps + 1, dtype=np.int64)
    cur_x = prev.x[:, 0].copy()
    cur_active = np.ones(n, dtype=bool)
    # permutation stream: purpose 1, keyed by (seed, phase, sweep)
    tag = (1 << 48) | (phase << 32) | sweep_index
    perm_rng = np.random.Generator(
        np.random.Philox(key=np.array([seed, tag], dtype=np.uint64))
    )
    modifications = 0

    for step in range(n_steps):
        t_n = step * dt
        prev_alpha_n = prev.alpha[:, step]
        prev_x_n = prev.x[:, step]
        prev_act = prev.exit_step > step
        present = prev_act & cur_active
        atom_x = np.where(prev_act, prev_x_n, 0.0)
        own_alpha = np.where(prev_act, prev_alpha_n, 0.0)
        s_mass = w * np.count_nonzero(present)
        s_x = w * float(atom_x[present].sum())
        s_alpha = w * float(own_alpha[present].sum())

        order = perm_rng.permutation(n)
        visits = order[cur_active[order]]
        lookahead = cur_x[:, None] + g_dt[None, :]
        for k in visits:
            xk = cur_x[k]
            if present[k]:
                s_x += w * (xk - atom_x[k])
            else:
                present[k] = True
                s_mass += w
                s_x += w * xk
                s_alpha += w * own_alpha[k]
            atom_x[k] = xk
            fresh = not prev_act[k]
            theta = s_alpha if include_self else s_alpha - w * own_alpha[k]
            s_lin = coef_dt * theta
            if post:
                cost = dt * model.state_cost(t_n, lookahead[k], s_x) + quad + s_lin * g
            else:
                cost = quad + s_lin * g
            a_new = g[int(np.argmin(cost))]
            if fresh or a_new != prev_alpha_n[k]:
                modifications += 1
            new_alpha[k, step] = a_new
            s_alpha += w * (a_new - own_alpha[k])
            own_alpha[k] = a_new
            gain = 0.0 if model.state_gain_is_zero else model.state_gain(s_alpha)
            drift = 0.0 + gain * xk + a_new
            x_next = xk + drift * dt + noise_scale * xi[k, step]
            if x_next <= lo:
                x_next = lo
                new_exit[k] = step + 1
                cur_active[k] = False
            elif x_next >= hi:
                x_next = hi
                new_exit[k] = step + 1
                cur_active[k] = False
            cur_x[k] = x_next
        new_x[:, step + 1] = cur_x

    new_traj = TrajectorySet(x=new_x, alpha=new_alpha, exit_step=new_exit, weight=w, dt=dt)
    n_terms = METRIC_TERMS
    change = weak_star_distance_from_moments(
        time_averaged_moments(prev, n_terms),
        time_averaged_moments(new_traj, n_terms),
    )
    return new_traj, modifications, change


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _check_against_reference(model, grid, options, *, n, n_steps, dt, seed, sweeps):
    x0 = initial_positions(n, model.initial_density, model.domain)
    start = np.tile(initial_controls(x0, model.domain, grid)[:, None], (1, n_steps))
    xi = make_noise(seed, 0, n, n_steps)
    engine_traj = simulate_controls(x0, 1.0 / n, start, model, xi, dt)
    ref_traj = engine_traj
    for sweep_index in range(1, sweeps + 1):
        kwargs = dict(seed=seed, phase=0, sweep_index=sweep_index, xi=xi, options=options)
        engine_traj, report = sweep_best_reply(engine_traj, model, grid, **kwargs)
        ref_traj, mods, change = reference_sweep(ref_traj, model, grid, **kwargs)
        assert _same_bits(engine_traj.x, ref_traj.x), f"x differs in sweep {sweep_index}"
        assert _same_bits(engine_traj.alpha, ref_traj.alpha), f"alpha differs in sweep {sweep_index}"
        assert _same_bits(engine_traj.exit_step, ref_traj.exit_step)
        assert report.modifications == mods
        assert _same_bits(report.distribution_change, change)
    return engine_traj


@st.composite
def sweep_cases(draw):
    model_name = draw(st.sampled_from(["evacuation", "refinancing"]))
    sigma = draw(st.sampled_from([0.0, 2.5e-9, 1e-4, 1e-2]))
    if model_name == "evacuation":
        model = evacuation_model(
            eta=draw(st.sampled_from([0.0, 4.0])),
            beta=draw(st.sampled_from([0.0, 1.0, 5.0])),
            softening=draw(st.sampled_from([0.05, 0.2])),
            sigma=sigma,
        )
    else:
        model = refinancing_model(m1=draw(st.sampled_from([0.0, 0.1, 2.0])), sigma=sigma)
    lo, hi = _BOUNDS[model.state_gain_is_zero]
    grid = ControlGrid.uniform(lo, hi, draw(st.integers(2, 11)))
    options = SweepOptions(theta_self=draw(st.sampled_from(["exclude", "include"])))
    return dict(
        model=model, grid=grid, options=options,
        n=draw(st.integers(1, 40)),
        n_steps=draw(st.integers(1, 60)),
        dt=draw(st.sampled_from([0.004, 0.02, 0.1])),
        seed=draw(st.integers(0, 2**32 - 1)),
        sweeps=draw(st.integers(1, 3)),
    )


def _case(model, n_points, theta_self, **run):
    lo, hi = _BOUNDS[model.state_gain_is_zero]
    grid = ControlGrid.uniform(lo, hi, n_points)
    return dict(model=model, grid=grid, options=SweepOptions(theta_self=theta_self), **run)


# strong coupling: a step's decisions keep overturning the guess that each
# visitor keeps its control, so the engine prices each step in many passes
# (about 9 per step for beta = 50, about 25 for M1 = 20)
@example(case=_case(evacuation_model(beta=50.0, sigma=1e-4), 11,
                    "exclude", n=40, n_steps=60, dt=0.02, seed=7, sweeps=3))
@example(case=_case(evacuation_model(beta=50.0, sigma=1e-4), 11,
                    "include", n=40, n_steps=60, dt=0.02, seed=7, sweeps=3))
@example(case=_case(refinancing_model(m1=20.0, sigma=1e-4), 11,
                    "exclude", n=40, n_steps=60, dt=0.02, seed=7, sweeps=3))
@example(case=_case(refinancing_model(m1=20.0, sigma=1e-4), 11,
                    "include", n=40, n_steps=60, dt=0.02, seed=7, sweeps=3))
# no noise and long steps: in 35 steps of the later sweeps every visitor is
# one the previous sweep had already absorbed
@example(case=_case(evacuation_model(sigma=0.0), 5,
                    "exclude", n=30, n_steps=60, dt=0.1, seed=0, sweeps=3))
@settings(max_examples=100, deadline=None)
@given(sweep_cases())
def test_engine_matches_reference_sweep(case):
    _check_against_reference(**case)


@settings(max_examples=20, deadline=None)
@given(
    theta_self=st.sampled_from(["exclude", "include"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(theta_self="exclude", seed=0)
def test_single_particle_matches_reference(theta_self, seed):
    options = SweepOptions(theta_self=theta_self)
    _check_against_reference(
        evacuation_model(sigma=1e-3), ControlGrid.uniform(-0.2, 0.2, 11), options,
        n=1, n_steps=60, dt=0.02, seed=seed, sweeps=3,
    )


def test_everyone_exits_early_matches_reference():
    # strong noise and long steps: the whole population is absorbed before
    # the horizon, and later sweeps meet particles the previous sweep had
    # already absorbed
    model = evacuation_model(sigma=0.05)
    grid = ControlGrid.uniform(-0.2, 0.2, 5)
    for theta_self in ("exclude", "include"):
        options = SweepOptions(theta_self=theta_self)
        traj = _check_against_reference(
            model, grid, options, n=30, n_steps=60, dt=0.1, seed=4, sweeps=3
        )
        assert traj.exit_step.max() <= 40
