"""Particle best-reply solver with absorbing boundaries.

The engine simulates a weighted particle ensemble forward in time and runs
randomized sequential best-reply sweeps until no particle wants to change any
of its per-step controls. One sweep re-simulates the horizon; at every time
step the active particles are visited in a fresh random order, each visited
particle scans the control grid for the cheapest one-step cost against the
current mixed population (already-visited particles contribute their updated
state/control atoms, unvisited ones their previous-sweep atoms), adopts the
argmin, and advances through the noisy dynamics. Particles crossing the
domain boundary are absorbed: frozen in place, excluded from every later
empirical measure, and free of further cost.

Determinism contract: all randomness flows from counter-based streams keyed
by (seed, purpose, phase, index), so reruns produce bit-identical
trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Optional

import numpy as np

from .controls import ControlGrid
from .kernels import METRIC_TERMS, weak_star_distance_from_moments
from .models import ModelSpec

__all__ = [
    "Ensemble",
    "TrajectorySet",
    "Flow",
    "IterationReport",
    "NonFiniteCostError",
    "SweepOptions",
    "EquilibriumResult",
    "TwoPhaseResult",
    "make_noise",
    "initial_controls",
    "init_ensemble",
    "simulate_initial",
    "sweep_best_reply",
    "run_to_equilibrium",
    "verify_equilibrium",
    "prune_control_set",
    "value_function_trace",
    "max_greedy_gap",
    "graded_joint_moments",
    "time_averaged_moments",
    "run_two_phase",
]

_PURPOSE_NOISE = 0
_PURPOSE_PERMUTATION = 1
_CDF_POINTS = 4097
_SUM_LANES = 64


# --------------------------------------------------------------------------
# data types
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Ensemble:
    """Initial particle states: positions, controls, and the common weight."""

    x0: np.ndarray
    alpha0: np.ndarray
    weight: float


@dataclass
class TrajectorySet:
    """Complete simulated horizon for every particle.

    ``x`` has one more column than ``alpha`` (positions at step edges,
    controls on step intervals). ``exit_step[k] = m`` means particle k was
    absorbed at time index m: it is active (in measures, paying cost,
    advancing) for steps n < m and frozen at its boundary value afterwards;
    ``m = n_steps + 1`` marks a particle that never exits. ``alpha`` entries
    at and after the exit step are zero-filled.
    """

    x: np.ndarray
    alpha: np.ndarray
    exit_step: np.ndarray
    weight: float
    dt: float
    cached_moments: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.exit_step = np.asarray(self.exit_step, dtype=np.int64)
        if self.x.shape[1] != self.alpha.shape[1] + 1:
            raise ValueError("positions need exactly one more column than controls")
        if self.exit_step.shape != (self.x.shape[0],):
            raise ValueError("exit_step must have one entry per particle")

    @property
    def n_particles(self) -> int:
        return self.x.shape[0]

    @property
    def n_steps(self) -> int:
        return self.alpha.shape[1]


@dataclass(frozen=True)
class Flow:
    """Per-step population flow of a trajectory set.

    ``mass`` and ``first_moment`` (the raw integral of the position) hold one
    entry per time index 0..n_steps, ``mean_control`` (the raw integral of
    the control) one per decision step 0..n_steps-1. Each entry is an axis-0
    sum over all particles with the absorbed ones masked to zero, so it does
    not depend on BLAS or the CPU.
    """

    mass: np.ndarray
    first_moment: np.ndarray
    mean_control: np.ndarray

    @classmethod
    def of(cls, traj: TrajectorySet) -> Flow:
        # one full-size product at a time keeps the peak at one float array
        active = traj.exit_step[:, None] > np.arange(traj.n_steps + 1)[None, :]
        mass = active.sum(axis=0) / traj.n_particles
        first_moment = traj.weight * (traj.x * active).sum(axis=0)
        mean_control = traj.weight * (traj.alpha * active[:, :-1]).sum(axis=0)
        return cls(mass=mass, first_moment=first_moment, mean_control=mean_control)


class NonFiniteCostError(ValueError):
    """A sweep priced a candidate control at a non-finite cost."""


@dataclass(frozen=True)
class IterationReport:
    """Outcome of one best-reply sweep."""

    sweep: int
    modifications: int
    distribution_change: float
    converged: bool


@dataclass(frozen=True)
class SweepOptions:
    """The one setting of the sweep's decision rule.

    ``theta_self`` controls whether a deciding particle's own atom is
    included in the mean control it reacts to. Where candidates are priced
    follows from the model (see ``sweep_best_reply``), and a sweep converges
    when it modifies no control.
    """

    theta_self: str = "exclude"

    def __post_init__(self) -> None:
        if self.theta_self not in ("exclude", "include"):
            raise ValueError("theta_self must be 'exclude' or 'include'")


@dataclass(frozen=True)
class EquilibriumResult:
    trajectories: TrajectorySet
    reports: list[IterationReport]
    converged: bool


@dataclass(frozen=True)
class TwoPhaseResult:
    phase1: Optional[EquilibriumResult]
    phase2: EquilibriumResult
    grid_full: ControlGrid
    grid_pruned: ControlGrid

    @property
    def converged(self) -> bool:
        phase1_ok = self.phase1 is None or self.phase1.converged
        return phase1_ok and self.phase2.converged


# --------------------------------------------------------------------------
# randomness
# --------------------------------------------------------------------------


def _philox_key(seed: int, purpose: int, phase: int, index: int) -> np.ndarray:
    tag = (purpose << 48) | (phase << 32) | index
    return np.array([seed, tag], dtype=np.uint64)


def make_noise(seed: int, phase: int, n_particles: int, n_steps: int) -> np.ndarray:
    """Standard-normal increments, one independent stream per particle.

    Row k is the full horizon of particle k's driving noise, identical across
    sweeps (common random numbers), so a sweep that changes no control
    reproduces the previous trajectories exactly.
    """
    out = np.empty((n_particles, n_steps))
    for k in range(n_particles):
        gen = np.random.Generator(
            np.random.Philox(key=_philox_key(seed, _PURPOSE_NOISE, phase, k))
        )
        out[k] = gen.standard_normal(n_steps)
    return out


def _permutation_stream(seed: int, phase: int, sweep_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=_philox_key(seed, _PURPOSE_PERMUTATION, phase, sweep_index))
    )


# --------------------------------------------------------------------------
# initialization
# --------------------------------------------------------------------------


def initial_controls(
    positions: np.ndarray, domain: tuple[float, float], grid: ControlGrid
) -> np.ndarray:
    """Largest-magnitude grid control pointing at the nearest boundary.

    Equidistant positions break the tie toward the lower boundary.
    """
    positions = np.asarray(positions, dtype=float)
    lo, hi = domain
    toward_lower = (positions - lo) <= (hi - positions)
    return np.where(toward_lower, grid.points[0], grid.points[-1])


def init_ensemble(
    n_particles: int,
    initial_density: Callable[[np.ndarray], np.ndarray],
    domain: tuple[float, float],
    grid: ControlGrid,
) -> Ensemble:
    """Equal-weight particles placed by stratified inverse-CDF sampling.

    The density is integrated on a fine fixed grid; particle k sits at the
    quantile (k + 1/2) / N, which is deterministic, spreads particles evenly
    through the mass, and keeps the empirical mean within O(1/N) of the true
    one. Initial controls follow the nearest-boundary rule.
    """
    if n_particles < 1:
        raise ValueError("need at least one particle")
    lo, hi = domain
    xs = np.linspace(lo, hi, _CDF_POINTS)
    f = np.asarray(initial_density(xs), dtype=float)
    if f.shape != xs.shape or not np.all(np.isfinite(f)):
        raise ValueError("initial density must be finite on the domain")
    if np.any(f < 0.0):
        raise ValueError("initial density must be non-negative")
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(xs))])
    total = cdf[-1]
    if not total > 0.0:
        raise ValueError("initial density must have positive total mass")
    cdf /= total
    quantiles = (np.arange(n_particles) + 0.5) / n_particles
    x0 = np.interp(quantiles, cdf, xs)
    alpha0 = initial_controls(x0, domain, grid)
    return Ensemble(x0=x0, alpha0=alpha0, weight=1.0 / n_particles)


# --------------------------------------------------------------------------
# dynamics
# --------------------------------------------------------------------------


def _advance(x, gain, a, noise, dt, lo, hi):
    """One Euler step with absorption: ``(landed, absorbed_mask)``.

    The landing is x + (gain*x + a)*dt + noise, the drift being gain*x + a;
    a landing on or past a boundary is clamped to that boundary and marks
    the particle absorbed.
    """
    x_new = x + (gain * x + a) * dt + noise
    out_lo = x_new <= lo
    out_hi = x_new >= hi
    return np.where(out_lo, lo, np.where(out_hi, hi, x_new)), out_lo | out_hi


def simulate_controls(
    x0: np.ndarray,
    weight: float,
    controls: np.ndarray,
    model: ModelSpec,
    xi: np.ndarray,
    dt: float,
) -> TrajectorySet:
    """Forward simulation with a frozen per-particle, per-step control matrix.

    Each step is the Euler step x' = x + drift*dt + 2*sqrt(sigma*dt)*noise
    of ``_advance``; crossing or landing on a boundary absorbs the particle,
    clamped to the crossed boundary point. Drifts that depend on the mean
    control use the step-start value over the currently active particles.
    Stored controls are zero from a particle's exit step onward, matching
    what the sweeps maintain.
    """
    n, n_steps = controls.shape
    w = weight
    lo, hi = model.domain
    noise_scale = 2.0 * math.sqrt(model.diffusion) * math.sqrt(dt)
    x_hist = np.empty((n, n_steps + 1))
    a_hist = np.zeros((n, n_steps))
    exit_step = np.full(n, n_steps + 1, dtype=np.int64)
    cur = np.asarray(x0, dtype=float).copy()
    active = np.ones(n, dtype=bool)
    x_hist[:, 0] = cur
    for step in range(n_steps):
        idx = np.nonzero(active)[0]
        if idx.size:
            a_act = controls[idx, step]
            a_hist[idx, step] = a_act
            if model.state_gain_is_zero:
                gain = 0.0
            else:
                gain = model.state_gain(w * float(a_act.sum()))
            x_new, exited = _advance(
                cur[idx], gain, a_act, noise_scale * xi[idx, step], dt, lo, hi
            )
            exit_step[idx[exited]] = step + 1
            active[idx[exited]] = False
            cur[idx] = x_new
        x_hist[:, step + 1] = cur
    return TrajectorySet(x=x_hist, alpha=a_hist, exit_step=exit_step, weight=w, dt=dt)


def simulate_initial(
    ensemble: Ensemble,
    model: ModelSpec,
    xi: np.ndarray,
    dt: float,
    n_steps: int,
) -> TrajectorySet:
    """Forward simulation with the initial controls frozen (sweep zero)."""
    controls = np.broadcast_to(
        ensemble.alpha0[:, None], (ensemble.x0.size, n_steps)
    )
    return simulate_controls(ensemble.x0, ensemble.weight, controls, model, xi, dt)


# --------------------------------------------------------------------------
# moment bookkeeping for the convergence metric
# --------------------------------------------------------------------------


def _fixed_order_sum(values: np.ndarray) -> float:
    """Sum of a 1-d float array whose rounding depends only on its length.

    The values are accumulated row by row into ``_SUM_LANES`` lane totals
    (element i goes to lane i % _SUM_LANES), which are then added with
    ``math.fsum``. Unlike ``np.dot`` the result does not depend on the BLAS
    library, its thread count or the CPU it runs on.
    """
    full = values.size - values.size % _SUM_LANES
    lanes = np.add.reduce(values[:full].reshape(-1, _SUM_LANES), axis=0)
    lanes[: values.size - full] += values[full:]
    return math.fsum(lanes.tolist())


def graded_joint_moments(
    x: np.ndarray, alpha: np.ndarray, weights: np.ndarray | float, n_terms: int
) -> np.ndarray:
    """First ``n_terms`` graded monomial moments of an atomic (x, alpha) measure.

    ``weights`` holds one weight per atom, or is one weight common to all.
    Matches the basis ordering of kernels.monomial_exponents for two
    variables: degree blocks, x-exponent descending within each block. Each
    moment is an order-fixed sum, so it is the same on every machine.
    """
    x = np.asarray(x, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    weights = np.asarray(weights, dtype=float)
    moments = np.zeros(n_terms)
    if x.size == 0:
        return moments
    max_deg = 0
    count = 1
    while count < n_terms:
        max_deg += 1
        count += max_deg + 1
    xp = np.empty((max_deg + 1, x.size))
    ap = np.empty((max_deg + 1, x.size))
    xp[0] = 1.0
    ap[0] = 1.0
    for e in range(1, max_deg + 1):
        xp[e] = xp[e - 1] * x
        ap[e] = ap[e - 1] * alpha
    terms = np.empty(x.size)
    k = 0
    for degree in range(max_deg + 1):
        for j in range(degree + 1):
            if k == n_terms:
                return moments
            np.multiply(xp[degree - j], ap[j], out=terms)
            terms *= weights
            moments[k] = _fixed_order_sum(terms)
            k += 1
    return moments


def time_averaged_moments(traj: TrajectorySet, n_terms: int) -> np.ndarray:
    """Moments of the trajectory's time-averaged joint measure.

    Averages the per-step empirical measures over the decision steps
    0..n_steps-1; absorbed particles drop out of every step at and after
    their exit.
    """
    n_steps = traj.n_steps
    if n_steps == 0:
        return np.zeros(n_terms)
    active = traj.exit_step[:, None] > np.arange(n_steps)[None, :]
    xs = traj.x[:, :n_steps][active]
    alphas = traj.alpha[active]
    return graded_joint_moments(xs, alphas, traj.weight / n_steps, n_terms)


# --------------------------------------------------------------------------
# best-reply sweeps
# --------------------------------------------------------------------------


def sweep_best_reply(
    prev: TrajectorySet,
    model: ModelSpec,
    grid: ControlGrid,
    *,
    seed: int,
    phase: int,
    sweep_index: int,
    xi: np.ndarray,
    options: SweepOptions,
) -> tuple[TrajectorySet, IterationReport]:
    """One randomized sequential best-reply pass over the whole horizon.

    Re-simulates forward in time. At each step the visited particle sees the
    population as: already-visited particles at their current re-simulated
    state and freshly adopted control, everyone else at their previous-sweep
    atom (particles absorbed in the current re-simulation are excluded
    outright). The adopted control is the grid argmin of the one-step cost,
    ties resolving to the smallest grid index; the particle then advances
    through the dynamics.

    Where a candidate is priced follows from the model. When its drift has
    no state gain (``model.state_gain_is_zero``) the state cost is taken at
    the landing position x + a*dt, so it reacts to where the step leads.
    Otherwise it is taken at the pre-step position, where it is the same for
    every candidate and drops out of the argmin.

    A step's decisions are made as a block, with the sequential result bit
    for bit. Within a step only the running mean-control sum passes from one
    decision to the next: the visit order, the positions and the running
    first moment are fixed when the step starts, and ``np.add.accumulate``
    adds in order, as the sequential loop does. So the step guesses that
    every visitor keeps its previous-sweep control, prices all remaining
    visitors at once under that guess, and accepts them up to and including
    the first whose argmin differs from its guess, since none of those read
    an unaccepted control; the rest are priced again with this pass's
    argmins as the guesses. The visitors then advance together in one
    ``_advance`` call. The model's ``state_cost`` is called once per
    decision when candidates are priced at their landing positions, with
    the (G,) row of those positions and the running first moment, and
    ``state_gain`` once per decision otherwise, on the mean control after
    that decision. A non-finite cost raises ``NonFiniteCostError``.
    """
    n, n_steps = prev.n_particles, prev.n_steps
    w, dt = prev.weight, prev.dt
    g = grid.points
    lo, hi = model.domain
    post = model.state_gain_is_zero
    include_self = options.theta_self == "include"
    coef_dt = dt * model.coupling_coef
    noise_scale = 2.0 * math.sqrt(model.diffusion) * math.sqrt(dt)
    g_dt = g * dt
    # the cost of control a is [dt * state cost] + q + s_lin * a, with q the
    # quadratic term, added in that order
    quad = dt * model.quad_weight * g * g

    new_x = np.empty((n, n_steps + 1))
    new_x[:, 0] = prev.x[:, 0]
    new_alpha = np.zeros((n, n_steps))
    new_exit = np.full(n, n_steps + 1, dtype=np.int64)
    cur_x = prev.x[:, 0].copy()
    cur_active = np.ones(n, dtype=bool)
    perm_rng = _permutation_stream(seed, phase, sweep_index)
    modifications = 0

    for step in range(n_steps):
        t_n = step * dt
        prev_x_n = prev.x[:, step]
        prev_alpha_n = prev.alpha[:, step]
        prev_act = prev.exit_step > step
        present = prev_act & cur_active
        order = perm_rng.permutation(n)
        visits = order[cur_active[order]]
        m = visits.size
        if m == 0:
            new_x[:, step + 1] = cur_x
            continue
        x_v = cur_x[visits]
        # a visitor the previous sweep had absorbed by now carries no atom:
        # it joins the sums when visited, with a zero control
        seen_v = prev_act[visits]
        own_v = np.where(seen_v, prev_alpha_n[visits], 0.0)
        # the mean-control sum as one chain of additions: slot 0 opens it,
        # slot 2k+1 is visitor k joining (-0.0, which changes no float, when
        # it already had an atom) and slot 2k+2 the change of its control;
        # visitor k prices against the running sum before slot 2k+2
        chain = np.empty(2 * m + 1)
        chain[0] = w * float(prev_alpha_n[present].sum())
        chain[1::2] = np.where(seen_v, -0.0, w * own_v)
        guess = own_v.copy()
        adopted = np.empty(m)
        after = np.empty(m)
        first = 0
        # overflow shows up as a non-finite cost, refused below
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if post:
                moved = w * (x_v - np.where(seen_v, prev_x_n[visits], 0.0))
                s_x = np.add.accumulate(
                    np.concatenate(([w * float(prev_x_n[present].sum())], moved))
                )
                rows = x_v[:, None] + g_dt[None, :]
                state = map(model.state_cost, repeat(t_n), rows, s_x[1:].tolist())
                base = dt * np.array(list(state), dtype=float) + quad
            else:
                base = np.broadcast_to(quad, (m, g.size))
            while first < m:
                chain[2 * first + 2::2] = w * (guess[first:] - own_v[first:])
                sums = np.add.accumulate(chain[2 * first:])
                before = sums[1::2]
                theta = before if include_self else before - w * own_v[first:]
                cost = base[first:] + (coef_dt * theta)[:, None] * g
                if not np.isfinite(cost).all():
                    raise NonFiniteCostError(
                        f"non-finite cost at step {step} (t = {t_n:g}) in sweep "
                        f"{sweep_index} of the {'exploratory' if phase == 1 else 'main'} phase"
                    )
                # first minimum, as a scan with strict < would pick
                picked = g[cost.argmin(axis=1)]
                missed = np.flatnonzero(picked != guess[first:])
                stop = first + int(missed[0]) + 1 if missed.size else m
                adopted[first:stop] = picked[: stop - first]
                after[first:stop] = sums[2 : 2 * (stop - first) + 1 : 2]
                if missed.size:
                    # the missed visitor's own change, then resume after it
                    last = stop - 1
                    after[last] = before[last - first] + w * (adopted[last] - own_v[last])
                    chain[2 * stop] = after[last]
                    guess[stop:] = picked[stop - first:]
                first = stop

        # a decision at a step the particle previously did not reach counts
        # as a strategy change even if the value matches the zero fill of the
        # stored array
        modifications += int(np.count_nonzero(~seen_v | (adopted != own_v)))
        gain = 0.0 if post else np.fromiter(map(model.state_gain, after.tolist()), float, m)
        landed, out = _advance(
            x_v, gain, adopted, noise_scale * xi[visits, step], dt, lo, hi
        )
        new_alpha[visits, step] = adopted
        cur_x[visits] = landed
        exited = visits[out]
        new_exit[exited] = step + 1
        cur_active[exited] = False
        new_x[:, step + 1] = cur_x

    new_traj = TrajectorySet(
        x=new_x, alpha=new_alpha, exit_step=new_exit, weight=w, dt=dt
    )
    old_moments = (
        prev.cached_moments
        if prev.cached_moments is not None
        else time_averaged_moments(prev, METRIC_TERMS)
    )
    new_moments = time_averaged_moments(new_traj, METRIC_TERMS)
    new_traj.cached_moments = new_moments
    change = weak_star_distance_from_moments(old_moments, new_moments)
    report = IterationReport(
        sweep=sweep_index,
        modifications=modifications,
        distribution_change=change,
        converged=modifications == 0,
    )
    return new_traj, report


def run_to_equilibrium(
    model: ModelSpec,
    grid: ControlGrid,
    ensemble: Ensemble,
    *,
    dt: float,
    n_steps: int,
    seed: int,
    phase: int = 0,
    max_sweeps: int,
    options: SweepOptions,
    start_controls: Optional[np.ndarray] = None,
) -> EquilibriumResult:
    """Sweep until a sweep modifies no control, up to ``max_sweeps`` sweeps.

    The starting trajectory plays the nearest-boundary initial controls, or
    ``start_controls`` (a per-particle, per-step matrix on the grid) when
    given. ``max_sweeps = 0`` returns that frozen-control starting run,
    flagged as non-converged. Non-convergence is an outcome, not an error.
    """
    xi = make_noise(seed, phase, ensemble.x0.size, n_steps)
    if start_controls is None:
        traj = simulate_initial(ensemble, model, xi, dt, n_steps)
    else:
        traj = simulate_controls(
            ensemble.x0, ensemble.weight, start_controls, model, xi, dt
        )
    reports: list[IterationReport] = []
    converged = False
    for sweep_index in range(1, max_sweeps + 1):
        traj, report = sweep_best_reply(
            traj, model, grid,
            seed=seed, phase=phase, sweep_index=sweep_index, xi=xi, options=options,
        )
        reports.append(report)
        if report.converged:
            converged = True
            break
    return EquilibriumResult(trajectories=traj, reports=reports, converged=converged)


def verify_equilibrium(
    traj: TrajectorySet,
    model: ModelSpec,
    grid: ControlGrid,
    *,
    seed: int,
    phase: int,
    options: SweepOptions,
    sweep_index: int,
    xi: Optional[np.ndarray] = None,
) -> tuple[int, float]:
    """Run one extra sweep against the given trajectories.

    Returns (modifications, residual) where the residual is the largest
    control change over all live (particle, step) pairs; both are zero at a
    true equilibrium.
    """
    if xi is None:
        xi = make_noise(seed, phase, traj.n_particles, traj.n_steps)
    new_traj, report = sweep_best_reply(
        traj, model, grid,
        seed=seed, phase=phase, sweep_index=sweep_index, xi=xi, options=options,
    )
    active = new_traj.exit_step[:, None] > np.arange(traj.n_steps)[None, :]
    if active.any():
        residual = float(np.max(np.abs(new_traj.alpha[active] - traj.alpha[active])))
    else:
        residual = 0.0
    return report.modifications, residual


def max_greedy_gap(
    traj: TrajectorySet,
    model: ModelSpec,
    grid: ControlGrid,
    *,
    options: SweepOptions,
    sample_fraction: float = 0.01,
    seed: int = 0,
) -> float:
    """Largest one-step regret over a random sample of (particle, step) pairs.

    Freezes the final empirical measures and re-prices every grid control for
    the sampled pairs where the sweep prices them (see ``sweep_best_reply``);
    at an equilibrium the adopted control never loses, so the gap is ~0 (up
    to summation-order rounding).
    """
    rng = np.random.default_rng(seed)
    g = grid.points
    dt, w = traj.dt, traj.weight
    quad = dt * model.quad_weight * g * g
    coef_dt = dt * model.coupling_coef
    include_self = options.theta_self == "include"
    post = model.state_gain_is_zero
    flow = Flow.of(traj)
    worst = 0.0
    for step in range(traj.n_steps):
        active = np.nonzero(traj.exit_step > step)[0]
        if active.size == 0:
            continue
        take = active[rng.random(active.size) < sample_fraction]
        if take.size == 0:
            continue
        a_k = traj.alpha[take, step]
        adopted = np.minimum(np.searchsorted(g, a_k), g.size - 1)
        if not np.array_equal(g[adopted], a_k):
            raise ValueError("trajectory control is not on the supplied grid")
        s_alpha = flow.mean_control[step]
        theta = np.full(take.size, s_alpha) if include_self else s_alpha - w * a_k
        lin = coef_dt * theta[:, None] * g
        # one (sampled rows x grid) block per step
        if post:
            rows = traj.x[take, step][:, None] + g * dt
            cost = dt * model.state_cost(step * dt, rows, flow.first_moment[step]) + quad + lin
        else:
            cost = quad + lin
        gaps = cost[np.arange(take.size), adopted] - cost.min(axis=1)
        worst = max(worst, float(gaps.max()))
    return worst


# --------------------------------------------------------------------------
# pruning and value reconstruction
# --------------------------------------------------------------------------


def prune_control_set(
    traj: TrajectorySet, grid: ControlGrid, keep_fraction: float
) -> ControlGrid:
    """Sub-grid of controls whose usage frequency reaches ``keep_fraction``.

    Frequencies count live (particle, step) pairs only. At least two controls
    always survive: if the threshold would leave fewer, the two most used
    (ties to the smaller grid index) are kept.
    """
    if keep_fraction < 0.0:
        raise ValueError("keep_fraction must be non-negative")
    active = traj.exit_step[:, None] > np.arange(traj.n_steps)[None, :]
    used = traj.alpha[active]
    if used.size == 0:
        return grid
    idx = np.searchsorted(grid.points, used)
    idx = np.minimum(idx, grid.n_points - 1)
    if not np.all(grid.points[idx] == used):
        raise ValueError("trajectory controls are not on the supplied grid")
    freq = np.bincount(idx, minlength=grid.n_points) / used.size
    keep = freq >= keep_fraction
    if np.count_nonzero(keep) < 2:
        top_two = np.sort(np.argsort(-freq, kind="stable")[:2])
        keep[:] = False
        keep[top_two] = True
    return grid.subset(np.nonzero(keep)[0])


def warm_start_controls(
    traj: TrajectorySet, n_particles: int, grid: ControlGrid
) -> np.ndarray:
    """Control paths for a fresh ensemble, cloned from a completed run.

    Particle k of the new ensemble copies the full control path of the
    completed-run particle at the nearest initial-mass quantile (both
    ensembles are stratified samples of the same density, so quantile rank
    identifies the donor), snapped to the nearest point of ``grid``. This
    turns a cheap exploratory solution into a starting point for a larger
    run instead of restarting the iteration from scratch.
    """
    if n_particles < 1:
        raise ValueError("need at least one particle")
    donors = (np.arange(n_particles) + 0.5) * (traj.n_particles / n_particles)
    donors = np.minimum(donors.astype(np.int64), traj.n_particles - 1)
    return grid.nearest(traj.alpha[donors])


def value_function_trace(
    traj: TrajectorySet, model: ModelSpec, options: SweepOptions
) -> np.ndarray:
    """Per-particle cost-to-go along the final trajectories.

    Backward accumulation of the one-step running costs against the realized
    empirical measures, from zero at the horizon (there is no terminal
    cost); identically zero from a particle's exit time onward. The mean
    control keeps the sweep's self-inclusion convention so the traces price
    exactly what the particles optimized.
    """
    n, n_steps = traj.n_particles, traj.n_steps
    w, dt = traj.weight, traj.dt
    include_self = options.theta_self == "include"
    flow = Flow.of(traj)
    u = np.zeros((n, n_steps + 1))
    for step in range(n_steps - 1, -1, -1):
        active = traj.exit_step > step
        if not active.any():
            continue
        xs = traj.x[active, step]
        alphas = traj.alpha[active, step]
        s_alpha = flow.mean_control[step]
        theta = s_alpha if include_self else s_alpha - w * alphas
        running = (
            model.state_cost(step * dt, xs, flow.first_moment[step])
            + model.coupling_coef * alphas * theta
            + model.quad_weight * alphas * alphas
        )
        u[active, step] = u[active, step + 1] + dt * running
    return u


# --------------------------------------------------------------------------
# two-phase orchestration
# --------------------------------------------------------------------------


def run_two_phase(
    model: ModelSpec,
    grid: ControlGrid,
    *,
    n_particles: int,
    dt: float,
    n_steps: int,
    seed: int,
    max_sweeps: int,
    options: SweepOptions,
    phase1_enabled: bool,
    phase1_particles: int,
    keep_fraction: float,
) -> TwoPhaseResult:
    """Optional cheap exploratory run that prunes the control grid and seeds
    the full run, which then iterates on the surviving controls.

    When phase 1 runs, its solution both selects the pruned grid and provides
    the full run's starting control paths (via warm_start_controls), so the
    expensive phase refines an already-equilibrated profile rather than
    restarting from the rush-to-the-boundary guess. The two phases draw from
    disjoint noise streams; phase 2 uses the same streams as a single-phase
    run, so disabling phase 1 never changes the main run's randomness.
    """
    phase1_result: Optional[EquilibriumResult] = None
    pruned = grid
    start = None
    if phase1_enabled:
        ens1 = init_ensemble(phase1_particles, model.initial_density, model.domain, grid)
        phase1_result = run_to_equilibrium(
            model, grid, ens1,
            dt=dt, n_steps=n_steps, seed=seed, phase=1,
            max_sweeps=max_sweeps, options=options,
        )
        pruned = prune_control_set(phase1_result.trajectories, grid, keep_fraction)
        start = warm_start_controls(phase1_result.trajectories, n_particles, pruned)
    ens2 = init_ensemble(n_particles, model.initial_density, model.domain, pruned)
    phase2_result = run_to_equilibrium(
        model, pruned, ens2,
        dt=dt, n_steps=n_steps, seed=seed, phase=0,
        max_sweeps=max_sweeps, options=options, start_controls=start,
    )
    return TwoPhaseResult(
        phase1=phase1_result,
        phase2=phase2_result,
        grid_full=grid,
        grid_pruned=pruned,
    )
