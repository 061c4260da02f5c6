import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bestreply.controls import (
    ControlGrid,
    cross_check_exponential_control,
    exponential_control_closed_form,
    linear_control_closed_loop,
    solve_alignment_equation,
    validate_parameters,
)
from bestreply.engine import SweepOptions, TrajectorySet, sweep_best_reply
from bestreply.kernels import lambert_w0
from bestreply.models import ModelSpec


# -------------------------------------------------------------- ControlGrid

def test_uniform_grid_points():
    grid = ControlGrid.uniform(-0.2, 0.2, 11)
    assert grid.n_points == 11
    assert grid.points[0] == -0.2
    assert grid.points[-1] == 0.2
    step = 0.4 / 10
    for i, p in enumerate(grid.points):
        assert p == pytest.approx(-0.2 + i * step, abs=1e-15)


def test_grid_requires_two_points():
    with pytest.raises(ValueError):
        ControlGrid.uniform(-0.2, 0.2, 1)


def test_grid_requires_increasing_bounds():
    with pytest.raises(ValueError):
        ControlGrid.uniform(0.2, -0.2, 5)


def test_grid_subset_keeps_order():
    grid = ControlGrid.uniform(-0.2, 0.2, 5)
    sub = grid.subset([0, 4])
    assert sub.points.tolist() == [-0.2, 0.2]
    assert sub.n_points == 2


def test_grid_nearest_snaps_with_ties_to_lower():
    grid = ControlGrid(points=np.array([-0.5, 0.0, 1.0]))
    values = np.array([-2.0, -0.5, -0.375, -0.25, -0.125, 0.5, 0.75, 3.0])
    snapped = grid.nearest(values)
    # -0.25 and 0.5 sit exactly between neighbours (exactly representable):
    # ties go to the lower control
    expected = [-0.5, -0.5, -0.5, -0.5, 0.0, 0.0, 1.0, 1.0]
    assert snapped.tolist() == pytest.approx(expected)


def test_grid_nearest_preserves_shape():
    grid = ControlGrid.uniform(-1.0, 1.0, 3)
    matrix = np.array([[0.4, -0.4], [0.9, -2.0]])
    snapped = grid.nearest(matrix)
    assert snapped.shape == matrix.shape
    assert snapped.tolist() == [[0.0, 0.0], [1.0, -1.0]]


# -------------------------------------- best responses on a finite grid

def _best_response(costs):
    """Control the sweep adopts for one decision priced by a (control, cost) table.

    One particle and one step with unit dt, no quadratic or coupling term,
    and a post-step state cost that returns the table: the scanned cost of
    each control is exactly its table entry.
    """
    grid = ControlGrid(points=np.array([a for a, _ in costs]))
    table = np.array([c for _, c in costs])
    model = ModelSpec(
        diffusion=0.0,
        domain=(0.0, 1.0),
        quad_weight=0.0,
        coupling_coef=0.0,
        state_cost=lambda t, xq, fm: table,
        state_gain=lambda th: 0.0,
        state_gain_is_zero=True,
        initial_density=lambda x: np.ones_like(x),
    )
    prev = TrajectorySet(x=np.full((1, 2), 0.5), alpha=np.zeros((1, 1)),
                         exit_step=np.array([2]), weight=1.0, dt=1.0)
    traj, _ = sweep_best_reply(prev, model, grid, seed=0, phase=0, sweep_index=1,
                               xi=np.zeros((1, 1)), options=SweepOptions())
    return float(traj.alpha[0, 0])


def test_best_response_quadratic_minimum():
    costs = [(-0.2, 0.5 * 0.04), (0.0, 0.0), (0.2, 0.5 * 0.04)]
    assert _best_response(costs) == 0.0


def test_best_response_with_alignment_term():
    # cost(a) = 0.5 a^2 + a on {-0.2, 0, 0.2}: values -0.18, 0, 0.22
    costs = [(a, 0.5 * a * a + a) for a in (-0.2, 0.0, 0.2)]
    assert _best_response(costs) == -0.2


def test_best_response_tie_breaks_to_smallest_index():
    costs = [(-0.2, 1.0), (0.0, 1.0), (0.2, 1.0)]
    assert _best_response(costs) == -0.2


def test_best_response_never_beaten_by_any_entry():
    rng = np.random.default_rng(2)
    grid = ControlGrid.uniform(-0.2, 0.2, 9)
    for _ in range(50):
        costs = list(zip(grid.points.tolist(), rng.normal(size=9).tolist()))
        best = _best_response(costs)
        best_cost = dict(costs)[best]
        assert all(best_cost <= c for _, c in costs)


@settings(max_examples=100, deadline=None)
@given(st.floats(-10, 10))
def test_best_response_argmin_invariant_to_cost_offset(offset):
    rng = np.random.default_rng(12)
    controls = np.linspace(-0.2, 0.2, 7)
    base = rng.normal(size=7)
    c1 = list(zip(controls.tolist(), base.tolist()))
    c2 = list(zip(controls.tolist(), (base + offset).tolist()))
    assert _best_response(c1) == _best_response(c2)


# ------------------------------------------------------------ linear control

def test_linear_control_at_rest():
    assert linear_control_closed_loop([(0.5, 0.0, 1.0)], 1.0) == [(0.5, 0.0)]


def test_linear_control_decoupled():
    assert linear_control_closed_loop([(0.5, 0.7, 1.0)], 0.0) == [(0.5, -0.7)]


def test_linear_control_formula():
    # every closed-loop control obeys the pointwise law -p - m1*theta at the
    # mean control theta it induces
    rng = np.random.default_rng(29)
    p = rng.normal(size=20)
    w = rng.uniform(0.0, 1.0 / 20, 20)
    m1 = 0.5
    out = linear_control_closed_loop(list(zip(np.linspace(0, 1, 20), p, w)), m1)
    alphas = np.array([a for _, a in out])
    theta = float(np.dot(w, alphas))
    assert alphas == pytest.approx(-p - m1 * theta, rel=1e-14, abs=1e-15)


def test_linear_control_lipschitz_exact():
    rng = np.random.default_rng(31)
    m1 = 0.4
    for _ in range(100):
        (p1, p2), (w1, w2) = rng.normal(size=2), rng.uniform(0.0, 1.0, 2)
        ((_, a1),) = linear_control_closed_loop([(0.5, p1, w1)], m1)
        ((_, a2),) = linear_control_closed_loop([(0.5, p2, w2)], m1)
        th1, th2 = w1 * a1, w2 * a2
        assert abs(a1 - a2) <= abs(p1 - p2) + m1 * abs(th1 - th2) + 1e-14


def test_closed_loop_uniform_unit_mass():
    # constant p = 1 against uniform mass-1 weights, m1 = 1:
    # alpha* = -1 + (1/(1+1)) * 1 = -0.5 everywhere
    n = 100
    entries = [(x, 1.0, 1.0 / n) for x in np.linspace(0.0, 1.0, n)]
    out = linear_control_closed_loop(entries, 1.0)
    assert len(out) == n
    for _, a in out:
        assert a == pytest.approx(-0.5, abs=1e-12)


def test_closed_loop_m1_zero_reduces_to_adjoint():
    entries = [(0.1, 0.3, 0.5), (0.9, -0.2, 0.5)]
    out = linear_control_closed_loop(entries, 0.0)
    assert out[0][1] == pytest.approx(-0.3, abs=1e-15)
    assert out[1][1] == pytest.approx(0.2, abs=1e-15)


def test_closed_loop_zero_mass_reduces_to_adjoint():
    entries = [(0.1, 0.3, 0.0), (0.9, -0.2, 0.0)]
    out = linear_control_closed_loop(entries, 2.0)
    assert out[0][1] == pytest.approx(-0.3, abs=1e-15)
    assert out[1][1] == pytest.approx(0.2, abs=1e-15)


# -------------------------------------------------------- alignment equation

def _alignment_residual(alpha, p, q, a, b):
    alpha = np.atleast_1d(alpha)
    p = np.atleast_1d(p)
    q = np.atleast_1d(q)
    return np.max(np.abs(p + alpha + a * math.exp(b * float(alpha @ q)) * q))


def test_alignment_zero_q_degenerates():
    out = solve_alignment_equation(np.array([1.0, -2.0]), np.array([0.0, 0.0]), 0.5, 1.0)
    assert np.allclose(out, [-1.0, 2.0], atol=1e-15)


def test_alignment_b_zero_is_linear():
    out = solve_alignment_equation(np.array([1.0]), np.array([0.3]), 0.5, 0.0)
    assert out[0] == pytest.approx(-1.0 - 0.5 * 0.3, abs=1e-14)


def test_alignment_against_independent_bisection():
    p = np.array([1.0, 0.0])
    q = np.array([0.1, 0.1])
    a, b = 0.5, 1.0

    # blunt-force bisection on s + p.q + a exp(bs) |q|^2 = 0
    pq = float(p @ q)
    q2 = float(q @ q)

    def g(s):
        return s + pq + a * math.exp(b * s) * q2

    lo, hi = -10.0, 10.0
    assert g(lo) < 0 < g(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) <= 0:
            lo = mid
        else:
            hi = mid
    s_star = 0.5 * (lo + hi)
    want = -p - a * math.exp(b * s_star) * q

    got = solve_alignment_equation(p, q, a, b)
    assert np.allclose(got, want, atol=1e-10)
    assert _alignment_residual(got, p, q, a, b) <= 1e-10


def test_alignment_scalar_inputs():
    got = solve_alignment_equation(0.5, 0.1, 0.3, 2.0)
    assert _alignment_residual(got, 0.5, 0.1, 0.3, 2.0) <= 1e-10


def test_alignment_residual_on_random_admissible_inputs():
    rng = np.random.default_rng(41)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        p = rng.uniform(-1, 1, d)
        q = rng.uniform(-0.3, 0.3, d)
        a = float(rng.uniform(0.0, 1.0))
        b = float(rng.uniform(0.0, 2.0))
        alpha = solve_alignment_equation(p, q, a, b)
        assert _alignment_residual(alpha, p, q, a, b) <= 1e-10


def test_alignment_matches_w_function_route():
    # independent route: s* = -p.q - W(a b |q|^2 e^{-b p.q}) / b
    rng = np.random.default_rng(43)
    for _ in range(50):
        p = rng.uniform(-1, 1, 2)
        q = rng.uniform(-0.3, 0.3, 2)
        a = float(rng.uniform(0.01, 1.0))
        b = float(rng.uniform(0.01, 2.0))
        pq = float(p @ q)
        q2 = float(q @ q)
        if q2 == 0.0:
            continue
        s_star = -pq - lambert_w0(a * b * q2 * math.exp(-b * pq)) / b
        want = -p - a * math.exp(b * s_star) * q
        got = solve_alignment_equation(p, q, a, b)
        assert np.allclose(got, want, atol=1e-9)


def test_alignment_bracketing_failure_raises():
    # a < 0, b > 0 with a huge negative coupling: g has no real root
    with pytest.raises(ValueError):
        solve_alignment_equation(np.array([0.0]), np.array([1.0]), -100.0, 1.0)


# ----------------------------------------------------- closed-form candidate

def test_closed_form_zero_q():
    out = exponential_control_closed_form(np.array([1.0]), np.array([0.0]), 0.5, 1.0)
    assert out[0] == -1.0


def test_closed_form_m1_zero():
    out = exponential_control_closed_form(np.array([0.7]), np.array([0.1]), 0.0, 1.0)
    assert out[0] == pytest.approx(-0.7, abs=1e-15)


def test_cross_check_reports_solver_and_candidate():
    rng = np.random.default_rng(47)
    n_disagree = 0
    for _ in range(100):
        p = rng.uniform(-0.05, 0.05, 1)
        q = rng.uniform(-0.05, 0.05, 1)
        m1 = float(rng.uniform(0.0, 0.5))
        m2 = float(rng.uniform(0.0, 0.5))
        res = cross_check_exponential_control(p, q, m1, m2)
        solver_resid = _alignment_residual(res.solver, p, q, m1 * m2, m2)
        assert solver_resid <= 1e-10  # the authoritative value always satisfies the equation
        if not res.agrees:
            n_disagree += 1
            assert res.max_gap > 1e-8 or math.isnan(res.max_gap)
    # every disagreement was flagged; agreement is not required
    assert n_disagree >= 0


def test_cross_check_flags_lambert_domain_failure():
    # arguments pushing the W argument below -1/e must be flagged, not crash
    res = cross_check_exponential_control(np.array([3.0]), np.array([1.0]), 2.0, -1.5)
    assert not res.agrees or res.max_gap <= 1e-8


# --------------------------------------------------------- parameter gates

def test_gates_pass_for_small_m():
    report = validate_parameters(0.5, 0.05, lip_phi_prime=0.0, sup_phi_prime=0.1)
    assert report.passed
    assert report.violations == ()
    assert report.margin == pytest.approx(0.82675, abs=1e-12)
    assert report.lipschitz_constant == pytest.approx(1.0, rel=1e-12)
    assert report.lipschitz_constant < report.lipschitz_bound


def test_gates_fail_for_m_equal_one():
    report = validate_parameters(0.5, 1.0, lip_phi_prime=0.0, sup_phi_prime=0.1)
    assert not report.passed
    assert "a" in report.violations


def test_gates_fail_on_steep_phi_prime():
    report = validate_parameters(0.5, 0.05, lip_phi_prime=400.0, sup_phi_prime=0.1)
    assert "b" in report.violations


def test_gates_fail_on_large_sup():
    report = validate_parameters(0.5, 0.05, lip_phi_prime=0.0, sup_phi_prime=1.5)
    assert "c" in report.violations


def test_gates_fail_on_eps_above_half():
    # 2*eps <= 1 is part of the first gate
    report = validate_parameters(0.8, 0.05, lip_phi_prime=0.0, sup_phi_prime=0.1)
    assert "a" in report.violations


def test_gates_reject_negative_inputs():
    with pytest.raises(ValueError):
        validate_parameters(0.5, 0.05, lip_phi_prime=-1.0, sup_phi_prime=0.1)
    with pytest.raises(ValueError):
        validate_parameters(0.5, 0.05, lip_phi_prime=0.0, sup_phi_prime=-0.1)


def test_gate_b_equivalent_to_l_bound():
    # whenever gate b holds the implied Lipschitz constant clears its bound
    rng = np.random.default_rng(53)
    for _ in range(200):
        m = float(rng.uniform(0.01, 0.12))
        eps = float(rng.uniform(0.2, 0.5))
        lip = float(rng.uniform(0.0, 5.0))
        sup = float(rng.uniform(0.0, 0.2))
        report = validate_parameters(eps, m, lip_phi_prime=lip, sup_phi_prime=sup)
        if report.passed:
            assert report.lipschitz_constant < report.lipschitz_bound
        if "b" not in report.violations and "a" not in report.violations:
            assert "L" not in report.violations


def test_gates_reject_non_positive_eps_and_m():
    for eps, m in ((0.0, 0.05), (0.5, 0.0), (-0.5, 0.05), (math.nan, 0.05), (0.5, math.inf)):
        with pytest.raises(ValueError):
            validate_parameters(eps, m, lip_phi_prime=0.0, sup_phi_prime=0.1)
