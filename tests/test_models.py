import math

import numpy as np
import pytest

from bestreply.controls import ControlParams, validate_parameters
from bestreply.engine import simulate_controls
from bestreply.measures import (
    EmpiricalJointMeasure,
    first_moment,
    monotonicity_check,
    theta,
)
from bestreply.models import (
    EvacuationParams,
    RefinancingParams,
    evacuation_lagrangian,
    evacuation_model,
    refinancing_lagrangian,
    refinancing_model,
)


def _measure(x, alpha, w, domain=(0.0, 1.0), bounds=(-0.2, 0.2)):
    return EmpiricalJointMeasure(
        x=np.asarray(x, dtype=float),
        alpha=np.asarray(alpha, dtype=float),
        w=np.asarray(w, dtype=float),
        domain=domain,
        control_bounds=bounds,
    )


def _random_measure(rng, n=None, domain=(0.0, 1.0), bounds=(-0.2, 0.2)):
    n = n or int(rng.integers(2, 12))
    lo, hi = domain
    x = rng.uniform(lo, hi, n)
    a = rng.uniform(bounds[0], bounds[1], n)
    w = rng.uniform(0.1, 1.0, n)
    w = w / w.sum() * rng.uniform(0.3, 1.0)
    return _measure(x, a, w, domain=domain, bounds=bounds)


# ------------------------------------------------------------- evacuation

def test_evacuation_cost_at_first_moment():
    params = EvacuationParams(eta=4.0, beta=1.0, eps=0.5, softening=0.2)
    mu = _measure([0.75], [0.0], [1.0])
    out = evacuation_lagrangian(0.0, 0.75, 0.0, mu, params)
    assert out == pytest.approx(20.0, rel=1e-12)


def test_evacuation_cost_plug_in():
    params = EvacuationParams(eta=4.0, beta=1.0, eps=0.5, softening=0.2)
    mu = _measure([0.75], [0.1], [1.0])
    out = evacuation_lagrangian(0.0, 0.55, 0.2, mu, params)
    assert out == pytest.approx(10.04, rel=1e-12)


def test_evacuation_cost_pure_quadratic():
    params = EvacuationParams(eta=0.0, beta=0.0, eps=0.5, softening=0.2)
    mu = _measure([0.3], [0.1], [0.8])
    out = evacuation_lagrangian(0.0, 0.4, -0.2, mu, params)
    assert out == pytest.approx(0.5 * 0.04, rel=1e-14)


def test_evacuation_cost_finite_everywhere():
    params = EvacuationParams()
    mu = _measure([0.5, 0.75], [0.2, -0.1], [0.4, 0.5])
    fm = float(np.dot(mu.w, mu.x))
    for x in np.linspace(0.0, 1.0, 21).tolist() + [fm]:
        for a in np.linspace(-0.2, 0.2, 11):
            assert math.isfinite(evacuation_lagrangian(0.0, x, a, mu, params))


# ------------------------------------------------------------ refinancing

def _refinancing_drift(params, x0, controls, weight):
    # one noiseless Euler step: the drift is the displacement over dt
    dt = 0.004
    model = refinancing_model(params, sigma=0.0)
    x0 = np.asarray(x0, dtype=float)
    traj = simulate_controls(x0, weight, np.asarray(controls, dtype=float)[:, None],
                             model, np.zeros((x0.size, 1)), dt)
    return (traj.x[:, 1] - x0) / dt


def test_refinancing_drift_zero_rate():
    out = _refinancing_drift(RefinancingParams(rho=lambda z: 0.0), [0.5], [-0.1], 1.0)
    assert out[0] == pytest.approx(0.4, rel=1e-12)


def test_refinancing_drift_at_origin():
    assert _refinancing_drift(RefinancingParams(), [0.0], [0.0], 1.0)[0] == 0.0


def test_refinancing_drift_identity_rate():
    # the mean control 0.5 * 0.2 = 0.1 scales every particle's state by 1.1
    out = _refinancing_drift(RefinancingParams(rho=lambda z: z), [0.5, 0.3], [0.0, 0.2], 0.5)
    assert out[0] == pytest.approx(1.1 * 0.5, rel=1e-12)


def test_refinancing_cost_quadratic_only():
    params = RefinancingParams(M1=0.1, eps=0.5, ell=lambda t, x: np.zeros_like(np.asarray(x, float)))
    mu = _measure([0.0], [0.0], [1.0], domain=(-1.0, 1.0), bounds=(-0.05, 0.05))
    out = refinancing_lagrangian(0.0, 0.3, 0.1, mu, params)
    assert out == pytest.approx(0.005, rel=1e-14)


def test_refinancing_cost_plug_in():
    params = RefinancingParams(M1=0.1, eps=0.5, ell=lambda t, x: np.zeros_like(np.asarray(x, float)))
    mu = _measure([0.0], [-0.2], [1.0], domain=(-1.0, 1.0), bounds=(-0.2, 0.2))
    out = refinancing_lagrangian(0.0, 0.3, 0.2, mu, params)
    assert out == pytest.approx(0.016, rel=1e-12)


def test_refinancing_cost_state_term():
    params = RefinancingParams(M1=0.1, eps=0.5, ell=lambda t, x: np.asarray(x, float) + 0.0)
    mu = _measure([0.0], [0.1], [1.0], domain=(-1.0, 1.0), bounds=(-0.2, 0.2))
    out = refinancing_lagrangian(0.0, 0.3, 0.0, mu, params)
    assert out == pytest.approx(0.3, rel=1e-14)


# ------------------------------------------------- convexity in the control

def test_both_costs_strictly_convex_in_control():
    rng = np.random.default_rng(11)
    evac = EvacuationParams()
    refi = RefinancingParams()
    mu_e = _random_measure(rng)
    mu_r = _random_measure(rng, domain=(-1.0, 1.0), bounds=(-0.05, 0.05))
    h = 0.04
    for a in np.linspace(-0.16, 0.16, 9):
        x = float(rng.uniform(0.1, 0.9))
        second = (
            evacuation_lagrangian(0.0, x, a + h, mu_e, evac)
            - 2.0 * evacuation_lagrangian(0.0, x, a, mu_e, evac)
            + evacuation_lagrangian(0.0, x, a - h, mu_e, evac)
        )
        assert second == pytest.approx(2.0 * evac.eps * h * h, rel=1e-9)
        second_r = (
            refinancing_lagrangian(0.0, x, a + h, mu_r, refi)
            - 2.0 * refinancing_lagrangian(0.0, x, a, mu_r, refi)
            + refinancing_lagrangian(0.0, x, a - h, mu_r, refi)
        )
        assert second_r == pytest.approx(2.0 * refi.eps * h * h, rel=1e-9)


# ------------------------------------------------------------ monotonicity

def test_interaction_monotonicity_evacuation():
    model = evacuation_model()
    rng = np.random.default_rng(19)
    for _ in range(200):
        nu1 = _random_measure(rng)
        nu2 = _random_measure(rng)
        val = monotonicity_check(model.interaction, nu1, nu2, 0.0)
        assert val >= -1e-12
        dth = theta(nu1) - theta(nu2)
        assert val == pytest.approx(model.coupling_coef * dth * dth, rel=1e-9, abs=1e-13)


def test_interaction_monotonicity_refinancing():
    model = refinancing_model()
    rng = np.random.default_rng(23)
    for _ in range(200):
        nu1 = _random_measure(rng, domain=(-1.0, 1.0), bounds=(-0.05, 0.05))
        nu2 = _random_measure(rng, domain=(-1.0, 1.0), bounds=(-0.05, 0.05))
        val = monotonicity_check(model.interaction, nu1, nu2, 0.0)
        assert val >= -1e-12
        dth = theta(nu1) - theta(nu2)
        assert val == pytest.approx(model.coupling_coef * dth * dth, rel=1e-9, abs=1e-13)


def test_full_refinancing_lagrangian_is_monotone():
    # the state cost and quadratic terms carry no measure dependence, so the
    # full running cost inherits the interaction term's monotonicity
    model = refinancing_model()
    rng = np.random.default_rng(29)
    for _ in range(50):
        nu1 = _random_measure(rng, domain=(-1.0, 1.0), bounds=(-0.05, 0.05))
        nu2 = _random_measure(rng, domain=(-1.0, 1.0), bounds=(-0.05, 0.05))
        val = monotonicity_check(model.lagrangian, nu1, nu2, 0.0)
        dth = theta(nu1) - theta(nu2)
        assert val == pytest.approx(model.coupling_coef * dth * dth, rel=1e-9, abs=1e-13)


def test_evacuation_congestion_breaks_monotonicity():
    # the first-moment congestion cost is not monotone in the measure, even
    # for mass-decay-ordered pairs: monotonicity holds for the interaction
    # coupling only, which is what the acceptance route checks
    model = evacuation_model()
    nu1 = _measure([0.1, 0.9], [0.0, 0.0], [0.5, 0.5])
    nu2 = _measure([0.1, 0.9], [0.0, 0.0], [0.2, 0.4])
    val = monotonicity_check(model.lagrangian, nu1, nu2, 0.0)
    assert val < -1e-3


# -------------------------------------------------------- contraction gates

def test_refinancing_defaults_pass_contraction_gates():
    model = refinancing_model()
    params = ControlParams(
        M1=model.params.M1,
        M2=0.0,
        eps=model.params.eps,
        M=max(abs(b) for b in model.control_bounds),
    )
    report = validate_parameters(
        params, lip_phi_prime=0.0, sup_phi_prime=model.params.M1
    )
    assert report.passed


# ----------------------------------------------------- ModelSpec interface

def test_evacuation_spec_matches_free_functions():
    params = EvacuationParams()
    model = evacuation_model(params)
    rng = np.random.default_rng(31)
    for _ in range(20):
        mu = _random_measure(rng)
        t = float(rng.uniform(0, 4))
        x = float(rng.uniform(0, 1))
        a = float(rng.uniform(-0.2, 0.2))
        assert model.lagrangian(t, x, a, mu) == pytest.approx(
            evacuation_lagrangian(t, x, a, mu, params), rel=1e-13
        )


def test_refinancing_spec_matches_free_functions():
    params = RefinancingParams()
    model = refinancing_model(params)
    rng = np.random.default_rng(37)
    for _ in range(20):
        mu = _random_measure(rng, domain=(-1.0, 1.0), bounds=(-0.05, 0.05))
        t = float(rng.uniform(0, 2))
        x = float(rng.uniform(-1, 1))
        a = float(rng.uniform(-0.05, 0.05))
        assert model.lagrangian(t, x, a, mu) == pytest.approx(
            refinancing_lagrangian(t, x, a, mu, params), rel=1e-13
        )


def test_vector_hooks_match_scalar_calls():
    model = evacuation_model()
    rng = np.random.default_rng(41)
    mu = _random_measure(rng)
    xs = rng.uniform(0.0, 1.0, 16)
    costs = model.state_cost(0.0, xs, first_moment(mu))
    for i, x in enumerate(xs):
        want = evacuation_lagrangian(0.0, float(x), 0.0, mu, model.params)
        # alpha = 0 kills the coupling and quadratic terms
        assert costs[i] == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("model", [evacuation_model(), refinancing_model()], ids=lambda m: m.name)
def test_state_cost_block_matches_row_calls(model):
    # an (m, G) block with an (m, 1) first-moment column prices every row
    # exactly as m separate (G,) row calls with scalar moments do
    rng = np.random.default_rng(43)
    lo, hi = model.domain
    block = rng.uniform(lo, hi, (7, 11))
    moments = rng.uniform(lo, hi, (7, 1))
    priced = model.state_cost(0.3, block, moments)
    assert priced.shape == block.shape
    for row, fm, got in zip(block, moments[:, 0].tolist(), priced):
        assert got.tobytes() == np.asarray(model.state_cost(0.3, row, fm), dtype=float).tobytes()


def test_state_gain_flags():
    assert evacuation_model().state_gain_is_zero
    refi = refinancing_model()
    assert not refi.state_gain_is_zero
    assert refi.state_gain(0.0) == pytest.approx(1.05, rel=1e-14)


def test_initial_densities():
    evac = evacuation_model()
    xs = np.linspace(0.0, 1.0, 2001)
    dens = evac.initial_density(xs)
    assert np.all(dens[xs <= 0.5] == 0.0)
    assert np.all(dens[(xs > 0.5) & (xs < 1.0)] == 2.0)
    assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=2e-3)

    refi = refinancing_model()
    xs = np.linspace(-1.0, 1.0, 2001)
    dens = refi.initial_density(xs)
    assert np.all(dens[np.abs(xs) >= 0.5] == 0.0)
    assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=2e-3)


def test_params_validation():
    with pytest.raises(ValueError):
        EvacuationParams(eta=-1.0)
    with pytest.raises(ValueError):
        EvacuationParams(softening=0.0)
    with pytest.raises(ValueError):
        RefinancingParams(eps=0.0)
    with pytest.raises(ValueError):
        RefinancingParams(M1=-0.1)


def test_model_spec_validation():
    with pytest.raises(ValueError):
        evacuation_model(sigma=-1.0)
    with pytest.raises(ValueError):
        evacuation_model(domain=(1.0, 0.0))
