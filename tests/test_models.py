import math
from dataclasses import replace

import numpy as np
import pytest

from bestreply.config import parse_config, shipped_config_path
from bestreply.controls import validate_parameters
from bestreply.engine import simulate_controls
from bestreply.models import evacuation_model, refinancing_model
from monotone import monotonicity_integral, random_atoms

EVAC_BOXES = ((0.0, 1.0), (-0.2, 0.2))
REFI_BOXES = ((-1.0, 1.0), (-0.05, 0.05))


def _atoms(x, alpha, w):
    return tuple(np.asarray(v, dtype=float) for v in (x, alpha, w))


def _cost(model, t, x, alpha, atoms):
    """The running cost at one (x, alpha) against the atoms, from the array
    hooks the engine prices with."""
    xs, alphas, w = atoms
    state = float(model.state_cost(t, np.array([x]), float(np.dot(w, xs)))[0])
    theta = float(np.dot(w, alphas))
    return state + model.coupling_coef * alpha * theta + model.quad_weight * alpha * alpha


# ------------------------------------------------------------- evacuation

def test_evacuation_cost_at_first_moment():
    model = evacuation_model(eta=4.0, beta=1.0, eps=0.5, softening=0.2)
    out = _cost(model, 0.0, 0.75, 0.0, _atoms([0.75], [0.0], [1.0]))
    assert out == pytest.approx(20.0, rel=1e-12)


def test_evacuation_cost_plug_in():
    model = evacuation_model(eta=4.0, beta=1.0, eps=0.5, softening=0.2)
    out = _cost(model, 0.0, 0.55, 0.2, _atoms([0.75], [0.1], [1.0]))
    assert out == pytest.approx(10.04, rel=1e-12)


def test_evacuation_cost_pure_quadratic():
    model = evacuation_model(eta=0.0, beta=0.0, eps=0.5, softening=0.2)
    out = _cost(model, 0.0, 0.4, -0.2, _atoms([0.3], [0.1], [0.8]))
    assert out == pytest.approx(0.5 * 0.04, rel=1e-14)


def test_evacuation_cost_finite_everywhere():
    model = evacuation_model()
    atoms = _atoms([0.5, 0.75], [0.2, -0.1], [0.4, 0.5])
    fm = float(np.dot(atoms[2], atoms[0]))
    for x in np.linspace(0.0, 1.0, 21).tolist() + [fm]:
        for a in np.linspace(-0.2, 0.2, 11):
            assert math.isfinite(_cost(model, 0.0, x, a, atoms))


# ------------------------------------------------------------ refinancing

def _refinancing(rate=None, state_cost=None):
    """The default noiseless refinancing model, with the rate rho (drift
    (1 + rho(theta)) * x + a) or the state cost ell(t, x) replaced."""
    model = refinancing_model(sigma=0.0)
    if rate is not None:
        model = replace(model, state_gain=lambda th: 1.0 + rate(th))
    if state_cost is not None:
        model = replace(model, state_cost=lambda t, xq, fm: state_cost(t, xq))
    return model


def _refinancing_drift(model, x0, controls, weight):
    # one noiseless Euler step: the drift is the displacement over dt
    dt = 0.004
    x0 = np.asarray(x0, dtype=float)
    traj = simulate_controls(x0, weight, np.asarray(controls, dtype=float)[:, None],
                             model, np.zeros((x0.size, 1)), dt)
    return (traj.x[:, 1] - x0) / dt


def test_refinancing_drift_zero_rate():
    out = _refinancing_drift(_refinancing(rate=lambda z: 0.0), [0.5], [-0.1], 1.0)
    assert out[0] == pytest.approx(0.4, rel=1e-12)


def test_refinancing_drift_at_origin():
    assert _refinancing_drift(_refinancing(), [0.0], [0.0], 1.0)[0] == 0.0


def test_refinancing_drift_identity_rate():
    # the mean control 0.5 * 0.2 = 0.1 scales every particle's state by 1.1
    out = _refinancing_drift(_refinancing(rate=lambda z: z), [0.5, 0.3], [0.0, 0.2], 0.5)
    assert out[0] == pytest.approx(1.1 * 0.5, rel=1e-12)


def test_refinancing_cost_quadratic_only():
    model = _refinancing(state_cost=lambda t, x: np.zeros_like(x))
    out = _cost(model, 0.0, 0.3, 0.1, _atoms([0.0], [0.0], [1.0]))
    assert out == pytest.approx(0.005, rel=1e-14)


def test_refinancing_cost_plug_in():
    model = _refinancing(state_cost=lambda t, x: np.zeros_like(x))
    out = _cost(model, 0.0, 0.3, 0.2, _atoms([0.0], [-0.2], [1.0]))
    assert out == pytest.approx(0.016, rel=1e-12)


def test_refinancing_cost_state_term():
    model = _refinancing(state_cost=lambda t, x: x + 0.0)
    out = _cost(model, 0.0, 0.3, 0.0, _atoms([0.0], [0.1], [1.0]))
    assert out == pytest.approx(0.3, rel=1e-14)


# ------------------------------------------------- convexity in the control

def test_both_costs_strictly_convex_in_control():
    rng = np.random.default_rng(11)
    evac = evacuation_model()
    refi = refinancing_model()
    atoms_e = random_atoms(rng, *EVAC_BOXES)
    atoms_r = random_atoms(rng, *REFI_BOXES)
    h = 0.04
    for a in np.linspace(-0.16, 0.16, 9):
        x = float(rng.uniform(0.1, 0.9))
        for model, atoms in ((evac, atoms_e), (refi, atoms_r)):
            second = (
                _cost(model, 0.0, x, a + h, atoms)
                - 2.0 * _cost(model, 0.0, x, a, atoms)
                + _cost(model, 0.0, x, a - h, atoms)
            )
            assert second == pytest.approx(2.0 * model.quad_weight * h * h, rel=1e-9)


# ------------------------------------------------------------ monotonicity

def _assert_coupling_identity(model, rng, boxes, n_pairs, state_cost):
    # the integral is exactly the closed form that ``validate`` reports
    for _ in range(n_pairs):
        nu1 = random_atoms(rng, *boxes)
        nu2 = random_atoms(rng, *boxes)
        val = monotonicity_integral(model, nu1, nu2, state_cost=state_cost)
        assert val >= -1e-12
        dth = np.dot(nu1[2], nu1[1]) - np.dot(nu2[2], nu2[1])
        assert val == pytest.approx(model.coupling_coef * dth * dth, rel=1e-9, abs=1e-13)


def test_interaction_monotonicity_evacuation():
    _assert_coupling_identity(evacuation_model(), np.random.default_rng(19), EVAC_BOXES, 200,
                              state_cost=False)


def test_interaction_monotonicity_refinancing():
    _assert_coupling_identity(refinancing_model(), np.random.default_rng(23), REFI_BOXES, 200,
                              state_cost=False)


def test_full_refinancing_lagrangian_is_monotone():
    # the state cost and quadratic terms carry no measure dependence, so the
    # full running cost inherits the interaction term's monotonicity
    _assert_coupling_identity(refinancing_model(), np.random.default_rng(29), REFI_BOXES, 50,
                              state_cost=True)


def test_evacuation_congestion_breaks_monotonicity():
    # the first-moment congestion cost is not monotone in the measure, even
    # for mass-decay-ordered pairs: monotonicity holds for the interaction
    # coupling only, which is what the acceptance route checks
    nu1 = _atoms([0.1, 0.9], [0.0, 0.0], [0.5, 0.5])
    nu2 = _atoms([0.1, 0.9], [0.0, 0.0], [0.2, 0.4])
    assert monotonicity_integral(evacuation_model(), nu1, nu2) < -1e-3


# -------------------------------------------------------- contraction gates

def test_refinancing_defaults_pass_contraction_gates():
    model = refinancing_model()
    cfg = parse_config(shipped_config_path("refinancing_default.cfg"))
    bound = max(abs(cfg.control_lo), abs(cfg.control_hi))
    report = validate_parameters(
        model.quad_weight, bound, lip_phi_prime=0.0, sup_phi_prime=model.coupling_coef
    )
    assert report.passed


# ----------------------------------------------------- ModelSpec interface

def test_evacuation_spec_matches_free_functions():
    # the hooks against the running cost written out from the default
    # parameters eta = 4, beta = 1, eps = 0.5 and softening = 0.2
    model = evacuation_model()
    rng = np.random.default_rng(31)
    for _ in range(20):
        atoms = random_atoms(rng, *EVAC_BOXES)
        t = float(rng.uniform(0, 4))
        x = float(rng.uniform(0, 1))
        a = float(rng.uniform(-0.2, 0.2))
        fm, th = float(np.dot(atoms[2], atoms[0])), float(np.dot(atoms[2], atoms[1]))
        want = 4.0 / (abs(fm - x) + 0.2) + 1.0 * a * th + 0.5 * a * a
        assert _cost(model, t, x, a, atoms) == pytest.approx(want, rel=1e-13)


def test_refinancing_spec_matches_free_functions():
    # as above: the state cost (1 + x) / 2, m1 = 0.1 and eps = 0.5
    model = refinancing_model()
    rng = np.random.default_rng(37)
    for _ in range(20):
        atoms = random_atoms(rng, *REFI_BOXES)
        t = float(rng.uniform(0, 2))
        x = float(rng.uniform(-1, 1))
        a = float(rng.uniform(-0.05, 0.05))
        th = float(np.dot(atoms[2], atoms[1]))
        want = (1.0 + x) / 2.0 + 0.1 * a * th + 0.5 * a * a
        assert _cost(model, t, x, a, atoms) == pytest.approx(want, rel=1e-13)


def test_vector_hooks_match_scalar_calls():
    model = evacuation_model()
    rng = np.random.default_rng(41)
    x_atoms, _alpha, w = random_atoms(rng, *EVAC_BOXES)
    fm = float(np.dot(w, x_atoms))
    xs = rng.uniform(0.0, 1.0, 16)
    costs = model.state_cost(0.0, xs, fm)
    for i, x in enumerate(xs.tolist()):
        want = 4.0 / (abs(fm - x) + 0.2)
        assert costs[i] == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("model", [evacuation_model(), refinancing_model()],
                         ids=["evacuation", "refinancing"])
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
        evacuation_model(eta=-1.0)
    with pytest.raises(ValueError):
        evacuation_model(softening=0.0)
    with pytest.raises(ValueError):
        refinancing_model(eps=0.0)
    with pytest.raises(ValueError):
        refinancing_model(m1=-0.1)


def test_model_spec_validation():
    with pytest.raises(ValueError):
        evacuation_model(sigma=-1.0)
    with pytest.raises(ValueError):
        evacuation_model(domain=(1.0, 0.0))
