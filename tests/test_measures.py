import numpy as np
import pytest

from bestreply.kernels import (
    monomial_exponents,
    monomial_moments,
    weak_star_distance_from_moments,
)
from bestreply.measures import (
    EmpiricalJointMeasure,
    first_moment,
    monotonicity_check,
    theta,
)

DOMAIN = (0.0, 1.0)
CONTROLS = (-0.2, 0.2)


def measure(x, a, w, domain=DOMAIN, control_bounds=CONTROLS):
    return EmpiricalJointMeasure(
        x=np.asarray(x, dtype=float),
        alpha=np.asarray(a, dtype=float),
        w=np.asarray(w, dtype=float),
        domain=domain,
        control_bounds=control_bounds,
    )


# ----------------------------------------------------------------- validity

def test_measure_accepts_valid_atoms():
    nu = measure([0.5, 0.7], [0.1, -0.1], [0.5, 0.5])
    assert nu.n_atoms == 2


def test_measure_rejects_mass_above_one():
    with pytest.raises(ValueError):
        measure([0.5, 0.7], [0.1, -0.1], [0.6, 0.6])


def test_measure_rejects_atoms_outside_domain():
    with pytest.raises(ValueError):
        measure([1.5], [0.1], [0.5])
    with pytest.raises(ValueError):
        measure([0.5], [0.3], [0.5])


def test_measure_rejects_negative_weights():
    with pytest.raises(ValueError):
        measure([0.5], [0.1], [-0.1])


# -------------------------------------------------------------------- theta

def test_theta_symmetric_controls_cancel():
    nu = measure([0.5, 0.7], [0.1, -0.1], [0.5, 0.5])
    assert theta(nu) == pytest.approx(0.0, abs=1e-15)


def test_theta_single_atom():
    nu = measure([0.4], [0.2], [1.0])
    assert theta(nu) == pytest.approx(0.2, rel=1e-15)


def test_theta_weighted_sum():
    nu = measure([0.4, 0.6], [0.2, 0.1], [0.25, 0.25])
    assert theta(nu) == pytest.approx(0.075, rel=1e-14)


def test_theta_empty_measure_is_zero():
    nu = measure([], [], [])
    assert theta(nu) == 0.0


def test_theta_not_renormalized_by_mass():
    # half the mass with the same controls gives half the theta
    full = measure([0.4, 0.6], [0.2, 0.2], [0.5, 0.5])
    half = measure([0.4, 0.6], [0.2, 0.2], [0.25, 0.25])
    assert theta(half) == pytest.approx(0.5 * theta(full), rel=1e-14)


def test_theta_linear_in_weights_and_bounded():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 20))
        x = rng.uniform(0, 1, n)
        a = rng.uniform(-0.2, 0.2, n)
        w = rng.uniform(0, 1.0 / n, n)
        nu = measure(x, a, w)
        nu2 = measure(x, a, 0.5 * w)
        assert theta(nu2) == pytest.approx(0.5 * theta(nu), rel=1e-12, abs=1e-15)
        assert abs(theta(nu)) <= 0.2 * nu.w.sum() + 1e-15


# ------------------------------------------------------------------ moments

def test_moments_two_atom_anchor():
    nu = measure([0.5, 1.0], [0.0, 0.0], [0.5, 0.5])
    assert first_moment(nu) == pytest.approx(0.75, rel=1e-15)


def test_single_atom_moments():
    nu = measure([0.3], [0.0], [0.2])
    assert first_moment(nu) == pytest.approx(0.06, rel=1e-15)


# ------------------------------------------------------------- monotonicity

def _alignment_lagrangian(m1):
    # cost rate with the mean-control coupling g(a, nu) = m1 * a * theta(nu)
    def lag(t, x, a, nu):
        return m1 * a * theta(nu) + 0.5 * a * a

    return lag


def test_monotonicity_identical_measures_zero():
    nu = measure([0.5, 0.7], [0.1, -0.1], [0.5, 0.5])
    lag = _alignment_lagrangian(0.1)
    assert monotonicity_check(lag, nu, nu, 0.0) == 0.0


def test_monotonicity_alignment_coupling_closed_form():
    # for g = m1 * a * theta(nu) the signed integral equals m1*(dtheta)^2
    rng = np.random.default_rng(19)
    m1 = 0.3
    lag = _alignment_lagrangian(m1)
    for _ in range(25):
        n1, n2 = rng.integers(1, 10, 2)
        nu1 = measure(rng.uniform(0, 1, n1), rng.uniform(-0.2, 0.2, n1), rng.uniform(0, 1.0 / n1, n1))
        nu2 = measure(rng.uniform(0, 1, n2), rng.uniform(-0.2, 0.2, n2), rng.uniform(0, 1.0 / n2, n2))
        got = monotonicity_check(lag, nu1, nu2, 0.0)
        want = m1 * (theta(nu1) - theta(nu2)) ** 2
        assert got == pytest.approx(want, rel=1e-10, abs=1e-14)
        assert got >= -1e-12


def test_monotonicity_measure_independent_lagrangian_zero():
    def lag(t, x, a, nu):
        return x + 0.5 * a * a

    rng = np.random.default_rng(21)
    nu1 = measure(rng.uniform(0, 1, 6), rng.uniform(-0.2, 0.2, 6), rng.uniform(0, 1 / 6, 6))
    nu2 = measure(rng.uniform(0, 1, 4), rng.uniform(-0.2, 0.2, 4), rng.uniform(0, 1 / 4, 4))
    assert monotonicity_check(lag, nu1, nu2, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_monotonicity_symmetric_in_arguments():
    rng = np.random.default_rng(29)
    lag = _alignment_lagrangian(0.2)
    nu1 = measure(rng.uniform(0, 1, 5), rng.uniform(-0.2, 0.2, 5), rng.uniform(0, 0.2, 5))
    nu2 = measure(rng.uniform(0, 1, 7), rng.uniform(-0.2, 0.2, 7), rng.uniform(0, 0.14, 7))
    d12 = monotonicity_check(lag, nu1, nu2, 0.0)
    d21 = monotonicity_check(lag, nu2, nu1, 0.0)
    assert d12 == pytest.approx(d21, rel=1e-12, abs=1e-15)


def test_monotonicity_depends_on_time_argument():
    def lag(t, x, a, nu):
        return t * theta(nu) * a

    nu1 = measure([0.5], [0.2], [1.0])
    nu2 = measure([0.5], [-0.2], [1.0])
    assert monotonicity_check(lag, nu1, nu2, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert monotonicity_check(lag, nu1, nu2, 2.0) == pytest.approx(2.0 * (0.4) ** 2, rel=1e-12)


# ------------------------------------------------------- weak-star interop

def test_measure_plugs_into_weak_star_distance():
    nu1 = measure([0.5], [0.0], [1.0])
    nu2 = measure([0.6], [0.0], [1.0])
    exponents = monomial_exponents(2, 3)
    m1, m2 = (
        monomial_moments(np.column_stack([nu.x, nu.alpha]), nu.w, exponents)
        for nu in (nu1, nu2)
    )
    assert weak_star_distance_from_moments(m1, m2) == pytest.approx(1.0 / 44.0, rel=1e-12)
