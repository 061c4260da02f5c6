import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bestreply.kernels import (
    METRIC_TERMS,
    ShapeKernel,
    kernel_density,
    lambert_w0,
    monomial_exponents,
    monomial_moments,
    weak_star_distance_from_moments,
)

NEG_INV_E = -math.exp(-1.0)


# ---------------------------------------------------------------- lambert_w0

def test_w_at_zero_is_zero():
    assert lambert_w0(0.0) == 0.0


def test_w_at_e_is_one():
    assert abs(lambert_w0(math.e) - 1.0) <= 1e-14


def test_w_at_branch_point():
    assert abs(lambert_w0(NEG_INV_E) - (-1.0)) <= 1e-7
    # the defining identity still holds to full tolerance there
    w = lambert_w0(NEG_INV_E)
    assert abs(w * math.exp(w) - NEG_INV_E) <= 1e-12


def test_w_of_one_matches_newton_oracle():
    # frozen from an independent Newton iteration on w*exp(w) - 1 = 0
    assert abs(lambert_w0(1.0) - 0.5671432904097838) <= 1e-14


def test_w_domain_error_below_branch_point():
    with pytest.raises(ValueError):
        lambert_w0(-0.5)


def test_w_residual_on_log_spaced_grid():
    xs = np.concatenate([
        np.linspace(NEG_INV_E + 1e-9, 0.5, 300, endpoint=False),
        np.geomspace(0.5, 1e6, 700),
    ])
    ws = [lambert_w0(float(x)) for x in xs]
    for x, w in zip(xs, ws):
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))
        assert w >= -1.0
    # strictly increasing along the grid
    assert all(b > a for a, b in zip(ws, ws[1:]))


def test_w_against_scipy_oracle():
    scipy_special = pytest.importorskip("scipy.special")
    # away from the branch point the w-values themselves must agree;
    # at the branch point w is ill-conditioned in x, so compare residuals
    xs = np.concatenate([
        np.linspace(-0.36, 1.0, 200),
        np.geomspace(1.0, 1e8, 200),
    ])
    ref = scipy_special.lambertw(xs).real
    got = np.array([lambert_w0(float(x)) for x in xs])
    assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) < 1e-12

    for x in np.linspace(NEG_INV_E + 1e-13, -0.36, 50):
        w = lambert_w0(float(x))
        r = float(scipy_special.lambertw(x).real)
        assert abs(w * math.exp(w) - x) <= 1e-12
        assert abs(w - r) <= 1e-6  # sqrt-type conditioning near -1/e


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=NEG_INV_E + 1e-12, max_value=1e6, allow_nan=False))
def test_w_identity_property(x):
    w = lambert_w0(x)
    assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))


# --------------------------------------------------------------- ShapeKernel

def test_kernel_peak_value_cubic_bspline():
    k = ShapeKernel(bandwidth=1.0)
    assert k.profile(0.0) == pytest.approx(4.0 / 3.0, abs=1e-15)


def test_kernel_compact_support():
    k = ShapeKernel(bandwidth=1.0)
    for u in (1.0, -1.0, 1.0001, -2.0, 7.5):
        assert k.profile(u) == 0.0


def test_kernel_nonnegative_and_unit_integral():
    k = ShapeKernel(bandwidth=1.0)
    u = np.linspace(-1.0, 1.0, 20001)
    vals = k.profile(u)
    assert np.all(vals >= 0.0)
    assert abs(np.trapezoid(vals, u) - 1.0) <= 1e-8


def test_kernel_bandwidth_scaling():
    # phi_eps(x) = phi(x/eps)/eps in one dimension
    k = ShapeKernel(bandwidth=0.1)
    assert k.scaled(0.0) == pytest.approx((4.0 / 3.0) / 0.1, rel=1e-14)
    assert k.scaled(0.05) == pytest.approx(k.profile(0.5) / 0.1, rel=1e-14)


def test_kernel_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ShapeKernel(bandwidth=0.0)
    with pytest.raises(ValueError):
        ShapeKernel(bandwidth=-0.1)


def test_kernel_density_single_atom_at_center():
    k = ShapeKernel(bandwidth=0.1)
    val = kernel_density([(0.5, 1.0)], k, 0.5)
    assert val == pytest.approx((4.0 / 3.0) / 0.1, rel=1e-12)


def test_kernel_density_outside_support_is_zero():
    k = ShapeKernel(bandwidth=0.1)
    assert kernel_density([(0.5, 1.0)], k, 0.9) == 0.0


def test_kernel_density_linearity():
    k = ShapeKernel(bandwidth=0.1)
    atoms = [(0.4, 0.5), (0.6, 0.5)]
    # query midway: symmetric offsets, so twice the single-atom value
    val = kernel_density(atoms, k, 0.5)
    single = kernel_density([(0.4, 0.5)], k, 0.5)
    assert val == pytest.approx(2.0 * single, rel=1e-12)


def test_kernel_density_empty_atom_list():
    k = ShapeKernel(bandwidth=0.1)
    assert kernel_density([], k, 0.3) == 0.0


def test_kernel_density_never_negative():
    k = ShapeKernel(bandwidth=0.07)
    rng = np.random.default_rng(5)
    atoms = [(float(x), float(w)) for x, w in zip(rng.uniform(0, 1, 40), rng.uniform(0, 0.02, 40))]
    for q in np.linspace(-0.2, 1.2, 101):
        assert kernel_density(atoms, k, float(q)) >= 0.0


def test_kernel_density_conserves_interior_mass():
    # atoms well inside the domain: quadrature recovers the total weight
    k = ShapeKernel(bandwidth=0.05)
    rng = np.random.default_rng(11)
    pos = rng.uniform(0.2, 0.8, 30)
    w = rng.uniform(0.0, 1.0 / 30.0, 30)
    grid = np.linspace(0.0, 1.0, 16385)
    dens = k.density(pos, w, grid)
    assert abs(np.trapezoid(dens, grid) - w.sum()) <= 1e-6


def test_kernel_density_grid_matches_pointwise():
    k = ShapeKernel(bandwidth=0.1)
    pos = np.array([0.3, 0.5, 0.55])
    w = np.array([0.2, 0.3, 0.1])
    grid = np.linspace(0.0, 1.0, 17)
    dens = k.density(pos, w, grid)
    atoms = list(zip(pos.tolist(), w.tolist()))
    for q, d in zip(grid, dens):
        assert d == pytest.approx(kernel_density(atoms, k, float(q)), abs=1e-14)


# ---------------------------------------------------------- weak-star metric

def _distance(nu1, nu2, k=METRIC_TERMS):
    # nu = (points, weights) with points as rows (x, alpha)
    exponents = monomial_exponents(2, k)
    moments = [monomial_moments(pts, w, exponents) for pts, w in (nu1, nu2)]
    return weak_star_distance_from_moments(*moments)


def test_monomial_ordering_graded():
    exps = monomial_exponents(2, 6)
    assert exps.tolist() == [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]


def test_weak_star_identical_measures():
    pts = np.array([[0.5, 0.1], [0.7, -0.1]])
    w = np.array([0.5, 0.5])
    assert _distance((pts, w), (pts, w)) == 0.0


def test_weak_star_symmetry():
    rng = np.random.default_rng(3)
    p1 = np.column_stack([rng.uniform(0, 1, 8), rng.uniform(-0.2, 0.2, 8)])
    p2 = np.column_stack([rng.uniform(0, 1, 5), rng.uniform(-0.2, 0.2, 5)])
    w1 = rng.uniform(0, 0.1, 8)
    w2 = rng.uniform(0, 0.1, 5)
    d12 = _distance((p1, w1), (p2, w2))
    d21 = _distance((p2, w2), (p1, w1))
    assert d12 == d21
    assert d12 > 0.0


def test_weak_star_three_term_hand_value():
    # one atom each at x=0.5 and x=0.6, both with alpha=0 and unit weight;
    # moments 1, x, alpha give I = (0, -0.1, 0), so d = (1/4)*0.1/1.1 = 1/44
    nu1 = (np.array([[0.5, 0.0]]), np.array([1.0]))
    nu2 = (np.array([[0.6, 0.0]]), np.array([1.0]))
    assert _distance(nu1, nu2, k=3) == pytest.approx(1.0 / 44.0, rel=1e-12)


def test_weak_star_triangle_inequality():
    rng = np.random.default_rng(17)
    for _ in range(50):
        measures = []
        for _ in range(3):
            n = int(rng.integers(1, 10))
            pts = np.column_stack([rng.uniform(0, 1, n), rng.uniform(-0.2, 0.2, n)])
            w = rng.uniform(0, 1.0 / n, n)
            measures.append((pts, w))
        a, b, c = measures
        dab = _distance(a, b)
        dbc = _distance(b, c)
        dac = _distance(a, c)
        assert dac <= dab + dbc + 1e-15


def test_weak_star_zero_iff_moments_match():
    # two different atom layouts with identical low-order moments still differ
    # at some order <= the truncation, so the distance is positive
    nu1 = (np.array([[0.2, 0.0], [0.8, 0.0]]), np.array([0.5, 0.5]))
    nu2 = (np.array([[0.5, 0.0]]), np.array([1.0]))  # same mass and mean
    assert _distance(nu1, nu2) > 0.0


def test_weak_star_test_function_bound():
    # |int h d(nu1-nu2)| <= a(1+2*delta(B))*||h||_inf * d_a + 2*a^-K
    # for a test function within the retained monomial span, with a = 2,
    # K = METRIC_TERMS and delta(B) the largest |z| over the box
    # [0, 1] x [-0.2, 0.2]. The bound is NOT universal for arbitrary bounded
    # h (see the counterexample test below), so the empirical check uses a
    # low-order h where it is provable.
    rng = np.random.default_rng(23)
    delta = math.hypot(1.0, 0.2)
    slack = 2.0 * 2.0 ** (-METRIC_TERMS)

    def h(pts):
        return 0.3 + 0.4 * pts[:, 0] + 0.2 * pts[:, 1]

    h_sup = 0.74  # exact sup over the box
    for _ in range(200):
        n1, n2 = rng.integers(1, 12, 2)
        nu1 = (np.column_stack([rng.uniform(0, 1, n1), rng.uniform(-0.2, 0.2, n1)]),
               rng.uniform(0, 1.0 / n1, n1))
        nu2 = (np.column_stack([rng.uniform(0, 1, n2), rng.uniform(-0.2, 0.2, n2)]),
               rng.uniform(0, 1.0 / n2, n2))
        lhs = abs(float(np.dot(nu1[1], h(nu1[0])) - np.dot(nu2[1], h(nu2[0]))))
        da = _distance(nu1, nu2)
        rhs = 2.0 * (1.0 + 2.0 * delta) * h_sup * da + slack
        assert lhs <= rhs + 1e-12


def test_weak_star_bound_fails_for_high_order_h():
    # documents the restriction above: two unit atoms far apart have a large
    # h-difference for a sign-flipping h while every retained monomial moment
    # difference saturates, keeping d_a small; the quantitative bound breaks
    delta = math.hypot(1.0, 0.2)
    nu1 = (np.array([[1.0, 0.0]]), np.array([1.0]))
    nu2 = (np.array([[0.0, 0.0]]), np.array([1.0]))
    # h with h(1,0) = 1, h(0,0) = -1, sup 1
    lhs = 2.0
    da = _distance(nu1, nu2)
    rhs = 2.0 * (1.0 + 2.0 * delta) * 1.0 * da + 2.0 * 2.0 ** (-METRIC_TERMS)
    assert lhs > rhs


def test_weak_star_rejects_bad_moment_vectors():
    with pytest.raises(ValueError):
        weak_star_distance_from_moments(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        weak_star_distance_from_moments(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        too_many = np.zeros(METRIC_TERMS + 1)
        weak_star_distance_from_moments(too_many, too_many)
