"""Test-side monotonicity integral over atomic (state, control) measures.

A measure is an ``(x, alpha, w)`` triple of atom arrays with total weight at
most one. The running cost is the one the engine prices through a model's
array hooks: state_cost(t, x, first_moment) + coupling_coef * a * theta
+ quad_weight * a^2, with first_moment = sum(w * x) and theta = sum(w * alpha)
taken raw, not renormalized by the mass.
"""

import numpy as np


def random_atoms(rng, domain, control_bounds):
    """2-11 atoms spread over the boxes, with total weight in [0.3, 1)."""
    n = int(rng.integers(2, 12))
    x = rng.uniform(domain[0], domain[1], n)
    alpha = rng.uniform(control_bounds[0], control_bounds[1], n)
    w = rng.uniform(0.1, 1.0, n)
    w = w / w.sum() * rng.uniform(0.3, 1.0)
    return x, alpha, w


def monotonicity_integral(model, nu1, nu2, *, state_cost=True):
    """Signed integral of L(0, ., .; nu1) - L(0, ., .; nu2) against nu1 - nu2.

    The quadratic control term carries no measure and cancels. With
    ``state_cost=False`` only the coupling term is integrated, whose value
    is coupling_coef * (theta1 - theta2)^2.
    """
    (x1, a1, w1), (x2, a2, w2) = nu1, nu2
    d_theta = np.dot(w1, a1) - np.dot(w2, a2)

    def increment(x, alpha):
        value = model.coupling_coef * alpha * d_theta
        if state_cost:
            value = value + (
                model.state_cost(0.0, x, np.dot(w1, x1)) - model.state_cost(0.0, x, np.dot(w2, x2))
            )
        return value

    return float(np.dot(w1, increment(x1, a1)) - np.dot(w2, increment(x2, a2)))
