"""Concrete model definitions: evacuation and refinancing.

Both shipped models share one structural family, which is also the family the
engine's fast path exploits:

    drift(t, x, a; mu)      = state_gain(theta(mu)) * x + a
    lagrangian(t, x, a; mu) = state_cost(t, x, first_moment(mu))
                              + coupling_coef * a * theta(mu) + quad_weight * a^2

where first_moment(mu) is the raw integral of the position against the live
measure and theta(mu) its mean control. ``ModelSpec`` holds these pieces as
array hooks and constants, which are the only definition of a model's cost.
The coupling term integrates against a measure difference nu1 - nu2 to
coupling_coef * (theta(nu1) - theta(nu2))^2, so it is monotone exactly when
coupling_coef >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["ModelSpec", "evacuation_model", "refinancing_model"]


@dataclass(frozen=True)
class ModelSpec:
    """Everything the engine needs to simulate and cost one model.

    ``state_cost(t, xq, first_moment)`` prices query positions against the
    population's raw first moment and broadcasts like numpy arithmetic: a
    row of positions with a scalar moment, or an (m, G) block with an (m, 1)
    column of moments. ``state_gain`` maps the mean control to the
    multiplier on x in the drift. ``state_gain_is_zero`` declares it
    identically zero, and also sets where the sweep prices a candidate
    control: at its landing position when set, at the pre-step position
    otherwise. There is no terminal cost. A custom rate or state cost is a
    ``dataclasses.replace`` of a shipped model's hooks.
    """

    diffusion: float
    domain: tuple[float, float]
    quad_weight: float
    coupling_coef: float
    state_cost: Callable[[float, np.ndarray, object], np.ndarray]
    state_gain: Callable[[float], float]
    state_gain_is_zero: bool
    initial_density: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        if not (math.isfinite(self.diffusion) and self.diffusion >= 0.0):
            raise ValueError("diffusion must be finite and non-negative")
        if not self.domain[0] < self.domain[1]:
            raise ValueError("domain must be an open interval (lo, hi) with lo < hi")
        if self.quad_weight < 0.0:
            raise ValueError("quadratic control weight must be non-negative")


def _evacuation_initial_density(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.where((x > 0.5) & (x < 1.0), 2.0, 0.0)


def evacuation_model(
    *,
    eta: float = 4.0,
    beta: float = 1.0,
    eps: float = 0.5,
    softening: float = 0.2,
    domain: tuple[float, float] = (0.0, 1.0),
    sigma: float = 2.5e-9,
) -> ModelSpec:
    """Congestion-and-alignment evacuation.

    The running cost is eta / (|first_moment - x| + softening)
    + beta * a * theta + eps * a^2; the drift is the control a alone.
    """
    if eta < 0.0 or beta < 0.0 or eps < 0.0:
        raise ValueError("eta, beta, and eps must be non-negative")
    if not softening > 0.0:
        raise ValueError("softening must be positive")
    return ModelSpec(
        diffusion=sigma,
        domain=domain,
        quad_weight=eps,
        coupling_coef=beta,
        state_cost=lambda t, xq, fm: eta / (np.abs(fm - xq) + softening),
        state_gain=lambda th: 0.0,
        state_gain_is_zero=True,
        initial_density=_evacuation_initial_density,
    )


def _refinancing_initial_density(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.where((x > -0.5) & (x < 0.5), 1.0, 0.0)


def refinancing_model(
    *,
    m1: float = 0.1,
    eps: float = 0.5,
    domain: tuple[float, float] = (-1.0, 1.0),
    sigma: float = 2.5e-9,
) -> ModelSpec:
    """Debt refinancing with a mean-control-dependent rate of return.

    The running cost is (1 + x) / 2 + m1 * a * theta + eps * a^2; the drift
    is (1 + rho(theta)) * x + a with the affine rate rho(z) = 0.05 + z.
    """
    if m1 < 0.0:
        raise ValueError("m1 must be non-negative")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    return ModelSpec(
        diffusion=sigma,
        domain=domain,
        quad_weight=eps,
        coupling_coef=m1,
        state_cost=lambda t, xq, fm: (1.0 + xq) / 2.0,
        state_gain=lambda th: 1.0 + (0.05 + th),
        state_gain_is_zero=False,
        initial_density=_refinancing_initial_density,
    )
