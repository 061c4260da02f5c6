"""Concrete model definitions: evacuation and refinancing.

Both shipped models share one structural family, which is also the family the
engine's fast path exploits:

    drift(t, x, a; mu)      = state_gain(theta(mu)) * x + a
    lagrangian(t, x, a; mu) = state_cost(t, x, first_moment(mu))
                              + coupling_coef * a * theta(mu) + quad_weight * a^2

where first_moment(mu) is the raw integral of the position against the live
measure and theta(mu) its mean control. ``ModelSpec`` carries the structured
pieces together with the scalar ``lagrangian`` closure that evaluates them
against an explicit measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .measures import EmpiricalJointMeasure, first_moment, theta

__all__ = [
    "ModelSpec",
    "EvacuationParams",
    "RefinancingParams",
    "evacuation_lagrangian",
    "refinancing_lagrangian",
    "evacuation_model",
    "refinancing_model",
]


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
    otherwise. There is no terminal cost.
    """

    name: str
    diffusion: float
    domain: tuple[float, float]
    control_bounds: tuple[float, float]
    quad_weight: float
    coupling_coef: float
    state_cost: Callable[[float, np.ndarray, object], np.ndarray]
    state_gain: Callable[[float], float]
    state_gain_is_zero: bool
    initial_density: Callable[[np.ndarray], np.ndarray]
    params: object

    def __post_init__(self) -> None:
        if not (math.isfinite(self.diffusion) and self.diffusion >= 0.0):
            raise ValueError("diffusion must be finite and non-negative")
        if not self.domain[0] < self.domain[1]:
            raise ValueError("domain must be an open interval (lo, hi) with lo < hi")
        if not self.control_bounds[0] < self.control_bounds[1]:
            raise ValueError("control bounds must satisfy lo < hi")
        if self.quad_weight < 0.0:
            raise ValueError("quadratic control weight must be non-negative")

    # -- measure-facing closures (the generic contract) ---------------------

    def lagrangian(
        self, t: float, x: float, alpha: float, mu: EmpiricalJointMeasure
    ) -> float:
        state = float(self.state_cost(t, np.asarray([x], dtype=float), first_moment(mu))[0])
        return state + self.interaction(t, x, alpha, mu) + self.quad_weight * alpha * alpha

    def interaction(
        self, t: float, x: float, alpha: float, mu: EmpiricalJointMeasure
    ) -> float:
        """The measure-coupled cost term alone (the monotone part)."""
        return self.coupling_coef * alpha * theta(mu)


# --------------------------------------------------------------------------
# evacuation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EvacuationParams:
    """Congestion-and-alignment cost.

    The running cost is eta / (|first_moment - x| + softening)
    + beta * a * theta + eps * a^2; the drift is the control a alone.
    """

    eta: float = 4.0
    beta: float = 1.0
    eps: float = 0.5
    softening: float = 0.2

    def __post_init__(self) -> None:
        if self.eta < 0.0 or self.beta < 0.0 or self.eps < 0.0:
            raise ValueError("eta, beta, and eps must be non-negative")
        if not self.softening > 0.0:
            raise ValueError("softening must be positive")


def _evac_state_cost(params: EvacuationParams, xq: np.ndarray, fm) -> np.ndarray:
    return params.eta / (np.abs(fm - xq) + params.softening)


def evacuation_lagrangian(
    t: float, x: float, alpha: float, mu: EmpiricalJointMeasure, params: EvacuationParams
) -> float:
    """Congestion around the population's first moment plus alignment and
    quadratic control costs."""
    xq = np.asarray([x], dtype=float)
    congestion = float(_evac_state_cost(params, xq, first_moment(mu))[0])
    return congestion + params.beta * alpha * theta(mu) + params.eps * alpha * alpha


def _evacuation_initial_density(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.where((x > 0.5) & (x < 1.0), 2.0, 0.0)


def evacuation_model(
    params: EvacuationParams | None = None,
    *,
    domain: tuple[float, float] = (0.0, 1.0),
    control_bounds: tuple[float, float] = (-0.2, 0.2),
    sigma: float = 2.5e-9,
) -> ModelSpec:
    """Bind evacuation parameters into the engine-facing model interface."""
    p = params if params is not None else EvacuationParams()
    return ModelSpec(
        name="evacuation",
        diffusion=sigma,
        domain=domain,
        control_bounds=control_bounds,
        quad_weight=p.eps,
        coupling_coef=p.beta,
        state_cost=lambda t, xq, fm: _evac_state_cost(p, xq, fm),
        state_gain=lambda th: 0.0,
        state_gain_is_zero=True,
        initial_density=_evacuation_initial_density,
        params=p,
    )


# --------------------------------------------------------------------------
# refinancing
# --------------------------------------------------------------------------


def _default_rate(z: float) -> float:
    return 0.05 + 1.0 * z


def _default_state_cost(t: float, x) -> np.ndarray:
    return 1.0 * (1.0 + np.asarray(x, dtype=float)) / 2.0


@dataclass(frozen=True)
class RefinancingParams:
    """Debt-refinancing cost with a mean-control-dependent rate of return.

    The running cost is ell(t, x) + M1 * a * theta + eps * a^2; the drift is
    (1 + rho(theta)) * x + a. ``rho`` defaults to the affine rate
    z -> 0.05 + z and ``ell`` to the increasing state cost (1 + x) / 2.
    """

    M1: float = 0.1
    eps: float = 0.5
    rho: Optional[Callable[[float], float]] = None
    ell: Optional[Callable[[float, np.ndarray], np.ndarray]] = None

    def __post_init__(self) -> None:
        if self.M1 < 0.0:
            raise ValueError("M1 must be non-negative")
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")
        if self.rho is None:
            object.__setattr__(self, "rho", _default_rate)
        if self.ell is None:
            object.__setattr__(self, "ell", _default_state_cost)


def refinancing_lagrangian(
    t: float, x: float, alpha: float, mu: EmpiricalJointMeasure, params: RefinancingParams
) -> float:
    """State cost plus mean-control alignment and quadratic control costs."""
    state = float(np.asarray(params.ell(t, np.asarray([x], dtype=float)), dtype=float).reshape(-1)[0])
    return state + params.M1 * alpha * theta(mu) + params.eps * alpha * alpha


def _refinancing_initial_density(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.where((x > -0.5) & (x < 0.5), 1.0, 0.0)


def refinancing_model(
    params: RefinancingParams | None = None,
    *,
    domain: tuple[float, float] = (-1.0, 1.0),
    control_bounds: tuple[float, float] = (-0.05, 0.05),
    sigma: float = 2.5e-9,
) -> ModelSpec:
    """Bind refinancing parameters into the engine-facing model interface."""
    p = params if params is not None else RefinancingParams()
    return ModelSpec(
        name="refinancing",
        diffusion=sigma,
        domain=domain,
        control_bounds=control_bounds,
        quad_weight=p.eps,
        coupling_coef=p.M1,
        state_cost=lambda t, xq, fm: np.asarray(p.ell(t, xq), dtype=float) * np.ones_like(xq),
        state_gain=lambda th: 1.0 + p.rho(th),
        state_gain_is_zero=False,
        initial_density=_refinancing_initial_density,
        params=p,
    )
