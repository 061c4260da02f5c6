"""Empirical joint state-control measures and the checks built on them.

A population snapshot is a weighted atomic measure on state x control space
with total mass at most one; absorption only ever removes mass. Everything
here treats measures as immutable value objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MASS_TOL = 1e-12
BOUNDS_TOL = 1e-12


@dataclass(frozen=True)
class EmpiricalJointMeasure:
    """Atoms (x_k, alpha_k, w_k) of a sub-probability measure.

    domain and control_bounds are (lo, hi) pairs; every atom must lie in
    the closed boxes and the weights must be non-negative with total <= 1
    (up to MASS_TOL).
    """

    x: np.ndarray
    alpha: np.ndarray
    w: np.ndarray
    domain: tuple = (0.0, 1.0)
    control_bounds: tuple = (-0.2, 0.2)

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float).reshape(-1)
        a = np.asarray(self.alpha, dtype=float).reshape(-1)
        w = np.asarray(self.w, dtype=float).reshape(-1)
        if not (x.shape == a.shape == w.shape):
            raise ValueError("atom arrays must have matching lengths")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "w", w)
        if np.any(w < 0.0):
            raise ValueError("atom weights must be non-negative")
        if w.sum() > 1.0 + MASS_TOL:
            raise ValueError(f"total mass {w.sum()!r} exceeds 1")
        lo, hi = self.domain
        if x.size and (x.min() < lo - BOUNDS_TOL or x.max() > hi + BOUNDS_TOL):
            raise ValueError("atom positions outside the closed domain")
        clo, chi = self.control_bounds
        if a.size and (a.min() < clo - BOUNDS_TOL or a.max() > chi + BOUNDS_TOL):
            raise ValueError("atom controls outside the control set")

    @property
    def n_atoms(self) -> int:
        return self.x.size


def theta(nu: EmpiricalJointMeasure) -> float:
    """Mean control of the population, integrated against the raw measure.

    Deliberately not renormalized by the total mass: as agents exit, the
    remaining sub-probability measure carries less weight and the average
    strategy signal decays with it.
    """
    if nu.n_atoms == 0:
        return 0.0
    return float(np.dot(nu.w, nu.alpha))


def first_moment(nu: EmpiricalJointMeasure) -> float:
    """Un-normalized integral of the position against the measure."""
    if nu.n_atoms == 0:
        return 0.0
    return float(np.dot(nu.w, nu.x))


def monotonicity_check(lagrangian, nu1: EmpiricalJointMeasure, nu2: EmpiricalJointMeasure, t: float) -> float:
    """Signed integral of the Lagrangian increment against nu1 - nu2.

    Evaluates int (L(t, x, a; nu1) - L(t, x, a; nu2)) d(nu1 - nu2)(x, a)
    atom-wise over the union support. Lagrangians claimed monotone should
    make this non-negative (callers assert >= -1e-12).
    """

    def increment(xs, alphas):
        return np.array([
            lagrangian(t, x, a, nu1) - lagrangian(t, x, a, nu2)
            for x, a in zip(xs, alphas)
        ])

    value = 0.0
    if nu1.n_atoms:
        value += float(np.dot(nu1.w, increment(nu1.x, nu1.alpha)))
    if nu2.n_atoms:
        value -= float(np.dot(nu2.w, increment(nu2.x, nu2.alpha)))
    return value

