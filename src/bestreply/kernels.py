"""Numerical primitives shared by the rest of the package.

Three independent tools live here: the principal branch of the Lambert W
function (used by the closed-form exponential-cost control), compactly
supported shape kernels for reconstructing densities from particle atoms,
and a truncated weak-star metric over joint state-control measures that
serves as the convergence diagnostic of the sweep loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_NEG_INV_E = -math.exp(-1.0)
_BRANCH_GRACE = 5e-16


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function.

    Solves w*exp(w) = x for x >= -1/e, returning the branch with w >= -1.
    The initial guess is a regime-split series (square-root expansion near
    the branch point, log asymptotics for large x), refined by Halley
    iteration until the residual is below 1e-13 * max(1, |x|).

    Raises ValueError for x < -1/e, where no real value exists on this
    branch.
    """
    x = float(x)
    if math.isnan(x) or x < _NEG_INV_E - _BRANCH_GRACE:
        raise ValueError(f"lambert_w0 is real only for x >= -1/e, got {x!r}")
    if x == 0.0:
        return 0.0

    if x < -0.25:
        # branch-point expansion in p = sqrt(2*(e*x + 1))
        arg = 2.0 * (math.e * x + 1.0)
        p = math.sqrt(arg) if arg > 0.0 else 0.0
        w = -1.0 + p * (1.0 - p * (1.0 / 3.0 - (11.0 / 72.0) * p))
    elif x < 2.0:
        w = x / (1.0 + x)
    else:
        l1 = math.log(x)
        l2 = math.log(l1)
        w = l1 - l2 + l2 / l1

    for _ in range(50):
        e = math.exp(w)
        f = w * e - x
        wp1 = w + 1.0
        if f == 0.0 or wp1 <= 0.0:
            break
        # Halley update; the wp1 correction term is the second-order piece
        denom = e * wp1 - (w + 2.0) * f / (2.0 * wp1)
        step = f / denom
        w -= step
        if abs(step) <= 1e-16 * max(1.0, abs(w)):
            break
    w = max(w, -1.0)
    if abs(w * math.exp(w) - x) > 1e-12 * max(1.0, abs(x)):
        raise ArithmeticError(f"lambert_w0 failed to converge for x={x!r}")
    return w


# --------------------------------------------------------------------------
# shape kernels
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ShapeKernel:
    """Cubic B-spline kernel phi on [-1, 1] with unit integral, and its bandwidth.

    The scaled kernel is phi_eps(x) = phi(x/eps) / eps.
    """

    bandwidth: float = 0.02

    def __post_init__(self) -> None:
        if not self.bandwidth > 0.0:
            raise ValueError("kernel bandwidth must be positive")

    def profile(self, u):
        """Unscaled kernel phi evaluated at u (scalar or array)."""
        # cubic B-spline rescaled from its native [-2, 2] support onto [-1, 1]
        v = np.abs(2.0 * np.asarray(u, dtype=float))
        inner = (2.0 - v) ** 3 - 4.0 * (1.0 - v) ** 3
        outer = (2.0 - v) ** 3
        # (1/6) from the B-spline times the factor 2 rescale
        vals = np.where(v < 1.0, inner, np.where(v < 2.0, outer, 0.0)) / 3.0
        if np.ndim(u) == 0:
            return float(vals)
        return vals

    def scaled(self, x):
        """phi_eps(x) = phi(x/eps) / eps at displacement x (scalar or array)."""
        eps = self.bandwidth
        return self.profile(np.asarray(x, dtype=float) / eps) / eps

    def density(self, positions: np.ndarray, weights: np.ndarray, queries: np.ndarray) -> np.ndarray:
        """Vectorized density reconstruction at an array of query points.

        Each query's weighted kernel values are summed by numpy's pairwise
        reduction along the contiguous atom axis, not by BLAS, so the result
        does not depend on the BLAS library, its thread count or the CPU.
        """
        positions = np.asarray(positions, dtype=float)
        weights = np.asarray(weights, dtype=float)
        queries = np.asarray(queries, dtype=float)
        if positions.size == 0:
            return np.zeros_like(queries)
        vals = self.scaled(queries[:, None] - positions[None, :])
        vals *= weights
        return vals.sum(axis=1)


def kernel_density(atoms, kernel: ShapeKernel, query) -> float:
    """Density sum_k w_k * phi_eps(query - x_k) from weighted atoms.

    atoms is an iterable of (position, weight) pairs; an empty iterable
    gives 0. Weights must be non-negative for the result to be a density.
    This is the scalar reference for ShapeKernel.density.
    """
    total = 0.0
    for x, w in atoms:
        total += w * float(kernel.scaled(query - x))
    return total


# --------------------------------------------------------------------------
# truncated weak-star metric
# --------------------------------------------------------------------------

# The metric d(m1, m2) = sum_k 2^-k |I_k| / (1 + |I_k|) runs over
# the differences I_k of the first METRIC_TERMS raw monomial moments of two
# joint (state, control) measures, ordered by total degree with the constant
# function first; within a degree the leading variable's exponent descends.
# The value depends on this basis. The dropped tail is bounded by
# 2^(1 - METRIC_TERMS).
_METRIC_BASE = 2.0
METRIC_TERMS = 20


def monomial_exponents(n_vars: int, n_terms: int) -> np.ndarray:
    """First n_terms exponent tuples of the graded monomial basis."""
    rows: list[tuple[int, ...]] = []
    degree = 0
    while len(rows) < n_terms:
        rows.extend(_compositions(degree, n_vars))
        degree += 1
    return np.array(rows[:n_terms], dtype=np.int64)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def monomial_moments(points: np.ndarray, weights: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """integral of each basis monomial against the atomic measure."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    weights = np.asarray(weights, dtype=float)
    out = np.empty(len(exponents))
    for i, expo in enumerate(exponents):
        vals = weights.copy()
        for j, e in enumerate(expo):
            if e:
                vals *= points[:, j] ** int(e)
        out[i] = vals.sum()
    return out


def weak_star_distance_from_moments(m1: np.ndarray, m2: np.ndarray) -> float:
    """Truncated weak-star distance between two graded moment vectors.

    The vectors hold the first (at most METRIC_TERMS) moments of the graded
    basis, as engine.graded_joint_moments or monomial_moments compute them.
    """
    m1 = np.asarray(m1, dtype=float)
    m2 = np.asarray(m2, dtype=float)
    if m1.shape != m2.shape or m1.ndim != 1 or m1.size > METRIC_TERMS:
        raise ValueError("moment vectors must share one shape within METRIC_TERMS")
    diff = np.abs(m1 - m2)
    weights = _METRIC_BASE ** (-np.arange(1, diff.size + 1, dtype=float))
    return float(np.sum(weights * diff / (1.0 + diff)))
