"""Discrete best responses, feedback-control formulas, and contraction checks.

This module owns everything about the control side of the solver: the finite
control grids the particle scheme searches over, closed-form feedback laws
for the linear and exponential interaction couplings, and the parameter
gates that certify the best-reply iteration is a contraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernels import lambert_w0

__all__ = [
    "ControlGrid",
    "ControlParams",
    "GateReport",
    "ControlCrossCheck",
    "linear_control_closed_loop",
    "solve_alignment_equation",
    "exponential_control_closed_form",
    "cross_check_exponential_control",
    "validate_parameters",
]


# --------------------------------------------------------------------------
# control grids
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ControlGrid:
    """A finite, strictly increasing set of admissible control values."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float).reshape(-1)
        object.__setattr__(self, "points", pts)
        if pts.size < 2:
            raise ValueError("control grid needs at least 2 points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("control grid points must be finite")
        if not np.all(np.diff(pts) > 0.0):
            raise ValueError("control grid points must be strictly increasing")

    @classmethod
    def uniform(cls, lo: float, hi: float, n_points: int) -> "ControlGrid":
        """Evenly spaced grid containing both endpoints."""
        if n_points < 2:
            raise ValueError("a uniform control grid needs at least 2 points")
        if not (hi > lo):
            raise ValueError("control grid upper bound must exceed lower bound")
        return cls(points=np.linspace(lo, hi, n_points))

    @property
    def lo(self) -> float:
        return float(self.points[0])

    @property
    def hi(self) -> float:
        return float(self.points[-1])

    @property
    def n_points(self) -> int:
        return int(self.points.size)

    def subset(self, indices) -> "ControlGrid":
        """Grid restricted to the given indices (order preserved)."""
        return ControlGrid(points=self.points[np.asarray(indices)])

    def nearest(self, values: np.ndarray) -> np.ndarray:
        """Closest grid point to each value, ties toward the lower control."""
        values = np.asarray(values, dtype=float)
        pos = np.searchsorted(self.points, values)
        below = self.points[np.maximum(pos - 1, 0)]
        above = self.points[np.minimum(pos, self.points.size - 1)]
        return np.where(values - below <= above - values, below, above)


@dataclass(frozen=True)
class ControlParams:
    """Coupling and regularity constants shared by the feedback laws.

    M1 scales the interaction coupling, M2 is the exponential rate of the
    nonlinear coupling, eps is the quadratic control penalty, and M bounds
    both the state domain radius and the admissible control magnitude.
    """

    M1: float
    M2: float
    eps: float
    M: float

    def __post_init__(self) -> None:
        for name in ("M1", "M2", "eps", "M"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.M1 < 0.0:
            raise ValueError("M1 must be non-negative")
        if self.eps <= 0.0:
            raise ValueError("eps must be positive")
        if self.M <= 0.0:
            raise ValueError("M must be positive")


# --------------------------------------------------------------------------
# linear coupling: explicit feedback law
# --------------------------------------------------------------------------


def linear_control_closed_loop(
    entries: Sequence[tuple[float, float, float]], m1: float
) -> list[tuple[float, float]]:
    """Self-consistent linear feedback over a weighted population.

    ``entries`` holds (state, adjoint value, weight) triples. Averaging the
    pointwise law alpha = -p - m1*theta over the population and solving for
    the induced mean control theta gives
    alpha(x) = -p(x) + m1 * sum(w*p) / (1 + m1 * mass); the total mass may be
    below one, in which case the interaction is correspondingly weaker.
    """
    if m1 < 0.0:
        raise ValueError("m1 must be non-negative")
    mass = 0.0
    p_bar = 0.0
    for _, p, w in entries:
        if w < 0.0:
            raise ValueError("weights must be non-negative")
        mass += w
        p_bar += w * p
    gain = m1 * p_bar / (1.0 + m1 * mass)
    return [(x, -p + gain) for x, p, _ in entries]


# --------------------------------------------------------------------------
# exponential coupling: scalar reduction and root solve
# --------------------------------------------------------------------------


def _exp_capped(t: float) -> float:
    return math.inf if t > 700.0 else math.exp(t)


def _solve_scalar_alignment(pq: float, q2: float, a: float, b: float) -> float:
    """Root of g(s) = s + pq + a*exp(b*s)*q2.

    For a*b >= 0 the map is strictly increasing and the root is unique. For
    a*b < 0 the map has one interior extremum; when roots exist the one on the
    decreasing-|s| side of the extremum closest to -inf is returned, and a
    ValueError is raised when no sign change can be bracketed.
    """

    def g(s: float) -> float:
        return s + pq + a * _exp_capped(b * s) * q2

    def gp(s: float) -> float:
        return 1.0 + a * b * _exp_capped(b * s) * q2

    if a * b >= 0.0:
        s0 = -pq
        f0 = g(s0)
        if f0 == 0.0:
            return s0
        step = 1.0
        if f0 > 0.0:
            hi, lo = s0, s0 - step
            for _ in range(200):
                if g(lo) <= 0.0:
                    break
                step *= 2.0
                lo -= step
            else:
                raise ValueError("alignment equation: failed to bracket a root")
        else:
            lo, hi = s0, s0 + step
            for _ in range(200):
                if g(hi) >= 0.0:
                    break
                step *= 2.0
                hi += step
            else:
                raise ValueError("alignment equation: failed to bracket a root")
    else:
        # one extremum at s_ext; a root exists on the left branch iff the
        # extremal value and the s -> -inf limit have opposite signs
        s_ext = math.log(-1.0 / (a * b * q2)) / b
        f_ext = g(s_ext)
        if f_ext == 0.0:
            return s_ext
        left_limit_sign = 1.0 if a > 0.0 else -1.0  # sign of g near -inf
        if (f_ext > 0.0) == (left_limit_sign > 0.0):
            raise ValueError(
                "alignment equation has no root for these coefficients"
            )
        hi = s_ext
        step = 1.0
        lo = s_ext - step
        for _ in range(200):
            if (g(lo) > 0.0) != (f_ext > 0.0):
                break
            step *= 2.0
            lo -= step
        else:
            raise ValueError("alignment equation: failed to bracket a root")

    f_lo = g(lo)
    if f_lo == 0.0:
        return lo
    s = 0.5 * (lo + hi)
    for _ in range(300):
        f = g(s)
        if f == 0.0:
            return s
        if (f < 0.0) == (f_lo < 0.0):
            lo = s
        else:
            hi = s
        if hi - lo <= 1e-16 * max(1.0, abs(lo), abs(hi)):
            break
        d = gp(s)
        s_next = s - f / d if (d != 0.0 and math.isfinite(d)) else 0.5 * (lo + hi)
        if not (lo < s_next < hi):
            s_next = 0.5 * (lo + hi)
        s = s_next
    return 0.5 * (lo + hi)


def _as_vectors(p, q) -> tuple[np.ndarray, np.ndarray, bool]:
    scalar = np.ndim(p) == 0 and np.ndim(q) == 0
    p_arr = np.atleast_1d(np.asarray(p, dtype=float))
    q_arr = np.atleast_1d(np.asarray(q, dtype=float))
    if p_arr.ndim != 1 or p_arr.shape != q_arr.shape:
        raise ValueError("p and q must be vectors of matching length")
    if not (np.all(np.isfinite(p_arr)) and np.all(np.isfinite(q_arr))):
        raise ValueError("p and q must be finite")
    return p_arr, q_arr, scalar


def solve_alignment_equation(p, q, a: float, b: float):
    """Solve p + alpha + a*exp(b*(alpha.q))*q = 0 for the control alpha.

    Taking the inner product with q reduces the vector equation to a scalar
    root problem in s = alpha.q, solved by safeguarded Newton/bisection; the
    control is then recovered as alpha = -p - a*exp(b*s)*q. This numerical
    route is authoritative: closed-form candidates are checked against it.
    """
    p_arr, q_arr, scalar = _as_vectors(p, q)
    q2 = float(q_arr @ q_arr)
    if a == 0.0 or q2 == 0.0:
        out = -p_arr
    elif b == 0.0:
        out = -p_arr - a * q_arr
    else:
        pq = float(p_arr @ q_arr)
        s_star = _solve_scalar_alignment(pq, q2, a, b)
        out = -p_arr - a * math.exp(b * s_star) * q_arr
    return float(out[0]) if scalar else out


def exponential_control_closed_form(p, q, m1: float, m2: float):
    """Closed-form candidate for the exponential-coupling best response.

    Evaluates the explicit product-log expression
    alpha = -p - a*exp(b*W(a*b*|q|^2*(p.q)*exp(-b*(p.q))))*q with a = m1*m2
    and b = m2, where W is the principal Lambert branch. Use
    cross_check_exponential_control to compare it against the root solver,
    which is authoritative whenever the two disagree. Raises ValueError when
    the W argument falls outside the principal branch.
    """
    p_arr, q_arr, scalar = _as_vectors(p, q)
    a = m1 * m2
    b = m2
    q2 = float(q_arr @ q_arr)
    if a == 0.0 or q2 == 0.0:
        out = -p_arr
    else:
        pq = float(p_arr @ q_arr)
        w = lambert_w0(a * b * q2 * pq * math.exp(-b * pq))
        out = -p_arr - a * math.exp(b * w) * q_arr
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class ControlCrossCheck:
    """Side-by-side result of the root solver and the closed-form candidate."""

    solver: np.ndarray
    closed_form: np.ndarray
    max_gap: float
    agrees: bool


def cross_check_exponential_control(
    p, q, m1: float, m2: float, tol: float = 1e-8
) -> ControlCrossCheck:
    """Compare the alignment-equation solver with the closed-form candidate.

    The solver output is always the authoritative control. The closed form is
    evaluated alongside it; any gap beyond ``tol`` (or a domain failure in the
    closed form, reported as NaN) is flagged via ``agrees=False``.
    """
    p_arr, q_arr, _ = _as_vectors(p, q)
    solver = np.atleast_1d(solve_alignment_equation(p_arr, q_arr, m1 * m2, m2))
    try:
        closed = np.atleast_1d(exponential_control_closed_form(p_arr, q_arr, m1, m2))
        max_gap = float(np.max(np.abs(solver - closed)))
    except ValueError:
        closed = np.full_like(solver, math.nan)
        max_gap = math.nan
    agrees = math.isfinite(max_gap) and max_gap <= tol
    return ControlCrossCheck(solver=solver, closed_form=closed, max_gap=max_gap, agrees=agrees)


# --------------------------------------------------------------------------
# contraction gates
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GateReport:
    """Outcome of the best-reply contraction checks.

    ``violations`` holds the short ids of failed gates ("a", "b", "c", "L")
    and ``reasons`` the matching human-readable messages. ``margin`` is the
    slack 2*eps - 6M^3 - 9M^2 - 3M that every other gate leans on;
    ``lipschitz_constant`` is the best-reply Lipschitz bound
    1/(2*eps - Lip(phi')*M^2) and must stay below ``lipschitz_bound``.
    """

    passed: bool
    violations: tuple[str, ...]
    reasons: tuple[str, ...]
    margin: float
    lipschitz_constant: float
    lipschitz_bound: float


def validate_parameters(
    params: ControlParams, lip_phi_prime: float, sup_phi_prime: float
) -> GateReport:
    """Check the sufficient conditions for the best-reply map to contract.

    ``lip_phi_prime`` and ``sup_phi_prime`` are the Lipschitz constant and the
    sup norm of the derivative of the interaction coupling; both must be
    non-negative. The gates are evaluated as pure inequalities on the given
    numbers; nothing is rescaled or clipped.
    """
    if not math.isfinite(lip_phi_prime) or lip_phi_prime < 0.0:
        raise ValueError("lip_phi_prime must be finite and non-negative")
    if not math.isfinite(sup_phi_prime) or sup_phi_prime < 0.0:
        raise ValueError("sup_phi_prime must be finite and non-negative")

    m = params.M
    eps = params.eps
    margin = 2.0 * eps - 6.0 * m**3 - 9.0 * m**2 - 3.0 * m
    denom = 2.0 * eps - lip_phi_prime * m * m
    bound = 1.0 / ((3.0 + 3.0 * m) * (1.0 + 2.0 * m) * m)
    lipschitz = math.inf if denom <= 0.0 else 1.0 / denom

    violations: list[str] = []
    reasons: list[str] = []
    if not (margin > 0.0 and 2.0 * eps <= 1.0):
        violations.append("a")
        reasons.append(
            f"need 0 < 2*eps - 6M^3 - 9M^2 - 3M <= 2*eps <= 1; "
            f"margin={margin:.6g}, 2*eps={2.0 * eps:.6g}"
        )
    if not (lip_phi_prime * m * m < margin):
        violations.append("b")
        reasons.append(
            f"need Lip(phi')*M^2 < margin; "
            f"Lip(phi')*M^2={lip_phi_prime * m * m:.6g}, margin={margin:.6g}"
        )
    if not (sup_phi_prime <= denom):
        violations.append("c")
        reasons.append(
            f"need sup|phi'| <= 2*eps - Lip(phi')*M^2; "
            f"sup|phi'|={sup_phi_prime:.6g}, available={denom:.6g}"
        )
    if not (lipschitz < bound):
        violations.append("L")
        reasons.append(
            f"need 1/(2*eps - Lip(phi')*M^2) < 1/((3+3M)(1+2M)M); "
            f"constant={lipschitz:.6g}, bound={bound:.6g}"
        )
    return GateReport(
        passed=not violations,
        violations=tuple(violations),
        reasons=tuple(reasons),
        margin=margin,
        lipschitz_constant=lipschitz,
        lipschitz_bound=bound,
    )
