"""The empirical CGF kernel, its deterministic limit, and saddle-point solves.

For a fixed environment the scaled log-MGF of the weighted sum is
psi_n(t) = (1/n) sum_j f_j(W_j t); its limit under the weight law is
g(t) = E[f(W t)].  Both are strictly convex, and their derivatives of order
k = 0, 1, 2 average one and the same term, :func:`terms`: f(W t), W f'(W t)
or W^2 f''(W t), over the realized weights (:func:`psi_sum`) or over the
weight law (:class:`DeterministicCurves`, which also holds the interval J).

The positions come in :class:`Segment` runs that share one summand model
f_j, so the non-identically distributed case (Chaganty and Sethuraman 1993)
is the general form and a single-model environment is one segment.
:func:`psi_sum` is the one kernel behind every psi_n value: one exactly
rounded sum over the concatenated terms of all segments, so a value depends
only on the multiset of (weight, model) positions, never on the layout.

The tail threshold a is admissible when psi_n'(0) < a, and the solver finds
the unique root of psi_n'(t) = a by safeguarded Newton iteration (bisection
fallback whenever the Newton step leaves the current bracket or stops making
progress).  Convergence is declared on the residual |psi_n'(t) - a|, which
is the quantity that enters the downstream tail formulas, not on step size.

The same machinery solves the deterministic analogue g'(t) = a.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cgf import CumulantModel
from .errors import EmptyInterval, NonConvergence, OutOfRange
from .numerics import csum
from .weights import WeightModel

__all__ = [
    "DeterministicCurves",
    "SaddleSolution",
    "Segment",
    "psi_sum",
    "solve_psi_root",
    "solve_saddle",
    "solve_deterministic",
    "terms",
    "total_n",
]

RESIDUAL_TOL = 1e-12
MAX_ITER = 200
BRACKET_DOUBLINGS = 6


@dataclass(frozen=True)
class SaddleSolution:
    """Root of the empirical saddle equation and derived quantities.

    theta    -- saddle point, psi_n'(theta) = a up to ``residual``
    rate     -- Legendre value a*theta - psi_n(theta), >= 0
    sigma2   -- curvature psi_n''(theta), the tilted variance of the summand
    a        -- the threshold the equation was solved for
    """

    theta: float
    rate: float
    sigma2: float
    iterations: int
    residual: float
    a: float


@dataclass(frozen=True)
class Segment:
    """A run of positions with common summand model."""

    weights: np.ndarray
    cm: CumulantModel


def total_n(segments: list[Segment]) -> int:
    return int(sum(seg.weights.size for seg in segments))


def terms(cm: CumulantModel, w, theta: float, order: int):
    """f(W theta), W f'(W theta) or W^2 f''(W theta) for order 0, 1 or 2."""
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    x = w * theta
    if order == 0:
        return cm.f(x)
    if order == 1:
        return w * cm.f1(x)
    return w * w * cm.f2(x)


def psi_sum(segments: list[Segment], theta: float, order: int) -> float:
    """Exactly rounded sum of :func:`terms` at theta over all positions.

    Not divided by n: tilted MC uses the order-0 sum as its log normaliser,
    and dividing then multiplying back would change bits.
    """
    return csum(np.concatenate([np.atleast_1d(terms(seg.cm, seg.weights, theta, order))
                                for seg in segments]))


class DeterministicCurves:
    """g and its derivatives, and J = (E[W] E[Z], g'(theta_star))."""

    def __init__(self, wm: WeightModel, cm: CumulantModel, theta_star: float):
        if not theta_star > 0:
            raise ValueError(f"theta_star must be positive, got {theta_star}")
        self.wm = wm
        self.cm = cm
        self.theta_star = float(theta_star)
        j_lo = wm.moment(1) * cm.mean
        j_hi = self.psi(self.theta_star, 1)
        if not j_hi > j_lo:
            raise EmptyInterval(f"J = ({j_lo:.6g}, {j_hi:.6g}) is empty; increase theta_star")
        self.J = (j_lo, j_hi)

    def psi(self, theta: float, order: int) -> float:
        """E[terms(W, theta, order)]: g and its first two derivatives."""
        return self.wm.expect(lambda w: terms(self.cm, w, theta, order))

    def contains(self, a: float) -> bool:
        """True when a lies strictly inside J."""
        return self.J[0] < a < self.J[1]

    def grid(self, count: int) -> np.ndarray:
        """``count`` equally spaced thresholds strictly inside J."""
        lo, hi = self.J
        return lo + (hi - lo) * (np.arange(1, count + 1) / (count + 1))


def _newton_bisect(
    fun: Callable[[float], float],
    dfun: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
    tol: float,
    x0: float | None = None,
) -> tuple[float, int, float]:
    """Root of fun(x) = target for increasing fun with fun(lo) <= target <= fun(hi)."""
    x = x0 if x0 is not None and lo < x0 < hi else 0.5 * (lo + hi)
    fx = fun(x) - target
    step_old = hi - lo
    for it in range(1, MAX_ITER + 1):
        if abs(fx) <= tol:
            return x, it, abs(fx)
        if fx < 0.0:
            lo = x
        else:
            hi = x
        d = dfun(x)
        newton_ok = d > 0.0 and abs(2.0 * fx) <= abs(step_old * d)
        if newton_ok:
            step = fx / d
            x_new = x - step
            newton_ok = lo < x_new < hi
        if newton_ok:
            step_old = abs(step)
            x = x_new
        else:
            step_old = 0.5 * (hi - lo)
            x = lo + step_old
        fx = fun(x) - target
    raise NonConvergence(
        f"no root with residual <= {tol:g} after {MAX_ITER} iterations"
    )


def solve_psi_root(
    psi: Callable[[float, int], float],
    a: float,
    theta_star: float,
    x0: float | None = None,
) -> SaddleSolution:
    """Solve psi'(theta) = a for any strictly convex psi(theta, order) triple.

    The bracket starts at [0, theta_star] and doubles its right endpoint up
    to 2**6 * theta_star before giving up with :class:`OutOfRange`.  ``x0``
    warm-starts the Newton iteration when it falls inside the bracket.
    """
    if not theta_star > 0:
        raise ValueError(f"theta_star must be positive, got {theta_star}")
    tol = RESIDUAL_TOL * max(1.0, abs(a))
    slope0 = psi(0.0, 1)
    if a < slope0:
        raise OutOfRange(
            f"threshold a = {a:.6g} below the mean map at zero ({slope0:.6g})"
        )
    if a == slope0:
        return SaddleSolution(theta=0.0, rate=0.0, sigma2=psi(0.0, 2),
                              iterations=0, residual=0.0, a=a)
    hi = theta_star
    cap = theta_star * 2**BRACKET_DOUBLINGS
    while psi(hi, 1) < a:
        hi *= 2.0
        if hi > cap:
            raise OutOfRange(
                f"threshold a = {a:.6g} above the mean map at the bracket cap "
                f"{cap:g} (= 2^{BRACKET_DOUBLINGS} * theta_star)"
            )
    theta, iters, residual = _newton_bisect(
        lambda t: psi(t, 1), lambda t: psi(t, 2), a, 0.0, hi, tol, x0
    )
    rate = a * theta - psi(theta, 0)
    sigma2 = psi(theta, 2)
    return SaddleSolution(theta=theta, rate=rate, sigma2=sigma2,
                          iterations=iters, residual=residual, a=a)


def solve_saddle(segments: list[Segment], a: float, theta_star: float,
                 x0: float | None = None) -> SaddleSolution:
    """Saddle point, rate and curvature of psi_n for one threshold."""
    n = total_n(segments)
    return solve_psi_root(
        lambda t, order: psi_sum(segments, t, order) / n, a, theta_star, x0
    )


def solve_deterministic(curves: DeterministicCurves, a: float) -> tuple[float, float]:
    """Solve g'(theta) = a for a strictly inside J; returns (theta, I(a))."""
    if not curves.contains(a):
        raise OutOfRange(
            f"a = {a:.6g} outside the open interval J = ({curves.J[0]:.6g}, {curves.J[1]:.6g})"
        )
    sol = solve_psi_root(curves.psi, a, curves.theta_star)
    return sol.theta, sol.rate
