"""Sharp tail estimate assembly and characteristic-function diagnostics.

The prefactor-exact approximation of the conditional upper tail is

    P(S_n >= a n | W)  ~=  exp(-n I_n(a)) / (theta_n sigma_n sqrt(2 pi n)),

assembled here from a solved :class:`~sharptail.saddle.SaddleSolution`.  All
probabilities are carried in log space; n * I_n routinely exceeds the linear
float range.

``check_conditions`` reports finite-n statistics for the three sufficient
conditions behind the approximation: growth of theta_n * sqrt(n), positive
tilted variance, and decay of the conditional characteristic function of the
tilted sum (Chaganty and Sethuraman 1993),

    sqrt(n) * sup_t  prod_j |E_{W_j theta} exp(i W_j t Z)|
        = sqrt(n) * sup_t  prod_j |M(W_j(theta + i t)) / M(W_j theta)|,

over a grid spanning [delta1, delta2 * theta_n], with j running over the
positions of every segment.  When delta2 * theta_n < delta1 that range is
empty and no sup is reported.  These are diagnostics, not certificates: the
limit statements they probe are asymptotic, so degenerate values (e.g. a
lattice environment where the ratio stays at 1) are reported as data rather
than raised as errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PrefactorDegenerate
from .numerics import csum
from .saddle import SaddleSolution, Segment, total_n

__all__ = [
    "ConditionReport",
    "TailEstimate",
    "check_conditions",
    "sldp_estimate",
    "METHOD_SLDP",
    "METHOD_TILTED",
    "METHOD_NAIVE",
    "METHOD_EXACT",
    "DEFAULT_DELTA1",
    "DEFAULT_DELTA2",
    "DEFAULT_GRID_COUNT",
]

METHOD_SLDP = "sldp_analytic"
METHOD_TILTED = "tilted_mc"
METHOD_NAIVE = "naive_mc"
METHOD_EXACT = "exact_enum"

# diagnostic grid defaults; artifact choices, echoed in every report
DEFAULT_DELTA1 = 0.05
DEFAULT_DELTA2 = 1.0
DEFAULT_GRID_COUNT = 512

_LOG_TINY = math.log(1e-300)

# characteristic-function products are evaluated in j-chunks of fixed size,
# counted from the start of each segment, so the reduction order (and hence
# the result) never depends on memory limits
_CF_CHUNK = 4096


@dataclass(frozen=True)
class TailEstimate:
    """A tail probability with its provenance.

    ``log_value`` is always populated; ``value`` is its exponential when that
    is representable and 0.0 otherwise.  ``stderr`` is present for the Monte
    Carlo methods, except below the draw floor for it and when tilted MC's
    ``value`` underflows to 0.0 (flagged ``"p_underflow"``).  ``hits`` counts
    indicator hits for Monte Carlo runs; ``warnings`` carries quality flags
    such as ``"insufficient_hits"``.
    """

    value: float
    log_value: float
    method: str
    n: int
    a: float
    stderr: float | None = None
    hits: int | None = None
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class ConditionReport:
    """Finite-n statistics for the three approximation conditions.

    theta_sqrt_n -- theta_n * sqrt(n); should grow like sqrt(n)
    sigma2       -- tilted variance; should stay bounded away from 0
    cf_sup       -- sqrt(n) * sup over the t-grid of the CF-ratio product;
                    None when the range [delta1, delta2 * theta_n] is empty
    t_grid       -- (delta1, delta2, count) that generated the grid
    """

    theta_sqrt_n: float
    sigma2: float
    cf_sup: float | None
    t_grid: tuple[float, float, int]


def sldp_estimate(sol: SaddleSolution, n: int) -> TailEstimate:
    """Assemble the prefactor-exact tail approximation from a solved saddle.

    Raises :class:`PrefactorDegenerate` when theta <= 0 or sigma2 <= 0 (the
    threshold sat at the conditional mean, where the 1/theta prefactor blows
    up).  Near-mean thresholds can push the raw formula above 1; the result
    is capped there since it estimates a probability.

    This is the leading term only: at finite n its relative error is O(1/n),
    with leading term

        c1 = (lambda4/8 - 5 lambda3^2/24 - lambda3/(2u) - 1/u^2) / n,

    where u = theta sigma and lambda3, lambda4 are the standardized tilted
    cumulants k3/k2^(3/2) and k4/k2^2 of the averaged summand (Bahadur and
    Rao 1960; Chaganty and Sethuraman 1993).  For Gaussian summands c1 is
    the Mills-ratio term -1/(u^2 n), so the estimate sits slightly above the
    true tail.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if sol.theta <= 0.0 or sol.sigma2 <= 0.0:
        raise PrefactorDegenerate(
            f"prefactor undefined: theta = {sol.theta:.6g}, sigma2 = {sol.sigma2:.6g}"
        )
    log_value = (
        -n * sol.rate
        - math.log(sol.theta)
        - 0.5 * math.log(sol.sigma2)
        - 0.5 * math.log(2.0 * math.pi * n)
    )
    log_value = min(log_value, 0.0)
    value = math.exp(log_value) if log_value > _LOG_TINY else 0.0
    return TailEstimate(value=value, log_value=log_value, method=METHOD_SLDP,
                        n=n, a=sol.a)


def check_conditions(
    segments: list[Segment],
    sol: SaddleSolution,
    delta1: float = DEFAULT_DELTA1,
    delta2: float = DEFAULT_DELTA2,
    grid_count: int = DEFAULT_GRID_COUNT,
) -> ConditionReport:
    """Evaluate the condition statistics on a uniform t-grid.

    The grid runs from delta1 to delta2 * theta_n inclusive, so both
    endpoints of the sup range are always probed.  The product over j is
    accumulated in log space from the models' closed-form tilted CF modulus
    ``log_abs_tilted_cf(W_j theta, W_j t)``: for Binomial(m, p) summands
    (m/2) log1p(-4 q_j(1-q_j) sin^2(W_j t / 2)) with q_j the tilted success
    probability, and -sigma2 W_j^2 t^2 / 2 for Gaussian ones.  Each j-chunk
    is built in one real (chunk, grid_count) buffer updated in place, and
    the chunk sums of all segments are added exactly per grid point.
    """
    if not 0.0 < delta1 < delta2:
        raise ValueError(f"need 0 < delta1 < delta2, got ({delta1}, {delta2})")
    if grid_count < 16:
        raise ValueError(f"grid_count must be >= 16, got {grid_count}")
    theta = sol.theta
    n = total_n(segments)
    cf_sup = None
    if delta2 * theta >= delta1:  # else the sup range is empty
        t_grid = np.linspace(delta1, delta2 * theta, grid_count)
        buf = np.empty((min(n, _CF_CHUNK), grid_count))
        chunk_sums = []
        for seg in segments:
            for start in range(0, seg.weights.size, _CF_CHUNK):
                wj = seg.weights[start:start + _CF_CHUNK, None]
                y = np.multiply(wj, t_grid, out=buf[:wj.shape[0]])
                seg.cm.log_abs_tilted_cf(wj * theta, y, out=y)
                chunk_sums.append(np.sum(y, axis=0))
        log_prod = np.array([csum(col) for col in np.stack(chunk_sums, axis=1)])
        # each factor has modulus <= 1; clip roundoff drift above 0
        log_sup = float(np.minimum(log_prod, 0.0).max())
        cf_sup = math.sqrt(n) * math.exp(log_sup)
    return ConditionReport(
        theta_sqrt_n=theta * math.sqrt(n),
        sigma2=sol.sigma2,
        cf_sup=cf_sup,
        t_grid=(delta1, delta2, grid_count),
    )
