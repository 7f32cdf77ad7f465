"""Replica studies of the fluctuating rate function.

With theta(a) solving g'(theta) = a, the centered, sqrt(n)-scaled deviations
of the empirical curves from their deterministic limits,

    X  = sqrt(n) (psi_n(theta(a))   - g(theta(a)))
    X1 = sqrt(n) (psi_n'(theta(a))  - g1(theta(a)))
    X2 = sqrt(n) (psi_n''(theta(a)) - g2(theta(a))),

converge jointly to a centered Gaussian field over the threshold range, with
Cov(X_a, X_a') = E[f(W theta(a)) f(W theta(a'))] - E[f(..)] E[f(..)].  The
random rate decomposes as

    I_n(a) = I(a) - n^{-1/2} X + n^{-1} r_n(a),
    r_n(a) = X1^2 / (2 (g2 + n^{-1/2} X2)) + o(1),

which a second-order expansion of the Legendre transform around theta(a)
makes exact up to the o(1) term (and *identically* exact when the CGF is
quadratic, i.e. Gaussian summands).  The saddle shift delta = theta_n(a) -
theta(a) has leading term -n^{-1/2} X1 / (g2 + n^{-1/2} X2) and is recorded
alongside.

theta(a), I(a) and g, g1, g2 at theta(a) depend on the weight law, the
summand law and the threshold only, not on the replica.  :func:`fclt_grid`
solves them once per threshold into an :class:`FcltGrid`; every replica
(:func:`sample_fluctuations`) and the aggregation (:func:`fclt_report`)
read that one grid, and a :class:`FluctuationSample` holds per-replica data
only.  The report compares empirical with analytic covariance and measures
the residual gaps of the decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEnvironment, InsufficientReplicas, OutOfRange
from .saddle import (DeterministicCurves, Segment, psi_sum, solve_deterministic,
                     solve_saddle, terms)
from .weights import draw_environment
from .rng import derive_stream

__all__ = [
    "FcltGrid",
    "FcltReport",
    "FluctuationSample",
    "ResidualStats",
    "fclt_grid",
    "fclt_report",
    "residual_gap_matrix",
    "sample_fluctuations",
]

MIN_REPLICAS = 100


@dataclass(frozen=True)
class FcltGrid:
    """The deterministic side of a study: per threshold a, the saddle point
    theta(a), the rate I(a) and the curves g, g1, g2 at theta(a)."""

    curves: DeterministicCurves
    n: int
    a_grid: np.ndarray
    theta_grid: np.ndarray
    rate: np.ndarray
    g: np.ndarray
    g1: np.ndarray
    g2: np.ndarray


@dataclass(frozen=True)
class FluctuationSample:
    """One replica: fluctuation triple, random rate and saddle per threshold.

    Entries where the realized environment pushed a threshold outside the
    empirical saddle range are flagged invalid (NaN values, False in
    ``valid``) rather than raised; all-zero weights mask every entry.
    """

    replica: int
    X: np.ndarray
    X1: np.ndarray
    X2: np.ndarray
    I_n: np.ndarray
    theta_n: np.ndarray
    valid: np.ndarray


@dataclass(frozen=True)
class ResidualStats:
    """Per-threshold medians of the decomposition gaps across replicas."""

    a: float
    median_abs_residual_gap: float
    median_abs_delta_gap: float
    median_abs_residual: float
    replicas: int


@dataclass(frozen=True)
class FcltReport:
    n: int
    replicas: int
    a_grid: np.ndarray
    theta_grid: np.ndarray
    empirical_cov: np.ndarray
    analytic_cov: np.ndarray
    max_abs_cov_error: float
    residual_stats: tuple[ResidualStats, ...]


def fclt_grid(curves: DeterministicCurves, n: int, a_grid) -> FcltGrid:
    """Solve g'(theta) = a once per threshold; raises OutOfRange outside J."""
    a_grid = np.asarray(a_grid, dtype=float)
    solved = [solve_deterministic(curves, a) for a in a_grid.tolist()]
    thetas = [theta for theta, _ in solved]
    g, g1, g2 = (np.array([curves.psi(t, order) for t in thetas]) for order in range(3))
    return FcltGrid(curves=curves, n=n, a_grid=a_grid, theta_grid=np.array(thetas),
                    rate=np.array([rate for _, rate in solved]), g=g, g1=g1, g2=g2)


def sample_fluctuations(grid: FcltGrid, replica: int, seed: int) -> FluctuationSample:
    """Draw one environment and measure the fluctuation field on the grid."""
    curves, n = grid.curves, grid.n
    thetas = grid.theta_grid.tolist()
    I_n = np.full(len(thetas), np.nan)
    theta_n = np.full(len(thetas), np.nan)
    valid = np.zeros(len(thetas), dtype=bool)
    try:
        segments = [Segment(draw_environment(curves.wm, n, derive_stream(seed, replica)),
                            curves.cm)]
    except DegenerateEnvironment:
        return FluctuationSample(replica=replica, X=I_n.copy(), X1=I_n.copy(),
                                 X2=I_n.copy(), I_n=I_n, theta_n=theta_n, valid=valid)
    root_n = math.sqrt(n)

    def fluctuation(order: int, limit: np.ndarray) -> np.ndarray:
        return root_n * (np.array([psi_sum(segments, t, order) for t in thetas]) / n - limit)

    for i, (a, theta) in enumerate(zip(grid.a_grid.tolist(), thetas)):
        try:
            sol = solve_saddle(segments, a, curves.theta_star, x0=theta)
        except OutOfRange:
            continue
        I_n[i] = sol.rate
        theta_n[i] = sol.theta
        valid[i] = True
    return FluctuationSample(replica=replica, X=fluctuation(0, grid.g),
                             X1=fluctuation(1, grid.g1), X2=fluctuation(2, grid.g2),
                             I_n=I_n, theta_n=theta_n, valid=valid)


def residual_gap_matrix(samples, grid: FcltGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Measured-vs-predicted second-order terms, per replica and threshold.

    Returns ``(r_hat, residual_gap, delta_gap)``, each of shape
    (replicas, grid), where rhat is measured from the decomposition as
    rhat = n (I_n - I) + sqrt(n) X and

        residual_gap = |rhat - X1^2 / (2 (g2 + X2 / sqrt(n)))|
        delta_gap    = |theta_n - theta(a) + (X1/sqrt(n)) / (g2 + X2/sqrt(n))|

    Invalid replica entries propagate as NaN.
    """
    def stack(field: str) -> np.ndarray:
        return np.stack([getattr(s, field) for s in samples])

    n, root_n = grid.n, math.sqrt(grid.n)
    X1 = stack("X1")
    denom = grid.g2 + stack("X2") / root_n
    r_hat = n * (stack("I_n") - grid.rate) + root_n * stack("X")
    residual_gap = np.abs(r_hat - X1**2 / (2.0 * denom))
    delta_gap = np.abs(stack("theta_n") - grid.theta_grid + (X1 / root_n) / denom)
    return r_hat, residual_gap, delta_gap


def fclt_report(samples, grid: FcltGrid) -> FcltReport:
    """Aggregate replicas into covariance and residual comparisons.

    The analytic covariance runs through the quadrature expectation path;
    the empirical one uses complete replicas only (every grid entry valid).
    """
    samples = list(samples)
    if len(samples) < MIN_REPLICAS:
        raise InsufficientReplicas(f"need >= {MIN_REPLICAS} replicas, got {len(samples)}")
    complete = [s for s in samples if bool(np.all(s.valid))]
    if len(complete) < MIN_REPLICAS:
        raise InsufficientReplicas(f"only {len(complete)} complete replicas (need {MIN_REPLICAS})")
    X = np.stack([s.X for s in complete])
    empirical_cov = np.atleast_2d(np.cov(X, rowvar=False, ddof=1))

    wm, cm = grid.curves.wm, grid.curves.cm
    thetas = grid.theta_grid.tolist()
    size = len(thetas)
    analytic_cov = np.empty((size, size))
    for i in range(size):
        for j in range(i, size):
            ti, tj = thetas[i], thetas[j]
            cross = wm.expect(lambda w: terms(cm, w, ti, 0) * terms(cm, w, tj, 0))
            analytic_cov[i, j] = analytic_cov[j, i] = cross - grid.g[i] * grid.g[j]

    r_hat, residual_gap, delta_gap = residual_gap_matrix(complete, grid)
    stats = tuple(
        ResidualStats(
            a=a,
            median_abs_residual_gap=float(np.median(residual_gap[:, i])),
            median_abs_delta_gap=float(np.median(delta_gap[:, i])),
            median_abs_residual=float(np.median(np.abs(r_hat[:, i]))),
            replicas=len(complete),
        )
        for i, a in enumerate(grid.a_grid.tolist())
    )
    max_err = float(np.max(np.abs(empirical_cov - analytic_cov)))
    return FcltReport(n=grid.n, replicas=len(complete), a_grid=grid.a_grid,
                      theta_grid=grid.theta_grid, empirical_cov=empirical_cov,
                      analytic_cov=analytic_cov, max_abs_cov_error=max_err,
                      residual_stats=stats)
