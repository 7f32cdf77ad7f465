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

This module measures all of these per replica and aggregates empirical
versus analytic covariance plus residual-gap statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cgf import CumulantModel
from .errors import InsufficientReplicas, OutOfRange
from .saddle import Segment, psi_sum, solve_deterministic, solve_saddle
from .weights import DeterministicCurves, WeightModel, draw_environment
from .rng import derive_stream

__all__ = [
    "FcltReport",
    "FluctuationSample",
    "ResidualStats",
    "fclt_report",
    "fluctuation_matrix",
    "residual_gap_matrix",
    "sample_fluctuations",
]

MIN_REPLICAS = 100


@dataclass(frozen=True)
class FluctuationSample:
    """One replica: fluctuation triple, random rate and saddle per threshold.

    Entries where the realized environment pushed a threshold outside the
    empirical saddle range are flagged invalid (NaN values, False in
    ``valid``) rather than raised.
    """

    n: int
    replica: int
    a_grid: np.ndarray
    theta_grid: np.ndarray
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


def sample_fluctuations(
    wm: WeightModel,
    cm: CumulantModel,
    curves: DeterministicCurves,
    n: int,
    a_grid,
    replica: int,
    seed: int,
) -> FluctuationSample:
    """Draw one environment and measure the fluctuation field on a_grid."""
    a_grid = np.asarray(a_grid, dtype=float)
    stream = derive_stream(seed, replica)
    segments = [Segment(draw_environment(wm, n, stream).weights, cm)]
    size = a_grid.size
    theta_grid = np.empty(size)
    X = np.full(size, np.nan)
    X1 = np.full(size, np.nan)
    X2 = np.full(size, np.nan)
    I_n = np.full(size, np.nan)
    theta_n = np.full(size, np.nan)
    valid = np.zeros(size, dtype=bool)
    root_n = math.sqrt(n)
    for i, a in enumerate(a_grid):
        theta, _ = solve_deterministic(curves, float(a))
        theta_grid[i] = theta
        X[i] = root_n * (psi_sum(segments, theta, 0) / n - curves.g(theta))
        X1[i] = root_n * (psi_sum(segments, theta, 1) / n - curves.g1(theta))
        X2[i] = root_n * (psi_sum(segments, theta, 2) / n - curves.g2(theta))
        try:
            sol = solve_saddle(segments, float(a), curves.theta_star, x0=theta)
        except OutOfRange:
            continue
        I_n[i] = sol.rate
        theta_n[i] = sol.theta
        valid[i] = True
    return FluctuationSample(n=n, replica=replica, a_grid=a_grid,
                             theta_grid=theta_grid, X=X, X1=X1, X2=X2,
                             I_n=I_n, theta_n=theta_n, valid=valid)


def _check_aligned(samples) -> tuple[int, np.ndarray]:
    n = samples[0].n
    a_grid = samples[0].a_grid
    for s in samples[1:]:
        if s.n != n or not np.array_equal(s.a_grid, a_grid):
            raise ValueError("all samples must share one (n, a_grid)")
    return n, a_grid


def fluctuation_matrix(samples) -> np.ndarray:
    """Stack X across replicas: shape (replicas, grid)."""
    _check_aligned(samples)
    return np.stack([s.X for s in samples])


def residual_gap_matrix(samples, curves: DeterministicCurves) -> tuple[np.ndarray, np.ndarray]:
    """Measured-vs-predicted second-order terms, per replica and threshold.

    Returns ``(residual_gap, delta_gap)`` where, with rhat measured from the
    decomposition as rhat = n (I_n - I) + sqrt(n) X,

        residual_gap = |rhat - X1^2 / (2 (g2 + X2 / sqrt(n)))|
        delta_gap    = |theta_n - theta(a) + (X1/sqrt(n)) / (g2 + X2/sqrt(n))|

    Invalid replica entries propagate as NaN.
    """
    n, a_grid = _check_aligned(samples)
    root_n = math.sqrt(n)
    rate_det = np.array([solve_deterministic(curves, float(a))[1] for a in a_grid])
    g2 = np.array([curves.g2(float(t)) for t in samples[0].theta_grid])
    res_gap = np.empty((len(samples), a_grid.size))
    delta_gap = np.empty_like(res_gap)
    for r, s in enumerate(samples):
        denom = g2 + s.X2 / root_n
        r_hat = n * (s.I_n - rate_det) + root_n * s.X
        r_pred = s.X1**2 / (2.0 * denom)
        res_gap[r] = np.abs(r_hat - r_pred)
        delta_gap[r] = np.abs(s.theta_n - s.theta_grid + (s.X1 / root_n) / denom)
    return res_gap, delta_gap


def fclt_report(
    samples,
    curves: DeterministicCurves,
    wm: WeightModel,
    cm: CumulantModel,
) -> FcltReport:
    """Aggregate replicas into covariance and residual comparisons.

    The analytic covariance runs through the quadrature expectation path;
    the empirical one uses complete replicas only (every grid entry valid).
    """
    samples = list(samples)
    if len(samples) < MIN_REPLICAS:
        raise InsufficientReplicas(
            f"need >= {MIN_REPLICAS} replicas, got {len(samples)}"
        )
    n, a_grid = _check_aligned(samples)
    theta_grid = samples[0].theta_grid
    complete = [s for s in samples if bool(np.all(s.valid))]
    if len(complete) < MIN_REPLICAS:
        raise InsufficientReplicas(
            f"only {len(complete)} complete replicas (need {MIN_REPLICAS})"
        )
    X = np.stack([s.X for s in complete])
    empirical_cov = np.atleast_2d(np.cov(X, rowvar=False, ddof=1))

    size = a_grid.size
    mean_f = np.array([curves.g(float(t)) for t in theta_grid])
    analytic_cov = np.empty((size, size))
    for i in range(size):
        for j in range(i, size):
            ti, tj = float(theta_grid[i]), float(theta_grid[j])
            cross = wm.expect(lambda w: cm.f(w * ti) * cm.f(w * tj))
            analytic_cov[i, j] = analytic_cov[j, i] = cross - mean_f[i] * mean_f[j]

    res_gap, delta_gap = residual_gap_matrix(complete, curves)
    root_n = math.sqrt(n)
    rate_det = np.array([solve_deterministic(curves, float(a))[1] for a in a_grid])
    stats = []
    for i in range(size):
        col = res_gap[:, i]
        r_hat = np.array([n * (s.I_n[i] - rate_det[i]) + root_n * s.X[i] for s in complete])
        stats.append(ResidualStats(
            a=float(a_grid[i]),
            median_abs_residual_gap=float(np.median(col)),
            median_abs_delta_gap=float(np.median(delta_gap[:, i])),
            median_abs_residual=float(np.median(np.abs(r_hat))),
            replicas=len(complete),
        ))
    max_err = float(np.max(np.abs(empirical_cov - analytic_cov)))
    return FcltReport(n=n, replicas=len(complete), a_grid=a_grid,
                      theta_grid=theta_grid, empirical_cov=empirical_cov,
                      analytic_cov=analytic_cov, max_abs_cov_error=max_err,
                      residual_stats=tuple(stats))
