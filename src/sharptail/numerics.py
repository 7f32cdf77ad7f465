"""Shared numerical kernels: compensated sums, stable sigmoids, quadrature.

The quadrature here is deliberately small: an adaptive Gauss-Legendre scheme
with an embedded 8/16-node error estimate and bisection of the worst panel.
It targets smooth integrands on a finite interval (weight-model expectations)
and reports failure instead of silently returning a low-accuracy value.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

import numpy as np

from .errors import QuadratureFailure

__all__ = [
    "adaptive_gauss_legendre",
    "csum",
    "expit",
    "logsumexp",
]

# Exactly rounded sum of a float64 sequence; math.fsum accepts ndarrays.
csum = math.fsum


def expit(x: np.ndarray | float) -> np.ndarray | float:
    """Numerically stable logistic function 1 / (1 + exp(-x))."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    if out.ndim == 0:
        return float(out)
    return out


def logsumexp(values: np.ndarray) -> float:
    """log(sum(exp(values))) with max subtraction; -inf for empty input."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return -math.inf
    m = float(np.max(v))
    if not math.isfinite(m):
        return m
    return m + math.log(csum(np.exp(v - m)))


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_rule(k: int) -> tuple[np.ndarray, np.ndarray]:
    if k not in _GL_CACHE:
        _GL_CACHE[k] = np.polynomial.legendre.leggauss(k)
    return _GL_CACHE[k]


def _panel(h: Callable[[np.ndarray], np.ndarray], lo: float, hi: float):
    """Return (Q16, |Q16 - Q8|, integral of |h| estimate) on [lo, hi]."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x8, w8 = _gl_rule(8)
    x16, w16 = _gl_rule(16)
    f8 = np.asarray(h(mid + half * x8), dtype=float)
    f16 = np.asarray(h(mid + half * x16), dtype=float)
    q8 = half * float(w8 @ f8)
    q16 = half * float(w16 @ f16)
    qabs = half * float(w16 @ np.abs(f16))
    return q16, abs(q16 - q8), qabs


def adaptive_gauss_legendre(
    h: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    rel_tol: float = 1e-10,
    node_cap: int = 2**14,
) -> float:
    """Integrate a vectorized integrand over [lo, hi] to relative tolerance.

    Panels are bisected worst-error-first until the summed 8-vs-16 node error
    estimate drops below ``rel_tol`` times the integral (with a roundoff floor
    scaled by the integral of |h|).  Raises :class:`QuadratureFailure` once
    the total node budget would be exceeded.
    """
    if not lo < hi:
        raise ValueError(f"empty integration interval [{lo}, {hi}]")
    q, err, qabs = _panel(h, lo, hi)
    nodes = 24
    # heap of (-error, lo, hi, q, qabs); totals updated incrementally
    heap = [(-err, lo, hi, q, qabs)]
    total, total_err, total_abs = q, err, qabs
    while True:
        if not (math.isfinite(total) and math.isfinite(total_err)):
            raise QuadratureFailure(
                f"integrand produced non-finite values on [{lo}, {hi}]"
            )
        floor = max(rel_tol * abs(total), 4e-16 * total_abs)
        if total_err <= floor:
            return total
        if nodes + 48 > node_cap:
            raise QuadratureFailure(
                f"tolerance {rel_tol:g} not reached within {node_cap} nodes "
                f"(residual error {total_err:.3e} on integral {total:.6e})"
            )
        neg_err, a, b, q_old, qabs_old = heapq.heappop(heap)
        m = 0.5 * (a + b)
        ql, el, al = _panel(h, a, m)
        qr, er, ar = _panel(h, m, b)
        nodes += 48
        total += (ql + qr) - q_old
        total_err += (el + er) - (-neg_err)
        total_abs += (al + ar) - qabs_old
        heapq.heappush(heap, (-el, a, m, ql, al))
        heapq.heappush(heap, (-er, m, b, qr, ar))
