"""Shared numerical kernels: exact sums, stable sigmoids, quadrature, one worker pool.

``csum`` returns the float64 sum of an array rounded once, bit for bit what
``math.fsum`` returns, from a handful of vectorised passes.  Each term is
split by ``np.frexp`` into an exponent e and a fraction m, and m * 2**27 into
an integer half hi and a fractional half lo = m * 2**27 - hi.  Both halves
are exact, and the term equals (hi + lo) * 2**(e - 27).  ``np.bincount``
adds the halves of terms with equal exponent into one bin per exponent.
While a bin holds at most 2**26 terms, every partial sum of hi is an integer
and every partial sum of lo a multiple of 2**-26, both of magnitude at most
2**53, so each addition is exact; past that many terms the bin totals are
set aside and the bins start again.  The bin totals scaled by 2**(e - 27)
are then exact too, and one ``math.fsum`` of them rounds the exact total
once; a zero total comes out as +0.0, as ``fsum`` gives it.  NaN,
infinities and terms large enough that a prefix of the input or a scaled
total could overflow go to ``math.fsum`` itself, so its results and its
``ValueError``/``OverflowError`` hold there as well.  So do arrays of fewer
than 256 terms, which ``fsum`` sums faster than the passes' fixed cost.

The quadrature here is deliberately small: an adaptive Gauss-Legendre scheme
with an embedded 8/16-node error estimate and bisection of the worst panel.
It targets smooth integrands on a finite interval (weight-model expectations)
and reports failure instead of silently returning a low-accuracy value.
"""

from __future__ import annotations

import heapq
import math
import os
import threading
from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureFailure

__all__ = [
    "adaptive_gauss_legendre",
    "csum",
    "expit",
    "logsumexp",
    "run_parts",
]

# parts run on up to one thread per CPU this process may use
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_pool = None  # (pid, ThreadPoolExecutor), made on first use

_FSUM_TERMS = 256  # shorter arrays go to math.fsum
_CHUNK = 1 << 16  # terms per vectorised pass
_BIN_TERMS = 1 << 26  # terms a bin may hold before its partial sums could pass 2**53
_BIAS = 1073  # frexp exponents of finite nonzero floats start at -1073
_NBINS = _BIAS + 998  # up to exponent 997, the largest the range check admits
# scale of both halves of every bin: term = (hi + lo) * 2**(e - 27)
_BIN_EXP = np.tile(np.arange(-_BIAS - 27, _NBINS - _BIAS - 27, dtype=np.intc), 2)


def _bin_values(bins: np.ndarray) -> np.ndarray:
    """The nonzero bin totals scaled to their exponents; every product is exact."""
    keep = bins != 0.0
    return np.ldexp(bins.compress(keep), _BIN_EXP.compress(keep))


def csum(x: np.ndarray) -> float:
    """Exactly rounded sum of a 1-d float64 array; equals ``math.fsum(x)``."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < _FSUM_TERMS:
        return math.fsum(x)
    step = max(1, min(n, _CHUNK, _BIN_TERMS))
    # Below this bound no prefix of x and no scaled bin total can overflow,
    # so fsum's intermediate OverflowError cannot arise on either side.
    limit = 2.0 ** 1020 / max(n, 1 << 23)
    t = np.empty(step)
    e = np.empty(step, dtype=np.intc)
    hi = np.empty(step)
    bins = np.zeros(2 * _NBINS)  # hi totals, then lo totals
    hi_bins, lo_bins = bins[:_NBINS], bins[_NBINS:]
    parts = []
    pending = 0
    for start in range(0, n, step):
        c = x[start:start + step]
        c_min, c_max = c.min(), c.max()
        if not -limit < c_min <= c_max < limit:
            return math.fsum(x)
        k = c.size
        if pending + k > _BIN_TERMS:
            parts.append(_bin_values(bins))
            bins[:] = 0.0
            pending = 0
        pending += k
        tk, ek, hk = t[:k], e[:k], hi[:k]
        np.frexp(c, out=(tk, ek))
        np.multiply(tk, 2.0 ** 27, out=tk)
        np.floor(tk, out=hk)
        np.subtract(tk, hk, out=tk)
        np.add(ek, _BIAS, out=ek)
        hi_bins += np.bincount(ek, weights=hk, minlength=_NBINS)
        lo_bins += np.bincount(ek, weights=tk, minlength=_NBINS)
    parts.append(_bin_values(bins))
    return math.fsum(np.concatenate(parts))


def run_parts(work: Callable[[Callable[[], object]], None], parts: Sequence) -> None:
    """Call ``work(next_part)`` on the caller's thread and on up to ``_WORKERS - 1``
    pool threads (no more than parts); each builds its scratch once, then takes
    the items of ``parts`` from ``next_part()`` until it returns None.  No result
    may depend on which thread took a part.  Errors are raised once all calls end."""
    global _pool
    todo, lock = iter(parts), threading.Lock()

    def next_part():
        with lock:
            return next(todo, None)

    threads = min(_WORKERS, len(parts))
    # a forked child has none of its parent's pool threads
    if threads > 1 and (_pool is None or _pool[0] != os.getpid()):
        from concurrent.futures import ThreadPoolExecutor
        _pool = (os.getpid(), ThreadPoolExecutor(max_workers=_WORKERS - 1))
    futures = [_pool[1].submit(work, next_part) for _ in range(threads - 1)]
    try:
        work(next_part)
    finally:
        for future in futures:
            future.result()


def expit(x: np.ndarray | float) -> np.ndarray | float:
    """Numerically stable logistic function 1 / (1 + exp(-x))."""
    x = np.asarray(x, dtype=float)
    # in place, so a call holds two arrays of x's size besides x itself
    out = np.negative(x, out=np.empty_like(x))
    np.minimum(x, out, out=out)  # -|x|, keeping a NaN's sign bit
    np.exp(out, out=out)
    d = out + 1.0
    np.divide(out, d, out=out)  # exp(x) / (1 + exp(x)) for x < 0 and NaN
    np.divide(1.0, d, out=out, where=x >= 0)
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
