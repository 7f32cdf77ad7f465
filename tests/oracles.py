"""Independent oracles for the test suite.

Everything here is deliberately written against *different* machinery than
the library under test: the normal tail goes through erfc, lattice tails
through exact rational arithmetic, weighted-sum enumeration through pure
Python loops over Fractions, root finding through plain interval bisection,
and tilted cumulants through moments of the tilted pmf.  Agreement between
these and the library is then evidence, not circularity.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

import sharptail as st

# Tabulated upper normal tail at 5 (Abramowitz & Stegun style reference
# value); used to vet the erfc-based oracle itself.
Q5_TABULATED = 2.8665e-07


def normal_upper_tail(x: float) -> float:
    """Q(x) = P(N(0,1) >= x) via the C library's erfc (continued-fraction
    and rational-approximation based, accurate to ~1 ulp)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def binomial_upper_tail(n: int, p: Fraction | float, k: int) -> float:
    """P(Bin(n, p) >= k) as an exact rational, returned as float."""
    p = Fraction(p).limit_denominator(10**12) if not isinstance(p, Fraction) else p
    q = 1 - p
    total = Fraction(0)
    for j in range(max(k, 0), n + 1):
        total += math.comb(n, j) * p**j * q ** (n - j)
    return float(min(total, Fraction(1)))


def weighted_bernoulli_tail(weights, p, threshold: float) -> float:
    """P(sum_j W_j Z_j >= threshold) for independent Bernoulli(p) Z_j.

    Pure-Python enumeration over all 2^n outcomes with Fraction
    probabilities; independent of the library's vectorized enumeration.
    """
    pf = Fraction(p).limit_denominator(10**12)
    qf = 1 - pf
    total = Fraction(0)
    n = len(weights)
    for bits in itertools.product((0, 1), repeat=n):
        s = sum(w for w, b in zip(weights, bits) if b)
        if s >= threshold:
            k = sum(bits)
            total += pf**k * qf ** (n - k)
    return float(total)


def bisect_root(fun, lo: float, hi: float, tol: float = 1e-13, iters: int = 200) -> float:
    """Plain bisection for increasing fun with a sign change on [lo, hi]."""
    flo = fun(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fun(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def tilted_lattice_cumulants(weights, values, probs, theta: float):
    """Averaged tilted cumulants (k2, k3, k4) of the weighted summands W_j Z_j.

    Each Z_j is exponentially tilted at W_j * theta straight from its finite
    pmf (no CGF closed forms): central moments m2, m3, m4 of the tilted pmf
    give the cumulants m2, m3 and m4 - 3 m2^2, which scale by W_j^r and are
    then averaged over j.
    """
    import numpy as np

    w = np.asarray(weights, dtype=float)
    v = np.asarray(values, dtype=float)[None, :]
    log_pt = np.log(np.asarray(probs, dtype=float))[None, :] + w[:, None] * theta * v
    pt = np.exp(log_pt - log_pt.max(axis=1, keepdims=True))
    pt /= pt.sum(axis=1, keepdims=True)
    d = v - (pt * v).sum(axis=1, keepdims=True)
    m2, m3, m4 = ((pt * d**r).sum(axis=1) for r in (2, 3, 4))
    return (float(np.mean(w**2 * m2)), float(np.mean(w**3 * m3)),
            float(np.mean(w**4 * (m4 - 3.0 * m2**2))))


def bahadur_rao_first_correction(u_sqrt_n: float, lam3: float, lam4: float, n: int) -> float:
    """Relative n^-1 term c1 of the sharp tail: P = leading * (1 + c1 + o(1/n)).

    c1 = (lam4/8 - 5 lam3^2/24 - lam3/(2u) - 1/u^2) / n with u = theta sigma
    and lam3, lam4 the standardized tilted cumulants k3/k2^1.5 and k4/k2^2
    (Bahadur and Rao 1960; Chaganty and Sethuraman 1993 for non-identically
    distributed summands).  For Gaussian summands it is the Mills-ratio term
    -1/x^2 at x = u sqrt(n).
    """
    sqrt_n = math.sqrt(n)
    return ((lam4 / 8.0 - 5.0 * lam3**2 / 24.0) / n
            - lam3 / (2.0 * u_sqrt_n * sqrt_n) - 1.0 / u_sqrt_n**2)


def complex_mgf(model):
    """E exp(zeta Z) of a built-in summand model, in plain complex arithmetic."""
    if isinstance(model, st.GaussianModel):
        return lambda z: cmath.exp(0.5 * model.sigma2 * z * z)
    return lambda z: (1.0 - model.p + model.p * cmath.exp(z)) ** model.m


def central_diff(fun, x: float, h: float) -> float:
    return (fun(x + h) - fun(x - h)) / (2.0 * h)


def sample_skewness(x) -> float:
    import numpy as np

    z = (x - np.mean(x)) / np.std(x, ddof=1)
    return float(np.mean(z**3))


def sample_excess_kurtosis(x) -> float:
    import numpy as np

    z = (x - np.mean(x)) / np.std(x, ddof=1)
    return float(np.mean(z**4) - 3.0)


def cf_sup_single_buffer(segments, theta: float, delta1: float, delta2: float,
                         grid_count: int) -> float:
    """sqrt(n) times the sup of the CF-ratio product, as one serial kernel
    computes it: j-chunks of 4096 positions from each segment's start, each
    evaluated whole in one (min(n, 4096), grid_count) buffer and summed with
    ``np.sum(y, axis=0)``, then ``math.fsum`` over the chunk sums per grid
    point.  ``check_conditions`` must match it bit for bit."""
    import numpy as np

    n = sum(seg.weights.size for seg in segments)
    t_grid = np.linspace(delta1, delta2 * theta, grid_count)
    buf = np.empty((min(n, 4096), grid_count))
    chunk_sums = []
    for seg in segments:
        for start in range(0, seg.weights.size, 4096):
            wj = seg.weights[start:start + 4096, None]
            y = np.multiply(wj, t_grid, out=buf[:wj.shape[0]])
            seg.cm.log_abs_tilted_cf(wj * theta, y, out=y)
            chunk_sums.append(np.sum(y, axis=0))
    log_prod = np.array([math.fsum(col) for col in np.stack(chunk_sums, axis=1)])
    return math.sqrt(n) * math.exp(float(np.minimum(log_prod, 0.0).max()))
