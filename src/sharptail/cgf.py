"""Cumulant generating functions and tilted characteristic functions.

A :class:`CumulantModel` describes the i.i.d. factor Z of the weighted sum
S_n = sum_j W_j Z_j through its CGF ``f(t) = log E[exp(t Z)]`` and the first
three derivatives, a sampler for the exponentially tilted law
dP_t/dP = exp(t z) / M(t), and the log-modulus of the tilted characteristic
function

    log_abs_tilted_cf(tilt, y) = log |E_tilt exp(i y Z)|
                               = log |M(tilt + i y)| - f(tilt),

which is all the characteristic-function condition of the sharp estimate
reads (tilt = W_j theta, y = W_j t).  It is <= 0 everywhere and 0 at y = 0.

Two built-in models cover the supported closed-form cases:

* ``GaussianModel(sigma2)``:  f(t) = sigma2 t^2 / 2, and the tilted CF
  modulus is exp(-sigma2 y^2 / 2) whatever the tilt.
* ``BinomialModel(m, p)``:    f(t) = m log(1 - p + p e^t).  Tilting gives
  Binomial(m, q) with q = expit(tilt + logit p), whose CF modulus is
  (1 - 4 q(1-q) sin^2(y/2))^(m/2); it returns to 1 at y = 2 pi k (lattice).

Everything else goes through :class:`CustomModel`, which takes every callback
explicitly; the correctness burden (convexity, entire MGF, derivative
consistency) then travels with the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import expit

__all__ = [
    "BinomialModel",
    "CumulantModel",
    "CustomModel",
    "GaussianModel",
]


def _result(tilt, y, out) -> np.ndarray:
    """``out``, or a new float array of the shape tilt and y broadcast to."""
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(tilt), np.shape(y)))
    return out


class CumulantModel:
    """Interface shared by all summand models.

    Subclasses must provide vectorized ``f``, ``f1``, ``f2``, ``f3`` (float in,
    float out, broadcasting over ndarrays), ``log_abs_tilted_cf``, tilted
    sampling, and ``support`` for exact enumeration.
    """

    #: (values, probabilities) for finite-support lattice models, else None
    support: tuple[np.ndarray, np.ndarray] | None = None

    def f(self, t):
        raise NotImplementedError

    def f1(self, t):
        raise NotImplementedError

    def f2(self, t):
        raise NotImplementedError

    def f3(self, t):
        raise NotImplementedError

    def log_abs_tilted_cf(self, tilt, y, out=None):
        """log |E_tilt exp(i y Z)|, broadcasting ``tilt`` against ``y``.

        ``out``, when given, is a float array of the broadcast shape that
        receives the result; it may be ``y`` itself.
        """
        raise NotImplementedError

    @property
    def mean(self) -> float:
        return float(self.f1(0.0))

    def tilted_batch(self, tilts: np.ndarray, size: int,
                     stream: np.random.Generator) -> np.ndarray:
        """Draw a (size, len(tilts)) matrix; column j tilted by tilts[j]."""
        raise NotImplementedError


@dataclass(frozen=True)
class GaussianModel(CumulantModel):
    """Centered Gaussian summand with variance ``sigma2``."""

    sigma2: float

    def __post_init__(self):
        if not (self.sigma2 > 0 and math.isfinite(self.sigma2)):
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2}")

    def f(self, t):
        return 0.5 * self.sigma2 * np.square(t)

    def f1(self, t):
        return self.sigma2 * np.asarray(t, dtype=float)

    def f2(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.sigma2)

    def f3(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def log_abs_tilted_cf(self, tilt, y, out=None):
        out = np.square(y, out=_result(tilt, y, out))
        out *= -0.5 * self.sigma2
        return out

    def tilted_batch(self, tilts, size, stream):
        tilts = np.atleast_1d(np.asarray(tilts, dtype=float))
        sd = math.sqrt(self.sigma2)
        g = stream.standard_normal((size, tilts.size))
        return g * sd + self.sigma2 * tilts


@dataclass(frozen=True)
class BinomialModel(CumulantModel):
    """Binomial(m, p) summand; Bernoulli for m = 1.

    The CGF and derivatives are evaluated through the logistic function of
    ``t + logit(p)``, which keeps them finite for arbitrarily large |t|:
    f1 = m * q, f2 = m * q(1-q), f3 = m * q(1-q)(1-2q) with q the tilted
    success probability.
    """

    m: int
    p: float

    def __post_init__(self):
        if not (isinstance(self.m, int) and self.m >= 1):
            raise ValueError(f"m must be an integer >= 1, got {self.m!r}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie in (0, 1), got {self.p}")

    @property
    def support(self):  # type: ignore[override]
        values = np.arange(self.m + 1, dtype=float)
        probs = np.array(
            [math.comb(self.m, k) * self.p**k * (1 - self.p) ** (self.m - k)
             for k in range(self.m + 1)]
        )
        return values, probs

    def _logit_p(self) -> float:
        return math.log(self.p) - math.log1p(-self.p)

    def f(self, t):
        t = np.asarray(t, dtype=float)
        # m * log(1 - p + p e^t) = m * logaddexp(log(1-p), log p + t)
        return self.m * np.logaddexp(math.log1p(-self.p), math.log(self.p) + t)

    def f1(self, t):
        t = np.asarray(t, dtype=float)
        return self.m * expit(t + self._logit_p())

    def f2(self, t):
        q = expit(np.asarray(t, dtype=float) + self._logit_p())
        return self.m * q * (1.0 - q)

    def f3(self, t):
        q = expit(np.asarray(t, dtype=float) + self._logit_p())
        return self.m * q * (1.0 - q) * (1.0 - 2.0 * q)

    def log_abs_tilted_cf(self, tilt, y, out=None):
        # |1 - q + q e^{iy}|^2 = 1 - 4 q(1-q) sin^2(y/2); the sine keeps the
        # precision that 1 - cos(y) loses at small y
        x = np.asarray(tilt, dtype=float) + self._logit_p()
        out = np.multiply(y, 0.5, out=_result(tilt, y, out))
        np.sin(out, out=out)
        np.square(out, out=out)
        out *= -4.0 * expit(x) * expit(-x)
        with np.errstate(divide="ignore"):  # a zero of the CF is log 0 = -inf
            np.log1p(out, out=out)
        out *= 0.5 * self.m
        return out

    def tilted_batch(self, tilts, size, stream):
        tilts = np.atleast_1d(np.asarray(tilts, dtype=float))
        q = expit(tilts + self._logit_p())
        if self.m == 1:
            return (stream.random((size, tilts.size)) < q).astype(float)
        return stream.binomial(self.m, q, size=(size, tilts.size)).astype(float)


@dataclass(frozen=True)
class CustomModel(CumulantModel):
    """User-supplied model: every callback must be provided explicitly."""

    cgf: Callable
    cgf1: Callable
    cgf2: Callable
    cgf3: Callable
    mgf: Callable[[complex], complex]
    tilted: Callable[[np.ndarray, int, np.random.Generator], np.ndarray]
    finite_support: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def support(self):  # type: ignore[override]
        return self.finite_support

    def f(self, t):
        return self.cgf(t)

    def f1(self, t):
        return self.cgf1(t)

    def f2(self, t):
        return self.cgf2(t)

    def f3(self, t):
        return self.cgf3(t)

    def log_abs_tilted_cf(self, tilt, y, out=None):
        # generic fallback: log |M(tilt + i y)| - log M(tilt)
        tilt = np.asarray(tilt, dtype=float)
        num = self._log_modulus(tilt + 1j * np.asarray(y, dtype=float))
        return np.subtract(num, self._log_modulus(tilt), out=_result(tilt, y, out))

    def _log_modulus(self, zeta: np.ndarray) -> np.ndarray:
        """log |M(zeta)|, one callback per element."""
        moduli = [abs(self.mgf(complex(z))) for z in zeta.ravel()]
        return np.log(moduli).reshape(zeta.shape)

    def tilted_batch(self, tilts, size, stream):
        return self.tilted(np.atleast_1d(np.asarray(tilts, dtype=float)), size, stream)

