"""Weight models and realized environments.

The weights W_j scale the i.i.d. summands; conditioning on them freezes one
*environment*, the weight array :func:`draw_environment` returns.  A
:class:`WeightModel` supplies a sampler, moments, and the expectation
functional E[h(W)] behind the deterministic limit curves.  Expectations are
evaluated in closed form where the model allows it and otherwise by adaptive
Gauss-Legendre quadrature at relative tolerance 1e-10, never by sampling:
downstream fluctuation comparisons need these values far below Monte Carlo
noise.

A weight that is almost surely zero makes the weighted sum degenerate.  The
built-in models reject such a law at construction; :func:`draw_environment`
refuses a drawn environment of zeros, whatever the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateEnvironment
from .numerics import adaptive_gauss_legendre

__all__ = [
    "ConstantWeight",
    "CustomWeight",
    "TcellWeight",
    "TwoPointWeight",
    "UniformWeight",
    "WeightModel",
    "draw_environment",
    "sample_weights",
]

QUAD_REL_TOL = 1e-10
QUAD_NODE_CAP = 2**14
# truncation half-width for standard-normal integrals (mass beyond < 2e-33)
_NORMAL_CUTOFF = 12.0


class WeightModel:
    """Interface for weight distributions."""

    def sample(self, n: int, stream: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def expect(self, h: Callable[[np.ndarray], np.ndarray]) -> float:
        """E[h(W)] for h continuous on the support of W."""
        raise NotImplementedError

    def moment(self, k: int) -> float:
        return self.expect(lambda w: np.power(w, k))


@dataclass(frozen=True)
class ConstantWeight(WeightModel):
    """Point mass at c (c != 0, otherwise the sum is identically zero)."""

    c: float

    def __post_init__(self):
        if self.c == 0.0 or not math.isfinite(self.c):
            raise ValueError("constant weight must be finite and nonzero")

    def sample(self, n, stream):
        return np.full(n, self.c, dtype=float)

    def expect(self, h):
        return float(h(np.asarray(self.c, dtype=float)))

    def moment(self, k):
        return self.c**k


@dataclass(frozen=True)
class UniformWeight(WeightModel):
    """Uniform on [c, d], with density 1/(d-c)."""

    c: float
    d: float

    def __post_init__(self):
        if not (math.isfinite(self.c) and math.isfinite(self.d) and self.c < self.d):
            raise ValueError(f"need c < d, got [{self.c}, {self.d}]")

    def sample(self, n, stream):
        return stream.uniform(self.c, self.d, n)

    def expect(self, h):
        scale = 1.0 / (self.d - self.c)
        return adaptive_gauss_legendre(
            lambda w: scale * np.asarray(h(w), dtype=float),
            self.c, self.d, QUAD_REL_TOL, QUAD_NODE_CAP,
        )

    def moment(self, k):
        return (self.d ** (k + 1) - self.c ** (k + 1)) / ((k + 1) * (self.d - self.c))


@dataclass(frozen=True)
class TwoPointWeight(WeightModel):
    """Discrete law on finitely many atoms (the name matches its main use)."""

    values: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != len(self.probs) or not self.values:
            raise ValueError("values and probs must be equal-length and nonempty")
        if any(p < 0 for p in self.probs) or abs(sum(self.probs) - 1.0) > 1e-12:
            raise ValueError("probs must be nonnegative and sum to 1")
        if not any(v != 0.0 and p > 0.0 for v, p in zip(self.values, self.probs)):
            raise ValueError("P(|W| > 0) = 0: weight is almost surely zero")

    def sample(self, n, stream):
        return stream.choice(np.asarray(self.values, dtype=float), size=n,
                             p=np.asarray(self.probs, dtype=float))

    def expect(self, h):
        v = np.asarray(self.values, dtype=float)
        return float(np.dot(self.probs, np.asarray(h(v), dtype=float)))


@dataclass(frozen=True)
class TcellWeight(WeightModel):
    """Stimulation-rate weight W = (1/tau) exp(-1/tau), bounded by 1/e.

    ``tau`` is the peptide dwell time: exponential with the given rate, or
    lognormal(mu, s).  Expectations integrate over the dwell-time law with a
    substitution that maps the half-line onto a finite interval (exponential)
    or truncates the normal core at 12 standard deviations (lognormal).
    """

    tau_kind: str
    rate: float = 1.0
    mu: float = 0.0
    s: float = 1.0

    def __post_init__(self):
        if self.tau_kind not in ("exponential", "lognormal"):
            raise ValueError(f"unknown tau model {self.tau_kind!r}")
        if self.tau_kind == "exponential" and not self.rate > 0:
            raise ValueError("exponential rate must be positive")
        if self.tau_kind == "lognormal" and not self.s > 0:
            raise ValueError("lognormal shape must be positive")

    @staticmethod
    def transform(tau: np.ndarray) -> np.ndarray:
        return np.exp(-1.0 / tau) / tau

    def sample(self, n, stream):
        if self.tau_kind == "exponential":
            tau = stream.exponential(scale=1.0 / self.rate, size=n)
        else:
            tau = stream.lognormal(mean=self.mu, sigma=self.s, size=n)
        return self.transform(tau)

    def expect(self, h):
        if self.tau_kind == "exponential":
            # u = exp(-rate * tau) maps tau in (0, inf) to u in (0, 1)
            def integrand(u):
                tau = -np.log(u) / self.rate
                return np.asarray(h(self.transform(tau)), dtype=float)

            return adaptive_gauss_legendre(integrand, 0.0, 1.0,
                                           QUAD_REL_TOL, QUAD_NODE_CAP)

        def integrand(v):
            tau = np.exp(self.mu + self.s * v)
            phi = np.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi)
            return np.asarray(h(self.transform(tau)), dtype=float) * phi

        return adaptive_gauss_legendre(integrand, -_NORMAL_CUTOFF, _NORMAL_CUTOFF,
                                       QUAD_REL_TOL, QUAD_NODE_CAP)


@dataclass(frozen=True)
class CustomWeight(WeightModel):
    """User extension: sampler plus either a density on [lo, hi] or an
    explicit expectation functional."""

    sampler: Callable[[int, np.random.Generator], np.ndarray]
    density: Callable[[np.ndarray], np.ndarray] | None = None
    interval: tuple[float, float] | None = None
    expect_fn: Callable[[Callable], float] | None = None

    def __post_init__(self):
        if self.expect_fn is None and (self.density is None or self.interval is None):
            raise ValueError("need expect_fn or (density, interval)")

    def sample(self, n, stream):
        return np.asarray(self.sampler(n, stream), dtype=float)

    def expect(self, h):
        if self.expect_fn is not None:
            return float(self.expect_fn(h))
        lo, hi = self.interval
        return adaptive_gauss_legendre(
            lambda w: np.asarray(h(w), dtype=float) * np.asarray(self.density(w), dtype=float),
            lo, hi, QUAD_REL_TOL, QUAD_NODE_CAP,
        )


def sample_weights(wm: WeightModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n i.i.d. weights; deterministic given the generator's state.

    Raises ``ValueError`` unless the sampler (a user callback for
    :class:`CustomWeight`) returns a 1-d float array of length n.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    w = wm.sample(n, rng)
    if not (isinstance(w, np.ndarray) and w.dtype == float and w.shape == (n,)):
        raise ValueError(f"weight sampler must return a 1-d float array of length {n}")
    return w


def draw_environment(wm: WeightModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """:func:`sample_weights`, refusing an environment of zeros.

    Raises :class:`DegenerateEnvironment` when every drawn weight is zero
    (the caller decides whether to abort or reseed; resampling here would
    bias replica studies).
    """
    w = sample_weights(wm, n, rng)
    if not np.any(w != 0.0):
        raise DegenerateEnvironment(f"all {n} weights are zero")
    return w

