"""Preconfigured application scenarios built on the core pipeline.

T-cell activation: the received signal is sum_j Z_j W_j + z_f * W_f, where
Z_j counts presented self peptides of type j (binomial), W_j is the
stimulation rate (1/tau) exp(-1/tau) of a random dwell time tau, and the
foreign term has fixed copy number z_f and rate W_f.  Conditioned on the
environment the foreign term is a constant, so activation reduces to the
plain conditional tail at the shifted threshold a - z_f * W_f / n.

Portfolio losses: positions come in K blocks, each with its own indicator
weight (position suffers a loss or not) and loss-size model; the total loss
is the block sum of Z * W.  Each block is one
:class:`~sharptail.saddle.Segment`, so a portfolio goes through the same psi
kernel and saddle solver as a single-model run, which is one segment; with
K = 1 the pipeline reduces bit-exactly to the homogeneous case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cgf import CumulantModel
from .errors import DegenerateEnvironment
from .estimate import TailEstimate, sldp_estimate
from .rng import derive_stream
from .saddle import Segment, solve_saddle
from .weights import TcellWeight, WeightModel, draw_environment, sample_weights

# not used here: bench/tracing.py patches these two names on this module
from .numerics import csum  # noqa: F401
from .saddle import solve_psi_root  # noqa: F401

__all__ = [
    "PortfolioBlock",
    "PortfolioScenario",
    "TcellScenario",
    "portfolio_loss_prob",
    "portfolio_segments",
    "tcell_activation_prob",
    "tcell_environment",
]

# single-run environments draw from replica slot 0 of the master seed
_ENV_REPLICA = 0


@dataclass(frozen=True)
class TcellScenario:
    """Self-peptide count n, foreign copies z_f at rate w_f, dwell-time law."""

    n: int
    z_f: int
    w_f: float
    tau_model: TcellWeight
    z_model: CumulantModel
    a: float
    theta_star: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.z_f < 0:
            raise ValueError("z_f must be >= 0")
        if self.z_f > 0 and not self.w_f > 0:
            raise ValueError("foreign stimulation rate must be positive")

    @property
    def shifted_threshold(self) -> float:
        """Per-summand threshold after absorbing the foreign signal."""
        return self.a - self.z_f * self.w_f / self.n


def tcell_environment(sc: TcellScenario, env_seed: int) -> np.ndarray:
    """Realize the stimulation-rate weights for one scenario run."""
    return draw_environment(sc.tau_model, sc.n, derive_stream(env_seed, _ENV_REPLICA))


def tcell_activation_prob(sc: TcellScenario, env_seed: int) -> TailEstimate:
    """Sharp activation probability for one realized peptide environment.

    The leading-order :func:`~sharptail.estimate.sldp_estimate` at the
    shifted threshold, so its relative error is O(1/n) with the leading term
    c1 given there, evaluated with the tilted cumulants at the shifted
    saddle point.
    """
    weights = tcell_environment(sc, env_seed)
    sol = solve_saddle([Segment(weights, sc.z_model)], sc.shifted_threshold, sc.theta_star)
    est = sldp_estimate(sol, sc.n)
    # report under the scenario's unshifted threshold
    return replace(est, a=sc.a)


@dataclass(frozen=True)
class PortfolioBlock:
    """Q positions sharing one indicator-weight model and one loss model."""

    q: int
    w_model: WeightModel
    z_model: CumulantModel

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("block size q must be >= 1")


@dataclass(frozen=True)
class PortfolioScenario:
    blocks: tuple[PortfolioBlock, ...]
    a: float
    theta_star: float = 1.0

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("need at least one block")

    @property
    def n(self) -> int:
        return sum(b.q for b in self.blocks)


def portfolio_segments(sc: PortfolioScenario, env_seed: int) -> list[Segment]:
    """Draw per-block weights from one sequential stream.

    A single stream covers all blocks in order, so a one-block scenario
    consumes exactly the draws of the homogeneous pipeline.  Raises
    :class:`DegenerateEnvironment` only when *every* position across all
    blocks drew weight zero.
    """
    stream = derive_stream(env_seed, _ENV_REPLICA)
    segments = [Segment(weights=sample_weights(b.w_model, b.q, stream), cm=b.z_model)
                for b in sc.blocks]
    if not any(np.any(seg.weights != 0.0) for seg in segments):
        raise DegenerateEnvironment("every position drew weight zero")
    return segments


def portfolio_loss_prob(sc: PortfolioScenario, env_seed: int) -> TailEstimate:
    """Sharp tail estimate of the total portfolio loss past a * n."""
    sol = solve_saddle(portfolio_segments(sc, env_seed), sc.a, sc.theta_star)
    return sldp_estimate(sol, sc.n)
