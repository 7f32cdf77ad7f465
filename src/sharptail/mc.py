"""Ground-truth estimators: tilted importance sampling, naive MC, enumeration.

The tilted estimator draws each summand from its exponentially tilted law
(tilt theta * W_j, so the rare event becomes typical), then averages the
unbiased importance weight

    exp(-theta S + n psi_n(theta)) * 1{S >= a n}.

Weights span hundreds of e-folds at large n, so batch means are accumulated
in log space with max subtraction, and the standard error comes from
replication over batches rather than per-draw variance (robust to the
heavy-tailed weights near the indicator boundary).

Every estimator takes *segments* (:class:`~sharptail.saddle.Segment`, runs
of positions sharing one summand model): a single-model environment is one
segment and the block-structured portfolio case is several, so both share
one code path.  The tilted log normaliser n psi_n(theta) is the undivided
:func:`~sharptail.saddle.psi_sum`, the kernel the saddle solver uses.

Draws are generated in fixed-size chunks from per-batch derived streams;
identical (seed, config) inputs therefore yield bit-identical estimates,
independent of available memory and of the CPU count.  A Bernoulli chunk
is filled on the :func:`~sharptail.numerics.run_parts` pool, each part from
the batch stream jumped ahead (the second split in :mod:`~sharptail.rng`);
it equals a single serial draw, and each chunk is still one matvec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotEnumerable, OutOfRange, TooLarge
from .estimate import METHOD_EXACT, METHOD_NAIVE, METHOD_TILTED, TailEstimate
from .numerics import csum, logsumexp
from .rng import derive_stream
from .saddle import Segment, psi_sum, total_n

__all__ = [
    "McConfig",
    "exact_enum_segments",
    "naive_mc_segments",
    "tilted_mc_segments",
]

ENUM_TUPLE_CAP = 2**24
MIN_HITS = 10
MIN_DRAWS_FOR_STDERR = 1_000

# rows generated per chunk are fixed by total position count only, so the
# draw stream layout is a pure function of (seed, batches, batch_size, n)
_CHUNK_ELEMS = 2**21
_ENUM_CHUNK = 2**16

# stream tags keep tilted and naive draws decoupled at equal seeds
_TAG_TILTED = 1
_TAG_NAIVE = 2


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo budget: ``batches * batch_size`` total draws."""

    batches: int
    batch_size: int
    seed: int

    def __post_init__(self):
        if self.batches < 1 or self.batch_size < 1:
            raise ValueError("batches and batch_size must be >= 1")

    @property
    def draws(self) -> int:
        return self.batches * self.batch_size


def _draw_sums(segments: list[Segment], theta: float, rows: int, stream) -> np.ndarray:
    """S for ``rows`` draws, each position tilted by theta * W_j."""
    s = np.zeros(rows)
    for seg in segments:
        z = seg.cm.tilted_batch(theta * seg.weights, rows, stream)
        s += z @ seg.weights
    return s


def _batch_sums(segments: list[Segment], theta: float, cfg: McConfig, tag: int):
    """Yield each batch's draws of S, made in fixed-size chunks from the
    batch's own derived stream; one batch is held at a time."""
    chunk_rows = max(1, _CHUNK_ELEMS // total_n(segments))
    for b in range(cfg.batches):
        stream = derive_stream(cfg.seed, tag, b)
        yield np.concatenate([
            _draw_sums(segments, theta, min(chunk_rows, cfg.batch_size - start), stream)
            for start in range(0, cfg.batch_size, chunk_rows)
        ])


def tilted_mc_segments(
    segments: list[Segment], a: float, theta: float, cfg: McConfig
) -> TailEstimate:
    """Importance-sampled tail estimate at saddle tilt ``theta`` > 0."""
    if theta <= 0.0:
        raise OutOfRange(f"tilting requires a positive saddle point, got {theta:.6g}")
    n = total_n(segments)
    log_norm = psi_sum(segments, theta, 0)
    batch_logs = np.empty(cfg.batches)
    hits = 0
    for b, s in enumerate(_batch_sums(segments, theta, cfg, _TAG_TILTED)):
        lw = log_norm - theta * s[s >= a * n]
        hits += lw.size
        batch_logs[b] = logsumexp(lw) - math.log(cfg.batch_size)
    log_p = logsumexp(batch_logs) - math.log(cfg.batches)
    value = math.exp(log_p) if log_p > math.log(1e-300) else 0.0
    # a finite log_p below the linear range: p = 0.0 is not exact, so no
    # linear stderr either
    underflow = value == 0.0 and math.isfinite(log_p)
    warnings = ["p_underflow"] if underflow else []
    stderr: float | None = None
    if cfg.draws < MIN_DRAWS_FOR_STDERR:
        warnings.append("draws_below_stderr_floor")
    elif not underflow:
        ratios = np.exp(batch_logs - log_p) if math.isfinite(log_p) else np.zeros(cfg.batches)
        stderr = value * float(np.std(ratios, ddof=1)) / math.sqrt(cfg.batches)
    if hits < MIN_HITS:
        warnings.append("insufficient_hits")
    return TailEstimate(value=value, log_value=log_p, method=METHOD_TILTED,
                        n=n, a=a, stderr=stderr, hits=hits,
                        warnings=tuple(warnings))


def naive_mc_segments(segments: list[Segment], a: float, cfg: McConfig) -> TailEstimate:
    """Plain indicator average under the original law; binomial stderr."""
    n = total_n(segments)
    hits = sum(int(np.count_nonzero(s >= a * n))
               for s in _batch_sums(segments, 0.0, cfg, _TAG_NAIVE))
    p_hat = hits / cfg.draws
    warnings = []
    stderr: float | None
    if cfg.draws >= MIN_DRAWS_FOR_STDERR:
        stderr = math.sqrt(p_hat * (1.0 - p_hat) / cfg.draws)
    else:
        stderr = None
        warnings.append("draws_below_stderr_floor")
    if hits < MIN_HITS:
        warnings.append("insufficient_hits")
    log_p = math.log(p_hat) if p_hat > 0.0 else -math.inf
    return TailEstimate(value=p_hat, log_value=log_p, method=METHOD_NAIVE,
                        n=n, a=a, stderr=stderr, hits=hits,
                        warnings=tuple(warnings))


def exact_enum_segments(segments: list[Segment], a: float) -> TailEstimate:
    """Exact tail by full enumeration of lattice outcome tuples.

    Every position's summand must have finite support; the total tuple count
    prod_j s_j is capped at 2**24.  The sum of the qualifying tuple
    probabilities is exactly rounded, so the only inexactness is float
    rounding of the per-tuple products.
    """
    values_per_pos: list[np.ndarray] = []
    probs_per_pos: list[np.ndarray] = []
    pos_weights: list[float] = []
    for seg in segments:
        if seg.cm.support is None:
            raise NotEnumerable(f"{type(seg.cm).__name__} has no finite lattice support")
        vals, probs = seg.cm.support
        for w in seg.weights:
            values_per_pos.append(vals)
            probs_per_pos.append(probs)
            pos_weights.append(float(w))
    n = len(pos_weights)
    total = 1
    for vals in values_per_pos:
        total *= vals.size
        if total > ENUM_TUPLE_CAP:
            raise TooLarge(
                f"enumeration needs > {ENUM_TUPLE_CAP} tuples for n = {n}"
            )
    an = a * n
    strides = np.empty(n, dtype=np.int64)
    acc = 1
    for j in range(n):
        strides[j] = acc
        acc *= values_per_pos[j].size
    qualifying: list[np.ndarray] = []
    for start in range(0, total, _ENUM_CHUNK):
        idx = np.arange(start, min(start + _ENUM_CHUNK, total), dtype=np.int64)
        s = np.zeros(idx.size)
        prob = np.ones(idx.size)
        for j in range(n):
            digit = (idx // strides[j]) % values_per_pos[j].size
            s += pos_weights[j] * values_per_pos[j][digit]
            prob *= probs_per_pos[j][digit]
        qualifying.append(prob[s >= an])
    p = csum(np.concatenate(qualifying)) if qualifying else 0.0
    p = min(max(p, 0.0), 1.0)
    log_p = math.log(p) if p > 0.0 else -math.inf
    return TailEstimate(value=p, log_value=log_p, method=METHOD_EXACT,
                        n=n, a=a, stderr=None)

