"""Deterministic random-stream derivation.

All randomness in the library comes from ``numpy.random.Generator`` objects
whose bit generator is seeded by a documented split function: the master
seed is XORed with each derivation index in turn and pushed through the
splitmix64 finalizer.  Replicas, Monte Carlo batches, and scenario draws each
derive their own stream, so any unit of work is reproducible in isolation and
independent tasks can run concurrently without sharing generator state.

Derivation is::

    s0 = master & (2**64 - 1)
    s_{k+1} = splitmix64(s_k ^ index_k)

and the final ``s`` seeds a ``numpy.random.PCG64DXSM`` bit generator.

The second documented split is jump-ahead within one stream.  Each double
from ``Generator.random`` takes exactly one 64-bit output, so draw k of a
stream is draw 0 of a copy of its state moved on by
``bit_generator.advance(k)``.  The Bernoulli sampler
(:meth:`~sharptail.cgf.BinomialModel.tilted_batch`) fills the rows of one
draw matrix on several threads this way; the matrix, and the state the
stream is left in, are those of one serial call whatever the CPU count.
"""

from __future__ import annotations

import numpy as np

__all__ = ["derive_seed", "derive_stream", "splitmix64"]

_MASK64 = (1 << 64) - 1


def splitmix64(value: int) -> int:
    """64-bit finalizer from the splitmix64 generator (Steele et al.)."""
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(master: int, *indices: int) -> int:
    """Fold derivation indices into the master seed, one mixer pass each.

    With no indices this still applies one mixer pass, so a raw master seed
    is never used verbatim as a bit-generator seed.
    """
    s = master & _MASK64
    if not indices:
        return splitmix64(s)
    for idx in indices:
        s = splitmix64(s ^ (idx & _MASK64))
    return s


def derive_stream(master: int, *indices: int) -> np.random.Generator:
    """The generator for (master, *indices) via the documented split."""
    return np.random.Generator(np.random.PCG64DXSM(derive_seed(master, *indices)))
