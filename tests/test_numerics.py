"""Exact summation and the stable logistic function in ``numerics``."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from sharptail import numerics
from sharptail.numerics import csum, expit

CHUNK = numerics._CHUNK


def assert_same_float(got, want):
    """Equal bits up to NaN payload: same value, same sign of zero."""
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert got == want
        assert math.copysign(1.0, got) == math.copysign(1.0, want)


def assert_sums_like_fsum(x):
    assert_same_float(csum(x), math.fsum(x))


# 53-bit mantissas in (-2, 2) times 2**k: every float with |x| < 2**997,
# subnormals included, is reachable, and neighbouring terms may share no bits
_TERM = hst.builds(
    lambda m, k: math.ldexp(m, k - 52),
    hst.integers(-(2**53) + 1, 2**53 - 1),
    hst.integers(-1074, 996),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(terms=hst.lists(_TERM, max_size=200),
       pairs=hst.lists(_TERM, max_size=100),
       seed=hst.integers(0, 2**32 - 1))
def test_csum_matches_fsum_with_cancelling_pairs(terms, pairs, seed):
    x = np.array(terms + pairs + [-p for p in pairs], dtype=float)
    np.random.default_rng(seed).shuffle(x)
    assert_sums_like_fsum(x)


@pytest.mark.parametrize("x", [
    [],
    [3.5],
    [-2.0**-1074],
    [-0.0] * 5,
    [0.0, -0.0],
    [1.0, -1.0],
    [2.0**996, 2.0**996, -(2.0**-1074)],
    [1.0, 2.0**-60, -(2.0**-60), 2.0**-1074],
], ids=["empty", "single", "min-subnormal", "all-neg-zero", "mixed-zero",
        "cancel", "huge-and-tiny", "halfway-ties"])
def test_csum_small_cases(x):
    assert_sums_like_fsum(np.array(x, dtype=float))


@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
def test_csum_across_chunk_boundaries(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * np.ldexp(1.0, rng.integers(-1074, 997, n))
    assert_sums_like_fsum(x)
    assert_sums_like_fsum(rng.uniform(size=n))


def test_csum_pure_subnormals():
    rng = np.random.default_rng(1)
    x = rng.integers(-(2**52) + 1, 2**52, 5000).astype(float) * 2.0**-1074
    assert np.all(np.abs(x) < np.finfo(float).tiny)
    assert_sums_like_fsum(x)
    assert_sums_like_fsum(np.abs(x))


def test_csum_flushes_full_bins(monkeypatch):
    # a bin limit below the chunk length forces many set-asides of the bin
    # totals; the exact total is unaffected
    monkeypatch.setattr(numerics, "_BIN_TERMS", 1000)
    rng = np.random.default_rng(2)
    x = np.concatenate([rng.uniform(size=4321),
                        np.ldexp(rng.standard_normal(3000), rng.integers(-1074, 997, 3000))])
    assert_sums_like_fsum(x)
    h = np.ldexp(rng.standard_normal(2500), rng.integers(-1074, 997, 2500))
    assert_sums_like_fsum(np.concatenate([h, -h[::-1]]))


def test_csum_non_finite_inputs_behave_like_fsum():
    with pytest.raises(ValueError) as got:
        csum(np.array([math.inf, -math.inf]))
    with pytest.raises(ValueError) as want:
        math.fsum(np.array([math.inf, -math.inf]))
    assert str(got.value) == str(want.value)
    with pytest.raises(OverflowError) as got:
        csum(np.array([1e308] * 2))
    with pytest.raises(OverflowError) as want:
        math.fsum(np.array([1e308] * 2))
    assert str(got.value) == str(want.value)
    assert math.isnan(csum(np.array([1.0, math.nan, 2.0])))
    x = np.concatenate([np.ones(CHUNK + 3), [math.nan]])
    assert math.isnan(csum(x))
    assert csum(np.array([1.0, math.inf])) == math.inf
    assert csum(np.array([-math.inf, 5.0])) == -math.inf


def test_csum_large_terms_defer_to_fsum():
    x = np.array([2.0**1000, -(2.0**1000), 3.0])
    assert_sums_like_fsum(x)
    assert_sums_like_fsum(np.array([np.finfo(float).max, -np.finfo(float).max]))


def _expit_reference(x):
    """The boolean-mask formula expit replaced; must agree bit for bit."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_expit_bit_identical_to_masked_formula():
    rng = np.random.default_rng(3)
    special = np.array([0.0, -0.0, 800.0, -800.0, math.nan, -math.nan, math.inf, -math.inf,
                        36.0, -36.0, 745.2, -745.2, 1e-300, -1e-300])
    x = np.concatenate([special, rng.standard_normal(20_000) * 30,
                        rng.uniform(-900, 900, 20_000)])
    got = expit(x)
    want = _expit_reference(x)
    assert got.dtype == np.float64 and got.shape == x.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_expit_scalar_returns_float():
    for v in (0.0, -3.0, 2.5, math.inf):
        got = expit(v)
        assert type(got) is float
        assert got == float(_expit_reference(v))
