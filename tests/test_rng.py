"""The documented stream derivation: splitmix64 folds, then PCG64DXSM."""

import numpy as np

import sharptail as st
from sharptail.rng import splitmix64


def test_splitmix64_reference_outputs():
    # the first two outputs of the SplitMix64 generator seeded with 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(0x9E3779B97F4A7C15) == 0x6E789E6AA1B965F4


def test_derive_seed_folds_each_index():
    m, i, j = 42, 7, 3
    assert st.derive_seed(m, i, j) == splitmix64(splitmix64(m ^ i) ^ j)


def test_derive_stream_is_pcg64dxsm_at_the_derived_seed():
    want = np.random.Generator(np.random.PCG64DXSM(st.derive_seed(42, 7)))
    got = st.derive_stream(42, 7)
    assert np.array_equal(got.random(16), want.random(16))
    assert np.array_equal(got.integers(0, 2**62, 8), want.integers(0, 2**62, 8))
