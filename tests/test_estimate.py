"""Tail assembly and condition diagnostics."""

import math
import sys

import numpy as np
import pytest

import sharptail as st
from sharptail import estimate, numerics
from oracles import Q5_TABULATED, cf_sup_single_buffer, normal_upper_tail

# ragged layouts: no segment is a multiple of the 256-row block, and two
# straddle the 4096-position chunk
LAYOUTS = [(1, 255, 4095, 4097, 9000), (9000, 4097, 1, 4095, 255)]
MIXED_MODELS = [st.BinomialModel(1, 0.5), st.BinomialModel(3, 0.2), st.GaussianModel(1.0)]


def _mixed_segments(sizes):
    stream = st.derive_stream(41, 0)
    return [st.Segment(st.draw_environment(st.UniformWeight(0.0, 1.0), size, stream),
                       MIXED_MODELS[k % len(MIXED_MODELS)])
            for k, size in enumerate(sizes)]


class TestSldpEstimate:
    def test_gaussian_reference_hand_formula(self, gaussian):
        sol = st.solve_saddle([st.Segment(np.ones(100), gaussian)], 0.5, 1.0)
        est = st.sldp_estimate(sol, 100)
        hand = math.exp(-12.5) / (0.5 * math.sqrt(200.0 * math.pi))
        assert est.value == pytest.approx(hand, rel=1e-12)
        assert est.log_value == pytest.approx(math.log(hand), rel=1e-12)
        assert est.method == "sldp_analytic"
        assert est.stderr is None
        assert est.a == 0.5 and est.n == 100

    def test_mills_ratio_against_normal_oracle(self, gaussian):
        # oracle vets itself against the tabulated tail first
        q5 = normal_upper_tail(5.0)
        assert q5 == pytest.approx(Q5_TABULATED, rel=5e-4)
        sol = st.solve_saddle([st.Segment(np.ones(100), gaussian)], 0.5, 1.0)
        est = st.sldp_estimate(sol, 100)
        assert 1.00 <= est.value / q5 <= 1.08

    def test_degenerate_prefactor_raises(self, gaussian):
        sol = st.solve_saddle([st.Segment(np.ones(10), gaussian)], 0.0, 1.0)
        with pytest.raises(st.PrefactorDegenerate):
            st.sldp_estimate(sol, 10)

    def test_value_capped_at_one_near_mean(self, gaussian, uniform_weight):
        weights = st.draw_environment(uniform_weight, 50, st.derive_stream(6, 0))
        mean = st.psi_sum([st.Segment(weights, gaussian)], 0.0, 1) / weights.size
        sol = st.solve_saddle([st.Segment(weights, gaussian)], mean + 1e-6, 1.0)
        est = st.sldp_estimate(sol, 50)
        assert est.value <= 1.0
        assert est.log_value <= 0.0
        assert math.isfinite(est.log_value)

    def test_log_space_survives_huge_exponents(self, gaussian):
        # n * I ~ 1.25e5 would overflow any linear representation
        n = 10**6
        sol = st.solve_saddle([st.Segment(np.ones(n), gaussian)], 0.5, 1.0)
        est = st.sldp_estimate(sol, n)
        assert est.value == 0.0
        assert math.isfinite(est.log_value)
        hand = -n * 0.125 - math.log(0.5) - 0.5 * math.log(2.0 * math.pi * n)
        assert est.log_value == pytest.approx(hand, rel=1e-12)

    def test_never_exceeds_one_on_grid(self, gaussian, uniform_weight):
        weights = st.draw_environment(uniform_weight, 100, st.derive_stream(7, 0))
        lo = st.psi_sum([st.Segment(weights, gaussian)], 0.0, 1) / weights.size
        hi = st.psi_sum([st.Segment(weights, gaussian)], 1.0, 1) / weights.size
        for a in np.linspace(lo + 1e-9, hi, 25):
            sol = st.solve_saddle([st.Segment(weights, gaussian)], float(a), 1.0)
            est = st.sldp_estimate(sol, 100)
            assert est.value <= 1.0
            assert math.isfinite(est.log_value)


class TestCheckConditions:
    def test_gaussian_unit_closed_form(self, gaussian):
        segs = [st.Segment(np.ones(100), gaussian)]
        sol = st.solve_saddle(segs, 0.5, 1.0)
        rep = st.check_conditions(segs, sol, 0.1, 1.0, 64)
        # product over j is exp(-n t^2 / 2); sup on [0.1, 0.5] is at t = 0.1
        assert rep.cf_sup == pytest.approx(10.0 * math.exp(-0.5), rel=1e-12)
        assert rep.theta_sqrt_n == pytest.approx(5.0, abs=1e-13)
        assert rep.sigma2 == pytest.approx(1.0, abs=1e-13)
        assert rep.t_grid == (0.1, 1.0, 64)

    def test_bernoulli_lattice_non_decay(self, bernoulli):
        # delta1 at the characteristic-function period: modulus 1 per factor,
        # exposing why lattice summands need a diffuse weight distribution
        segs = [st.Segment(np.ones(100), bernoulli)]
        sol = st.solve_saddle(segs, 0.75, 1.0)
        rep = st.check_conditions(segs, sol, 2.0 * math.pi, 7.0, 32)
        assert rep.cf_sup == pytest.approx(10.0, rel=1e-12)

    def test_custom_fallback_matches_closed_form(self, uniform_weight, custom_twin):
        # the same diagnostic from the per-element complex-MGF fallback
        model = st.BinomialModel(4, 0.2)
        twin = custom_twin(model)
        weights = st.draw_environment(uniform_weight, 300, st.derive_stream(11, 0))
        sol = st.solve_saddle([st.Segment(weights, model)], 0.4, 1.0)
        got = st.check_conditions([st.Segment(weights, model)], sol, 0.1, 2.0, 32)
        want = st.check_conditions([st.Segment(weights, twin)], sol, 0.1, 2.0, 32)
        assert got.cf_sup == pytest.approx(want.cf_sup, rel=1e-10)

    def test_split_into_segments(self, bernoulli, uniform_weight):
        # chunks restart at each segment: a split on a chunk boundary leaves
        # every chunk sum as it was, any other split only regroups them
        weights = st.draw_environment(uniform_weight, 10_000, st.derive_stream(12, 0))
        whole = [st.Segment(weights, bernoulli)]
        sol = st.solve_saddle(whole, 0.3, 1.2)
        want = st.check_conditions(whole, sol).cf_sup

        def split_at(k):
            segs = [st.Segment(weights[:k], bernoulli), st.Segment(weights[k:], bernoulli)]
            return st.check_conditions(segs, sol).cf_sup

        assert split_at(2 * 4096) == want
        assert split_at(5_000) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_single_summand_scaling(self, gaussian):
        segs = [st.Segment(np.ones(1), gaussian)]
        sol = st.solve_saddle(segs, 0.5, 1.0)
        rep = st.check_conditions(segs, sol, 0.1, 1.0, 16)
        assert rep.theta_sqrt_n == pytest.approx(sol.theta, abs=0.0)

    def test_statistics_nonnegative_and_validated(self, gaussian):
        segs = [st.Segment(np.ones(10), gaussian)]
        sol = st.solve_saddle(segs, 0.5, 1.0)
        with pytest.raises(ValueError):
            st.check_conditions(segs, sol, 0.5, 0.1, 64)
        with pytest.raises(ValueError):
            st.check_conditions(segs, sol, 0.1, 1.0, 8)

    def test_cf_sup_monotone_in_n_and_closed_form(self, gaussian):
        # sqrt(n) exp(-n delta1^2/2) with delta1 = 0.2 decreases on n >= 100
        delta1 = 0.2
        values = []
        for n in (100, 1_000, 10_000):
            segs = [st.Segment(np.ones(n), gaussian)]
            sol = st.solve_saddle(segs, 0.5, 1.0)
            rep = st.check_conditions(segs, sol, delta1, 1.0, 64)
            closed = math.sqrt(n) * math.exp(-n * delta1**2 / 2.0)
            assert rep.cf_sup == pytest.approx(closed, rel=1e-8)
            values.append(rep.cf_sup)
        assert values[0] > values[1] > values[2]

    def test_theta_sqrt_n_ratio_stabilizes(self, gaussian, uniform_weight):
        # theta_n sqrt(n) / sqrt(n) = theta_n: spread < 10% across replicas
        # and across n = 1e4 vs 1e5
        ratios = []
        for n in (10_000, 100_000):
            for r in range(20):
                weights = st.draw_environment(uniform_weight, n, st.derive_stream(505, r))
                segs = [st.Segment(weights, gaussian)]
                sol = st.solve_saddle(segs, 0.2, 1.0)
                rep = st.check_conditions(segs, sol, 0.1, 1.0, 16)
                ratios.append(rep.theta_sqrt_n / math.sqrt(n))
        spread = (max(ratios) - min(ratios)) / np.mean(ratios)
        assert spread < 0.10

    def test_grid_includes_both_endpoints(self, gaussian):
        # max sits at delta1 for Gaussian; shrink the window so the right
        # endpoint would be missed by an exclusive grid
        segs = [st.Segment(np.ones(50), gaussian)]
        sol = st.solve_saddle(segs, 0.5, 1.0)
        rep = st.check_conditions(segs, sol, 0.3, 0.6001 / sol.theta, 16)
        lo = math.sqrt(50) * math.exp(-50 * 0.09 / 2.0)
        assert rep.cf_sup == pytest.approx(lo, rel=1e-10)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("grid_count", [16, 17, 512])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_cf_sup_is_the_single_buffer_kernel_bit_for_bit(monkeypatch, layout, grid_count, workers):
    """Row blocks on any number of threads give exactly the sup of one
    serial (chunk, grid_count) buffer per j-chunk."""
    monkeypatch.setattr(numerics, "_WORKERS", workers)
    segs = _mixed_segments(layout)
    sol = st.solve_saddle(segs, 0.35, 1.2)
    rep = st.check_conditions(segs, sol, 0.05, 1.0, grid_count)
    assert rep.cf_sup == cf_sup_single_buffer(segs, sol.theta, 0.05, 1.0, grid_count)


@pytest.mark.parametrize("block", [1, 7, 4096, 5000])
def test_cf_sup_does_not_depend_on_block_size(monkeypatch, block):
    monkeypatch.setattr(numerics, "_WORKERS", 2)
    monkeypatch.setattr(estimate, "_CF_BLOCK", block)
    segs = _mixed_segments(LAYOUTS[0])
    sol = st.solve_saddle(segs, 0.35, 1.2)
    rep = st.check_conditions(segs, sol, 0.05, 1.0, 17)
    assert rep.cf_sup == cf_sup_single_buffer(segs, sol.theta, 0.05, 1.0, 17)


def test_cf_sup_under_thread_switch_stress(monkeypatch):
    """More workers than CPUs and a thread switch every few microseconds:
    a chunk taken twice or never would change the sup."""
    monkeypatch.setattr(numerics, "_WORKERS", 7)
    segs = _mixed_segments([300] * 60)
    sol = st.solve_saddle(segs, 0.35, 1.2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = [st.check_conditions(segs, sol, 0.05, 1.0, 16).cf_sup for _ in range(5)]
    finally:
        sys.setswitchinterval(interval)
    assert got == [cf_sup_single_buffer(segs, sol.theta, 0.05, 1.0, 16)] * 5


def test_no_positions_is_named(gaussian):
    sol = st.solve_saddle([st.Segment(np.ones(10), gaussian)], 0.5, 1.0)
    for segs in ([], [st.Segment(np.ones(0), gaussian), st.Segment(np.ones(0), gaussian)]):
        with pytest.raises(ValueError, match="at least one position"):
            st.check_conditions(segs, sol)


def test_empty_segment_leaves_cf_sup_unchanged(bernoulli, gaussian, uniform_weight):
    weights = st.draw_environment(uniform_weight, 5_000, st.derive_stream(13, 0))
    segs = [st.Segment(weights[:4100], bernoulli), st.Segment(weights[4100:], gaussian)]
    sol = st.solve_saddle(segs, 0.3, 1.2)
    with_empty = [segs[0], st.Segment(np.ones(0), bernoulli), segs[1]]
    assert st.check_conditions(with_empty, sol).cf_sup == st.check_conditions(segs, sol).cf_sup
