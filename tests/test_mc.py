"""Monte Carlo and enumeration oracles against independent references."""

import math
from fractions import Fraction

import numpy as np
import pytest

import sharptail as st
from sharptail import numerics
from oracles import binomial_upper_tail, normal_upper_tail, weighted_bernoulli_tail


def _unit(n, cm):
    """n unit weights with one summand model: one segment."""
    return [st.Segment(np.ones(n), cm)]


MC = st.McConfig(batches=100, batch_size=10_000, seed=404)


class TestExactEnum:
    def test_bernoulli_binomial_tail_identity(self, bernoulli):
        est = st.exact_enum_segments(_unit(10, bernoulli), 0.7)
        assert est.value == 176 / 1024
        assert est.value == binomial_upper_tail(10, Fraction(1, 2), 7)
        assert est.method == "exact_enum"
        assert est.stderr is None

    def test_two_position_hand_enumeration(self, bernoulli):
        segs = [st.Segment(np.array([0.3, 0.9]), bernoulli)]
        est = st.exact_enum_segments(segs, 0.5)
        # sums 0, 0.3, 0.9, 1.2 against threshold 1.0: one qualifying tuple
        assert est.value == pytest.approx(0.25, abs=1e-15)

    def test_certain_event(self, bernoulli):
        est = st.exact_enum_segments(_unit(6, bernoulli), 0.0)
        assert est.value == 1.0

    def test_matches_pure_python_oracle_on_random_instances(self, bernoulli):
        rng = np.random.default_rng(12)
        for _ in range(5):
            n = int(rng.integers(2, 9))
            w = rng.uniform(0.1, 1.0, n)
            a = float(rng.uniform(0.2, 0.6))
            segs = [st.Segment(w, bernoulli)]
            got = st.exact_enum_segments(segs, a).value
            want = weighted_bernoulli_tail(w.tolist(), Fraction(1, 2), a * n)
            assert got == pytest.approx(want, rel=1e-12)

    def test_binomial_support_beyond_bernoulli(self):
        model = st.BinomialModel(2, 0.3)
        segs = _unit(3, model)
        est = st.exact_enum_segments(segs, 1.0)
        # S ~ Bin(6, 0.3), threshold 3
        assert est.value == pytest.approx(binomial_upper_tail(6, Fraction(3, 10), 3), rel=1e-12)

    def test_too_large_rejected(self, bernoulli):
        with pytest.raises(st.TooLarge):
            st.exact_enum_segments(_unit(25, bernoulli), 0.7)

    def test_non_lattice_rejected(self, gaussian):
        with pytest.raises(st.NotEnumerable):
            st.exact_enum_segments(_unit(5, gaussian), 0.5)
        # NotEnumerable is a capacity error for exit-code purposes
        assert issubclass(st.NotEnumerable, st.TooLarge)


class TestTiltedMc:
    def test_bernoulli_against_enumeration(self, bernoulli):
        segs = _unit(10, bernoulli)
        sol = st.solve_saddle(segs, 0.7, 1.0)
        est = st.tilted_mc_segments(segs, 0.7, sol.theta, MC)
        assert abs(est.value - 176 / 1024) <= 4 * est.stderr

    def test_gaussian_against_normal_tail(self, gaussian):
        segs = _unit(100, gaussian)
        sol = st.solve_saddle(segs, 0.5, 1.0)
        est = st.tilted_mc_segments(segs, 0.5, sol.theta, MC)
        assert abs(est.value - normal_upper_tail(5.0)) <= 4 * est.stderr

    def test_below_mean_rejected_upstream(self, gaussian):
        segs = _unit(10, gaussian)
        with pytest.raises(st.OutOfRange):
            st.solve_saddle(segs, -0.5, 1.0)
        zero_sol = st.solve_saddle(segs, 0.0, 1.0)
        with pytest.raises(st.OutOfRange):
            st.tilted_mc_segments(segs, 0.0, zero_sol.theta, MC)

    def test_bit_identical_reruns(self, bernoulli):
        segs = _unit(10, bernoulli)
        sol = st.solve_saddle(segs, 0.7, 1.0)
        a = st.tilted_mc_segments(segs, 0.7, sol.theta, MC)
        b = st.tilted_mc_segments(segs, 0.7, sol.theta, MC)
        assert (a.value, a.log_value, a.stderr, a.hits) == (b.value, b.log_value, b.stderr, b.hits)

    def test_variance_reduction_on_rare_event(self, bernoulli):
        # exact P <= 1e-3: tilted stderr at least 10x below naive stderr
        segs = _unit(12, bernoulli)
        a = 0.93
        exact = st.exact_enum_segments(segs, a).value
        assert exact <= 1e-3
        sol = st.solve_saddle(segs, a, 1.0)
        tilted = st.tilted_mc_segments(segs, a, sol.theta, MC)
        naive = st.naive_mc_segments(segs, a, MC)
        assert naive.stderr >= 10 * tilted.stderr
        assert abs(tilted.value - exact) <= 4 * tilted.stderr

    def test_insufficient_hits_warning(self, gaussian):
        # deep tail with a tiny budget cannot hit often enough to matter
        segs = _unit(30, gaussian)
        sol = st.solve_saddle(segs, 1.2, 2.0)
        cfg = st.McConfig(batches=10, batch_size=100, seed=1)
        naive = st.naive_mc_segments(segs, 1.2, cfg)
        assert "insufficient_hits" in naive.warnings
        assert naive.value == 0.0 and naive.log_value == -math.inf

    def test_stderr_suppressed_below_draw_floor(self, bernoulli):
        segs = _unit(10, bernoulli)
        sol = st.solve_saddle(segs, 0.7, 1.0)
        cfg = st.McConfig(batches=3, batch_size=100, seed=2)
        est = st.tilted_mc_segments(segs, 0.7, sol.theta, cfg)
        assert est.stderr is None
        assert "draws_below_stderr_floor" in est.warnings


class TestNaiveMc:
    def test_bernoulli_tail(self, bernoulli):
        segs = _unit(10, bernoulli)
        est = st.naive_mc_segments(segs, 0.7, MC)
        assert abs(est.value - 176 / 1024) <= 4 * est.stderr
        assert est.stderr == pytest.approx(
            math.sqrt(est.value * (1 - est.value) / MC.draws), rel=1e-12)

    def test_gaussian_moderate_deviation(self, gaussian):
        segs = _unit(10, gaussian)
        est = st.naive_mc_segments(segs, 0.1, st.McConfig(batches=10, batch_size=10_000, seed=3))
        want = normal_upper_tail(0.1 * math.sqrt(10))
        assert abs(est.value - want) <= 4 * est.stderr

    def test_single_summand_symmetry(self, gaussian):
        segs = _unit(1, gaussian)
        est = st.naive_mc_segments(segs, 0.0, st.McConfig(batches=10, batch_size=10_000, seed=4))
        assert est.value == pytest.approx(0.5, abs=4 * est.stderr)

    def test_bit_identical_reruns(self, gaussian):
        segs = _unit(10, gaussian)
        a = st.naive_mc_segments(segs, 0.2, MC)
        b = st.naive_mc_segments(segs, 0.2, MC)
        assert (a.value, a.stderr, a.hits) == (b.value, b.stderr, b.hits)

    def test_tilted_and_naive_streams_differ(self, bernoulli):
        # equal seeds must not couple the two estimators
        segs = _unit(10, bernoulli)
        sol = st.solve_saddle(segs, 0.7, 1.0)
        tilted = st.tilted_mc_segments(segs, 0.7, sol.theta, MC)
        naive = st.naive_mc_segments(segs, 0.7, MC)
        assert tilted.hits != naive.hits


def test_estimates_do_not_depend_on_worker_count(monkeypatch, bernoulli, gaussian):
    """A Bernoulli segment large enough to split its fill, beside a Gaussian
    one, gives the same estimates on one worker as on two."""
    stream = st.derive_stream(77, 0)
    segs = [st.Segment(st.draw_environment(st.UniformWeight(0.0, 1.0), 300, stream), bernoulli),
            st.Segment(st.draw_environment(st.UniformWeight(0.5, 2.0), 100, stream), gaussian)]
    a = 0.35
    theta = st.solve_saddle(segs, a, 1.0).theta
    cfg = st.McConfig(batches=4, batch_size=3000, seed=8)
    fills = []  # one entry per thread that ran part of a fill
    run_parts = numerics.run_parts
    monkeypatch.setattr(numerics, "run_parts", lambda work, parts: run_parts(
        lambda next_part: fills.append(1) or work(next_part), parts))
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(numerics, "_WORKERS", workers)
        fills.clear()
        runs.append((st.tilted_mc_segments(segs, a, theta, cfg),
                     st.naive_mc_segments(segs, a, cfg), len(fills)))
    (tilted1, naive1, fills1), (tilted2, naive2, fills2) = runs
    assert fills2 > fills1  # the two-worker run did split its fills
    assert tilted1 == tilted2 and naive1 == naive2
    assert tilted1.hits > 0


class TestMcConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            st.McConfig(batches=0, batch_size=10, seed=0)
        with pytest.raises(ValueError):
            st.McConfig(batches=10, batch_size=0, seed=0)

    def test_draws(self):
        assert st.McConfig(batches=7, batch_size=11, seed=0).draws == 77


def test_enumerable_suite_oracle_agreement(bernoulli):
    """One full (p, weights, n) instance of the oracle-agreement property."""
    wm = st.UniformWeight(0.0, 1.0)
    weights = st.draw_environment(wm, 8, st.derive_stream(1234, 0))
    segs = [st.Segment(weights, bernoulli)]
    lo = st.psi_sum(segs, 0.0, 1) / weights.size
    hi = float(np.mean(weights))
    for frac in (0.4, 0.7):
        a = lo + frac * (hi - lo)
        exact = st.exact_enum_segments(segs, a)
        sol = st.solve_saddle(segs, a, 1.0)
        tilted = st.tilted_mc_segments(segs, a, sol.theta, MC)
        naive = st.naive_mc_segments(segs, a, MC)
        assert abs(tilted.value - exact.value) <= 4 * tilted.stderr
        if naive.hits >= 100:
            assert abs(naive.value - exact.value) <= 4 * naive.stderr
