"""Saddle solver: hand examples, invariants, Legendre duality, convergence."""

import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as hst

import sharptail as st
from sharptail.saddle import psi_sum
from oracles import bisect_root


def _seg(weights, cm):
    """A single-model environment: one segment."""
    return [st.Segment(np.asarray(weights, dtype=float), cm)]


def _psi(segments, theta, order):
    """psi_n and its derivatives: the kernel's sum divided by n."""
    return psi_sum(segments, theta, order) / sum(s.weights.size for s in segments)


class TestEmpiricalPsi:
    def test_reduces_to_cgf_for_unit_weights(self, gaussian):
        assert _psi(_seg([1.0, 1.0], gaussian), 2.0, 0) == pytest.approx(2.0, abs=0.0)

    def test_order_one_hand_value(self, gaussian):
        # (1*1 + 2*2)/2 * theta at theta = 1
        assert _psi(_seg([1.0, 2.0], gaussian), 1.0, 1) == pytest.approx(2.5, abs=0.0)

    def test_order_zero_hand_value(self, gaussian):
        got = _psi(_seg([1.0, 2.0], gaussian), 0.4, 0)
        assert got == pytest.approx(0.2, rel=1e-15)

    def test_undivided_sum_hand_value(self, gaussian):
        # W^2 f'' = W^2 for unit-variance Gaussian summands: 1 + 4 + 9
        assert psi_sum(_seg([1.0, 2.0, 3.0], gaussian), 0.7, 2) == 14.0

    def test_invalid_order(self, gaussian, unit_weight):
        with pytest.raises(ValueError):
            psi_sum(_seg([1.0], gaussian), 0.0, 3)
        with pytest.raises(ValueError):
            st.DeterministicCurves(unit_weight, gaussian, 1.0).psi(0.0, 3)


@pytest.mark.parametrize("cm", [st.BinomialModel(1, 0.5), st.BinomialModel(7, 0.3),
                                st.GaussianModel(2.5)], ids=["bernoulli", "binomial", "gaussian"])
@pytest.mark.parametrize("c", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("n", [1, 64, 4096])
def test_constant_weights_psi_n_equals_limit_bit_for_bit(cm, c, n):
    # psi_n and g average the same terms; n equal terms sum exactly to n
    # times one term when n is a power of two, so dividing by n is exact
    segments = [st.Segment(np.full(n, c), cm)]
    curves = st.DeterministicCurves(st.ConstantWeight(c), cm, 1.0)
    for theta in (-1.5, 0.4, 3.0):
        for order in (0, 1, 2):
            assert psi_sum(segments, theta, order) / n == curves.psi(theta, order)


@pytest.mark.parametrize("cm", [st.BinomialModel(1, 0.5), st.BinomialModel(7, 0.3),
                                st.GaussianModel(2.5)], ids=["bernoulli", "binomial", "gaussian"])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(weights=hst.lists(hst.floats(0.0, 3.0), min_size=1, max_size=60),
       theta=hst.floats(-4.0, 4.0), order=hst.sampled_from((0, 1, 2)),
       cuts=hst.lists(hst.integers(0, 60), max_size=6), rnd=hst.randoms())
def test_psi_sum_invariant_under_split_and_permutation(cm, weights, theta, order, cuts, rnd):
    # permute the positions, cut them into segments and shuffle the
    # segments: the sum equals the one-segment value bit for bit
    w = np.asarray(weights)
    shuffled = w[rnd.sample(range(w.size), w.size)]
    bounds = sorted({0, w.size, *(c % (w.size + 1) for c in cuts)})
    pieces = [st.Segment(shuffled[lo:hi], cm) for lo, hi in zip(bounds, bounds[1:])]
    rnd.shuffle(pieces)
    assert psi_sum(pieces, theta, order) == psi_sum([st.Segment(w, cm)], theta, order)


class TestSolveSaddle:
    def test_gaussian_unit_weights_closed_form(self, gaussian):
        sol = st.solve_saddle(_seg(np.ones(17), gaussian), 0.5, 1.0)
        assert sol.theta == pytest.approx(0.5, abs=1e-13)
        assert sol.rate == pytest.approx(0.125, abs=1e-13)
        assert sol.sigma2 == pytest.approx(1.0, abs=1e-13)

    def test_two_weights_hand_algebra_with_bisection_oracle(self, gaussian):
        segs = _seg([1.0, 2.0], gaussian)
        sol = st.solve_saddle(segs, 1.0, 1.0)
        # psi'(t) = 2.5 t, root at 0.4; independent bisection cross-check
        oracle = bisect_root(lambda t: _psi(segs, t, 1) - 1.0,
                             0.0, 2.0, tol=1e-14)
        assert sol.theta == pytest.approx(0.4, abs=1e-12)
        assert sol.theta == pytest.approx(oracle, abs=1e-12)
        assert sol.rate == pytest.approx(1.0 * 0.4 - 0.2, abs=1e-12)

    def test_bernoulli_relative_entropy(self, bernoulli):
        sol = st.solve_saddle(_seg(np.ones(10), bernoulli), 0.75, 1.0)
        assert sol.theta == pytest.approx(math.log(3.0), abs=1e-11)
        entropy = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert sol.rate == pytest.approx(entropy, abs=1e-12)

    def test_residual_tolerance_invariant(self, gaussian, uniform_weight):
        weights = st.draw_environment(uniform_weight, 500, st.derive_stream(3, 0))
        for a in (0.05, 0.1, 0.2, 0.3):
            sol = st.solve_saddle(_seg(weights, gaussian), a, 1.0)
            assert sol.residual <= 1e-12 * max(1.0, abs(a))
            assert sol.sigma2 > 0.0
            assert sol.rate >= 0.0

    def test_theta_strictly_increasing_in_a(self, gaussian, uniform_weight):
        weights = st.draw_environment(uniform_weight, 200, st.derive_stream(4, 0))
        thetas = [st.solve_saddle(_seg(weights, gaussian), a, 1.0).theta
                  for a in np.linspace(0.02, 0.3, 12)]
        assert np.all(np.diff(thetas) > 0.0)

    def test_below_mean_out_of_range(self, gaussian):
        with pytest.raises(st.OutOfRange):
            st.solve_saddle(_seg(np.ones(5), gaussian), -0.1, 1.0)

    def test_bracket_cap_out_of_range(self, bernoulli):
        # Bernoulli mean map saturates at 1; a = 1.5 is unreachable
        with pytest.raises(st.OutOfRange):
            st.solve_saddle(_seg(np.ones(5), bernoulli), 1.5, 1.0)

    def test_threshold_exactly_at_mean(self, gaussian):
        sol = st.solve_saddle(_seg(np.ones(5), gaussian), 0.0, 1.0)
        assert sol.theta == 0.0 and sol.rate == 0.0
        with pytest.raises(st.PrefactorDegenerate):
            st.sldp_estimate(sol, 5)

    def test_bracket_expansion_beyond_theta_star(self, gaussian):
        # theta(a) = 12 with theta_star = 1 forces 4 doublings
        sol = st.solve_saddle(_seg(np.ones(5), gaussian), 12.0, 1.0)
        assert sol.theta == pytest.approx(12.0, rel=1e-12)

    def test_legendre_duality_maxima(self, gaussian, uniform_weight):
        weights = st.draw_environment(uniform_weight, 300, st.derive_stream(5, 0))
        segs = _seg(weights, gaussian)
        lo = _psi(segs, 0.0, 1)
        hi = _psi(segs, 1.0, 1)
        rng = np.random.default_rng(11)
        for a in rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 50):
            sol = st.solve_saddle(segs, float(a), 1.0)
            val = a * sol.theta - _psi(segs, sol.theta, 0)
            for eps in (1e-4, -1e-4):
                t = sol.theta + eps
                perturbed = a * t - _psi(segs, t, 0)
                assert perturbed < val

    def test_saddle_converges_to_deterministic_in_n(self, gaussian, uniform_weight,
                                                    reference_curves):
        # |theta_n(a) - theta(a)| across n = 10^2..10^5: medians over 100
        # replica chains strictly shrink, and 95% of chains end below start
        a = 0.2
        theta_det, _ = st.solve_deterministic(reference_curves, a)
        sizes = (100, 1_000, 10_000, 100_000)
        errors = np.empty((100, len(sizes)))
        for r in range(100):
            for j, n in enumerate(sizes):
                weights = st.draw_environment(uniform_weight, n, st.derive_stream(606, r, j))
                sol = st.solve_saddle(_seg(weights, gaussian), a, 1.0)
                errors[r, j] = abs(sol.theta - theta_det)
        medians = np.median(errors, axis=0)
        assert np.all(np.diff(medians) < 0.0)
        assert np.mean(errors[:, -1] < errors[:, 0]) >= 0.95


class TestSolveDeterministic:
    def test_gaussian_uniform_hand_values(self, reference_curves):
        theta, rate = st.solve_deterministic(reference_curves, 0.2)
        assert theta == pytest.approx(0.6, rel=1e-10)
        assert rate == pytest.approx(0.06, rel=1e-9)

    def test_constant_weights_match_empirical(self, gaussian, unit_weight):
        curves = st.DeterministicCurves(unit_weight, gaussian, 1.0)
        theta, rate = st.solve_deterministic(curves, 0.5)
        assert theta == pytest.approx(0.5, abs=1e-12)
        assert rate == pytest.approx(0.125, abs=1e-12)

    def test_bernoulli_entropy(self, bernoulli, unit_weight):
        curves = st.DeterministicCurves(unit_weight, bernoulli, 1.0)
        theta, rate = st.solve_deterministic(curves, 0.6)
        assert theta == pytest.approx(math.log(1.5), abs=1e-11)
        entropy = 0.6 * math.log(1.2) + 0.4 * math.log(0.8)
        assert rate == pytest.approx(entropy, abs=1e-12)

    def test_matches_empirical_solver_for_constant_weights(self, gaussian, unit_weight):
        curves = st.DeterministicCurves(unit_weight, gaussian, 1.0)
        weights = st.draw_environment(unit_weight, 50, st.derive_stream(0, 0))
        for a in np.linspace(0.05, 0.9, 9):
            det_theta, det_rate = st.solve_deterministic(curves, float(a))
            sol = st.solve_saddle(_seg(weights, gaussian), float(a), 1.0)
            assert det_theta == pytest.approx(sol.theta, abs=1e-10)
            assert det_rate == pytest.approx(sol.rate, abs=1e-10)

    def test_open_interval_endpoints_rejected(self, reference_curves):
        lo, hi = reference_curves.J
        for a in (lo, hi, lo - 0.01, hi + 0.01):
            with pytest.raises(st.OutOfRange):
                st.solve_deterministic(reference_curves, a)
