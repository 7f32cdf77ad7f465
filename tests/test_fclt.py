"""Fluctuation-field replica studies."""

import math

import numpy as np
import pytest

import sharptail as st
from sharptail.fclt import fclt_grid, fclt_report, residual_gap_matrix, sample_fluctuations
from oracles import sample_excess_kurtosis, sample_skewness

GRID = [0.1, 0.2, 0.3]


def stack_X(samples):
    return np.stack([s.X for s in samples])


class TestSampleFluctuations:
    def test_constant_weights_are_fluctuation_free(self, gaussian, unit_weight):
        curves = st.DeterministicCurves(unit_weight, gaussian, 1.0)
        s = sample_fluctuations(fclt_grid(curves, 100, [0.2, 0.5]), 0, 1)
        assert np.all(s.X == 0.0) and np.all(s.X1 == 0.0) and np.all(s.X2 == 0.0)
        # random rate collapses onto the deterministic one
        for i, a in enumerate([0.2, 0.5]):
            _, rate = st.solve_deterministic(curves, a)
            assert s.I_n[i] == pytest.approx(rate, abs=1e-13)

    def test_centering_across_replicas(self, reference_curves):
        grid = fclt_grid(reference_curves, 2_000, GRID)
        X = stack_X([sample_fluctuations(grid, r, 55) for r in range(400)])
        se = X.std(axis=0, ddof=1) / math.sqrt(X.shape[0])
        assert np.all(np.abs(X.mean(axis=0)) <= 4 * se)

    def test_quadratic_variance_formula(self, reference_fluctuations):
        # Var X = (theta^4 / 4) Var(W^2) = 1.8 a^4 for the reference setup
        X = stack_X(reference_fluctuations)
        var = X.var(axis=0, ddof=1)
        for i, a in enumerate(GRID):
            assert var[i] == pytest.approx(1.8 * a**4, rel=0.10)

    def test_derivative_coherence(self, reference_fluctuations, reference_grid):
        # X1 is the theta-derivative of X: nonuniform central differences
        # over the induced theta grid agree at interior points
        s = reference_fluctuations[0]
        th, X, X1 = reference_grid.theta_grid, s.X, s.X1
        for i in range(1, len(GRID) - 1):
            h1, h2 = th[i] - th[i - 1], th[i + 1] - th[i]
            fd = (X[i + 1] * h1**2 - X[i - 1] * h2**2 + X[i] * (h2**2 - h1**2)) / (
                h1 * h2 * (h1 + h2))
            assert fd == pytest.approx(X1[i], rel=1e-3)

    def test_derivative_coherence_binomial(self, uniform_weight):
        model = st.BinomialModel(1, 0.5)
        curves = st.DeterministicCurves(uniform_weight, model, 1.2)
        grid = fclt_grid(curves, 20_000, curves.grid(9))
        s = sample_fluctuations(grid, 0, 314)
        th, X, X1 = grid.theta_grid, s.X, s.X1
        for i in range(1, th.size - 1):
            h1, h2 = th[i] - th[i - 1], th[i + 1] - th[i]
            fd = (X[i + 1] * h1**2 - X[i - 1] * h2**2 + X[i] * (h2**2 - h1**2)) / (
                h1 * h2 * (h1 + h2))
            assert fd == pytest.approx(X1[i], rel=1e-3)

    def test_out_of_range_marked_not_raised(self, uniform_weight):
        # the Bernoulli mean map saturates at the realized mean weight, so a
        # threshold near the top of J leaves the empirical range for some
        # small environments; entries must be masked, not fatal
        model = st.BinomialModel(1, 0.5)
        curves = st.DeterministicCurves(uniform_weight, model, 1.2)
        grid = fclt_grid(curves, 8, [0.30, 0.34])
        sams = [sample_fluctuations(grid, r, 77) for r in range(120)]
        assert any(not bool(np.all(s.valid)) for s in sams)
        for s in sams:
            assert np.all(np.isnan(s.I_n[~s.valid]))
            assert np.all(np.isfinite(s.I_n[s.valid]))

    def test_all_zero_environment_masked_not_raised(self, bernoulli):
        wm = st.TwoPointWeight((0.0, 1.0), (0.5, 0.5))
        grid = fclt_grid(st.DeterministicCurves(wm, bernoulli, 1.2), 4, [0.3, 0.35])
        zero = [r for r in range(40) if not np.any(wm.sample(4, st.derive_stream(3, r)))]
        assert zero
        for r in range(40):
            s = sample_fluctuations(grid, r, 3)
            assert bool(np.all(np.isnan(s.X))) == (r in zero)
            if r in zero:
                for values in (s.X1, s.X2, s.I_n, s.theta_n):
                    assert values.shape == (2,) and np.all(np.isnan(values))
                assert not np.any(s.valid)


class TestFcltReport:
    def test_requires_hundred_replicas(self, reference_curves):
        grid = fclt_grid(reference_curves, 100, GRID)
        sams = [sample_fluctuations(grid, r, 5) for r in range(99)]
        with pytest.raises(st.InsufficientReplicas):
            fclt_report(sams, grid)

    def test_constant_weights_zero_covariance(self, gaussian, unit_weight):
        curves = st.DeterministicCurves(unit_weight, gaussian, 1.0)
        grid = fclt_grid(curves, 50, [0.2, 0.4])
        rep = fclt_report([sample_fluctuations(grid, r, 9) for r in range(120)], grid)
        assert np.allclose(rep.empirical_cov, 0.0, atol=1e-28)
        assert np.allclose(rep.analytic_cov, 0.0, atol=1e-12)

    def test_reference_covariance_structure(self, reference_fluctuations, reference_grid):
        rep = fclt_report(reference_fluctuations, reference_grid)
        # analytic covariance: (theta theta')^2 / 4 * Var(W^2), theta = 3a
        for i, ai in enumerate(GRID):
            for j, aj in enumerate(GRID):
                want = (3 * ai) ** 2 * (3 * aj) ** 2 / 4.0 * (4.0 / 45.0)
                assert rep.analytic_cov[i, j] == pytest.approx(want, rel=1e-6)
        assert np.array_equal(rep.empirical_cov, rep.empirical_cov.T)
        assert np.array_equal(rep.analytic_cov, rep.analytic_cov.T)
        scale = float(np.max(np.abs(rep.empirical_cov)))
        assert np.all(np.linalg.eigvalsh(rep.empirical_cov) >= -1e-10 * scale)
        assert np.all(np.linalg.eigvalsh(rep.analytic_cov) >= -1e-10 * scale)
        assert rep.max_abs_cov_error <= 0.15 * np.max(np.diag(rep.analytic_cov))

    def test_gaussianity_proxy(self, reference_fluctuations):
        X = stack_X(reference_fluctuations)
        for i in range(X.shape[1]):
            assert abs(sample_skewness(X[:, i])) < 0.15
            assert abs(sample_excess_kurtosis(X[:, i])) < 0.3


class TestResidualDecomposition:
    def test_gaussian_identity_is_exact(self, reference_fluctuations, reference_grid):
        # quadratic CGF: the second-order remainder formula is an identity,
        # so the gap sits at n-amplified roundoff, far below any real signal
        _, gaps, delta_gaps = residual_gap_matrix(reference_fluctuations, reference_grid)
        assert float(np.median(gaps)) < 1e-9
        assert float(np.median(delta_gaps)) < 1e-12

    def test_binomial_gap_decreases_in_n(self, uniform_weight):
        model = st.BinomialModel(1, 0.5)
        curves = st.DeterministicCurves(uniform_weight, model, 1.2)
        medians = []
        for n in (1_000, 10_000, 100_000):
            grid = fclt_grid(curves, n, [0.28, 0.30, 0.32])
            sams = [sample_fluctuations(grid, r, 60217) for r in range(150)]
            _, gaps, _ = residual_gap_matrix(sams, grid)
            medians.append(np.median(gaps, axis=0))
        medians = np.array(medians)
        assert np.all(np.diff(medians, axis=0) < 0.0)

    def test_residual_magnitude_matches_prediction_scale(self, reference_fluctuations,
                                                         reference_grid):
        rep = fclt_report(reference_fluctuations, reference_grid)
        for s in rep.residual_stats:
            # measured remainder is O(1) in n, nonzero, and not exploding
            assert 1e-6 < s.median_abs_residual < 10.0
            assert s.median_abs_residual_gap < 1e-9
