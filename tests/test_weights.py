"""Weight models, environments, expectation functional, curves."""

import math

import numpy as np
import pytest

import sharptail as st
from sharptail.numerics import adaptive_gauss_legendre


class TestDrawEnvironment:
    def test_constant_model(self, unit_weight):
        weights = st.draw_environment(unit_weight, 5, st.derive_stream(0, 0))
        assert np.array_equal(weights, np.ones(5))

    def test_uniform_mean_clt_bound(self, uniform_weight):
        weights = st.draw_environment(uniform_weight, 10**6, st.derive_stream(1, 0))
        # 4 standard errors of a uniform mean: 4 / sqrt(12 * 1e6) ~ 0.00115
        assert abs(weights.mean() - 0.5) < 0.002

    def test_two_point_fraction(self):
        wm = st.TwoPointWeight((0.0, 1.0), (0.5, 0.5))
        weights = st.draw_environment(wm, 10**6, st.derive_stream(2, 0))
        assert abs(weights.mean() - 0.5) < 0.002

    def test_degenerate_environment_raises(self):
        zero_sampler = st.CustomWeight(
            sampler=lambda n, stream: np.zeros(n),
            expect_fn=lambda h: float(h(np.asarray(0.0))),
        )
        with pytest.raises(st.DegenerateEnvironment):
            st.draw_environment(zero_sampler, 4, st.derive_stream(3, 0))

    def test_reproducible_given_provenance(self, uniform_weight):
        w1 = st.draw_environment(uniform_weight, 1000, st.derive_stream(9, 4))
        w2 = st.draw_environment(uniform_weight, 1000, st.derive_stream(9, 4))
        w3 = st.draw_environment(uniform_weight, 1000, st.derive_stream(9, 5))
        assert np.array_equal(w1, w2)
        assert not np.array_equal(w1, w3)

    def test_rejects_bad_n(self, unit_weight):
        with pytest.raises(ValueError):
            st.draw_environment(unit_weight, 0, st.derive_stream(0, 0))

    @pytest.mark.parametrize("sampler", [
        lambda n, rng: np.ones(n + 1),
        lambda n, rng: np.ones((n, 1)),
        lambda n, rng: np.ones(0),
    ])
    def test_rejects_malformed_sampler_output(self, sampler):
        wm = st.CustomWeight(sampler=sampler, expect_fn=lambda h: float(h(np.asarray(1.0))))
        with pytest.raises(ValueError):
            st.draw_environment(wm, 4, st.derive_stream(0, 0))

    def test_rejects_non_float_weights(self):
        class IntegerWeight(st.WeightModel):
            def sample(self, n, stream):
                return np.ones(n, dtype=int)

        with pytest.raises(ValueError):
            st.draw_environment(IntegerWeight(), 4, st.derive_stream(0, 0))


class TestModelValidation:
    def test_constant_zero_rejected(self):
        with pytest.raises(ValueError):
            st.ConstantWeight(0.0)

    def test_two_point_all_mass_at_zero_rejected(self):
        with pytest.raises(ValueError):
            st.TwoPointWeight((0.0, 1.0), (1.0, 0.0))

    def test_two_point_bad_probs_rejected(self):
        with pytest.raises(ValueError):
            st.TwoPointWeight((0.0, 1.0), (0.7, 0.7))

    def test_uniform_needs_ordered_interval(self):
        with pytest.raises(ValueError):
            st.UniformWeight(1.0, 1.0)

    def test_uniform_expect_density(self):
        # density 1/(d-c) = 2 on [0.25, 0.75] and zero elsewhere
        wm = st.UniformWeight(0.25, 0.75)
        assert wm.expect(np.ones_like) == pytest.approx(1.0, rel=1e-12)
        assert wm.expect(lambda w: w - 0.25) == pytest.approx(0.25, rel=1e-12)


class TestExpectWeighted:
    def test_constant_point_mass(self):
        assert st.ConstantWeight(2.0).expect(lambda w: w * w) == 4.0

    def test_uniform_square_ten_digits(self, uniform_weight):
        got = uniform_weight.expect(lambda w: w * w)
        assert got == pytest.approx(1.0 / 3.0, rel=1e-10)

    def test_two_point_hand_value(self):
        wm = st.TwoPointWeight((-1.0, 3.0), (0.5, 0.5))
        assert wm.expect(lambda w: w) == pytest.approx(1.0, abs=1e-15)

    def test_quadrature_failure_when_node_cap_hit(self):
        # oscillation far beyond what 2^14 nodes can resolve
        with pytest.raises(st.QuadratureFailure):
            adaptive_gauss_legendre(
                lambda w: np.sin(3e4 * w) + 2.0, 0.0, 1.0, 1e-10, 2**14
            )

    def test_quadrature_failure_on_nonfinite_integrand(self):
        def singular(w):
            with np.errstate(divide="ignore"):
                return np.abs(w - 0.5) ** -0.9

        with pytest.raises(st.QuadratureFailure):
            adaptive_gauss_legendre(singular, 0.0, 1.0, 1e-10, 2**14)

    @pytest.mark.parametrize("wm", [
        st.UniformWeight(0.0, 1.0),
        st.TwoPointWeight((0.0, 1.0), (0.5, 0.5)),
        st.TcellWeight(tau_kind="exponential", rate=1.0),
        st.TcellWeight(tau_kind="lognormal", mu=0.0, s=1.0),
    ])
    def test_declared_moments_match_sampler(self, wm):
        draws = wm.sample(10**6, st.derive_stream(77, 0))
        for k in (1, 2):
            x = draws**k
            se = x.std(ddof=1) / math.sqrt(x.size)
            assert wm.moment(k) == pytest.approx(x.mean(), abs=5 * se)

    @pytest.mark.parametrize("wm", [
        st.UniformWeight(0.0, 1.0),
        st.TcellWeight(tau_kind="exponential", rate=1.0),
        st.TwoPointWeight((0.2, 0.9), (0.4, 0.6)),
    ])
    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_quadrature_agrees_with_monte_carlo(self, wm, theta, gaussian):
        cm = gaussian
        hs = {
            "f": lambda w: cm.f(w * theta),
            "wf1": lambda w: w * cm.f1(w * theta),
            "w2f2": lambda w: w * w * cm.f2(w * theta),
        }
        draws = wm.sample(10**6, st.derive_stream(78, 0))
        for h in hs.values():
            x = np.asarray(h(draws))
            se = x.std(ddof=1) / math.sqrt(x.size)
            assert wm.expect(h) == pytest.approx(x.mean(), abs=5 * se)


class TestTcellWeight:
    def test_bounded_by_inverse_e(self):
        wm = st.TcellWeight(tau_kind="exponential", rate=1.0)
        draws = wm.sample(10**5, st.derive_stream(5, 0))
        # x exp(-x) <= 1/e; tiny dwell times underflow to an honest 0.0
        assert np.all(draws >= 0.0)
        assert np.all(draws <= 1.0 / math.e + 1e-15)
        assert np.count_nonzero(draws) > 0.99 * draws.size

    def test_expectation_against_dense_riemann(self):
        # independent oracle: midpoint rule over tau on (0, 60] with 2^20 cells
        wm = st.TcellWeight(tau_kind="exponential", rate=1.0)
        tau = (np.arange(2**20) + 0.5) * (60.0 / 2**20)
        vals = np.exp(-1.0 / tau) / tau * np.exp(-tau) * (60.0 / 2**20)
        assert wm.moment(1) == pytest.approx(float(vals.sum()), rel=1e-7)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            st.TcellWeight(tau_kind="gamma")
        with pytest.raises(ValueError):
            st.TcellWeight(tau_kind="exponential", rate=0.0)


class TestCurves:
    def test_gaussian_uniform_reference(self, reference_curves):
        lo, hi = reference_curves.J
        assert lo == pytest.approx(0.0, abs=1e-15)
        assert hi == pytest.approx(1.0 / 3.0, rel=1e-10)
        for theta in np.linspace(0.1, 1.0, 7):
            assert reference_curves.psi(theta, 1) == pytest.approx(theta / 3.0, rel=1e-10)
            assert reference_curves.psi(theta, 0) == pytest.approx(theta**2 / 6.0, rel=1e-10)

    def test_constant_weight_reduces_to_cgf(self, gaussian, unit_weight):
        curves = st.DeterministicCurves(unit_weight, gaussian, 2.0)
        assert curves.J == pytest.approx((0.0, 2.0), rel=1e-12)
        for theta in (0.3, 1.1, 1.9):
            assert curves.psi(theta, 0) == pytest.approx(theta**2 / 2.0, rel=1e-14)
            assert curves.psi(theta, 1) == pytest.approx(theta, rel=1e-14)

    def test_bernoulli_constant_interval(self, bernoulli, unit_weight):
        curves = st.DeterministicCurves(unit_weight, bernoulli, math.log(3.0))
        assert curves.J[0] == pytest.approx(0.5, rel=1e-14)
        assert curves.J[1] == pytest.approx(0.75, rel=1e-12)

    @pytest.mark.parametrize("cm", [st.GaussianModel(1.0), st.BinomialModel(5, 0.4)])
    @pytest.mark.parametrize("wm", [
        st.UniformWeight(0.0, 1.0),
        st.TcellWeight(tau_kind="exponential", rate=1.0),
    ])
    def test_mean_map_increasing_curvature_positive(self, cm, wm):
        curves = st.DeterministicCurves(wm, cm, 1.0)
        grid = np.linspace(0.0, 1.0, 100)
        g1_vals = np.array([curves.psi(t, 1) for t in grid])
        g2_vals = np.array([curves.psi(t, 2) for t in grid])
        assert np.all(np.diff(g1_vals) > 0.0)
        assert np.all(g2_vals > 0.0)

    def test_interior_grid(self, reference_curves):
        grid = reference_curves.grid(9)
        lo, hi = reference_curves.J
        assert grid.size == 9
        assert np.all((grid > lo) & (grid < hi))
        assert np.all(np.diff(grid) > 0)

    def test_empty_interval_raises(self):
        # broken custom callbacks with decreasing mean map
        broken = st.CustomModel(
            cgf=lambda t: -np.square(t),
            cgf1=lambda t: -2.0 * np.asarray(t, dtype=float),
            cgf2=lambda t: np.full_like(np.asarray(t, dtype=float), -2.0),
            cgf3=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
            mgf=lambda z: complex(1.0),
            tilted=lambda tilts, size, stream: np.zeros((size, tilts.size)),
        )
        with pytest.raises(st.EmptyInterval):
            st.DeterministicCurves(st.ConstantWeight(1.0), broken, 1.0)

    def test_theta_star_must_be_positive(self, gaussian, uniform_weight):
        with pytest.raises(ValueError):
            st.DeterministicCurves(uniform_weight, gaussian, 0.0)
