"""Summand-model tests: CGF values, derivatives, moduli, tilted sampling."""

import cmath
import math
import os
import signal
import sys
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as hst

import sharptail as st
from sharptail import cgf
from oracles import central_diff, complex_mgf

# 50-digit evaluation of 10*log(0.5 + 0.5*e) via mpmath:
#   >>> mp.mp.dps = 50; 10*mp.log(mp.mpf(1)/2 + mp.e/2)
BINOMIAL_CGF_AT_1 = 6.2011450695827752463176337350967907383977995131009


def test_eval_cgf_gaussian_closed_form(gaussian):
    assert float(gaussian.f(2.0)) == pytest.approx(2.0, abs=0.0)


@pytest.mark.parametrize("m,p", [(1, 0.5), (10, 0.5), (7, 0.3)])
def test_eval_cgf_binomial_at_zero(m, p):
    assert float(st.BinomialModel(m, p).f(0.0)) == 0.0


def test_eval_cgf_binomial_high_precision():
    model = st.BinomialModel(10, 0.5)
    assert float(model.f(1.0)) == pytest.approx(BINOMIAL_CGF_AT_1, rel=1e-14)


BUILTIN_MODELS = [
    st.GaussianModel(1.0),
    st.GaussianModel(2.5),
    st.BinomialModel(1, 0.5),
    st.BinomialModel(10, 0.5),
    st.BinomialModel(4, 0.2),
]


def _variance(model):
    """Closed-form Var Z: sigma2, or m p (1-p)."""
    if isinstance(model, st.GaussianModel):
        return model.sigma2
    return model.m * model.p * (1.0 - model.p)


@pytest.mark.parametrize("model", BUILTIN_MODELS)
class TestModelInvariants:
    theta_grid = np.linspace(-5.0, 5.0, 41)

    def test_cgf_zero_and_mean(self, model):
        assert float(model.f(0.0)) == 0.0
        assert float(model.f1(0.0)) == pytest.approx(model.mean, rel=1e-15)
        assert float(model.f2(0.0)) == pytest.approx(_variance(model), rel=1e-15)

    def test_strict_convexity(self, model):
        assert np.all(model.f2(self.theta_grid) > 0.0)

    def test_f1_derivative_matches_f2(self, model):
        for theta in self.theta_grid:
            h = 1e-5 * max(1.0, abs(theta))
            fd = central_diff(lambda t: float(model.f1(t)), theta, h)
            assert fd == pytest.approx(float(model.f2(theta)), rel=1e-6)

    def test_f2_derivative_matches_f3(self, model):
        for theta in self.theta_grid:
            h = 1e-5 * max(1.0, abs(theta))
            fd = central_diff(lambda t: float(model.f2(t)), theta, h)
            assert fd == pytest.approx(float(model.f3(theta)), abs=1e-5, rel=1e-6)

    def test_modulus_bound(self, model):
        # |tilted CF| <= 1 at tilt = w theta, y = w t; equal to 1 at y = 0
        rng = np.random.default_rng(5)
        for _ in range(50):
            w, theta, t = rng.uniform(-3, 3, 3)
            assert float(model.log_abs_tilted_cf(w * theta, w * t)) <= 0.0
        assert float(model.log_abs_tilted_cf(1.3 * 0.7, 0.0)) == 0.0

    def test_log_abs_mgf_matches_complex_mgf(self, model):
        # log |M(x + iy)| = f(x) + log |E_x exp(i y Z)|
        mgf = complex_mgf(model)
        rng = np.random.default_rng(6)
        for _ in range(25):
            x, y = rng.uniform(-3, 3, 2)
            direct = math.log(abs(mgf(complex(x, y))))
            got = float(model.f(x)) + float(model.log_abs_tilted_cf(x, y))
            assert got == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_in_place_matches_fresh_array(self, model):
        # the (tilt column, y grid) call check_conditions makes, with out = y
        w = np.linspace(0.1, 2.0, 7)[:, None]
        y = w * np.linspace(0.05, 3.0, 16)
        single = [[float(model.log_abs_tilted_cf(0.8 * wi, yij)) for yij in row]
                  for wi, row in zip(w[:, 0], y)]
        fresh = model.log_abs_tilted_cf(w * 0.8, y)
        got = model.log_abs_tilted_cf(w * 0.8, y, out=y)
        assert got is y
        np.testing.assert_array_equal(got, fresh)
        np.testing.assert_allclose(got, single, rtol=1e-14, atol=0.0)


def test_gaussian_modulus_closed_form(gaussian):
    # |M(w(theta+it))| / M(w theta) = exp(-sigma2 w^2 t^2 / 2)
    got = math.exp(float(gaussian.log_abs_tilted_cf(2.0 * 0.3, 2.0 * 0.5)))
    assert got == pytest.approx(math.exp(-0.5), rel=1e-14)
    mgf = complex_mgf(gaussian)
    numeric = abs(mgf(complex(0.6, 1.0))) / mgf(0.6).real
    assert got == pytest.approx(numeric, rel=1e-12)


def test_bernoulli_lattice_periodicity(bernoulli):
    for k in (1, 2, 3):
        assert float(bernoulli.log_abs_tilted_cf(0.0, 2.0 * math.pi * k)) == pytest.approx(0.0, abs=1e-12)
    # off-period the modulus strictly drops; E exp(i pi Z) = 0 for Bernoulli(1/2)
    assert float(bernoulli.log_abs_tilted_cf(0.0, 1.0)) < 0.0
    assert float(bernoulli.log_abs_tilted_cf(0.0, math.pi)) == -math.inf


def test_gaussian_modulus_strictly_below_one(gaussian):
    for t in (0.1, 1.0, 7.0):
        assert float(gaussian.log_abs_tilted_cf(0.4, t)) < 0.0


def test_binomial_log_abs_mgf_large_real_part():
    model = st.BinomialModel(3, 0.4)
    # the direct |1-p+p e^z|^m overflows near x = 1000; at that tilt the law
    # is a point mass at m, so the tilted CF modulus is 1
    val = float(model.log_abs_tilted_cf(1000.0, 1.0))
    assert val == 0.0
    assert float(model.f(1000.0)) + val == pytest.approx(3 * (1000.0 + math.log(0.4)), rel=1e-9)


def test_binomial_tilted_cf_small_y_keeps_precision():
    # 1 - cos(y) would round to 0 at y = 1e-9; the sine form gives
    # (m/2) log1p(-q(1-q) y^2) = -(m/2) q(1-q) y^2 to first order
    model = st.BinomialModel(4, 0.2)
    val = float(model.log_abs_tilted_cf(0.0, 1e-9))
    assert val == pytest.approx(-2.0 * 0.16 * 1e-18, rel=1e-12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(model=hst.sampled_from(BUILTIN_MODELS),
       tilt=hst.floats(-50.0, 50.0),
       y=hst.floats(1e-8, 50.0))
def test_builtin_tilted_cf_matches_custom_fallback(custom_twin, model, tilt, y):
    # the fallback is only accurate where |M| is a finite normal float
    mgf = complex_mgf(model)
    try:
        moduli = (abs(mgf(complex(tilt, 0.0))), abs(mgf(complex(tilt, y))))
    except OverflowError:
        moduli = (math.inf,)
    assume(all(sys.float_info.min < m < math.inf for m in moduli))
    want = float(custom_twin(model).log_abs_tilted_cf(tilt, y))
    got = float(model.log_abs_tilted_cf(tilt, y))
    # the fallback subtracts two logs of size |f(tilt)|: that sets its roundoff
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12 * (1.0 + abs(float(model.f(tilt)))))


class TestTiltedSampling:
    def test_zero_tilt_is_original_law(self, gaussian):
        stream = st.derive_stream(101, 0)
        draws = gaussian.tilted_batch(np.zeros(1), 100_000, stream)[:, 0]
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean()) <= 4 * se

    def test_tilted_gaussian_moments(self):
        model = st.GaussianModel(2.0)
        stream = st.derive_stream(102, 0)
        draws = model.tilted_batch(np.array([1.5]), 100_000, stream)[:, 0]
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert draws.mean() == pytest.approx(3.0, abs=4 * se)
        # var of the sample variance ~ 2 sigma^4 / N
        var_se = math.sqrt(2.0 / draws.size) * 2.0
        assert draws.var(ddof=1) == pytest.approx(2.0, abs=4 * var_se)

    def test_tilted_bernoulli_parameter(self, bernoulli):
        stream = st.derive_stream(103, 0)
        draws = bernoulli.tilted_batch(np.array([math.log(3.0)]), 100_000, stream)[:, 0]
        freq = draws.mean()
        se = math.sqrt(0.75 * 0.25 / draws.size)
        assert freq == pytest.approx(0.75, abs=4 * se)

    @pytest.mark.parametrize("model,tilt", [
        (st.GaussianModel(1.0), 0.8),
        (st.GaussianModel(2.0), -0.6),
        (st.BinomialModel(1, 0.5), 1.1),
        (st.BinomialModel(10, 0.3), 0.4),
    ])
    def test_moment_consistency(self, model, tilt):
        stream = st.derive_stream(104, 0)
        draws = model.tilted_batch(np.array([tilt]), 100_000, stream)[:, 0]
        mean_se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert draws.mean() == pytest.approx(float(model.f1(tilt)), abs=5 * mean_se)
        var_target = float(model.f2(tilt))
        var_se = math.sqrt(max(np.mean((draws - draws.mean())**4) - var_target**2, 0.0) / draws.size)
        assert draws.var(ddof=1) == pytest.approx(var_target, abs=5 * var_se)

    def test_scalar_tilted_sample(self, gaussian):
        x = gaussian.tilted_batch(np.array([0.5]), 1, st.derive_stream(7, 1))
        assert x.shape == (1, 1) and math.isfinite(x[0, 0])


FILL_SHAPES = [(1, 5), (7, 3), (209, 10_000), (500, 1000)]


def _twin_streams(seed, buffered, bit_generator=np.random.PCG64DXSM):
    """Two generators in one state; ``buffered`` leaves a 32-bit half cached."""
    pair = [np.random.Generator(bit_generator(seed)) for _ in range(2)]
    if buffered:
        for gen in pair:
            gen.integers(0, 2**31, dtype=np.int32)
    return pair


def _same_draw(model, tilts, size, stream, twin):
    """Whether the model's draw equals the single-call Bernoulli draw from
    the twin; the matrices die here, so a failing example keeps none."""
    got = model.tilted_batch(tilts, size, stream)
    want = (twin.random((size, tilts.size)) < model.f1(tilts)).astype(float)
    return got.dtype == want.dtype and np.array_equal(got, want)


def _assert_same_next_draws(stream, twin):
    assert stream.integers(0, 2**31, dtype=np.int32) == twin.integers(0, 2**31, dtype=np.int32)
    assert stream.random() == twin.random()


@pytest.mark.parametrize("workers", [1, 2, 3, 7])
@pytest.mark.parametrize("size,n", FILL_SHAPES)
@settings(max_examples=8, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=hst.integers(0, 2**64 - 1), buffered=hst.booleans(),
       p=hst.floats(0.01, 0.99), scale=hst.floats(0.0, 40.0))
def test_bernoulli_fill_is_one_random_call(monkeypatch, workers, size, n, seed, buffered, p, scale):
    """Whatever the worker count, the m = 1 draw is the single-call draw
    ``(random((size, n)) < q).astype(float)`` and leaves the stream where
    that call leaves it, 32-bit buffer included."""
    monkeypatch.setattr(cgf, "_WORKERS", workers)
    model = st.BinomialModel(1, p)
    tilts = np.linspace(-scale, scale, n)
    stream, twin = _twin_streams(seed, buffered)
    assert _same_draw(model, tilts, size, stream, twin)
    _assert_same_next_draws(stream, twin)


def test_bernoulli_fill_saturated_and_other_bit_generator(monkeypatch):
    monkeypatch.setattr(cgf, "_WORKERS", 2)
    model = st.BinomialModel(1, 0.5)
    tilts = np.full(1000, 40.0)
    assert np.all(model.f1(tilts) == 1.0)
    stream, twin = _twin_streams(5, True)
    assert np.all(model.tilted_batch(tilts, 500, stream) == 1.0)
    twin.random((500, 1000))
    _assert_same_next_draws(stream, twin)
    # MT19937 cannot jump by a draw count, so it fills in the caller's thread
    stream, twin = _twin_streams(6, True, np.random.MT19937)
    assert _same_draw(model, np.linspace(-2.0, 2.0, 1000), 500, stream, twin)
    _assert_same_next_draws(stream, twin)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_bernoulli_fill_in_forked_child(monkeypatch):
    """A child forked after the fill pool was made has none of its threads,
    so it must make its own pool rather than wait on the parent's."""
    monkeypatch.setattr(cgf, "_WORKERS", 2)
    model = st.BinomialModel(1, 0.5)
    model.tilted_batch(np.zeros(1000), 500, st.derive_stream(1, 0))
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            model.tilted_batch(np.zeros(1000), 500, st.derive_stream(1, 0))
            code = 0
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while not (done := os.waitpid(pid, os.WNOHANG))[0] and time.monotonic() < deadline:
        time.sleep(0.02)
    if not done[0]:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's fill did not finish")
    assert os.waitstatus_to_exitcode(done[1]) == 0


def test_custom_model_matches_gaussian(gaussian):
    sigma2 = 1.0

    class Custom(st.CumulantModel):
        def f(self, t):
            return 0.5 * sigma2 * np.square(t)

        def f1(self, t):
            return sigma2 * np.asarray(t, dtype=float)

        def f2(self, t):
            return np.full_like(np.asarray(t, dtype=float), sigma2)

        def mgf(self, z):
            return cmath.exp(0.5 * sigma2 * z * z)

    custom = Custom()
    weights = st.draw_environment(st.ConstantWeight(1.0), 50, st.derive_stream(1, 0))
    sol_custom = st.solve_saddle([st.Segment(weights, custom)], 0.5, 1.0)
    sol_builtin = st.solve_saddle([st.Segment(weights, gaussian)], 0.5, 1.0)
    assert sol_custom.theta == pytest.approx(sol_builtin.theta, abs=1e-14)
    assert float(custom.log_abs_tilted_cf(0.2, 0.7)) == pytest.approx(
        float(gaussian.log_abs_tilted_cf(0.2, 0.7)), rel=1e-12)


@pytest.mark.parametrize("bad", [
    lambda: st.GaussianModel(0.0),
    lambda: st.GaussianModel(-1.0),
    lambda: st.BinomialModel(0, 0.5),
    lambda: st.BinomialModel(3, 0.0),
    lambda: st.BinomialModel(3, 1.0),
])
def test_invalid_model_parameters_rejected(bad):
    with pytest.raises(ValueError):
        bad()
