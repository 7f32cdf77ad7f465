"""Application scenarios: T-cell activation and portfolio losses."""

import math

import numpy as np
import pytest

import sharptail as st
from oracles import bahadur_rao_first_correction, normal_upper_tail, tilted_lattice_cumulants
from sharptail.mc import exact_enum_segments, tilted_mc_segments
from sharptail.saddle import Segment
from sharptail.scenarios import (
    PortfolioBlock,
    PortfolioScenario,
    TcellScenario,
    portfolio_loss_prob,
    portfolio_segments,
    tcell_activation_prob,
    tcell_environment,
)

TAU = st.TcellWeight(tau_kind="exponential", rate=1.0)
Z10 = st.BinomialModel(10, 0.1)


def _tcell(**kw):
    base = dict(n=1000, z_f=2, w_f=0.25, tau_model=TAU, z_model=Z10,
                a=0.27, theta_star=1.0)
    base.update(kw)
    return TcellScenario(**base)


class TestTcell:
    def test_zero_foreign_copies_reduce_to_plain_tail(self):
        sc = _tcell(z_f=0, w_f=0.0)
        est = tcell_activation_prob(sc, 2718)
        weights = tcell_environment(sc, 2718)
        sol = st.solve_saddle([Segment(weights, Z10)], sc.a, 1.0)
        plain = st.sldp_estimate(sol, sc.n)
        assert est.log_value == plain.log_value

    def test_shift_identity_bit_exact(self):
        sc = _tcell()
        est = tcell_activation_prob(sc, 2718)
        weights = tcell_environment(sc, 2718)
        shifted = sc.a - sc.z_f * sc.w_f / sc.n
        sol = st.solve_saddle([Segment(weights, Z10)], shifted, 1.0)
        assert est.log_value == st.sldp_estimate(sol, sc.n).log_value
        assert est.a == sc.a

    def test_activation_increases_with_foreign_copies(self):
        values = [tcell_activation_prob(_tcell(z_f=k), 2718).log_value
                  for k in (0, 2, 4, 8)]
        assert np.all(np.diff(values) > 0.0)

    def test_sldp_matches_tilted_mc(self):
        # the sharp estimate is leading order, with relative error c1 + o(1/n);
        # at u sqrt(n) ~ 5.7, c1 ~ -3.3% is resolved by this MC budget, so the
        # comparison carries the known n^-1 term from the oracle.  The oracle
        # vets itself first: Bernoulli closed-form cumulants, and the Gaussian
        # Mills ratio at x = 5 where the leading order alone is 3.7% high
        q = 1.0 / (1.0 + math.exp(-0.7))
        k2, k3, k4 = tilted_lattice_cumulants([1.0], [0.0, 1.0], [0.5, 0.5], 0.7)
        assert k2 == pytest.approx(q * (1 - q), rel=1e-12)
        assert k3 == pytest.approx(q * (1 - q) * (1 - 2 * q), rel=1e-10)
        assert k4 == pytest.approx(q * (1 - q) * (1 - 6 * q * (1 - q)), rel=1e-10)
        q5 = normal_upper_tail(5.0)
        leading = math.exp(-12.5) / (5.0 * math.sqrt(2.0 * math.pi))
        assert leading / q5 - 1.0 == pytest.approx(0.037, abs=1e-3)
        gauss = leading * (1.0 + bahadur_rao_first_correction(5.0, 0.0, 0.0, 100))
        assert abs(gauss / q5 - 1.0) <= 0.006

        sc = _tcell()
        est = tcell_activation_prob(sc, 2718)
        weights = tcell_environment(sc, 2718)
        shifted = sc.shifted_threshold
        segs = [Segment(weights, Z10)]
        sol = st.solve_saddle(segs, shifted, 1.0)
        mc = tilted_mc_segments(segs, shifted, sol.theta,
                                st.McConfig(batches=100, batch_size=2_000, seed=5))
        assert mc.warnings == () and mc.stderr > 0.0
        k2, k3, k4 = tilted_lattice_cumulants(weights, *Z10.support, sol.theta)
        c1 = bahadur_rao_first_correction(sol.theta * math.sqrt(k2 * sc.n),
                                          k3 / k2**1.5, k4 / k2**2, sc.n)
        assert abs(mc.value - est.value * (1.0 + c1)) <= 4 * mc.stderr

    def test_lognormal_dwell_times(self):
        sc = _tcell(tau_model=st.TcellWeight(tau_kind="lognormal", mu=0.0, s=1.0),
                    a=0.30)
        est = tcell_activation_prob(sc, 31)
        assert 0.0 < est.value < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            _tcell(z_f=-1)
        with pytest.raises(ValueError):
            _tcell(z_f=1, w_f=0.0)


INDICATOR = st.TwoPointWeight((0.0, 1.0), (0.5, 0.5))
BERN = st.BinomialModel(1, 0.5)


def _portfolio(qs=(6, 6), a=0.3):
    blocks = tuple(PortfolioBlock(q=q, w_model=INDICATOR, z_model=BERN) for q in qs)
    return PortfolioScenario(blocks=blocks, a=a)


class TestPortfolio:
    def test_single_block_reduces_bit_exactly(self):
        est = portfolio_loss_prob(_portfolio(qs=(12,)), 5)
        weights = st.draw_environment(INDICATOR, 12, st.derive_stream(5, 0))
        sol = st.solve_saddle([Segment(weights, BERN)], 0.3, 1.0)
        assert est.log_value == st.sldp_estimate(sol, 12).log_value

    def test_two_blocks_against_enumeration_and_tilted_mc(self):
        sc = _portfolio()
        segs = portfolio_segments(sc, 1)
        est = portfolio_loss_prob(sc, 1)
        exact = exact_enum_segments(segs, sc.a)
        assert abs(est.value / exact.value - 1.0) <= 0.30
        sol = st.solve_saddle(segs, sc.a, 1.0)
        mc = tilted_mc_segments(segs, sc.a, sol.theta,
                                st.McConfig(batches=100, batch_size=10_000, seed=77))
        assert abs(mc.value - exact.value) <= 4 * mc.stderr

    def test_all_zero_indicators_surface_degenerate(self):
        sc = PortfolioScenario(
            blocks=(PortfolioBlock(q=2, w_model=INDICATOR, z_model=BERN),
                    PortfolioBlock(q=2, w_model=INDICATOR, z_model=BERN)),
            a=0.3)
        seeds_hit = [s for s in range(200)
                     if _draws_all_zero(sc, s)]
        assert seeds_hit, "no all-zero draw in 200 seeds (P = 1/16 each)"
        with pytest.raises(st.DegenerateEnvironment):
            portfolio_segments(sc, seeds_hit[0])

    def test_wrong_length_block_sampler_is_rejected(self):
        # a user sampler returning q + 50 weights would otherwise make a
        # 150-position segment in a record that says n = 100
        long_sampler = st.CustomWeight(
            sampler=lambda n, stream: stream.uniform(size=n + 50),
            expect_fn=lambda h: float(h(np.asarray(0.5))),
        )
        sc = PortfolioScenario(
            blocks=(PortfolioBlock(q=100, w_model=long_sampler, z_model=BERN),),
            a=0.3)
        with pytest.raises(ValueError, match="length 100"):
            portfolio_segments(sc, 0)
        with pytest.raises(ValueError, match="length 100"):
            portfolio_loss_prob(sc, 0)

    def test_block_permutation_invariance(self):
        # identical (weight, model) multiset, different block layout: the
        # compensated psi makes saddle and estimate bit-identical, and dyadic
        # Bernoulli(1/2) probabilities make enumeration exact as well
        w1 = np.array([1.0, 0.0, 1.0, 1.0])
        w2 = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        layout_a = [Segment(weights=w1, cm=BERN), Segment(weights=w2, cm=BERN)]
        layout_b = [Segment(weights=w2[::-1].copy(), cm=BERN),
                    Segment(weights=w1[::-1].copy(), cm=BERN)]
        merged = [Segment(weights=np.concatenate([w2, w1]), cm=BERN)]
        a = 0.35
        sols = [st.solve_saddle(seg, a, 1.0) for seg in
                (layout_a, layout_b, merged)]
        assert sols[0].theta == sols[1].theta == sols[2].theta
        ests = [st.sldp_estimate(s, 9).log_value for s in sols]
        assert ests[0] == ests[1] == ests[2]
        enums = [exact_enum_segments(seg, a).value for seg in
                 (layout_a, layout_b, merged)]
        assert enums[0] == enums[1] == enums[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            PortfolioScenario(blocks=(), a=0.3)
        with pytest.raises(ValueError):
            PortfolioBlock(q=0, w_model=INDICATOR, z_model=BERN)

    def test_n_sums_block_sizes(self):
        assert _portfolio(qs=(3, 4, 5)).n == 12


def _draws_all_zero(sc, seed):
    stream = st.derive_stream(seed, 0)
    ws = [b.w_model.sample(b.q, stream) for b in sc.blocks]
    return all(not np.any(w != 0.0) for w in ws)
