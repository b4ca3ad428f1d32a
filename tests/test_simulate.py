import dataclasses
import tracemalloc

import numpy as np
import pytest

import ulhedge as uh
from ulhedge import rng
from ulhedge.simulate import (
    PathBundle,
    advance_market,
    draw_brownian_increments,
    draw_worlds,
    observed_increments,
    sample_death_time,
    simulate_paths,
)

from conftest import assert_within_se, make_config

# frozen oracle values
GBM_MEAN_5PCT = 1.0512710963760241       # exp(0.05), lognormal mean, mu = 5%
EXP_SURVIVAL_HALF = 0.6065306597126334   # exp(-0.5), constant hazard 0.05 over T=10


class TestPricePaths:
    def test_driftless_price_mean(self):
        cfg = make_config(m0=0.0, sigma=0.2, n_paths=100_000, n_steps=50)
        b = simulate_paths(cfg, "P")
        s_T = b.S[:, -1]
        assert_within_se(s_T.mean(), 1.0, s_T.std(ddof=1) / np.sqrt(cfg.n_paths),
                         label="driftless mean")

    def test_degenerate_factor_is_constant(self):
        # kappa = a = 0 under each spelling keeps X at x0 bit for bit, with a
        # drift and a correlation that would move any other factor
        for factor in (uh.AffineFactor(), uh.AffineFactor(0.0, 0.1, 0.0),
                       uh.AffineFactor(0.0, 0.1, 0.0, square_root=True)):
            cfg = make_config(m0=0.02, m1=0.4, rho=0.5, factor=factor, x0=0.37, n_paths=50)
            for measure in ("P", "P_hat"):
                X = simulate_paths(cfg, measure).X
                assert np.all(X.view(np.uint64) == np.float64(0.37).view(np.uint64)), \
                    (factor, measure)

    def test_gbm_mean_oracle(self):
        cfg = make_config(m0=0.05, sigma=0.2, n_paths=100_000, n_steps=50)
        b = simulate_paths(cfg, "P")
        s_T = b.S[:, -1]
        assert_within_se(s_T.mean(), GBM_MEAN_5PCT,
                         s_T.std(ddof=1) / np.sqrt(cfg.n_paths), label="GBM mean")

    def test_price_positive_and_martingale_under_phat(self):
        cfg = make_config(m0=0.08, m1=0.5, sigma=0.25, rho=0.6,
                          factor=uh.AffineFactor(1.0, 0.05, 0.2),
                          n_paths=40_000, n_steps=60, seed=5)
        b = simulate_paths(cfg, "P_hat")
        assert np.all(b.S > 0)
        means = b.S.mean(axis=0)
        ses = b.S.std(axis=0, ddof=1) / np.sqrt(cfg.n_paths)
        z = np.abs(means[1:] - 1.0) / ses[1:]
        assert z.max() <= 3.0, f"max z = {z.max():.2f}"


class TestObservedIncrements:
    @pytest.mark.parametrize("measure", ["P", "P_hat"])
    def test_inverts_the_price_step(self, measure):
        # the smoke scenario's coefficients: CIR factor in mu, rho = 0.4
        cfg = make_config(m0=0.02, m1=0.8, sigma=0.25, rho=0.4,
                          factor=uh.AffineFactor(1.0, 0.05, 0.2, square_root=True),
                          n_paths=2000, seed=22)
        dW, dB = draw_brownian_increments(cfg.seed, np.arange(cfg.n_paths),
                                          cfg.n_steps, cfg.dt)
        S, X = advance_market(cfg, dW, dB, measure)
        expected = dW
        if measure == "P":
            # under P the step drifts at mu: the martingale-measure increment
            # dW + (mu/sigma) dt is what moved the price
            mpr = cfg.coefficients.market_price_of_risk(X[:, :-1])
            expected = dW + mpr * cfg.dt
        assert np.abs(observed_increments(cfg, S) - expected).max() <= 1e-14


class TestSurvivalMachinery:
    def test_survival_equals_exp_cumhazard(self):
        cfg = make_config(factor=uh.AffineFactor(1.0, 0.1, 0.3),
                          gamma=uh.AffineGamma(0.02, 0.7), n_paths=200)
        b = simulate_paths(cfg, "P")
        assert np.abs(b.Y - np.exp(-b.Gamma)).max() <= 1e-12
        assert np.all(np.diff(b.Gamma, axis=1) >= 0)
        assert np.all(np.diff(b.Y, axis=1) <= 1e-15)

    def test_zero_hazard_never_kills(self):
        cfg = make_config(gamma=uh.AffineGamma(0.0, 0.0), n_paths=500)
        b = simulate_paths(cfg, "P")
        assert np.all(np.isinf(b.tau))
        assert np.all(b.H == 0.0)

    def test_constant_hazard_survival_fraction(self):
        cfg = make_config(gamma=uh.AffineGamma(0.05, 0.0), maturity=10.0,
                          n_steps=200, n_paths=100_000, seed=9)
        b = simulate_paths(cfg, "P")
        surv = np.isinf(b.tau).mean()
        se = np.sqrt(EXP_SURVIVAL_HALF * (1 - EXP_SURVIVAL_HALF) / cfg.n_paths)
        assert_within_se(surv, EXP_SURVIVAL_HALF, se, label="exp survival")

    def test_zero_exponential_draw_rejected(self):
        with pytest.raises(ValueError):
            sample_death_time(np.linspace(0, 1, 5), np.zeros((1, 5)), np.array([0.0]))

    def test_unit_exponential_strictly_positive(self):
        class ZeroFirst:
            def __init__(self):
                self.calls = 0

            def random(self):
                self.calls += 1
                return 0.0 if self.calls == 1 else 0.5

        gen = ZeroFirst()
        assert rng.unit_exponential(gen) > 0.0
        assert gen.calls == 2

    def test_death_indicator_consistency(self):
        cfg = make_config(gamma=uh.AffineGamma(0.3, 0.0), maturity=2.0,
                          n_steps=40, n_paths=2000, seed=3)
        b = simulate_paths(cfg, "P")
        dead = np.isfinite(b.tau)
        assert np.all(np.diff(b.H, axis=1) >= 0)
        assert np.all(np.isin(b.H, (0.0, 1.0)))
        jumps = np.sum(np.diff(b.H, axis=1) == 1.0, axis=1)
        assert np.all(jumps[dead] == 1) and np.all(jumps[~dead] == 0)
        k = b.death_step()
        assert np.allclose(b.tau[dead], b.t_grid[k[dead]])
        # tau is the first grid time with Gamma >= draw: H matches the crossing
        assert np.all(b.H[:, 0] == 0.0)

    def test_jump_martingale_mean_zero(self):
        cfg = make_config(gamma=uh.AffineGamma(0.05, 0.0), maturity=10.0,
                          n_steps=200, n_paths=100_000, seed=9)
        b = simulate_paths(cfg, "P")
        # M = H - Gamma_(. ^ tau), read at T ^ tau
        k = b.death_step()
        rows = np.arange(b.n_paths)
        m_T = b.H[rows, k] - b.Gamma[rows, k]
        assert_within_se(m_T.mean(), 0.0, m_T.std(ddof=1) / np.sqrt(cfg.n_paths),
                         label="E[M_(T^tau)]")


class TestLeanBundle:
    def test_bundle_stores_what_is_simulated(self):
        # Y and H are functions of Gamma and tau, formed when read
        assert [f.name for f in dataclasses.fields(PathBundle)] == [
            "config", "measure", "t_grid", "W", "B", "S", "X", "Gamma", "tau",
            "path_indices"]
        cfg = make_config(factor=uh.AffineFactor(1.0, 0.1, 0.3),
                          gamma=uh.AffineGamma(0.2, 0.7), n_paths=300, seed=4)
        b = simulate_paths(cfg, "P")
        assert np.isfinite(b.tau).any() and np.isinf(b.tau).any()
        assert np.array_equal(b.Y, np.exp(-b.Gamma))
        assert np.array_equal(b.H, (b.t_grid[None, :] >= b.tau[:, None]).astype(float))

    def test_simulate_paths_memory(self):
        # measured in arrays of one world-by-grid-time size: the bundle holds
        # W, B, S, X and Gamma; the peak is six, while W and B are cumulated
        # from the increments (which then go) and while the hazard's rates
        # and its one temporary of increments live next to S, X, W and B
        cfg = make_config(factor=uh.AffineFactor(1.0, 0.1, 0.3),
                          gamma=uh.AffineGamma(0.02, 0.7), n_paths=20_000, n_steps=100)
        unit = cfg.n_paths * (cfg.n_steps + 1) * 8
        tracemalloc.start()
        try:
            b = simulate_paths(cfg, "P")
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert b.S.shape == (cfg.n_paths, cfg.n_steps + 1)
        assert held / unit <= 5.5, f"held {held / unit:.2f} arrays"
        assert peak / unit <= 6.5, f"peak {peak / unit:.2f} arrays"


class TestStoppedView:
    def test_paths_frozen_after_death(self):
        cfg = make_config(gamma=uh.AffineGamma(0.5, 0.0), maturity=3.0,
                          n_steps=30, n_paths=400, seed=2)
        b = simulate_paths(cfg, "P")
        S, X, W = b.stopped(b.S), b.stopped(b.X), b.stopped(b.W)
        k = b.death_step()
        for i in np.where(np.isfinite(b.tau))[0][:20]:
            assert np.all(S[i, k[i]:] == S[i, k[i]])
            assert np.all(X[i, k[i]:] == X[i, k[i]])
            assert np.all(W[i, k[i]:] == W[i, k[i]])


class TestDeterminismAndRefinement:
    def test_seed_determinism_bit_identical(self):
        cfg = make_config(m0=0.02, m1=0.4, rho=0.5,
                          factor=uh.AffineFactor(1.0, 0.05, 0.2),
                          gamma=uh.AffineGamma(0.01, 0.5), n_paths=300)
        b1 = simulate_paths(cfg, "P")
        b2 = simulate_paths(cfg, "P")
        for name in ("S", "X", "W", "B", "Gamma", "H"):
            assert np.array_equal(getattr(b1, name), getattr(b2, name)), name
        assert np.array_equal(b1.tau, b2.tau, equal_nan=True)

    def test_chunked_matches_full(self):
        cfg = make_config(m1=0.4, factor=uh.AffineFactor(1.0, 0.05, 0.2), n_paths=40)
        full = simulate_paths(cfg, "P")
        part = simulate_paths(cfg, "P", path_indices=np.arange(10, 20))
        assert np.array_equal(full.S[10:20], part.S)

    @pytest.mark.parametrize("measure", ["P", "P_hat"])
    def test_given_draws_equal_own_draws(self, measure):
        cfg = make_config(m1=0.4, rho=0.5, factor=uh.AffineFactor(1.0, 0.05, 0.2),
                          gamma=uh.AffineGamma(0.1, 0.5), n_paths=40, seed=17)
        idx = np.arange(5, 25)
        own = simulate_paths(cfg, measure, path_indices=idx)
        given = simulate_paths(cfg, measure, path_indices=idx,
                               draws=draw_worlds(cfg, idx))
        for name in ("W", "B", "S", "X", "Gamma", "Y", "tau", "H", "path_indices"):
            assert np.array_equal(getattr(given, name), getattr(own, name)), name

    def test_strong_refinement_order(self):
        # common Brownian increments, coarsened by pairwise summation
        cfg_fine = make_config(m0=0.02, m1=0.5, sigma=0.2, rho=0.5,
                               factor=uh.AffineFactor(1.2, 0.05, 0.25),
                               n_steps=512, n_paths=400, seed=11)
        dW, dB = draw_brownian_increments(cfg_fine.seed, np.arange(400), 512,
                                          cfg_fine.dt)
        S_ref, X_ref = advance_market(cfg_fine, dW, dB, "P")
        errors = []
        for n in (64, 128, 256):
            factor = 512 // n
            dW_c = dW.reshape(400, n, factor).sum(axis=2)
            dB_c = dB.reshape(400, n, factor).sum(axis=2)
            cfg_n = dataclasses.replace(cfg_fine, n_steps=n)
            S_n, X_n = advance_market(cfg_n, dW_c, dB_c, "P")
            err = np.mean(np.abs(S_n[:, -1] - S_ref[:, -1])
                          + np.abs(X_n[:, -1] - X_ref[:, -1]))
            errors.append(err)
        errors = np.array(errors)
        assert np.all(np.diff(errors) < 0), f"errors not decreasing: {errors}"
        slope = np.polyfit(np.log([64, 128, 256]), np.log(errors), 1)[0]
        assert slope <= -0.45, f"strong order too low: slope {slope:.2f}"

