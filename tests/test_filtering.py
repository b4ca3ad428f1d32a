import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

import ulhedge as uh
from ulhedge import filtering, rng
from ulhedge.errors import SurvivalFloorError
from ulhedge.filtering import (
    ParticleCloud,
    SmoothFunctional,
    functional_coord_x,
    ks_residual,
    run_filter,
)
from ulhedge.measure import log_density_increments
from ulhedge.oracles import affine_hazard_rate, ou_mean
from ulhedge.simulate import advance_market, draw_worlds, simulate_paths

from conftest import assert_within_se, make_config


def functional_constant(level: float = 1.0) -> SmoothFunctional:
    return SmoothFunctional("const", lambda t, s, x, y: np.full(np.broadcast(s, x, y).shape, level))


def functional_survival() -> SmoothFunctional:
    return SmoothFunctional(
        "id_y",
        f=lambda t, s, x, y: np.broadcast_to(y, np.broadcast(s, x, y).shape).copy(),
        f_y=lambda t, s, x, y: np.ones(np.broadcast(s, x, y).shape),
    )


class TestInitCloud:
    def test_initial_dirac_law(self):
        cfg = make_config(x0=0.07, n_particles=50)
        b = simulate_paths(dataclasses.replace(cfg, n_paths=1), "P")
        cloud = ParticleCloud(cfg, b.S[:1])
        assert np.all(cloud.X == 0.07)
        assert np.all(cloud.Y == 1.0)
        assert float(cloud.pi(cloud.Y)[0]) == 1.0
        f = functional_coord_x()
        assert float(cloud.pi_functional(f)[0]) == 0.07

    def test_observed_increment_inversion(self):
        # the simulator's martingale-measure steps driven by dW = sqrt(dt) z
        # are read back as dW_obs = sqrt(dt) z
        cfg = make_config(sigma=0.2, n_steps=2, maturity=2.0 / 100)
        z = 0.83
        dW = np.full((1, 2), np.sqrt(cfg.dt) * z)
        s, _ = advance_market(cfg, dW, np.zeros((1, 2)), "P_hat")
        cloud = ParticleCloud(cfg, s)
        assert np.abs(cloud.dW_obs - dW).max() <= 1e-14

    def test_sigma_zero_rejected(self):
        cfg = make_config(n_steps=2, maturity=0.02)
        bad = dataclasses.replace(cfg, coefficients=uh.CoefficientSet(
            m0=0.0, m1=0.0, sigma0=0.0, factor=uh.AffineFactor(),
            gamma=uh.AffineGamma(0.0, 0.0), rho=0.0, c_bound=5.0))
        with pytest.raises(uh.NumericalError):
            ParticleCloud(bad, np.array([[1.0, 1.0, 1.0]]))


class TestStepCloud:
    def test_step_allocates_only_the_new_state(self):
        # a step allocates the new X and the new hazard rate (the coefficients
        # at t_{k+1} replace the old ones); the drift correction, the density
        # kernel and its log increment are formed in the cloud's work arrays,
        # the noise term in the noise block and the hazard increment in the
        # old rate, so the peak above the step's start stays under three
        # state-sized arrays
        cfg = make_config(m0=0.02, m1=0.8, sigma=0.25, rho=0.4,
                          factor=uh.AffineFactor(1.0, 0.05, 0.2, square_root=True),
                          gamma=uh.AffineGamma(0.02, 1.0),
                          n_steps=4, n_paths=50, n_particles=1000)
        b = simulate_paths(cfg, "P")
        tracemalloc.start()
        try:
            cloud = ParticleCloud(cfg, b.S)
            cloud.step()                    # draws the horizon's one noise block
            for _ in range(cfg.n_steps - 1):
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                cloud.step()
                peak = tracemalloc.get_traced_memory()[1]
                assert peak - start < 3 * cloud.X.nbytes
        finally:
            tracemalloc.stop()

    def test_degenerate_factor_dirac_filter(self):
        cfg = make_config(factor=uh.AffineFactor(), gamma=uh.AffineGamma(0.0, 1.0),
                          x0=0.06, n_particles=30, n_paths=1)
        b = simulate_paths(cfg, "P")
        cloud = ParticleCloud(cfg, b.S[:1])
        f = functional_coord_x()
        for _ in range(cfg.n_steps):
            cloud.step()
            assert np.all(cloud.X == 0.06)
        # deterministic survival: Y equals the bundle's own survival exactly
        assert np.abs(cloud.Y - b.Y[0, -1]).max() <= 1e-14
        assert abs(float(cloud.pi_functional(f)[0]) - 0.06) <= 1e-14

    def test_zero_hazard_keeps_survival_one(self):
        cfg = make_config(factor=uh.AffineFactor(1.0, 0.05, 0.2), n_paths=1,
                          n_particles=40)
        b = simulate_paths(cfg, "P")
        cloud = ParticleCloud(cfg, b.S[:1])
        for _ in range(cfg.n_steps):
            cloud.step()
        assert np.all(cloud.Y == 1.0)

    def test_rho_zero_filter_ignores_observed_path(self):
        # for f(x, y) the conditional law does not depend on the price path
        cfg = make_config(m0=0.03, m1=0.4, rho=0.0,
                          factor=uh.AffineFactor(1.0, 0.08, 0.15),
                          gamma=uh.AffineGamma(0.05, 0.0),
                          x0=0.08, n_paths=2, n_particles=20_000, seed=41)
        b = simulate_paths(cfg, "P")
        f = functional_coord_x()
        series = run_filter(cfg, b.S, world_indices=b.path_indices, functionals=[f])
        est = series.estimates["x"][:, -1]
        se = float(np.hypot(*series.std_errors["x"][:, -1]))
        assert_within_se(est[0], est[1], se, label="two-path agreement")

    def test_particles_share_observed_increments(self):
        # a constant and rho > 0: the cross-particle mean increment tracks
        # the common observed shock almost perfectly
        cfg = make_config(m1=0.3, rho=0.7, factor=uh.AffineFactor(1.0, 0.05, 0.2),
                          n_paths=1, n_particles=400, seed=4)
        b = simulate_paths(cfg, "P")
        cloud = ParticleCloud(cfg, b.S[:1])
        mean_increments = []
        for _ in range(cfg.n_steps):
            x_before = cloud.X.mean()
            cloud.step()
            mean_increments.append(cloud.X.mean() - x_before)
        corr = np.corrcoef(mean_increments, cloud.dW_obs[0])[0, 1]
        assert corr > 0.95, f"corr {corr:.3f}"

    def test_noise_block_length_leaves_state_identical(self, monkeypatch):
        # a stream's normals are sequential: blocks of one step, of three (with
        # a shorter last block) and of the whole horizon give the same cloud
        cfg = make_config(m1=0.4, rho=0.6, factor=uh.AffineFactor(1.0, 0.05, 0.2),
                          gamma=uh.AffineGamma(0.02, 0.8), n_steps=10,
                          n_paths=4, n_particles=7, seed=19)
        b = simulate_paths(cfg, "P")
        step_bytes = 8 * cfg.n_paths * cfg.n_particles
        ends = []
        for budget in (1, 3 * step_bytes, 10**9):
            monkeypatch.setattr(filtering, "NOISE_BLOCK_BYTES", budget)
            cloud = ParticleCloud(cfg, b.S, b.path_indices)
            for _ in range(cfg.n_steps):
                cloud.step()
            ends.append((cloud.X, cloud.Gamma_p, cloud.log_L))
        for end in ends[:-1]:
            for got, want in zip(end, ends[-1]):
                assert np.array_equal(got, want)

    def test_one_particle_replays_the_simulated_world(self, monkeypatch):
        # given a world's drawn dW_hat as its observed increments and the
        # world's own orthogonal normals as its noise, a one-particle cloud
        # takes the simulator's martingale-measure step: X, Gamma and log L
        # agree with the bundle and the summed density increments bit for bit
        cfg = make_config(m0=0.02, m1=0.8, sigma=0.25, rho=0.4,
                          factor=uh.AffineFactor(1.0, 0.05, 0.2, square_root=True),
                          gamma=uh.AffineGamma(0.02, 1.0),
                          n_steps=50, n_paths=3, n_particles=1, seed=23)
        b = simulate_paths(cfg, "P_hat")
        dW, _, _ = draw_worlds(cfg, b.path_indices)
        z = np.array([g.standard_normal(2 * cfg.n_steps)[cfg.n_steps:]
                      for g in rng.keyed_streams(cfg.seed, rng.PATHS, b.path_indices)])
        kernel = cfg.coefficients.market_price_of_risk(b.X[:, :-1])
        log_L = np.cumsum(log_density_increments(kernel, dW, cfg.dt), axis=1)
        cloud = ParticleCloud(cfg, b.S, b.path_indices)
        cloud.dW_obs = dW
        monkeypatch.setattr(cloud, "_next_noise", lambda: z[:, cloud.k][:, None].copy())
        for k in range(cfg.n_steps):
            cloud.step()
            assert np.array_equal(cloud.X[:, 0], b.X[:, k + 1])
            assert np.array_equal(cloud.Gamma_p[:, 0], b.Gamma[:, k + 1])
            assert np.array_equal(cloud.log_L[:, 0], log_L[:, k])

    def test_non_finite_state_names_step_and_path(self):
        # a NaN in world 3's observed price at index 1 makes its first observed
        # increment NaN, and with rho > 0 every particle of that world follows
        cfg = make_config(rho=0.5, factor=uh.AffineFactor(1.0, 0.05, 0.1), n_steps=10,
                          n_paths=2, n_particles=20)
        s_paths = np.ones((2, cfg.n_steps + 1))
        s_paths[1, 1] = np.nan
        cloud = ParticleCloud(cfg, s_paths, world_indices=[7, 3])
        with pytest.raises(uh.NumericalError) as info:
            cloud.step()
        k, path = re.search(r"non-finite particle state at step k=(\d+) \(t=[^)]*\), path (\d+)$",
                            str(info.value)).groups()
        assert (int(k), int(path)) == (1, 3)

    def test_overflowing_sum_of_finite_state_does_not_raise(self):
        # particles near the largest float: their sum overflows, each stays finite
        cfg = make_config(factor=uh.AffineFactor(0.1, 0.05, 0.1), n_steps=10,
                          n_paths=2, n_particles=20)
        cloud = ParticleCloud(cfg, np.ones((2, cfg.n_steps + 1)))
        cloud.X[:] = 1e308
        cloud.step()
        assert np.all(np.isfinite(cloud.X))
        with np.errstate(over="ignore"):
            assert not np.isfinite(cloud.X.sum())


class TestProjectMu:
    def test_constant_drift_projection_exact(self):
        cfg = make_config(m0=0.04, gamma=uh.AffineGamma(0.1, 0.0),
                          factor=uh.AffineFactor(1.0, 0.05, 0.2), n_paths=1,
                          n_particles=100)
        b = simulate_paths(cfg, "P")
        cloud = ParticleCloud(cfg, b.S[:1])
        for _ in range(cfg.n_steps // 2):
            cloud.step()
        est = cloud.projected_drift()
        assert abs(float(est[0]) - 0.04) <= 1e-14

    def test_dirac_projection_is_pointwise_drift(self):
        cfg = make_config(m0=0.01, m1=0.6, factor=uh.AffineFactor(), x0=0.09,
                          gamma=uh.AffineGamma(0.02, 0.0), n_paths=1, n_particles=64)
        b = simulate_paths(cfg, "P")
        cloud = ParticleCloud(cfg, b.S[:1])
        for _ in range(10):
            cloud.step()
        est = cloud.projected_drift()
        assert abs(float(est[0]) - (0.01 + 0.6 * 0.09)) <= 1e-14

    def test_ou_mean_oracle(self):
        # gamma = 0, rho = 0, mu = m1 x: cross-world mean of the projection
        # tracks m1 E[X_t] from the mean-reversion closed form
        kappa, xbar, x0 = 1.5, 0.1, 0.3
        cfg = make_config(m0=0.0, m1=0.5, rho=0.0,
                          factor=uh.AffineFactor(kappa, xbar, 0.15),
                          x0=x0, n_paths=150, n_steps=400, n_particles=1500,
                          c_bound=10.0, seed=42)
        b = simulate_paths(cfg, "P")
        series = run_filter(cfg, b.S, world_indices=b.path_indices)
        proj = series.estimates["proj_mu"]
        for k in (100, 200, 300, 400):
            got = proj[:, k].mean()
            se = proj[:, k].std(ddof=1) / np.sqrt(cfg.n_paths)
            want = 0.5 * float(ou_mean(x0, kappa, xbar, cfg.t_grid()[k]))
            assert_within_se(got, want, se, label=f"OU mean at step {k}")

    def test_survival_floor_raises(self):
        cfg = make_config(gamma=uh.AffineGamma(40.0, 0.0), maturity=1.0,
                          n_steps=50, n_paths=1, n_particles=16)
        cfg = dataclasses.replace(cfg, survival_floor=1e-6)
        b = simulate_paths(cfg, "P")
        cloud = ParticleCloud(cfg, b.S[:1])
        with pytest.raises(SurvivalFloorError, match=r"step k=\d+ .*, path 0: mass"):
            for _ in range(cfg.n_steps):
                cloud.step()
                cloud.projected_drift()

    def test_c_bound_breach_names_step_and_path(self):
        # |mu/sigma| = |x| / 0.2 passes c_bound = 1 once a particle leaves |x| <= 0.2
        cfg = make_config(m1=1.0, sigma=0.2, c_bound=1.0, x0=0.05,
                          factor=uh.AffineFactor(1.0, 0.05, 0.5), n_steps=50,
                          n_paths=2, n_particles=20)
        cloud = ParticleCloud(cfg, np.ones((2, cfg.n_steps + 1)), world_indices=[7, 3])
        with pytest.raises(uh.CoefficientBoundError) as info:
            for _ in range(cfg.n_steps):
                cloud.step()
        k, path = re.search(r"c_bound = 1 at step k=(\d+) \(t=[^)]*\), path (\d+): \d+ particle",
                            str(info.value)).groups()
        assert int(k) == cloud.k >= 1
        row = [7, 3].index(int(path))   # the named world has a particle past the bound
        assert np.abs(cloud.mu[row]).max() / 0.2 > 1.0


class TestSurvivalRatio:
    def test_physical_projection_matches_kallianpur_striebel(self):
        kw = dict(rho=0.5, factor=uh.AffineFactor(1.0, 0.08, 0.15),
                  gamma=uh.AffineGamma(0.02, 0.5), x0=0.08, n_paths=3,
                  n_particles=60, seed=48)
        cfg = make_config(m0=0.03, m1=0.4, **kw)
        b = simulate_paths(cfg, "P")
        cloud = ParticleCloud(cfg, b.S, b.path_indices)
        for _ in range(5):
            cloud.step()
        values = np.stack([cloud.mu, cloud.gam])
        est, se = cloud.survival_ratio(values, "P", with_se=True)
        # E_P[v | F^S, survival] = sum(exp(-log L) Y v) / sum(exp(-log L) Y)
        w = np.exp(-cloud.log_L) * cloud.Y
        want = (w * values).sum(axis=-1) / w.sum(axis=-1)
        want_se = np.sqrt(((w * (values - want[..., None]))**2).sum(axis=-1)) / w.sum(axis=-1)
        assert np.abs(cloud.log_L).max() > 0.0
        assert np.abs(est / want - 1.0).max() <= 1e-14
        assert np.abs(se / want_se - 1.0).max() <= 1e-14
        with pytest.raises(ValueError, match="measure"):
            cloud.survival_ratio(values, "Q")

        # a flat density (mu = 0) makes log L vanish: both measures agree
        cloud = ParticleCloud(make_config(m0=0.0, m1=0.0, **kw), b.S, b.path_indices)
        for _ in range(5):
            cloud.step()
        assert np.all(cloud.log_L == 0.0)
        values = np.stack([cloud.X, cloud.gam])
        for got, ref in zip(cloud.survival_ratio(values, "P", with_se=True),
                            cloud.survival_ratio(values, "P_hat", with_se=True)):
            assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


class TestHazardRatePartial:
    def test_constant_hazard_exact(self):
        cfg = make_config(gamma=uh.AffineGamma(0.07, 0.0),
                          factor=uh.AffineFactor(1.0, 0.05, 0.2),
                          n_paths=1, n_particles=128)
        b = simulate_paths(cfg, "P")
        cloud = ParticleCloud(cfg, b.S[:1])
        for _ in range(cfg.n_steps):
            cloud.step()
        est = cloud.survival_ratio(cloud.gam, "P")
        assert abs(float(est[0]) - 0.07) <= 1e-14

    def test_dirac_hazard_tracks_deterministic_factor(self):
        cfg = make_config(factor=uh.AffineFactor(), gamma=uh.AffineGamma(0.0, 1.0),
                          x0=0.06, n_paths=1, n_particles=32)
        b = simulate_paths(cfg, "P")
        cloud = ParticleCloud(cfg, b.S[:1])
        cloud.step()
        est = cloud.survival_ratio(cloud.gam, "P")
        assert abs(float(est[0]) - 0.06) <= 1e-14

    def test_cir_riccati_oracle(self):
        # mu = 0 and rho = 0 make the observable hazard deterministic, so the
        # estimate may be averaged over independent worlds
        factor = uh.AffineFactor(kappa=1.2, xbar=0.06, a_vol=0.25, square_root=True)
        cfg = make_config(m0=0.0, rho=0.0, factor=factor, gamma=uh.AffineGamma(0.0, 1.0),
                          x0=0.06, n_paths=8, n_steps=100, n_particles=10_000,
                          seed=43)
        b = simulate_paths(cfg, "P")
        series = run_filter(cfg, b.S, world_indices=b.path_indices)
        got = float(series.estimates["hazard"][:, 50].mean())
        want = float(affine_hazard_rate(factor, uh.AffineGamma(0.0, 1.0), 0.06, 0.5))
        assert abs(got - want) / want <= 0.01


class TestKsResidual:
    def test_constant_functional_zero_residual(self):
        cfg = make_config(m0=0.02, rho=0.5, factor=uh.AffineFactor(1.0, 0.05, 0.2),
                          gamma=uh.AffineGamma(0.05, 0.0), n_paths=1, n_particles=50)
        b = simulate_paths(cfg, "P")
        r = ks_residual(cfg, b.S[:1], functional_constant())
        assert np.abs(r).max() == 0.0

    def test_survival_functional_closed_ode(self):
        gamma0 = 0.06
        cfg = make_config(m0=0.02, rho=0.3, factor=uh.AffineFactor(1.0, 0.05, 0.2),
                          gamma=uh.AffineGamma(gamma0, 0.0), n_paths=1,
                          n_steps=100, n_particles=80)
        b = simulate_paths(cfg, "P")
        r = ks_residual(cfg, b.S[:1], functional_survival())
        # closed ODE: residual only carries the time-discretization error
        assert np.abs(r).max() <= gamma0**2 * cfg.dt

    def test_residual_shrinks_with_particles(self):
        cfg = make_config(m0=0.0, rho=0.5, factor=uh.AffineFactor(1.0, 0.08, 0.15),
                          x0=0.1, n_paths=1, n_steps=100, seed=44)
        b = simulate_paths(cfg, "P_hat")
        sizes = np.array([250, 1000, 4000])
        mean_abs = []
        for i, n_part in enumerate(sizes):
            cfg_n = dataclasses.replace(cfg, n_particles=int(n_part))
            reps = [abs(ks_residual(cfg_n, b.S[:1], functional_coord_x(),
                                    world_indices=[1000 * r + i])[0, -1])
                    for r in range(8)]
            mean_abs.append(np.mean(reps))
        slope = np.polyfit(np.log(sizes), np.log(mean_abs), 1)[0]
        assert -0.65 <= slope <= -0.35, f"slope {slope:.3f}"


class TestFilterInvariants:
    def test_filter_positivity(self):
        cfg = make_config(m0=0.03, m1=0.5, rho=0.6,
                          factor=uh.AffineFactor(1.0, 0.06, 0.25, square_root=True),
                          gamma=uh.AffineGamma(0.02, 1.0), x0=0.06,
                          n_paths=3, n_particles=500,
                          grid=uh.PdeGrid(200, 40, 5.0, -0.1, 0.6), seed=45)
        b = simulate_paths(cfg, "P")
        series = run_filter(cfg, b.S, world_indices=b.path_indices)
        assert np.all(series.estimates["pi_y"] > 0.0)
        assert np.all(series.estimates["pi_y"] <= 1.0)
        assert np.all(series.estimates["hazard"] >= 0.0)

    def test_tower_consistency(self):
        cfg = make_config(m0=0.03, m1=0.4, rho=0.5,
                          factor=uh.AffineFactor(1.0, 0.08, 0.15),
                          gamma=uh.AffineGamma(0.02, 0.5), x0=0.08,
                          n_paths=300, n_particles=400, seed=46)
        b = simulate_paths(cfg, "P_hat")
        series = run_filter(cfg, b.S, world_indices=b.path_indices)
        pi_y = series.estimates["pi_y"][:, -1]
        cfg_mc = dataclasses.replace(cfg, n_paths=100_000, seed=cfg.seed + 1)
        direct = simulate_paths(cfg_mc, "P_hat").Y[:, -1]
        se = np.hypot(pi_y.std(ddof=1) / np.sqrt(pi_y.size),
                      direct.std(ddof=1) / np.sqrt(direct.size))
        assert_within_se(pi_y.mean(), direct.mean(), se, label="tower")

    def test_custom_functional_generator_terms(self):
        # f = s * y exercises the mixed and first-order s terms in one shot
        fsy = SmoothFunctional(
            "s_times_y",
            f=lambda t, s, x, y: s * y + 0.0 * x,
            f_s=lambda t, s, x, y: y + 0.0 * (s + x),
            f_y=lambda t, s, x, y: s + 0.0 * (x + y),
        )
        cfg = make_config(m0=0.02, m1=0.3, rho=0.4,
                          factor=uh.AffineFactor(1.0, 0.05, 0.15),
                          gamma=uh.AffineGamma(0.08, 0.0), x0=0.05,
                          n_paths=1, n_steps=200, n_particles=3000, seed=47)
        b = simulate_paths(cfg, "P_hat")
        r = ks_residual(cfg, b.S[:1], fsy)
        # S Y is a martingale modulo the killing term the generator carries;
        # the residual stays at the discretization/particle level
        assert np.abs(r).max() <= 0.02
