import dataclasses
import os
import re

import numpy as np
import pytest

import ulhedge as uh
from ulhedge import hedging, rng
from ulhedge.config_io import load_config
from ulhedge.csvio import HEDGE_SERIES, export_hedge_report, read_matrix
from ulhedge.filtering import ParticleCloud
from ulhedge.hedging import (
    HedgeSeries,
    _backtest_chunk,
    _block_edges,
    _projected,
    backtest,
    closed_form_theta,
    hedge_paths,
    payment_stream,
    theta_full,
    trading_gains,
)
from ulhedge.oracles import black_scholes_delta
from ulhedge.pde import interp_rows, solve_g, solve_gtilde
from ulhedge.simulate import simulate_paths

from conftest import assert_within_se, make_config

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
CIR_GRID = uh.PdeGrid(n_s=300, n_x=50, s_max=6.0, x_min=-0.08, x_max=0.5)
SMOKE = os.path.join(CONFIGS, "smoke.ini")


@pytest.fixture(scope="module")
def smoke_g():
    return solve_g(load_config(SMOKE))


def cir_scenario(**kw):
    kw.setdefault("factor", uh.AffineFactor(1.0, 0.05, 0.2, square_root=True))
    kw.setdefault("gamma", uh.AffineGamma(0.02, 1.0))
    kw.setdefault("m0", 0.02)
    kw.setdefault("m1", 0.8)
    kw.setdefault("sigma", 0.25)
    kw.setdefault("rho", 0.4)
    kw.setdefault("x0", 0.05)
    kw.setdefault("grid", CIR_GRID)
    return make_config(**kw)


class TestPaymentStream:
    def test_structure(self):
        cfg = cir_scenario(survival=uh.Payoff(strike=1.0),
                           recovery=uh.Payoff(slope=0.2),
                           gamma=uh.AffineGamma(0.4, 0.0), maturity=2.0,
                           n_steps=50, n_paths=3000, seed=51)
        b = simulate_paths(cfg, "P")
        N = payment_stream(b)
        died = np.isfinite(b.tau)
        k = b.death_step()
        rows = np.arange(b.n_paths)
        # at most one jump, located at the death time
        jumps = np.diff(N, axis=1)
        assert np.all((jumps != 0).sum(axis=1) <= 1)
        s_death = b.S[rows[died], k[died]]
        assert np.allclose(N[died, -1], 0.2 * s_death)
        surv = ~died
        assert np.allclose(N[surv, -1],
                           np.maximum(b.S[surv, -1] - 1.0, 0.0))

    def test_degenerate_contracts(self):
        cfg = cir_scenario(survival=uh.Payoff(strike=1.0), recovery=uh.Payoff(),
                           gamma=uh.AffineGamma(0.3, 0.0), n_paths=500, seed=52)
        term = payment_stream(simulate_paths(cfg, "P"))
        died = np.isfinite(simulate_paths(cfg, "P").tau)
        assert np.all(term[died, -1] == 0.0)

        cfg2 = dataclasses.replace(cfg, contract=uh.Contract(
            1.0, uh.Payoff(level=0.0), uh.Payoff(slope=0.2)))
        pure = payment_stream(simulate_paths(cfg2, "P"))
        assert np.all(pure[~died, -1] == 0.0)


class TestThetaFull:
    def test_affine_contract_constant_slope(self):
        cfg = cir_scenario(survival=uh.Payoff(slope=0.5),
                           recovery=uh.Payoff(slope=0.5), n_paths=40, seed=53)
        b = simulate_paths(cfg, "P")
        th = hedge_paths(cfg, b, solve_g(cfg)).theta_full
        assert np.abs(th[b.alive_mask() > 0] - 0.5).max() <= 1e-10

    def test_black_scholes_delta(self):
        cfg = make_config(m0=0.02, m1=0.3, sigma=0.2, rho=0.0,
                          factor=uh.AffineFactor(1.0, 0.05, 0.1), x0=0.05,
                          grid=uh.PdeGrid(1000, 40, 5.0, -0.5, 0.6),
                          n_steps=200, n_paths=30, seed=54)
        b = simulate_paths(cfg, "P")
        th = hedge_paths(cfg, b, solve_g(cfg)).theta_full
        t_left = b.t_grid[:-1][None, :]
        oracle = black_scholes_delta(b.S[:, :-1], 1.0, 0.2, 1.0 - t_left)
        # relative delta accuracy is checked away from the terminal kink
        # (time-to-maturity >= 0.05) and where the delta is meaningfully sized
        mask = (oracle >= 0.05) & (oracle <= 0.995) & (1.0 - t_left >= 0.05)
        rel = np.abs(th - oracle)[mask] / oracle[mask]
        assert rel.max() <= 0.01

    def test_two_route_consistency_uncorrelated(self):
        # 2D solve against the product form (survival-benefit price times the
        # survival transform) along simulated paths
        cfg = make_config(m0=0.03, m1=0.5, sigma=0.2, rho=0.0,
                          factor=uh.AffineFactor(1.2, 0.06, 0.25, square_root=True),
                          gamma=uh.AffineGamma(0.0, 1.0),
                          recovery=uh.Payoff(slope=0.2), x0=0.06,
                          grid=uh.PdeGrid(500, 60, 6.0, -0.08, 0.6),
                          n_paths=50, seed=55)
        b = simulate_paths(cfg, "P")
        th = hedge_paths(cfg, b, solve_g(cfg)).theta_full
        th_cf, gtilde, phi = closed_form_theta(cfg, b)
        # full-information closed form replaces the survival mass by Phi(t, X_t)
        delta = 0.2
        th2 = np.zeros_like(th)
        for k in range(cfg.n_steps):
            gs = gtilde.value_ds(k, s=b.S[:, k])
            ph = phi.value(k, x=b.X[:, k])
            th2[:, k] = (gs - delta) * ph + delta
        th2 *= b.alive_mask()
        mask = b.alive_mask() > 0
        rel = np.abs(th - th2)[mask] / np.maximum(np.abs(th2[mask]), 0.05)
        assert rel.max() <= 0.01

    def test_domain_excursion_reports(self):
        cfg = cir_scenario(grid=uh.PdeGrid(100, 30, 1.3, -0.08, 0.5),
                           n_paths=200, seed=56)
        b = simulate_paths(cfg, "P")
        sol = solve_g(cfg)
        with pytest.raises(uh.DomainExcursionError):
            hedge_paths(cfg, b, sol)


class TestThetaPartial:
    def test_dirac_equals_full_information(self):
        cfg = make_config(m0=0.03, m1=0.5, sigma=0.2, rho=0.0,
                          factor=uh.AffineFactor(),
                          gamma=uh.AffineGamma(0.05, 0.0),
                          recovery=uh.Payoff(slope=0.2), x0=0.04,
                          grid=uh.PdeGrid(400, 8, 5.0, -0.1, 0.1),
                          n_paths=50, n_particles=64, seed=57)
        b = simulate_paths(cfg, "P")
        series = hedge_paths(cfg, b, solve_g(cfg))
        assert np.abs(series.theta_star - series.theta_full).max() <= 1e-12

    def test_perfect_correlation_equals_full_information(self):
        # at rho = 1 the price path fixes the factor: every particle follows
        # the world's own X, so theta* = theta_F and V = V_full
        cfg = load_config(SMOKE)
        cfg = dataclasses.replace(cfg, coefficients=dataclasses.replace(cfg.coefficients, rho=1.0),
                                  n_paths=200, n_particles=4)
        series = hedge_paths(cfg, simulate_paths(cfg, "P"), solve_g(cfg))
        assert np.abs(series.theta_star - series.theta_full).max() <= 1e-12
        assert np.abs(series.V - series.V_full).max() <= 1e-12

    def test_affine_contract_constant_slope(self):
        cfg = cir_scenario(survival=uh.Payoff(slope=0.5),
                           recovery=uh.Payoff(slope=0.5),
                           n_paths=40, n_particles=200, seed=58)
        b = simulate_paths(cfg, "P")
        series = hedge_paths(cfg, b, solve_g(cfg))
        th = series.theta_star[b.alive_mask() > 0]
        assert np.abs(th - 0.5).max() <= 1e-10

    def test_closed_form_agreement(self):
        cfg = make_config(m0=0.03, m1=0.5, sigma=0.2, rho=0.0,
                          factor=uh.AffineFactor(1.2, 0.06, 0.25, square_root=True),
                          gamma=uh.AffineGamma(0.0, 1.0),
                          recovery=uh.Payoff(slope=0.2), x0=0.06,
                          grid=uh.PdeGrid(500, 60, 6.0, -0.08, 0.6),
                          n_paths=50, n_steps=100, n_particles=4000, seed=59)
        b = simulate_paths(cfg, "P")
        series = hedge_paths(cfg, b, solve_g(cfg))
        th_cf, _, _ = closed_form_theta(cfg, b)
        mask = b.alive_mask() > 0
        rel = np.abs(series.theta_star - th_cf)[mask] \
            / np.maximum(np.abs(th_cf[mask]), 0.05)
        assert rel.max() <= 0.02

    def test_closed_form_requires_uncorrelated(self):
        cfg = cir_scenario(n_paths=5, seed=60)
        b = simulate_paths(cfg, "P")
        with pytest.raises(uh.ConfigError):
            closed_form_theta(cfg, b)

    def test_closed_form_requires_linear_or_zero_death_benefit(self):
        # a call benefit struck beyond s = 2 vanishes on [0, 2] but is not zero
        cfg = dataclasses.replace(load_config(os.path.join(CONFIGS, "uncorrelated.ini")),
                                  n_paths=3)
        b = simulate_paths(cfg, "P")
        call = uh.Payoff(strike=1.0)
        for recovery in (uh.Payoff(strike=2.5), uh.Payoff(strike=1.5)):
            bad = dataclasses.replace(cfg, contract=uh.Contract(1.0, call, recovery))
            with pytest.raises(uh.ConfigError, match="death benefit"):
                closed_form_theta(bad, b)
        for recovery in (uh.Payoff(), uh.Payoff(slope=0.2)):
            ok = dataclasses.replace(cfg, contract=uh.Contract(1.0, call, recovery))
            theta, _, _ = closed_form_theta(ok, b)
            assert np.isfinite(theta).all()

    def test_measurability_from_observables_alone(self, tmp_path):
        # recompute theta* from the exported price path and death indicator
        # only, mirroring the published formula
        cfg = cir_scenario(n_paths=10, n_particles=150, seed=61)
        b = simulate_paths(cfg, "P")
        g_sol = solve_g(cfg)
        series = hedge_paths(cfg, b, g_sol)

        from ulhedge.csvio import export_bundle, read_matrix
        import os
        export_bundle(b, tmp_path)
        _, _, s_exported = read_matrix(os.path.join(tmp_path, "paths_S.csv"))
        _, _, h_exported = read_matrix(os.path.join(tmp_path, "paths_H.csv"))
        cloud = ParticleCloud(cfg, s_exported, world_indices=b.path_indices)
        c = cfg.coefficients
        theta = np.zeros((10, cfg.n_steps))
        for k in range(cfg.n_steps):
            s_k = s_exported[:, k]
            Y = cloud.Y
            gs, gx = interp_rows(g_sol.slice_at_s(("d_s", "d_x"), k, s_k, 0,
                                                  len(g_sol.x_grid)),
                                 g_sol.x_grid, cloud.X, 0)
            num = (Y * gs).mean(axis=1)
            num = num + c.rho / (c.sigma0 * s_k) \
                * (c.factor.a(cloud.X) * Y * gx).mean(axis=1)
            theta[:, k] = num / Y.mean(axis=1)
            cloud.step()
        theta *= 1.0 - h_exported[:, :-1]
        assert np.abs(theta - series.theta_star).max() <= 1e-12

    def test_batch_matches_worlds_one_at_a_time(self):
        # the flat-index gathers offset each world's rows: a batch of worlds
        # must hedge exactly as the same worlds run alone
        cfg = cir_scenario(recovery=uh.Payoff(slope=0.2), n_steps=30,
                           n_particles=40, seed=69)
        g_sol = solve_g(cfg)
        idx = np.array([7, 2, 31, 3, 18])
        batch = hedge_paths(cfg, simulate_paths(cfg, "P", path_indices=idx), g_sol)
        for row, path in enumerate(idx):
            alone = hedge_paths(cfg, simulate_paths(cfg, "P", path_indices=[path]),
                                g_sol)
            for f in dataclasses.fields(HedgeSeries):
                assert np.array_equal(getattr(alone, f.name)[0],
                                      getattr(batch, f.name)[row]), (f.name, path)

    def test_row_offset_leaves_results_identical(self, smoke_g):
        # per-world sums must not depend on where a world's row sits in
        # memory: the same worlds at rows 0, 1, 3 and 7 of a batch
        cfg = load_config(SMOKE)
        worlds = np.array([11, 12, 13])
        runs = []
        for offset in (0, 1, 3, 7):
            idx = np.concatenate([np.arange(100, 100 + offset), worlds])
            series = hedge_paths(cfg, simulate_paths(cfg, "P", path_indices=idx), smoke_g)
            runs.append([getattr(series, name)[offset:] for name in ("theta_star", "V", "pfs_mu")])
        for run in runs[1:]:
            for got, want in zip(run, runs[0]):
                assert np.array_equal(got, want)

    def test_excursion_names_step_and_path(self):
        # x_max just above x0: particles leave the x-domain on the first step
        cfg = cir_scenario(grid=uh.PdeGrid(100, 30, 6.0, -0.08, 0.051),
                           n_steps=20, n_particles=50, seed=70)
        b = simulate_paths(cfg, "P", path_indices=np.arange(40, 46))
        with pytest.raises(uh.DomainExcursionError) as info:
            hedge_paths(cfg, b, solve_g(cfg))
        msg = str(info.value)
        k, path = (int(v) for v in re.search(r"step k=(\d+), path (\d+):", msg).groups())
        assert "x-coordinate" in msg and "[-0.08, 0.051]" in msg
        # the named world's cloud is inside the domain before step k, not at k
        row = int(np.flatnonzero(b.path_indices == path)[0])
        cloud = ParticleCloud(cfg, b.S[row:row + 1], world_indices=[path])
        for _ in range(k - 1):
            cloud.step()
        assert cloud.X.max() <= 0.051
        cloud.step()
        assert cloud.X.max() > 0.051


    def test_own_factor_excursion_names_step_and_path(self):
        # the cloud never sees a world's own X; the full-information leg
        # reads it, at interval-left steps (position) and at maturity (value)
        cfg = cir_scenario(n_steps=20, n_particles=30, seed=71)
        g_sol = solve_g(cfg)
        n = cfg.n_steps
        for row, k in ((2, 5), (3, n)):
            b = simulate_paths(cfg, "P", path_indices=np.arange(40, 46))
            b.X[row, k] = cfg.pde_grid.x_max + 1.0
            with pytest.raises(uh.DomainExcursionError) as info:
                hedge_paths(cfg, b, g_sol)
            msg = str(info.value)
            assert f"step k={k}, path {40 + row}:" in msg and "x-coordinate" in msg


def _deposit_against_gather(cloud, g_sol, k, own_x=None):
    """max |V - V_ref| and max |theta* - theta*_ref| at step k, and the
    deposit: the cloud's windowed deposit projection against the gather it
    replaces (whole rows interpolated at every particle, ``theta_full``
    there, one survival ratio).  The windows cover the cloud and ``own_x``
    (by default each world's first particle), whose gather from the windowed
    rows must equal its gather from the whole rows bit for bit."""
    c = cloud.config.coefficients
    s, grid = cloud.s_now, g_sol.x_grid
    names = ("value", "d_s", "d_x")
    own_x = cloud.X[:, :1] if own_x is None else own_x
    whole = g_sol.slice_at_s(names, k, s[:, 0], 0, len(grid))
    fields = interp_rows(whole, grid, cloud.X, 0)
    theta_full(c, s, cloud.a, fields[1], fields[2])
    value_ref, theta_ref = cloud.survival_ratio(fields[:2])
    deposit = cloud.survival_deposit(grid, own_x)
    width = deposit.d_y.shape[1]
    rows = g_sol.slice_at_s(names, k, s[:, 0], deposit.lo, width)
    columns = deposit.lo[:, None] + np.arange(width)
    assert np.array_equal(rows, np.take_along_axis(whole, columns[None], axis=2))
    assert np.array_equal(interp_rows(rows, grid, own_x, deposit.lo),
                          interp_rows(whole, grid, own_x, 0))
    value, theta = _projected(c, s[:, 0], rows, deposit)
    return np.abs(value - value_ref).max(), np.abs(theta - theta_ref).max(), deposit


class TestSurvivalDeposit:
    """The cloud-in-cell deposit projection against the gather reference."""

    def test_smoke_cloud_matches_gather(self, smoke_g):
        cfg = dataclasses.replace(load_config(SMOKE), n_paths=120)
        b = simulate_paths(cfg, "P")
        cloud = ParticleCloud(cfg, b.S, b.path_indices)
        for k in range(cfg.n_steps):
            if k in (0, 1, 10, 50, 99):   # the Dirac start, then a spreading cloud
                dv, dth, deposit = _deposit_against_gather(cloud, smoke_g, k, b.X[:, k:k + 1])
                assert dv <= 1e-15 and dth <= 1e-15, (k, dv, dth)
                assert deposit.d_y.shape[1] < len(smoke_g.x_grid), k
            cloud.step()

    def test_particles_on_nodes_and_domain_edges(self, smoke_g):
        cfg = dataclasses.replace(load_config(SMOKE), n_paths=40)
        b = simulate_paths(cfg, "P")
        cloud = ParticleCloud(cfg, b.S, b.path_indices)
        for _ in range(20):
            cloud.step()
        grid = smoke_g.x_grid
        nodes = np.random.default_rng(5).integers(0, len(grid), cloud.X.shape)
        nodes[:, :2] = [0, len(grid) - 1]          # x_min and x_max in every world
        cloud.X = grid[nodes]
        dv, dth, deposit = _deposit_against_gather(cloud, smoke_g, 20)
        assert dv <= 1e-15 and dth <= 1e-15
        # every window is the whole grid
        assert deposit.d_y.shape[1] == len(grid) and not deposit.lo.any()
        # a particle on a node puts its whole weight there
        d_y, total = deposit.d_y, deposit.total
        want = np.zeros_like(d_y)
        np.add.at(want, (np.arange(40)[:, None], nodes), cloud.Y)
        assert np.abs(d_y / total[:, None] - want / want.sum(axis=1, keepdims=True)).max() <= 1e-15

    def test_cloud_inside_one_cell(self, smoke_g):
        cfg = dataclasses.replace(load_config(SMOKE), n_paths=30)
        b = simulate_paths(cfg, "P")
        cloud = ParticleCloud(cfg, b.S, b.path_indices)
        for _ in range(5):
            cloud.step()
        grid = smoke_g.x_grid
        cloud.X = np.random.default_rng(6).uniform(grid[7], grid[8], cloud.X.shape)
        dv, dth, deposit = _deposit_against_gather(cloud, smoke_g, 5)
        assert dv <= 1e-15 and dth <= 1e-15
        # the window is the cell's two nodes
        assert deposit.d_y.shape[1] == 2 and (deposit.lo == 7).all()
        assert np.stack([deposit.d_y, deposit.d_ya]).all()

    def test_own_state_outside_the_cloud(self, smoke_g):
        # the own state widens its world's window beyond the cloud's cells,
        # above in one world and below in the other
        cfg = dataclasses.replace(load_config(SMOKE), n_paths=2)
        b = simulate_paths(cfg, "P")
        cloud = ParticleCloud(cfg, b.S, b.path_indices)
        for _ in range(5):
            cloud.step()
        grid = smoke_g.x_grid
        cloud.X = np.random.default_rng(7).uniform(grid[20], grid[21], cloud.X.shape)
        own_x = np.array([[0.5 * (grid[30] + grid[31])], [0.5 * (grid[3] + grid[4])]])
        dv, dth, deposit = _deposit_against_gather(cloud, smoke_g, 5, own_x)
        assert dv <= 1e-15 and dth <= 1e-15
        # cells 20..30 and 3..20: the widest needs 19 nodes
        assert deposit.d_y.shape[1] == 19 and list(deposit.lo) == [20, 3]
        assert list(cloud.max_window) == [12, 19]

    def test_a_spread_chunk_mate_leaves_a_world_unchanged(self, smoke_g):
        # a world beside one whose particles cover every cell is projected
        # over the whole grid, not over its own narrow window: its V and
        # theta* must not move by a bit
        cfg = dataclasses.replace(load_config(SMOKE), n_paths=2)
        b = simulate_paths(cfg, "P")
        c, grid, k = cfg.coefficients, smoke_g.x_grid, 30
        alone = ParticleCloud(cfg, b.S[:1], b.path_indices[:1])
        pair = ParticleCloud(cfg, b.S, b.path_indices)
        for _ in range(k):
            alone.step()
            pair.step()
        pair.X[1] = np.linspace(grid[0], grid[-1], pair.n_particles)
        results = []
        for cloud in (alone, pair):
            own_x = b.X[:cloud.n_worlds, k:k + 1]
            deposit = cloud.survival_deposit(grid, own_x)
            rows = smoke_g.slice_at_s(("value", "d_s", "d_x"), k, cloud.s_now[:, 0],
                                      deposit.lo, deposit.d_y.shape[1])
            results.append((deposit, _projected(c, cloud.s_now[:, 0], rows, deposit)))
        (narrow, want), (wide, got) = results
        assert narrow.d_y.shape[1] < 15 and wide.d_y.shape[1] == len(grid)
        assert not wide.lo.any() and narrow.lo[0] > 0
        for g, w in zip(got, want):
            assert np.array_equal(g[:1], w)
        # the recorded need is the world's own, whatever its chunk-mates
        assert pair.max_window[0] == alone.max_window[0] == narrow.d_y.shape[1]
        assert pair.max_window[1] == len(grid)

    def test_max_window_is_the_widest_window_needed(self):
        cfg = cir_scenario(recovery=uh.Payoff(slope=0.2), n_steps=20, n_particles=16,
                           seed=76)
        b = simulate_paths(cfg, "P", path_indices=np.arange(9))
        g_sol = solve_g(cfg)
        series = hedge_paths(cfg, b, g_sol)
        # an independent run of the same clouds: the cells of the particles
        # and of the own state at every step, plus the node above the highest
        cloud = ParticleCloud(cfg, b.S, b.path_indices)
        h = g_sol.x_grid[1] - g_sol.x_grid[0]
        want = np.zeros(9, dtype=int)
        for k in range(cfg.n_steps + 1):
            x = np.hstack([cloud.X, b.X[:, k:k + 1]])
            cell = np.minimum(np.floor((x - g_sol.x_grid[0]) / h), cfg.pde_grid.n_x - 1)
            want = np.maximum(want, cell.max(axis=1) - cell.min(axis=1) + 2)
            if k < cfg.n_steps:
                cloud.step()
        assert np.array_equal(series.max_window, want)
        assert 2 < want.min() and want.max() < len(g_sol.x_grid)

    def test_one_particle(self, smoke_g):
        cfg = dataclasses.replace(load_config(SMOKE), n_paths=25, n_particles=1)
        b = simulate_paths(cfg, "P")
        cloud = ParticleCloud(cfg, b.S, b.path_indices)
        for k in range(cfg.n_steps):
            if k % 20 == 0:
                dv, dth, _ = _deposit_against_gather(cloud, smoke_g, k)
                assert dv <= 1e-15 and dth <= 1e-15, k
            cloud.step()

    @staticmethod
    def _smoke_cloud(n_paths, **coefficients):
        base = load_config(SMOKE)
        cfg = dataclasses.replace(base, coefficients=dataclasses.replace(base.coefficients,
                                                                         **coefficients),
                                  n_paths=n_paths)
        b = simulate_paths(cfg, "P")
        return cfg, solve_g(cfg), ParticleCloud(cfg, b.S, b.path_indices)

    def test_uncorrelated(self):
        cfg, g_sol, cloud = self._smoke_cloud(30, rho=0.0)
        for k in range(cfg.n_steps):
            if k % 25 == 0:
                dv, dth, _ = _deposit_against_gather(cloud, g_sol, k)
                assert dv <= 1e-15 and dth <= 1e-15, k
            cloud.step()

    def test_frozen_factor_keeps_the_dirac_value(self):
        # a frozen factor (a = 0) keeps every particle at x0 with one survival:
        # V and theta* are the gather at that one state, which the deposit
        # reproduces (the 300-particle gather's mean of equal values carries
        # about ten ulps of rounding of its own here, the deposit none)
        cfg, g_sol, cloud = self._smoke_cloud(30, rho=0.0, factor=uh.AffineFactor())
        c, grid = cfg.coefficients, g_sol.x_grid
        for k in range(cfg.n_steps):
            if k % 25 == 0:
                s = cloud.s_now
                deposit = cloud.survival_deposit(grid, cloud.X[:, :1])
                rows = g_sol.slice_at_s(("value", "d_s", "d_x"), k, s[:, 0], deposit.lo,
                                        deposit.d_y.shape[1])
                one = interp_rows(rows, grid, cloud.X[:, :1], deposit.lo)
                theta_ref = theta_full(c, s, cloud.a[:, :1], one[1], one[2])[:, 0]
                value, theta = _projected(c, s[:, 0], rows, deposit)
                assert np.abs(value - one[0, :, 0]).max() <= 1e-15, k
                assert np.abs(theta - theta_ref).max() <= 1e-15, k
                assert not deposit.d_ya.any()
            cloud.step()

    def test_floor_breach_in_the_hedge_names_step_and_path(self):
        # deterministic survival exp(-40 t) crosses the floor 1e-6 between
        # t = 0.34 and t = 0.36, in every world at once: the first row is named
        cfg = dataclasses.replace(cir_scenario(gamma=uh.AffineGamma(40.0, 0.0), n_steps=50,
                                               n_particles=16, seed=74), survival_floor=1e-6)
        b = simulate_paths(cfg, "P", path_indices=np.arange(40, 46))
        with pytest.raises(uh.SurvivalFloorError) as info:
            hedge_paths(cfg, b, solve_g(cfg))
        assert re.search(r"survival mass exhausted at step k=18 \(t=0\.36\), path 40:",
                         str(info.value)), str(info.value)

    def test_min_mass_is_the_smallest_checked_mass(self):
        cfg = cir_scenario(recovery=uh.Payoff(slope=0.2), n_steps=20, n_particles=40,
                           seed=75)
        b = simulate_paths(cfg, "P", path_indices=np.arange(12))
        series = hedge_paths(cfg, b, solve_g(cfg))
        # an independent run of the same clouds: the martingale-measure mass
        # at every step, and the physical-measure mass (density scaled to
        # mean 1) at every interval-left step
        cloud = ParticleCloud(cfg, b.S, b.path_indices)
        masses = []
        for k in range(cfg.n_steps + 1):
            masses.append(cloud.Y.mean(axis=1))
            if k < cfg.n_steps:
                density = np.exp(-cloud.log_L)
                density /= density.mean(axis=1, keepdims=True)
                masses.append((density * cloud.Y).mean(axis=1))
                cloud.step()
        want = np.min(masses, axis=0)
        assert np.abs(series.min_mass / want - 1.0).max() <= 1e-14
        assert want.min() < 1.0


class TestValueAndCost:
    def test_initial_value_is_pde_price(self):
        cfg = cir_scenario(n_paths=20, n_particles=100, seed=62)
        b = simulate_paths(cfg, "P")
        g_sol = solve_g(cfg)
        series = hedge_paths(cfg, b, g_sol)
        zeta0 = float(g_sol.value(0, s=np.array([cfg.s0]), x=np.array([cfg.x0]))[0])
        assert np.abs(series.V[:, 0] - zeta0).max() <= 1e-12

    def test_full_information_leg_is_the_point_lookups(self):
        cfg = cir_scenario(recovery=uh.Payoff(slope=0.2), n_steps=30,
                           n_paths=40, n_particles=40, seed=72)
        b = simulate_paths(cfg, "P")
        g_sol = solve_g(cfg)
        series = hedge_paths(cfg, b, g_sol)
        c, n = cfg.coefficients, cfg.n_steps
        alive = b.alive_mask()
        for k in range(n):
            s, x = b.S[:, k], b.X[:, k]
            th = theta_full(c, s, c.factor.a(x), g_sol.value_ds(k, s=s, x=x),
                            g_sol.value_dx(k, s=s, x=x))
            assert np.array_equal(series.theta_full[:, k], th * alive[:, k])
            v = g_sol.value(k, s=s, x=x) * (1.0 - b.H[:, k])
            assert np.array_equal(series.V_full[:, k], v)
        assert not series.V_full[:, -1].any()

    def test_value_zero_after_death_and_cost_jump(self):
        cfg = cir_scenario(gamma=uh.AffineGamma(0.6, 0.0), maturity=2.0,
                           n_steps=50, n_paths=400, n_particles=100, seed=63,
                           grid=uh.PdeGrid(300, 50, 8.0, -0.08, 0.5))
        b = simulate_paths(cfg, "P")
        series = hedge_paths(cfg, b, solve_g(cfg))
        died = np.where(np.isfinite(b.tau))[0]
        k = b.death_step()
        for i in died[:25]:
            assert series.V[i, k[i]] == 0.0
            # cost jumps by the benefit paid minus the released book value
            jump = series.C[i, k[i]] - series.C[i, k[i] - 1]
            paid = series.N[i, k[i]] - series.N[i, k[i] - 1]
            released = series.V[i, k[i] - 1]
            traded = series.theta_star[i, k[i] - 1] \
                * (b.S[i, k[i]] - b.S[i, k[i] - 1])
            assert abs(jump - (paid - released - traded)) <= 1e-12

    def test_black_scholes_replication(self):
        # no mortality, zero recovery, uncorrelated: book value and riskless
        # leg reproduce the replicating portfolio of the survival benefit
        cfg = make_config(m0=0.02, m1=0.3, sigma=0.2, rho=0.0,
                          factor=uh.AffineFactor(1.0, 0.05, 0.1), x0=0.05,
                          grid=uh.PdeGrid(1000, 20, 5.0, -0.3, 0.4),
                          n_steps=100, n_paths=30, n_particles=64, seed=64)
        b = simulate_paths(cfg, "P")
        series = hedge_paths(cfg, b, solve_g(cfg))
        gtilde = solve_gtilde(cfg)
        V_oracle = np.empty_like(series.V)
        eta_oracle = np.empty_like(series.V)
        for k in range(cfg.n_steps + 1):
            s_k = b.S[:, k]
            V_oracle[:, k] = gtilde.value(k, s=s_k)
            eta_oracle[:, k] = V_oracle[:, k] - gtilde.value_ds(k, s=s_k) * s_k
        # riskless-account leg eta = V - theta* S^tau (theta* treated as 0 at T)
        eta = series.V.copy()
        eta[:, :-1] -= series.theta_star * series.S_stopped[:, :-1]
        sel = (b.S > 0.6) & (b.S < 2.0)
        sel[:, -1] = False  # post-settlement book value is zero by convention
        rel_v = np.abs(series.V - V_oracle)[sel] / np.abs(V_oracle[sel])
        assert rel_v.max() <= 0.01
        scale = np.abs(eta_oracle[sel]).mean()
        rel_e = np.abs(eta - eta_oracle)[sel] / np.maximum(np.abs(eta_oracle[sel]),
                                                           0.05 * scale)
        assert rel_e.max() <= 0.01


def _exported(out_dir, *names):
    """The backtest's exported per-path series, read back exactly (repr floats)."""
    return [read_matrix(os.path.join(out_dir, f"hedge_{name}.csv"))[2] for name in names]


def _arrays(obj):
    """Every array in a value, looking through tuples and dataclasses."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _arrays(item)


class TestBacktest:
    def test_driftless_price_identity(self, tmp_path):
        # mu = 0 makes both measures coincide: the stochastic integral has
        # zero mean and the price identity is the trivial one
        cfg = make_config(m0=0.0, sigma=0.2, rho=0.0,
                          factor=uh.AffineFactor(1.0, 0.05, 0.15),
                          gamma=uh.AffineGamma(0.02, 0.5), x0=0.05,
                          recovery=uh.Payoff(slope=0.2),
                          grid=uh.PdeGrid(300, 60, 6.0, -0.85, 0.95),
                          n_steps=100, n_paths=3000, n_particles=150, seed=65)
        rep = backtest(cfg, out_dir=tmp_path)
        s = rep.summary
        assert abs(s.price_z) <= 3.0
        gains = trading_gains(*_exported(tmp_path, "theta_star", "S_stopped"))[:, -1]
        assert_within_se(gains.mean(), 0.0,
                         gains.std(ddof=1) / np.sqrt(cfg.n_paths),
                         label="driftless trading gains")

    def test_exact_strategy_residual(self, tmp_path):
        cfg = cir_scenario(survival=uh.Payoff(slope=0.5),
                           recovery=uh.Payoff(slope=0.5),
                           n_paths=2000, n_particles=100, seed=66)
        rep = backtest(cfg, out_dir=tmp_path)
        C, = _exported(tmp_path, "C")
        resid = C[:, -1] - rep.summary.zeta0_pde
        se = resid.std(ddof=1) / np.sqrt(cfg.n_paths)
        assert abs(resid.mean()) <= max(3 * se, 1e-12)
        # the exact strategy leaves no hedging risk at all
        assert np.abs(resid).max() <= 1e-10

    def test_degenerate_factor_columns_identical(self, tmp_path):
        cfg = make_config(m0=0.03, m1=0.5, sigma=0.2, rho=0.0,
                          factor=uh.AffineFactor(), gamma=uh.AffineGamma(0.05, 0.0),
                          recovery=uh.Payoff(slope=0.2), x0=0.04,
                          grid=uh.PdeGrid(400, 8, 5.0, -0.1, 0.1),
                          n_steps=60, n_paths=300, n_particles=32, seed=67)
        backtest(cfg, out_dir=tmp_path)
        th_star, th_full, C, C_full = _exported(
            tmp_path, "theta_star", "theta_full", "C", "C_full")
        assert np.abs(th_star - th_full).max() <= 1e-12
        assert np.abs(C - C_full).max() <= 1e-10

    def test_degenerate_contracts_hedge_cleanly(self):
        # pure term insurance (zero recovery) and pure endowment-at-death
        # (zero survival benefit) both run the full pipeline and price right
        base = dict(gamma=uh.AffineGamma(0.3, 0.0), maturity=2.0, n_steps=100,
                    n_paths=2000, n_particles=100,
                    grid=uh.PdeGrid(300, 50, 8.0, -0.08, 0.5))
        term = cir_scenario(survival=uh.Payoff(strike=1.0),
                            recovery=uh.Payoff(), seed=71, **base)
        pure = cir_scenario(survival=uh.Payoff(level=0.0),
                            recovery=uh.Payoff(slope=0.2), seed=72, **base)
        for cfg in (term, pure):
            rep = backtest(cfg)
            assert abs(rep.summary.price_z) <= 3.0
            assert np.abs(rep.summary.cost_z).max() <= 3.5

    def test_generic_scenario_summary(self):
        cfg = cir_scenario(recovery=uh.Payoff(slope=0.2),
                           n_steps=200, n_paths=4000, n_particles=200, seed=68)
        rep = backtest(cfg)
        s = rep.summary
        assert np.abs(s.cost_z).max() <= 3.0
        assert np.abs(s.cov_price_z).max() <= 3.0
        assert np.abs(s.cov_mart_z).max() <= 3.0
        assert abs(s.price_z) <= 3.0
        assert s.v_terminal_max == 0.0
        assert s.terminal_gap_max <= 0.01
        # invalid configs are rejected up front
        with pytest.raises(uh.ConfigError):
            backtest(dataclasses.replace(cfg, n_paths=0))

    def test_chunks_and_workers_leave_results_identical(self, tmp_path):
        cfg = cir_scenario(recovery=uh.Payoff(slope=0.2), n_steps=20, n_paths=30,
                           n_particles=16, seed=73)
        runs, dirs = [], []
        for size, workers in ((4000, 1), (7, 1), (7, 2)):
            out = tmp_path / f"c{size}w{workers}"
            out.mkdir()
            rep = backtest(cfg, chunk_size=size, workers=workers, out_dir=out)
            files = export_hedge_report(rep, out)
            # the nine artifacts and nothing else: no part files are left behind
            assert sorted(os.listdir(out)) == sorted(os.path.basename(f) for f in files)
            assert len(files) == 9
            runs.append(rep)
            dirs.append(out)
        for out in dirs[1:]:
            for name in os.listdir(dirs[0]):
                assert (out / name).read_bytes() == (dirs[0] / name).read_bytes(), name
        # the record's leading fields are the exported series, in file order
        names = [f.name for f in dataclasses.fields(HedgeSeries)]
        assert names[:len(HEDGE_SERIES)] == list(HEDGE_SERIES)
        # every field, exported or not, is row-local: a chunk's rows equal the
        # same rows of one whole-bundle run, whose exported series the files hold
        g_sol = solve_g(cfg)
        whole = hedge_paths(cfg, simulate_paths(cfg, "P"), g_sol)
        for lo, hi in ((0, 7), (7, 30)):
            part = hedge_paths(cfg, simulate_paths(cfg, "P", path_indices=np.arange(lo, hi)),
                               g_sol)
            for name in names:
                assert np.array_equal(getattr(part, name), getattr(whole, name)[lo:hi]), name
        for name, exported in zip(HEDGE_SERIES, _exported(dirs[0], *HEDGE_SERIES)):
            assert np.array_equal(exported, getattr(whole, name)), name
        ref = runs[0]
        for rep in runs[1:]:
            for f in dataclasses.fields(ref.summary):
                assert np.array_equal(getattr(rep.summary, f.name),
                                      getattr(ref.summary, f.name)), f.name

    def test_filter_health_is_independent_of_chunks_and_workers(self):
        # the manifest's filter block is a min and a max over per-world
        # columns, so no chunk split or worker count moves it
        cfg = cir_scenario(recovery=uh.Payoff(slope=0.2), n_steps=20, n_paths=30,
                           n_particles=16, seed=73)
        health = [backtest(cfg, chunk_size=size, workers=workers).filter_health
                  for size, workers in ((4000, 1), (7, 1), (7, 2))]
        assert health[0] == health[1] == health[2]
        assert 2 <= health[0]["max_window_nodes"] < health[0]["x_nodes"] == 51

    def test_pool_holds_one_worker_per_chunk_of_a_round(self, monkeypatch):
        # two worlds make two chunks: a pool of six would fork four idle workers
        cfg = cir_scenario(n_steps=10, n_particles=4, seed=29)
        pools = []

        class Recording(hedging.ProcessPoolExecutor):
            def __init__(self, max_workers, *args, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(hedging, "ProcessPoolExecutor", Recording)
        backtest(dataclasses.replace(cfg, n_paths=2), workers=6)
        assert pools == [2]
        # one world has no spread to summarize: refused before any pool forms
        with pytest.raises(uh.ConfigError, match="n_paths >= 2"):
            backtest(dataclasses.replace(cfg, n_paths=1), workers=4)
        assert pools == [2]

    def test_chunk_keys_each_world_stream_once(self, monkeypatch):
        # the P_hat and P legs of a chunk share one draw per world
        cfg = cir_scenario(n_steps=10, n_paths=12, n_particles=4, seed=29)
        keyed = []
        plain = rng.keyed_streams

        def counting(seed, purpose, indices):
            for index, gen in zip(indices, plain(seed, purpose, indices)):
                keyed.append((purpose, int(index)))
                yield gen

        monkeypatch.setattr(rng, "keyed_streams", counting)
        _backtest_chunk(cfg, solve_g(cfg), None, (3, 9))
        want = [(p, i) for p in (rng.PATHS, rng.DEATH) for i in range(3, 9)]
        assert sorted(keyed) == want

    def test_chunks_return_no_per_step_series(self):
        # what crosses from a chunk to the parent is a few numbers per world:
        # no (n_worlds, n_steps) array, whatever the worker count
        cfg = cir_scenario(recovery=uh.Payoff(slope=0.2), n_steps=20, n_paths=30,
                           n_particles=16, seed=73)
        n_blocks = _block_edges(cfg.n_steps).size - 1
        g_sol = solve_g(cfg)
        whole = _backtest_chunk(cfg, g_sol, None, (0, 30))
        arrays = list(_arrays(whole))
        assert arrays
        for a in arrays:
            assert a.ndim == 1 or a.shape[1] <= n_blocks, a.shape
        # and it is row-local, so the join of any split is the whole, bit for bit
        split = [_backtest_chunk(cfg, g_sol, None, b) for b in ((0, 7), (7, 30))]
        for got, want in zip(zip(*map(_arrays, split)), _arrays(whole)):
            assert np.array_equal(np.concatenate(got), want)
