import numpy as np

import ulhedge as uh
from ulhedge.measure import density_path
from ulhedge.simulate import observed_increments, simulate_paths

from conftest import assert_within_se, make_config


class TestDensityPath:
    def test_zero_drift_gives_unit_density(self):
        cfg = make_config(m0=0.0, n_paths=30)
        d = density_path(simulate_paths(cfg, "P"))
        assert np.all(d.L == 1.0)

    def test_constant_kernel_closed_form(self):
        cfg = make_config(m0=0.06, sigma=0.2, n_paths=40, n_steps=64)
        b = simulate_paths(cfg, "P")
        d = density_path(b)
        c = 0.06 / 0.2
        direct = np.exp(-c * b.W - 0.5 * c**2 * b.t_grid[None, :])
        assert np.abs(d.L - direct).max() <= 1e-10

    def test_density_has_unit_mean(self):
        cfg = make_config(m0=0.05, m1=0.5, sigma=0.2, rho=0.3,
                          factor=uh.AffineFactor(1.0, 0.06, 0.2), x0=0.06,
                          n_paths=100_000, n_steps=64, seed=13)
        d = density_path(simulate_paths(cfg, "P"))
        L_T = d.L[:, -1]
        assert_within_se(L_T.mean(), 1.0, L_T.std(ddof=1) / np.sqrt(cfg.n_paths),
                         label="E[L_T]")

    def test_phat_form_inverse_density_has_unit_mean(self):
        # along martingale-measure paths the density accumulates in its
        # Girsanov-shifted form; 1/L then has unit mean under that measure
        cfg = make_config(m0=0.05, m1=0.5, sigma=0.2, rho=0.3,
                          factor=uh.AffineFactor(1.0, 0.06, 0.2), x0=0.06,
                          n_paths=50_000, n_steps=64, seed=19)
        d = density_path(simulate_paths(cfg, "P_hat"))
        inv = 1.0 / d.L[:, -1]
        assert_within_se(inv.mean(), 1.0, inv.std(ddof=1) / np.sqrt(cfg.n_paths),
                         label="Ehat[1/L_T]")

    def test_martingale_regression_against_past(self):
        # increments L_t - L_s regressed on an F_s statistic: slope and
        # intercept both vanish at 3 SE
        cfg = make_config(m0=0.05, m1=0.5, sigma=0.2, rho=0.3,
                          factor=uh.AffineFactor(1.0, 0.06, 0.2), x0=0.06,
                          n_paths=50_000, n_steps=64, seed=14)
        b = simulate_paths(cfg, "P")
        d = density_path(b)
        ks, kt = 32, 64
        y = d.L[:, kt] - d.L[:, ks]
        z = b.S[:, ks]
        zc = z - z.mean()
        slope = (zc * y).mean() / (zc**2).mean()
        resid = y - slope * zc
        slope_se = resid.std(ddof=2) / (np.sqrt(cfg.n_paths) * zc.std(ddof=1))
        assert_within_se(slope, 0.0, slope_se, label="regression slope")
        assert_within_se(y.mean(), 0.0, y.std(ddof=1) / np.sqrt(cfg.n_paths),
                         label="regression intercept")


class TestGirsanov:
    def test_reweighted_moments(self):
        cfg = make_config(m0=0.05, m1=0.4, sigma=0.2, rho=0.5,
                          factor=uh.AffineFactor(1.0, 0.06, 0.15), x0=0.06,
                          n_paths=100_000, n_steps=64, seed=15)
        b = simulate_paths(cfg, "P")
        L_T = density_path(b).L[:, -1]
        W_hat = observed_increments(cfg, b.S).sum(axis=1)
        first = L_T * W_hat
        assert_within_se(first.mean(), 0.0, first.std(ddof=1) / np.sqrt(cfg.n_paths),
                         label="E[L What]")
        second = L_T * W_hat**2
        assert_within_se(second.mean(), cfg.maturity,
                         second.std(ddof=1) / np.sqrt(cfg.n_paths),
                         label="E[L What^2]")

    def test_importance_sampling_consistency(self):
        # E_P[L f(S_T)] equals the P_hat simulation of E[f(S_T)] for bounded
        # test functions, with common random numbers
        cfg = make_config(m0=0.05, m1=0.4, sigma=0.2, rho=0.5,
                          factor=uh.AffineFactor(1.0, 0.06, 0.15), x0=0.06,
                          n_paths=100_000, n_steps=64, seed=16)
        b = simulate_paths(cfg, "P")
        b_hat = simulate_paths(cfg, "P_hat")
        L_T = density_path(b).L[:, -1]
        for label, f in (("capped", lambda s: np.minimum(s, 2.0)),
                         ("indicator", lambda s: (s > 1.0).astype(float))):
            lhs = L_T * f(b.S[:, -1])
            rhs = f(b_hat.S[:, -1])
            se = np.hypot(lhs.std(ddof=1), rhs.std(ddof=1)) / np.sqrt(cfg.n_paths)
            assert_within_se(lhs.mean(), rhs.mean(), se, label=label)

