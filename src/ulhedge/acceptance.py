"""Acceptance suite: oracle- and property-based checks at desk scale.

Each criterion builds its own pinned scenario, runs the relevant pipeline
and compares against an independent oracle or a distributional property at
the stated tolerance.  Results are returned as structured records; the CLI
``verify`` subcommand and the pytest acceptance module both drive this file
and print one line per criterion.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import oracles
from .filtering import functional_coord_x, ks_residual, run_filter
from .hedging import backtest, closed_form_theta, hedge_paths
from .measure import density_path
from .models import (
    AffineFactor,
    AffineGamma,
    CoefficientSet,
    Contract,
    Payoff,
    PdeGrid,
    ScenarioConfig,
)
from .pde import feynman_kac_check, solve_g, solve_gtilde, solve_phi, stretched_s_grid
from .simulate import observed_increments, simulate_paths

__all__ = ["CriterionResult", "run_all", "CRITERIA"]


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    elapsed: float
    details: list[str] = field(default_factory=list)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] criterion {self.index}: {self.name} ({self.elapsed:.1f}s)"


def _result(index, name, t0, checks) -> CriterionResult:
    details = [f"{'ok ' if ok else 'BAD'} {msg}" for ok, msg in checks]
    return CriterionResult(index=index, name=name,
                           passed=all(ok for ok, _ in checks),
                           elapsed=time.perf_counter() - t0, details=details)


def _grid(n_s=200, n_x=50, s_max=5.0, x_min=-0.3, x_max=0.6) -> PdeGrid:
    return PdeGrid(n_s=n_s, n_x=n_x, s_max=s_max, x_min=x_min, x_max=x_max)


# ---------------------------------------------------------------------------
# 1. measure change
# ---------------------------------------------------------------------------

def criterion_measure_change(seed: int) -> CriterionResult:
    t0 = time.perf_counter()
    cfg = ScenarioConfig(
        coefficients=CoefficientSet(
            m0=0.04, m1=0.6, sigma0=0.2,
            factor=AffineFactor(kappa=1.0, xbar=0.05, a_vol=0.15),
            gamma=AffineGamma(0.0, 0.0), rho=0.5, c_bound=5.0),
        contract=Contract(1.0, Payoff(strike=1.0)),
        s0=1.0, x0=0.05, n_steps=64, n_paths=100_000, n_particles=1,
        pde_grid=_grid(), seed=seed)
    K = 1.0
    bundle = simulate_paths(cfg, "P")
    dens = density_path(bundle)
    L_T = dens.L[:, -1]
    bundle_hat = simulate_paths(cfg, "P_hat")

    checks = []
    n = cfg.n_paths
    mean_L = L_T.mean()
    se_L = L_T.std(ddof=1) / np.sqrt(n)
    checks.append((abs(mean_L - 1.0) <= 3 * se_L,
                   f"E[L_T] = {mean_L:.5f} +- {se_L:.5f} (target 1)"))
    for label, f in (("s", lambda s: s), ("call", lambda s: np.maximum(s - K, 0.0))):
        lhs = L_T * f(bundle.S[:, -1])
        rhs = f(bundle_hat.S[:, -1])
        se = np.hypot(lhs.std(ddof=1), rhs.std(ddof=1)) / np.sqrt(n)
        diff = lhs.mean() - rhs.mean()
        checks.append((abs(diff) <= 3 * se,
                       f"E_P[L f_{label}] - Ehat[f_{label}] = {diff:+.5f} +- {se:.5f}"))
    # moments of the martingale-measure Brownian, read off the P prices, under L
    W_hat = observed_increments(cfg, bundle.S).sum(axis=1)
    for label, stat, target in (("E[L What_T]", L_T * W_hat, 0.0),
                                ("E[L What_T^2]", L_T * W_hat**2, cfg.maturity)):
        se = stat.std(ddof=1) / np.sqrt(n)
        checks.append((abs(stat.mean() - target) <= 3 * se,
                       f"{label} = {stat.mean():.5f} +- {se:.5f} (target {target})"))
    return _result(1, "measure-change suite", t0, checks)


# ---------------------------------------------------------------------------
# 2. mortality
# ---------------------------------------------------------------------------

def criterion_mortality(seed: int) -> CriterionResult:
    t0 = time.perf_counter()
    checks = []

    gamma0, T = 0.08, 5.0
    cfg = ScenarioConfig(
        coefficients=CoefficientSet(m0=0.0, m1=0.0, sigma0=0.2,
                                    factor=AffineFactor(),
                                    gamma=AffineGamma(gamma0, 0.0), rho=0.0, c_bound=5.0),
        contract=Contract(T, Payoff(level=1.0)),
        s0=1.0, x0=0.0, n_steps=100, n_paths=100_000, n_particles=1,
        pde_grid=_grid(), seed=seed)
    # only the death times are read: the paths go as soon as they are built
    tau = simulate_paths(cfg, "P").tau
    surv = 1.0 - np.isfinite(tau).mean()
    target = np.exp(-gamma0 * T)
    se = np.sqrt(target * (1 - target) / cfg.n_paths)
    checks.append((abs(surv - target) <= 3 * se,
                   f"constant hazard: P(tau>T) = {surv:.5f} vs {target:.5f} +- {se:.5f}"))

    factor = AffineFactor(kappa=1.2, xbar=0.06, a_vol=0.25, square_root=True)
    gamma = AffineGamma(0.0, 1.0)
    cfg2 = ScenarioConfig(
        coefficients=CoefficientSet(m0=0.0, m1=0.0, sigma0=0.2, factor=factor,
                                    gamma=gamma, rho=0.0, c_bound=5.0),
        contract=Contract(1.0, Payoff(level=1.0)),
        s0=1.0, x0=0.06, n_steps=200, n_paths=100_000, n_particles=1,
        pde_grid=_grid(x_min=-0.1), seed=seed + 1)
    tau2 = simulate_paths(cfg2, "P").tau
    surv2 = 1.0 - np.isfinite(tau2).mean()
    target2 = oracles.affine_survival(factor, gamma, cfg2.x0, 1.0)
    rel = abs(surv2 - target2) / target2
    checks.append((rel <= 0.01,
                   f"CIR hazard: P(tau>T) = {surv2:.5f} vs Riccati {target2:.5f}"
                   f" (rel {rel:.4f}, tol 1%)"))
    return _result(2, "mortality suite", t0, checks)


# ---------------------------------------------------------------------------
# 3. PDE
# ---------------------------------------------------------------------------

def criterion_pde(seed: int) -> CriterionResult:
    t0 = time.perf_counter()
    checks = []

    # survival-benefit price vs lognormal closed form
    cfg = ScenarioConfig(
        coefficients=CoefficientSet(m0=0.0, m1=0.0, sigma0=0.2, factor=AffineFactor(),
                                    gamma=AffineGamma(0.0, 0.0), rho=0.0, c_bound=5.0),
        contract=Contract(1.0, Payoff(strike=1.0)),
        s0=1.0, x0=0.0, n_steps=200, n_paths=1, n_particles=1,
        pde_grid=_grid(n_s=1000, n_x=40), seed=seed)
    gt = solve_gtilde(cfg)
    s_band = np.linspace(0.5, 2.0, 601)
    bs = oracles.black_scholes_call(s_band, 1.0, 0.2, 1.0)
    rel = np.max(np.abs(gt.value(0, s=s_band) - bs) / bs)
    checks.append((rel <= 0.005, f"gtilde vs Black-Scholes: max rel {rel:.5f} (tol 0.5%)"))

    # exact affine contract
    cfg_aff = ScenarioConfig(
        coefficients=CoefficientSet(m0=0.02, m1=1.0, sigma0=0.2,
                                    factor=AffineFactor(1.0, 0.05, 0.2, square_root=True),
                                    gamma=AffineGamma(0.01, 1.0), rho=0.3, c_bound=5.0),
        contract=Contract(1.0, Payoff(slope=0.5), Payoff(slope=0.5)),
        s0=1.0, x0=0.05, n_steps=100, n_paths=1, n_particles=1,
        pde_grid=_grid(n_s=200, n_x=60, s_max=4.0, x_min=-0.08, x_max=0.4), seed=seed)
    g_aff = solve_g(cfg_aff)
    err_aff = float(np.abs(g_aff.values - 0.5 * g_aff.s_grid[None, :, None]).max())
    checks.append((err_aff <= 1e-8, f"affine contract: max |g - 0.5 s| = {err_aff:.2e}"))

    # survival transform vs Riccati
    factor = AffineFactor(kappa=1.2, xbar=0.06, a_vol=0.25, square_root=True)
    cfg_phi = ScenarioConfig(
        coefficients=CoefficientSet(m0=0.0, m1=0.0, sigma0=0.2, factor=factor,
                                    gamma=AffineGamma(0.0, 1.0), rho=0.0, c_bound=5.0),
        contract=Contract(1.0, Payoff(level=1.0)),
        s0=1.0, x0=0.06, n_steps=200, n_paths=1, n_particles=1,
        pde_grid=_grid(n_s=100, n_x=200, x_min=-0.05, x_max=0.6), seed=seed)
    phi = solve_phi(cfg_phi)
    x_band = np.linspace(0.01, 0.45, 45)
    exact = np.array([oracles.affine_survival(factor, AffineGamma(0.0, 1.0), float(x), 1.0)
                      for x in x_band])
    rel_phi = np.max(np.abs(phi.value(0, x=x_band) - exact) / exact)
    checks.append((rel_phi <= 0.01, f"Phi vs Riccati: max rel {rel_phi:.5f} (tol 1%)"))

    # Feynman-Kac probes on a generic correlated scenario
    cfg_fk = ScenarioConfig(
        coefficients=CoefficientSet(m0=0.02, m1=0.5, sigma0=0.2, factor=factor,
                                    gamma=AffineGamma(0.01, 1.0), rho=0.4, c_bound=5.0),
        contract=Contract(1.0, Payoff(strike=1.0), Payoff(slope=0.1)),
        s0=1.0, x0=0.06, n_steps=200, n_paths=1, n_particles=1,
        pde_grid=_grid(n_s=400, n_x=60, x_min=-0.08, x_max=0.5), seed=seed)
    g_fk = solve_g(cfg_fk)
    probes = [(0.0, 1.0, 0.06), (0.5, 1.2, 0.1), (0.5, 0.9, 0.03), (1.0, 1.4, 0.06)]
    for r in feynman_kac_check(cfg_fk, g_fk, probes, n_mc=40_000):
        checks.append((abs(r.z) < 3.0,
                       f"FK probe (t={r.t}, s={r.s}, x={r.x}): pde {r.pde_value:.5f}"
                       f" mc {r.mc_value:.5f} z {r.z:+.2f}"))
    return _result(3, "PDE suite", t0, checks)


# ---------------------------------------------------------------------------
# 4. filter
# ---------------------------------------------------------------------------

def criterion_filter(seed: int) -> CriterionResult:
    t0 = time.perf_counter()
    checks = []
    factor = AffineFactor(kappa=1.0, xbar=0.08, a_vol=0.15)

    # the constant and Dirac hazard identities
    cfg = ScenarioConfig(
        coefficients=CoefficientSet(m0=0.03, m1=0.4, sigma0=0.2, factor=factor,
                                    gamma=AffineGamma(0.05, 0.0), rho=0.5, c_bound=5.0),
        contract=Contract(1.0, Payoff(strike=1.0)),
        s0=1.0, x0=0.08, n_steps=100, n_paths=1, n_particles=10_000,
        pde_grid=_grid(), seed=seed)
    bundle = simulate_paths(cfg, "P")
    series = run_filter(cfg, bundle.S, world_indices=bundle.path_indices)
    err_hz = float(np.abs(series.estimates["hazard"] - 0.05).max())
    checks.append((err_hz <= 1e-12, f"constant hazard identity: max dev {err_hz:.1e}"))

    cfg_dirac = dataclasses.replace(cfg,
        coefficients=CoefficientSet(m0=0.03, m1=0.4, sigma0=0.2, factor=AffineFactor(),
                                    gamma=AffineGamma(0.0, 1.0), rho=0.0, c_bound=5.0),
        x0=0.07, n_particles=100)
    b_d = simulate_paths(cfg_dirac, "P")
    ser_d = run_filter(cfg_dirac, b_d.S, world_indices=b_d.path_indices)
    err_dirac = float(np.abs(ser_d.estimates["hazard"] - 0.07).max())
    checks.append((err_dirac <= 1e-12, f"Dirac hazard identity: max dev {err_dirac:.1e}"))

    # rho = 0: for f(x, y) the filter must not depend on the observed path
    cfg0 = dataclasses.replace(cfg,
        coefficients=CoefficientSet(m0=0.03, m1=0.4, sigma0=0.2, factor=factor,
                                    gamma=AffineGamma(0.05, 0.0), rho=0.0, c_bound=5.0),
        n_paths=2, n_particles=10_000)
    b0 = simulate_paths(cfg0, "P")
    fx = functional_coord_x()
    ser0 = run_filter(cfg0, b0.S, world_indices=b0.path_indices, functionals=[fx])
    est = ser0.estimates["x"][:, -1]
    se = np.hypot(*ser0.std_errors["x"][:, -1])
    checks.append((abs(est[0] - est[1]) <= 3 * se,
                   f"rho=0 two-path agreement: diff {est[0]-est[1]:+.5f} +- {se:.5f}"))

    # tower consistency: mean over worlds of pi(Y_T) vs direct P_hat Monte Carlo
    cfg_tow = dataclasses.replace(cfg,
        coefficients=CoefficientSet(m0=0.03, m1=0.4, sigma0=0.2, factor=factor,
                                    gamma=AffineGamma(0.02, 0.5), rho=0.5, c_bound=5.0),
        n_paths=300, n_particles=400)
    b_tow = simulate_paths(cfg_tow, "P_hat")
    ser_tow = run_filter(cfg_tow, b_tow.S, world_indices=b_tow.path_indices)
    pi_y = ser_tow.estimates["pi_y"][:, -1]
    cfg_mc = dataclasses.replace(cfg_tow, n_paths=100_000, seed=seed + 7)
    b_mc = simulate_paths(cfg_mc, "P_hat")
    direct = b_mc.Y[:, -1]
    se_t = np.hypot(pi_y.std(ddof=1) / np.sqrt(pi_y.size),
                    direct.std(ddof=1) / np.sqrt(direct.size))
    diff = pi_y.mean() - direct.mean()
    checks.append((abs(diff) <= 3 * se_t,
                   f"tower consistency: E[pi(Y_T)] - Ehat[Y_T] = {diff:+.6f} +- {se_t:.6f}"))

    # observable hazard rate vs the Riccati oracle (hidden CIR hazard);
    # deterministic here (mu = 0, rho = 0), so averaged over 8 worlds
    factor_c = AffineFactor(kappa=1.2, xbar=0.06, a_vol=0.25, square_root=True)
    cfg_ric = dataclasses.replace(cfg,
        coefficients=CoefficientSet(m0=0.0, m1=0.0, sigma0=0.2, factor=factor_c,
                                    gamma=AffineGamma(0.0, 1.0), rho=0.0, c_bound=5.0),
        x0=0.06, n_paths=8, n_particles=10_000)
    b_ric = simulate_paths(cfg_ric, "P")
    ser_ric = run_filter(cfg_ric, b_ric.S, world_indices=b_ric.path_indices)
    mid = cfg_ric.n_steps // 2
    got = float(ser_ric.estimates["hazard"][:, mid].mean())
    want = float(oracles.affine_hazard_rate(factor_c, AffineGamma(0.0, 1.0), 0.06, 0.5))
    rel = abs(got - want) / want
    checks.append((rel <= 0.01,
                   f"hazard rate vs Riccati at T/2: {got:.5f} vs {want:.5f} (rel {rel:.4f})"))

    # Kushner-Stratonovich residual shrinks at the Monte Carlo rate
    cfg_ks = dataclasses.replace(cfg,
        coefficients=CoefficientSet(m0=0.0, m1=0.0, sigma0=0.2, factor=factor,
                                    gamma=AffineGamma(0.0, 0.0), rho=0.5, c_bound=5.0),
        x0=0.1)
    b_ks = simulate_paths(cfg_ks, "P_hat")
    sizes = np.array([250, 1000, 4000])
    mean_abs = []
    for i, n_part in enumerate(sizes):
        cfg_n = dataclasses.replace(cfg_ks, n_particles=int(n_part))
        reps = [abs(ks_residual(cfg_n, b_ks.S[:1], functional_coord_x(),
                                world_indices=[1000 * r + i])[0, -1])
                for r in range(8)]
        mean_abs.append(np.mean(reps))
    slope = np.polyfit(np.log(sizes), np.log(mean_abs), 1)[0]
    checks.append((-0.65 <= slope <= -0.35,
                   f"KS residual slope vs particles: {slope:+.3f} (target -0.5 +- 0.15)"))
    return _result(4, "filter suite", t0, checks)


# ---------------------------------------------------------------------------
# 5. strategies
# ---------------------------------------------------------------------------

def criterion_strategy(seed: int) -> CriterionResult:
    t0 = time.perf_counter()
    checks = []
    factor = AffineFactor(kappa=1.2, xbar=0.06, a_vol=0.25, square_root=True)

    # uncorrelated closed form vs the generic filter pipeline along 50 paths
    cfg = ScenarioConfig(
        coefficients=CoefficientSet(m0=0.03, m1=0.5, sigma0=0.2, factor=factor,
                                    gamma=AffineGamma(0.0, 1.0), rho=0.0, c_bound=5.0),
        contract=Contract(1.0, Payoff(strike=1.0), Payoff(slope=0.2)),
        s0=1.0, x0=0.06, n_steps=100, n_paths=50, n_particles=4000,
        pde_grid=_grid(n_s=500, n_x=60, s_max=6.0, x_min=-0.08, x_max=0.6), seed=seed)
    bundle = simulate_paths(cfg, "P")
    g_sol = solve_g(cfg)
    series = hedge_paths(cfg, bundle, g_sol)
    th_cf, _, _ = closed_form_theta(cfg, bundle)
    alive = bundle.alive_mask() > 0
    rel = np.abs(series.theta_star - th_cf)[alive] / np.maximum(np.abs(th_cf[alive]), 0.05)
    checks.append((float(rel.max()) <= 0.02,
                   f"closed form vs generic theta*: max rel {float(rel.max()):.4f} (tol 2%)"))

    # no hidden state: theta* equals the full-information strategy exactly
    cfg_d = dataclasses.replace(cfg,
        coefficients=CoefficientSet(m0=0.03, m1=0.5, sigma0=0.2, factor=AffineFactor(),
                                    gamma=AffineGamma(0.05, 0.0), rho=0.0, c_bound=5.0),
        x0=0.04, n_particles=64,
        pde_grid=_grid(n_s=400, n_x=8, s_max=5.0, x_min=-0.1, x_max=0.1))
    b_d = simulate_paths(cfg_d, "P")
    g_d = solve_g(cfg_d)
    ser_d = hedge_paths(cfg_d, b_d, g_d)
    gap = float(np.abs(ser_d.theta_star - ser_d.theta_full).max())
    checks.append((gap <= 1e-12, f"degenerate factor: max |theta* - theta_F| = {gap:.2e}"))

    # exact-affine contract hedges with the constant slope
    cfg_aff = dataclasses.replace(cfg,
        coefficients=CoefficientSet(m0=0.02, m1=0.8, sigma0=0.25, factor=factor,
                                    gamma=AffineGamma(0.02, 1.0), rho=0.4, c_bound=5.0),
        contract=Contract(1.0, Payoff(slope=0.5), Payoff(slope=0.5)),
        n_paths=50, n_particles=300,
        pde_grid=_grid(n_s=200, n_x=50, s_max=6.0, x_min=-0.08, x_max=0.5))
    b_aff = simulate_paths(cfg_aff, "P")
    g_aff = solve_g(cfg_aff)
    ser_aff = hedge_paths(cfg_aff, b_aff, g_aff)
    th = ser_aff.theta_star[b_aff.alive_mask() > 0]
    dev = float(np.abs(th - 0.5).max())
    checks.append((dev <= 1e-10, f"affine contract: max |theta* - 0.5| = {dev:.2e}"))
    return _result(5, "strategy suite", t0, checks)


# ---------------------------------------------------------------------------
# 6. optimality backtest
# ---------------------------------------------------------------------------

def criterion_optimality(seed: int) -> CriterionResult:
    t0 = time.perf_counter()
    factor = AffineFactor(kappa=1.0, xbar=0.05, a_vol=0.2, square_root=True)
    cfg = ScenarioConfig(
        coefficients=CoefficientSet(m0=0.02, m1=0.8, sigma0=0.25, factor=factor,
                                    gamma=AffineGamma(0.02, 1.0), rho=0.4, c_bound=5.0),
        contract=Contract(1.0, Payoff(strike=1.0), Payoff(slope=0.2)),
        s0=1.0, x0=0.05, n_steps=400, n_paths=10_000, n_particles=300,
        pde_grid=_grid(n_s=300, n_x=50, s_max=6.0, x_min=-0.08, x_max=0.5), seed=seed)
    rep = backtest(cfg, workers=min(2, os.cpu_count() or 1))
    s = rep.summary
    verdicts = s.verdicts()
    checks = []
    z, passed = verdicts["cost_mean_zero"]
    checks.append((passed, "cost-increment means: max |z| = %.2f over %d checkpoints"
                   % (float(np.abs(z).max()), z.size)))
    for name, label in (("orthogonal_to_price", "cov(dC, dS^tau)"),
                        ("orthogonal_to_martingale", "cov(dC, dM)")):
        z, passed = verdicts[name]
        checks.append((passed, f"{label}: max |z| = {float(np.abs(z).max()):.2f}"))
    checks.append((verdicts["price_identity"][1],
                   f"price identity: P-side {s.price_lhs:.5f} +- {s.price_lhs_se:.5f},"
                   f" Phat-side {s.price_rhs:.5f} +- {s.price_rhs_se:.5f},"
                   f" z = {s.price_z:+.2f} (PDE value {s.zeta0_pde:.5f})"))
    gap_bound = _strike_cell_bound(rep)
    checks.append((s.v_terminal_max == 0.0 and s.terminal_gap_max <= gap_bound,
                   f"0-achieving: V(T^tau) max {s.v_terminal_max:.1e};"
                   f" pre-settlement gap {s.terminal_gap_max:.2e}"
                   f" <= grid bound {gap_bound:.2e}"))
    checks.append((True,  # reported, not asserted: optimality holds per class
                   f"cost variance: full-info {s.cost_var_full:.3e}"
                   f" vs partial-info {s.cost_var_partial:.3e}"))
    return _result(6, "optimality backtest", t0, checks)


def _strike_cell_bound(rep) -> float:
    """Worst chord error of the terminal payoff over one strike cell."""
    strike = rep.config.contract.survival_payoff.strike
    if strike is None:
        return 1e-10
    grid = rep.config.pde_grid
    s = stretched_s_grid(grid.n_s, grid.s_max, strike)
    i = np.searchsorted(s, strike)
    h = s[i] - s[i - 1]
    return float(h)


# ---------------------------------------------------------------------------
# 7. determinism
# ---------------------------------------------------------------------------

def criterion_determinism(seed: int) -> CriterionResult:
    from .csvio import export_bundle, export_hedge_report
    import hashlib
    import tempfile

    t0 = time.perf_counter()
    factor = AffineFactor(kappa=1.0, xbar=0.05, a_vol=0.15)
    cfg = ScenarioConfig(
        coefficients=CoefficientSet(m0=0.03, m1=0.5, sigma0=0.2, factor=factor,
                                    gamma=AffineGamma(0.05, 0.0), rho=0.4, c_bound=5.0),
        contract=Contract(1.0, Payoff(strike=1.0), Payoff(slope=0.2)),
        s0=1.0, x0=0.05, n_steps=50, n_paths=400, n_particles=100,
        pde_grid=_grid(n_s=200, n_x=40, s_max=5.0, x_min=-0.4, x_max=0.55), seed=seed)

    def run_digest(workers: int) -> str:
        digest = hashlib.sha256()
        with tempfile.TemporaryDirectory() as tmp:
            files = export_bundle(simulate_paths(cfg, "P"), tmp)
            rep = backtest(cfg, chunk_size=130 if workers > 1 else 4000, workers=workers,
                           out_dir=tmp)
            files += export_hedge_report(rep, tmp)
            for path in sorted(files):
                with open(path, "rb") as fh:
                    digest.update(os.path.basename(path).encode())
                    digest.update(fh.read())
        return digest.hexdigest()

    d1 = run_digest(workers=1)
    d2 = run_digest(workers=1)
    d3 = run_digest(workers=2)
    checks = [
        (d1 == d2, f"same seed twice: digests {'match' if d1 == d2 else 'DIFFER'}"),
        (d1 == d3, "worker/chunking independence: digests "
                   + ("match" if d1 == d3 else "DIFFER")),
    ]
    return _result(7, "determinism", t0, checks)


CRITERIA = [
    criterion_measure_change,
    criterion_mortality,
    criterion_pde,
    criterion_filter,
    criterion_strategy,
    criterion_optimality,
    criterion_determinism,
]


def run_all(seed: int = 20240, out=None) -> list[CriterionResult]:
    """Run every acceptance criterion, printing one line per criterion."""
    results = []
    for crit in CRITERIA:
        res = crit(seed)
        results.append(res)
        if out is not None:
            print(res.line(), file=out)
            for d in res.details:
                print(f"    {d}", file=out)
    return results
