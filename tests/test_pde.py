import os
import tracemalloc

import numpy as np
import pytest

import ulhedge as uh
from ulhedge import pde
from ulhedge.config_io import load_config
from ulhedge.errors import DomainExcursionError
from ulhedge.oracles import affine_survival, black_scholes_call, black_scholes_delta
from ulhedge.hedging import hedge_paths
from ulhedge.pde import (PdeSolution, _assemble_2d, _coeff_arrays_2d, _mixed_term,
                         feynman_kac_check, interp_rows, solve_g, solve_gtilde, solve_phi,
                         stretched_s_grid)
from ulhedge.simulate import simulate_paths

from conftest import make_config

BS_CALL_ATM = 0.07965567455405798  # zero-rate call, s=K=1, sigma=0.2, T=1

BS_GRID = uh.PdeGrid(n_s=1000, n_x=40, s_max=5.0, x_min=-0.5, x_max=0.6)
S_BAND = np.linspace(0.5, 2.0, 301)


def bs_config(**kw):
    kw.setdefault("m0", 0.0)
    kw.setdefault("sigma", 0.2)
    kw.setdefault("grid", BS_GRID)
    kw.setdefault("n_steps", 200)
    return make_config(**kw)


class TestGtilde:
    def test_call_price_matches_black_scholes(self):
        gt = solve_gtilde(bs_config())
        vals = gt.value(0, s=S_BAND)
        oracle = black_scholes_call(S_BAND, 1.0, 0.2, 1.0)
        assert np.max(np.abs(vals - oracle) / oracle) <= 0.005
        atm = float(gt.value(0, s=np.array([1.0]))[0])
        assert abs(atm - BS_CALL_ATM) / BS_CALL_ATM <= 0.005

    def test_linear_payoff_exact(self):
        cfg = bs_config(survival=uh.LinearPayoff(0.7))
        gt = solve_gtilde(cfg)
        assert np.abs(gt.values - 0.7 * gt.s_grid[None, :]).max() <= 1e-10

    def test_constant_payoff_exact(self):
        gt = solve_gtilde(bs_config(survival=uh.ConstantPayoff(3.0)))
        assert np.abs(gt.values - 3.0).max() <= 1e-10

    def test_terminal_slice_is_payoff(self):
        gt = solve_gtilde(bs_config())
        assert np.array_equal(gt.values[-1], np.maximum(gt.s_grid - 1.0, 0.0))


class TestSolveG:
    def test_affine_contract_exact(self):
        cfg = make_config(m0=0.02, m1=1.0, sigma=0.2, rho=0.3,
                          factor=uh.CIRFactor(1.0, 0.05, 0.2),
                          gamma=uh.AffineGamma(0.01, 1.0),
                          survival=uh.LinearPayoff(0.5),
                          recovery=uh.LinearPayoff(0.5),
                          grid=uh.PdeGrid(200, 60, 4.0, -0.08, 0.4))
        sol = solve_g(cfg)
        assert np.abs(sol.values - 0.5 * sol.s_grid[None, :, None]).max() <= 1e-8

    def test_black_scholes_reduction(self):
        cfg = bs_config(m0=0.02, m1=0.5, rho=0.5,
                        factor=uh.OUFactor(1.0, 0.05, 0.1), x0=0.05)
        sol = solve_g(cfg)
        x_q = np.full_like(S_BAND, 0.05)
        vals = sol.value(0, s=S_BAND, x=x_q)
        oracle = black_scholes_call(S_BAND, 1.0, 0.2, 1.0)
        assert np.max(np.abs(vals - oracle) / oracle) <= 0.005
        deltas = sol.value_ds(0, s=S_BAND, x=x_q)
        d_oracle = black_scholes_delta(S_BAND, 1.0, 0.2, 1.0)
        assert np.max(np.abs(deltas - d_oracle) / d_oracle) <= 0.01

    def test_constant_hazard_constant_payoff(self):
        cfg = make_config(gamma=uh.ConstantGamma(0.1),
                          factor=uh.OUFactor(1.0, 0.05, 0.1),
                          survival=uh.ConstantPayoff(1.0),
                          grid=uh.PdeGrid(100, 40, 4.0, -0.5, 0.6), n_steps=200)
        sol = solve_g(cfg)
        exact = np.exp(-0.1 * (1.0 - sol.t_grid))[:, None, None]
        assert np.abs(sol.values - exact).max() <= 1e-6

    def test_max_principle_bounded_payoffs(self):
        cfg = make_config(gamma=uh.AffineGamma(0.05, 1.0),
                          factor=uh.CIRFactor(1.0, 0.06, 0.25),
                          survival=uh.PutPayoff(1.0),
                          recovery=uh.ConstantPayoff(0.5),
                          grid=uh.PdeGrid(300, 50, 5.0, -0.08, 0.5), n_steps=200)
        sol = solve_g(cfg)
        assert sol.max_principle_gap <= 1e-9
        assert sol.values.min() >= -1e-9
        assert sol.values.max() <= 1.0 + 1e-9

    def test_grid_refinement_converges(self):
        base = dict(m0=0.02, m1=0.5, sigma=0.2, rho=0.4,
                    factor=uh.CIRFactor(1.2, 0.06, 0.25),
                    gamma=uh.AffineGamma(0.01, 1.0),
                    recovery=uh.LinearPayoff(0.1), x0=0.06)
        cfg1 = make_config(grid=uh.PdeGrid(200, 40, 5.0, -0.08, 0.5),
                           n_steps=100, **base)
        cfg2 = make_config(grid=uh.PdeGrid(400, 80, 5.0, -0.08, 0.5),
                           n_steps=200, **base)
        q = np.array([1.0]), np.array([0.06])
        v1 = float(solve_g(cfg1).value(0, s=q[0], x=q[1])[0])
        v2 = float(solve_g(cfg2).value(0, s=q[0], x=q[1])[0])
        assert abs(v2 - v1) / abs(v2) <= 0.002

    def test_domain_excursion_raises(self):
        sol = solve_g(bs_config())
        with pytest.raises(DomainExcursionError):
            sol.value(0, s=np.array([6.0]), x=np.array([0.0]))

    def test_nan_coordinate_is_a_domain_excursion(self):
        sol = solve_g(bs_config())
        with pytest.raises(DomainExcursionError) as err:
            sol.value(0, s=np.array([1.0, np.nan]), x=np.array([0.0, 0.0]))
        assert err.value.index == (1,)
        rows = np.zeros((3, 2, len(sol.x_grid)))
        x = np.full((2, 4), 0.1)
        x[0, 2] = np.nan
        with pytest.raises(DomainExcursionError) as err:
            interp_rows(rows, sol.x_grid, x)
        assert err.value.index == (0, 2)

    def test_smoke_factor_fill(self):
        # the minimum-degree ordering on A + A^T stores 542,871 entries for
        # L and U on this grid; the COLAMD default stores 1,058,233
        path = os.path.join(os.path.dirname(__file__), "..", "configs", "smoke.ini")
        assert 0 < solve_g(load_config(path)).factor_nnz < 600_000

    def test_mixed_term_matches_gradient_reference(self):
        rng = np.random.default_rng(3)
        s_grid = stretched_s_grid(60, 5.0, 1.0)
        x_grid = np.linspace(-0.1, 0.5, 25)
        SS, _ = np.meshgrid(s_grid, x_grid, indexing="ij")
        sig, aa = rng.uniform(0.1, 0.3, SS.shape), rng.uniform(0.1, 0.4, SS.shape)
        rho = -0.6
        term = _mixed_term(sig, aa, SS, rho, s_grid, x_grid)
        for _ in range(2):
            w = rng.standard_normal(SS.shape)
            ds = np.gradient(w, s_grid, axis=0)
            ref = np.zeros_like(w)
            ref[1:-1, 1:-1] = (rho * aa * sig * SS)[1:-1, 1:-1] * \
                (ds[1:-1, 2:] - ds[1:-1, :-2]) / (2.0 * (x_grid[1] - x_grid[0]))
            assert np.array_equal(term(w), ref)

    def test_derivative_accessor_matches_centered_difference(self):
        # independent reimplementation of the second-order centered stencil
        # (with the nonuniform-spacing weights) evaluated at the grid nodes
        sol = solve_g(bs_config(m1=0.3, factor=uh.OUFactor(1.0, 0.05, 0.1), x0=0.05))
        s, x = sol.s_grid, sol.x_grid
        v = sol.values[0]
        hm = (s[1:-1] - s[:-2])[:, None]
        hp = (s[2:] - s[1:-1])[:, None]
        centered = (hm**2 * v[2:, :] + (hp**2 - hm**2) * v[1:-1, :]
                    - hp**2 * v[:-2, :]) / (hm * hp * (hm + hp))
        got = sol.value_ds(0, s=np.repeat(s[1:-1], len(x)),
                           x=np.tile(x, len(s) - 2)).reshape(len(s) - 2, len(x))
        assert np.abs(got - centered).max() <= 1e-12


class TestSliceDerivatives:
    """Derivatives are formed from one time slice at a time; they must equal
    the slices of np.gradient over the whole surface, interpolated, bit for
    bit, including the one-sided formulas of the first and last cells."""

    T_GRID = np.linspace(0.0, 1.0, 6)
    S_GRID = stretched_s_grid(40, 5.0, 1.0)
    X_GRID = np.linspace(-0.1, 0.5, 13)

    def points(self, grid, rng):
        # both edges, the first and the last cell, and random interior points
        edge = [grid[0], 0.3 * grid[1], grid[1], 0.5 * (grid[-2] + grid[-1]), grid[-1]]
        return np.concatenate([edge, rng.uniform(grid[0], grid[-1], 11)])

    def test_2d_slice_derivatives_match_full_surface_gradient(self):
        rng = np.random.default_rng(5)
        sol = PdeSolution("sx", self.T_GRID, rng.standard_normal((6, 41, 13)),
                          s_grid=self.S_GRID, x_grid=self.X_GRID)
        refs = {name: PdeSolution("sx", self.T_GRID, surface, s_grid=self.S_GRID,
                                  x_grid=self.X_GRID)
                for name, surface in (("value", sol.values),
                                      ("d_s", np.gradient(sol.values, self.S_GRID, axis=1)),
                                      ("d_x", np.gradient(sol.values, self.X_GRID, axis=2)))}
        s = self.points(self.S_GRID, rng)
        x = rng.permutation(self.points(self.X_GRID, rng))
        x_rows = np.stack([np.roll(x, r) for r in range(len(s))])
        for k in (0, 3, 5):
            got = interp_rows(sol.slice_at_s(("value", "d_s", "d_x"), k, s),
                              self.X_GRID, x_rows)
            for i, name in enumerate(("value", "d_s", "d_x")):
                assert np.array_equal(got[i], refs[name].value(k, s=s[:, None], x=x_rows))
            assert np.array_equal(sol.value_ds(k, s=s, x=x), refs["d_s"].value(k, s=s, x=x))
            assert np.array_equal(sol.value_dx(k, s=s, x=x), refs["d_x"].value(k, s=s, x=x))

    def test_1d_slice_derivative_matches_full_surface_gradient(self):
        rng = np.random.default_rng(6)
        sol = PdeSolution("s", self.T_GRID, rng.standard_normal((6, 41)), s_grid=self.S_GRID)
        ref = PdeSolution("s", self.T_GRID, np.gradient(sol.values, self.S_GRID, axis=1),
                          s_grid=self.S_GRID)
        s = self.points(self.S_GRID, rng)
        for k in (0, 2, 5):
            assert np.array_equal(sol.value_ds(k, s=s), ref.value(k, s=s))
        with pytest.raises(ValueError, match="no x axis"):
            sol.value_dx(0, s=s)

    def test_every_accessor_reads_one_time_slice(self):
        # an array of steps is refused, not indexed (or differentiated) as a
        # stack of slices
        rng = np.random.default_rng(7)
        sol = PdeSolution("sx", self.T_GRID, rng.standard_normal((6, 41, 13)),
                          s_grid=self.S_GRID, x_grid=self.X_GRID)
        s, x = np.full(3, 1.0), np.full(3, 0.1)
        for accessor in (sol.value, sol.value_ds, sol.value_dx):
            assert np.isfinite(accessor(np.int64(2), s=s, x=x)).all()
            for k in (np.arange(3), np.array([2, 2, 2]), 2.0):
                with pytest.raises(TypeError):
                    accessor(k, s=s, x=x)

    def test_hedge_leaves_only_the_value_surface(self):
        cfg = make_config(m0=0.02, m1=0.5, sigma=0.25, rho=0.4,
                          factor=uh.CIRFactor(1.0, 0.05, 0.2), gamma=uh.AffineGamma(0.02, 1.0),
                          grid=uh.PdeGrid(60, 20, 5.0, -0.08, 0.5),
                          n_steps=10, n_paths=4, n_particles=8)
        sol = solve_g(cfg)
        hedge_paths(cfg, simulate_paths(cfg, "P"), sol)
        arrays = {name for name, v in vars(sol).items() if isinstance(v, np.ndarray)}
        assert arrays == {"t_grid", "values", "s_grid", "x_grid"}


class TestPhi:
    def test_constant_hazard(self):
        cfg = make_config(gamma=uh.ConstantGamma(0.1),
                          factor=uh.OUFactor(1.0, 0.05, 0.1),
                          grid=uh.PdeGrid(100, 100, 4.0, -0.5, 0.6), n_steps=200)
        phi = solve_phi(cfg)
        exact = np.exp(-0.1 * (1.0 - phi.t_grid))[:, None]
        assert np.abs(phi.values - exact).max() <= 1e-6

    def test_zero_hazard_gives_one(self):
        phi = solve_phi(make_config(factor=uh.OUFactor(1.0, 0.05, 0.1)))
        assert np.abs(phi.values - 1.0).max() <= 1e-12

    def test_cir_riccati_oracle(self):
        factor = uh.CIRFactor(kappa=1.2, xbar=0.06, a_vol=0.25)
        cfg = make_config(factor=factor, gamma=uh.LinearGamma(), x0=0.06,
                          grid=uh.PdeGrid(100, 200, 4.0, -0.05, 0.6), n_steps=200)
        phi = solve_phi(cfg)
        x_band = np.linspace(0.01, 0.45, 45)
        oracle = np.array([affine_survival(factor, uh.LinearGamma(), float(x), 1.0)
                           for x in x_band])
        err = np.abs(phi.value(0, x=x_band) - oracle)
        assert (err / oracle).max() <= 0.01
        assert err.max() <= 1e-3


CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


@pytest.mark.parametrize("name", ["smoke.ini", "uncorrelated.ini"])
def test_two_slice_solve_matches_full_surface(name, monkeypatch):
    # smoke has rho = 0.4 (mixed term), uncorrelated rho = 0
    cfg = load_config(os.path.join(CONFIGS, name))
    marches, rings, march = [], [], pde._march

    def recorded(*args, **kwargs):
        rings.append(len(args[0]))
        marches.append(march(*args, **kwargs))
        return marches[-1]

    monkeypatch.setattr(pde, "_march", recorded)
    full = solve_g(cfg)
    tracemalloc.start()
    try:
        t0 = solve_g(cfg, surface=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    assert t0.values.shape == (1,) + full.values.shape[1:]
    assert np.array_equal(t0.values[0], full.values[0])
    assert t0.health() == full.health()
    # both marches see the extrema of the whole surface, terminal slice included
    for _, lo, hi in marches:
        assert (lo, hi) == (full.values.min(), full.values.max())
    # the one-slice solution answers every t = 0 query
    s, x = np.array([cfg.s0, 2.0]), np.array([cfg.x0, 0.1])
    assert np.array_equal(t0.value(0, s=s, x=x), full.value(0, s=s, x=x))
    assert t0.time_index(0.0) == 0
    with pytest.raises(ValueError):
        t0.time_index(full.t_grid[1])
    # two slices in the march, not the surface (SuperLU's factor is not traced)
    assert peak < 0.5 * full.values.nbytes

    # the 1D solves that ``solve`` exports take the same ring
    for solver in (solve_gtilde, solve_phi):
        full = solver(cfg)
        del rings[:]
        t0 = solver(cfg, surface=False)
        assert rings == [2]
        assert t0.values.shape == (1,) + full.values.shape[1:]
        assert np.array_equal(t0.values[0], full.values[0])
        assert t0.health() == full.health()
        assert list(t0.t_grid) == [0.0]
        grid = t0.s_grid if t0.kind == "s" else t0.x_grid
        q = {t0.kind: grid[1:-1:7] + 0.3 * np.diff(grid)[1::7]}
        assert np.array_equal(t0.value(0, **q), full.value(0, **q))


def test_march_names_the_step_of_a_non_finite_value():
    cfg = make_config(grid=uh.PdeGrid(40, 10, 5.0, -0.5, 0.6), n_steps=10,
                      survival=uh.LinearPayoff(float("nan")))
    with pytest.raises(uh.NumericalError, match="non-finite values at time step 10"):
        solve_g(cfg, surface=False)


REDUCTION_GRID = uh.PdeGrid(100, 60, 4.0, -0.08, 0.5)


def g_against_phi(factor):
    """Constant survival payoff 1, no recovery, m0 = m1 = rho = 0: g = Phi at every s."""
    cfg = make_config(factor=factor, gamma=uh.AffineGamma(0.01, 1.0),
                      survival=uh.ConstantPayoff(1.0), grid=REDUCTION_GRID)
    return solve_g(cfg).values, solve_phi(cfg).values[:, None, :]


def g_against_gtilde():
    """Frozen factor, rho = 0, constant hazard, call payoff: g = exp(-gamma (T - t)) g~."""
    cfg = make_config(gamma=uh.ConstantGamma(0.1), grid=REDUCTION_GRID)
    g = solve_g(cfg)
    survival = np.exp(-0.1 * (1.0 - g.t_grid))[:, None]
    return g.values, (survival * solve_gtilde(cfg).values)[:, :, None]


@pytest.mark.parametrize("reduction", [
    pytest.param(lambda: g_against_phi(uh.CIRFactor(1.2, 0.06, 0.25)), id="phi-cir"),
    pytest.param(lambda: g_against_phi(uh.OUFactor(1.0, 0.05, 0.1)), id="phi-ou"),
    pytest.param(g_against_gtilde, id="gtilde-frozen"),
])
def test_1d_and_2d_problems_share_one_operator(reduction):
    g, reduced = reduction()
    assert np.abs(g - reduced).max() <= 1e-12


def test_assembly_has_no_row_wrap_and_annihilates_constants():
    # the P-hat drift b - rho a mu/sigma = 0.05 + 3.5 x points out of both x edges
    cfg = make_config(m1=2.0, rho=-0.9, factor=uh.OUFactor(1.0, 0.05, 0.5), c_bound=10.0)
    g = cfg.pde_grid
    s_grid = stretched_s_grid(g.n_s, g.s_max, 1.0)
    x_grid = np.linspace(g.x_min, g.x_max, g.n_x + 1)
    SS, XX = np.meshgrid(s_grid, x_grid, indexing="ij")
    sig, aa, drift, _ = _coeff_arrays_2d(cfg, SS, XX)
    A = _assemble_2d(s_grid, x_grid, sig, aa, drift).tocoo()
    (ri, rj), (ci, cj) = np.divmod(A.row, g.n_x + 1), np.divmod(A.col, g.n_x + 1)
    # the stride-1 diagonals run across row ends: (i, n_x) and (i+1, 0) must not couple
    assert not np.any((rj == g.n_x) & (ci == ri + 1) & (cj == 0))
    assert not np.any((rj == 0) & (ci == ri - 1) & (cj == g.n_x))
    assert np.all(np.abs(ri - ci) + np.abs(rj - cj) <= 1)
    ones = np.ones(A.shape[0])
    assert np.all(np.abs(A @ ones) <= 1e-14 * (abs(A) @ ones))


class TestFeynmanKac:
    def test_terminal_probe_is_exact(self):
        cfg = bs_config()
        sol = solve_gtilde(cfg)
        # 1D probe via the 2D entry point requires the full solve
        g2 = solve_g(bs_config(factor=uh.OUFactor(1.0, 0.05, 0.1), x0=0.05))
        res = feynman_kac_check(cfg.with_updates(), g2, [(1.0, 1.5, 0.05)])
        assert res[0].z == 0.0 and res[0].mc_value == res[0].pde_value

    def test_zero_hazard_reduces_to_martingale_pricing(self):
        cfg = bs_config(factor=uh.OUFactor(1.0, 0.05, 0.1), x0=0.05)
        sol = solve_g(cfg)
        res = feynman_kac_check(cfg, sol, [(0.0, 1.0, 0.05)], n_mc=40_000)
        assert abs(res[0].z) < 3.0
        assert abs(res[0].pde_value - BS_CALL_ATM) / BS_CALL_ATM <= 0.005

    def test_generic_scenario_probes(self):
        factor = uh.CIRFactor(1.2, 0.06, 0.25)
        cfg = make_config(m0=0.02, m1=0.5, sigma=0.2, rho=0.4, factor=factor,
                          gamma=uh.AffineGamma(0.01, 1.0),
                          recovery=uh.LinearPayoff(0.1), x0=0.06,
                          grid=uh.PdeGrid(400, 60, 5.0, -0.08, 0.5),
                          n_steps=200, seed=31)
        sol = solve_g(cfg)
        res = feynman_kac_check(cfg, sol,
                                [(0.0, 1.0, 0.06), (0.5, 1.2, 0.1), (0.5, 0.9, 0.03)],
                                n_mc=40_000)
        for r in res:
            assert abs(r.z) < 3.0, f"probe {r}"
