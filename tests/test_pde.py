import dataclasses
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

import ulhedge as uh
from ulhedge import pde
from ulhedge.config_io import load_config
from ulhedge.errors import DomainExcursionError
from ulhedge.oracles import affine_survival, black_scholes_call, black_scholes_delta
from ulhedge.hedging import hedge_paths
from ulhedge.pde import (PdeSolution, _NO_AXIS, _apply, _assemble_2d, _axis_stencil, _mixed_term,
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
        cfg = bs_config(survival=uh.Payoff(slope=0.7))
        gt = solve_gtilde(cfg)
        assert np.abs(gt.values - 0.7 * gt.s_grid[None, :]).max() <= 1e-10

    def test_constant_payoff_exact(self):
        gt = solve_gtilde(bs_config(survival=uh.Payoff(level=3.0)))
        assert np.abs(gt.values - 3.0).max() <= 1e-10

    def test_terminal_slice_is_payoff(self):
        gt = solve_gtilde(bs_config())
        assert np.array_equal(gt.values[-1], np.maximum(gt.s_grid - 1.0, 0.0))


class TestTerminalSeed:
    """``_cell_average`` against the cell means of max(s - K, 0) and
    max(K - s, 0), each written out on its own as the reference."""

    STRIKES = (1.0, 1.3)

    @staticmethod
    def cells(strike):
        grid = stretched_s_grid(300, 6.0, strike)
        mid = 0.5 * (grid[:-1] + grid[1:])
        return grid, np.concatenate([[grid[0]], mid]), np.concatenate([mid, [grid[-1]]])

    def test_call_seed_is_the_call_formula(self):
        for strike in self.STRIKES:
            grid, lo, hi = self.cells(strike)
            a = np.maximum(lo, strike)
            num = np.where(hi > strike,
                           (hi - strike) ** 2 - np.maximum(a - strike, 0.0) ** 2, 0.0)
            seed = pde._cell_average(uh.Payoff(strike=strike), grid)
            assert np.array_equal(seed, num / (2.0 * (hi - lo)))

    def test_put_seed_is_the_put_formula(self):
        # a put is K - s plus the call; its affine part is averaged over the
        # cell too (seeded pointwise it sits 0.02 below zero at s_max)
        for strike in self.STRIKES:
            grid, lo, hi = self.cells(strike)
            b = np.minimum(hi, strike)
            num = np.where(lo < strike,
                           (strike - lo) ** 2 - np.maximum(strike - b, 0.0) ** 2, 0.0)
            put = uh.Payoff(level=strike, slope=-1.0, strike=strike)
            seed = pde._cell_average(put, grid)
            assert np.abs(seed - num / (2.0 * (hi - lo))).max() <= 1e-13

    def test_payoff_without_a_kink_is_seeded_pointwise(self):
        grid, _, _ = self.cells(1.0)
        affine = uh.Payoff(level=0.4, slope=0.7)
        assert np.array_equal(pde._cell_average(affine, grid), affine(grid))


class TestSolveG:
    def test_affine_contract_exact(self):
        cfg = make_config(m0=0.02, m1=1.0, sigma=0.2, rho=0.3,
                          factor=uh.AffineFactor(1.0, 0.05, 0.2, square_root=True),
                          gamma=uh.AffineGamma(0.01, 1.0),
                          survival=uh.Payoff(slope=0.5),
                          recovery=uh.Payoff(slope=0.5),
                          grid=uh.PdeGrid(200, 60, 4.0, -0.08, 0.4))
        sol = solve_g(cfg)
        assert np.abs(sol.values - 0.5 * sol.s_grid[None, :, None]).max() <= 1e-8

    def test_black_scholes_reduction(self):
        cfg = bs_config(m0=0.02, m1=0.5, rho=0.5,
                        factor=uh.AffineFactor(1.0, 0.05, 0.1), x0=0.05)
        sol = solve_g(cfg)
        x_q = np.full_like(S_BAND, 0.05)
        vals = sol.value(0, s=S_BAND, x=x_q)
        oracle = black_scholes_call(S_BAND, 1.0, 0.2, 1.0)
        assert np.max(np.abs(vals - oracle) / oracle) <= 0.005
        deltas = sol.value_ds(0, s=S_BAND, x=x_q)
        d_oracle = black_scholes_delta(S_BAND, 1.0, 0.2, 1.0)
        assert np.max(np.abs(deltas - d_oracle) / d_oracle) <= 0.01

    def test_constant_hazard_constant_payoff(self):
        cfg = make_config(gamma=uh.AffineGamma(0.1, 0.0),
                          factor=uh.AffineFactor(1.0, 0.05, 0.1),
                          survival=uh.Payoff(level=1.0),
                          grid=uh.PdeGrid(100, 40, 4.0, -0.5, 0.6), n_steps=200)
        sol = solve_g(cfg)
        exact = np.exp(-0.1 * (1.0 - sol.t_grid))[:, None, None]
        assert np.abs(sol.values - exact).max() <= 1e-6

    def test_max_principle_bounded_payoffs(self):
        cfg = make_config(gamma=uh.AffineGamma(0.05, 1.0),
                          factor=uh.AffineFactor(1.0, 0.06, 0.25, square_root=True),
                          survival=uh.Payoff(level=1.0, slope=-1.0, strike=1.0),
                          recovery=uh.Payoff(level=0.5),
                          grid=uh.PdeGrid(300, 50, 5.0, -0.08, 0.5), n_steps=200)
        sol = solve_g(cfg)
        assert sol.max_principle_gap <= 1e-9
        assert sol.values.min() >= -1e-9
        assert sol.values.max() <= 1.0 + 1e-9

    def test_grid_refinement_converges(self):
        base = dict(m0=0.02, m1=0.5, sigma=0.2, rho=0.4,
                    factor=uh.AffineFactor(1.2, 0.06, 0.25, square_root=True),
                    gamma=uh.AffineGamma(0.01, 1.0),
                    recovery=uh.Payoff(slope=0.1), x0=0.06)
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
            interp_rows(rows, sol.x_grid, x, 0)
        assert err.value.index == (0, 2)

    def test_smoke_factor_fill(self):
        # the tensor-product factorization stores 122,552 entries on this
        # grid, most of them the 299 x 299 eigenvectors of the interior s
        # block; SuperLU's L and U stored 542,871 (minimum degree on A + A^T)
        # and 1,058,233 (its COLAMD default)
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
        sol = solve_g(bs_config(m1=0.3, factor=uh.AffineFactor(1.0, 0.05, 0.1), x0=0.05))
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
            got = interp_rows(sol.slice_at_s(("value", "d_s", "d_x"), k, s, 0,
                                             len(self.X_GRID)),
                              self.X_GRID, x_rows, 0)
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

    def test_slice_derivatives_on_equally_spaced_grids(self):
        # np.gradient has another formula for a grid of exactly equal
        # spacings (a linspace's spacings differ in the last bits)
        rng = np.random.default_rng(8)
        s_grid, x_grid = np.arange(41) * 0.125, np.arange(13) * 0.0625 - 0.125
        values = rng.standard_normal((6, 41, 13))
        sol = PdeSolution("sx", self.T_GRID, values, s_grid=s_grid, x_grid=x_grid)
        line = PdeSolution("x", self.T_GRID, values[:, 0], x_grid=x_grid)
        for k in (0, 4):
            assert np.array_equal(sol._slice("d_s", k), np.gradient(values[k], s_grid, axis=0))
            assert np.array_equal(sol._slice("d_x", k), np.gradient(values[k], x_grid, axis=1))
            assert np.array_equal(line._slice("d_x", k), np.gradient(values[k, 0], x_grid))

    def test_windowed_rows_are_columns_of_the_whole_rows(self):
        # a window is the whole rows' columns lo..lo+W-1, bit for bit, and a
        # gather from it equals the gather from the whole rows; windows from
        # the whole grid down to the two nodes of the first and last cell
        rng = np.random.default_rng(9)
        sol = PdeSolution("sx", self.T_GRID, rng.standard_normal((6, 41, 13)),
                          s_grid=self.S_GRID, x_grid=self.X_GRID)
        names, n_nodes = ("value", "d_s", "d_x"), len(self.X_GRID)
        s = self.points(self.S_GRID, rng)
        whole = sol.slice_at_s(names, 3, s, 0, n_nodes)
        for width in (n_nodes, 7, 2):
            lo = rng.integers(0, n_nodes - width + 1, len(s))
            lo[:2] = [0, n_nodes - width]
            rows = sol.slice_at_s(names, 3, s, lo, width)
            columns = lo[:, None] + np.arange(width)
            assert np.array_equal(rows, np.take_along_axis(whole, columns[None], axis=2))
            # points in each window's cells and, in the window that ends
            # there, x_max
            x = self.X_GRID[lo][:, None] + (self.X_GRID[1] - self.X_GRID[0]) \
                * (width - 1) * np.array([0.02, 0.3, 0.5, 0.98])
            x[1, -1] = self.X_GRID[-1]
            assert np.array_equal(interp_rows(rows, self.X_GRID, x, lo),
                                  interp_rows(whole, self.X_GRID, x, 0))

    @pytest.mark.parametrize("spacing", ["stretched", "equal"])
    def test_derivative_rows_match_the_whole_slice(self, spacing):
        # _gradient on a band of first-axis rows equals those rows of
        # np.gradient of the whole slice, bands on both edges included
        rng = np.random.default_rng(10)
        s_grid, x_grid = ((self.S_GRID, self.X_GRID) if spacing == "stretched"
                          else (np.arange(41) * 0.125, np.arange(13) * 0.0625 - 0.125))
        f = rng.standard_normal((41, 13))
        for axis, grid in ((0, s_grid), (1, x_grid)):
            stencil = pde._stencil(grid, f.shape, axis)
            whole = np.gradient(f, grid, axis=axis)
            for rows in (slice(0, 41), slice(0, 2), slice(0, 5), slice(17, 30),
                         slice(20, 22), slice(36, 41), slice(39, 41)):
                assert np.array_equal(pde._gradient(f, stencil, rows)[rows], whole[rows])

    def test_windows_read_derivatives_of_the_whole_slice(self):
        # slice_at_s forms d_s and d_x only on the s rows its windows read;
        # what it reads equals np.gradient of the whole slice, with windows
        # on every edge: s = 0, s_max, x_min and x_max
        rng = np.random.default_rng(11)
        values = rng.standard_normal((6, 41, 13))
        sol = PdeSolution("sx", self.T_GRID, values, s_grid=self.S_GRID, x_grid=self.X_GRID)
        names, n_nodes, k = ("value", "d_s", "d_x"), len(self.X_GRID), 2
        whole = {"value": values[k], "d_s": np.gradient(values[k], self.S_GRID, axis=0),
                 "d_x": np.gradient(values[k], self.X_GRID, axis=1)}
        S = self.S_GRID
        for s in ([S[0], 0.5 * S[1]], [S[-1], 0.5 * (S[-2] + S[-1])], [S[0], S[-1]],
                  [S[12], 0.5 * (S[12] + S[13]), S[14]]):
            s = np.array(s)
            si, sw = pde.locate(S, s, "s")
            for width in (n_nodes, 5, 2):
                lo = np.resize([0, n_nodes - width, (n_nodes - width) // 2], len(s))
                rows = sol.slice_at_s(names, k, s, lo, width)
                cols = lo[:, None] + np.arange(width)
                for i, name in enumerate(names):
                    lower = whole[name][si[:, None], cols] * (1 - sw[:, None])
                    upper = whole[name][si[:, None] + 1, cols] * sw[:, None]
                    assert np.array_equal(rows[i], lower + upper)

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
                          factor=uh.AffineFactor(1.0, 0.05, 0.2, square_root=True),
                          gamma=uh.AffineGamma(0.02, 1.0),
                          grid=uh.PdeGrid(60, 20, 5.0, -0.08, 0.5),
                          n_steps=10, n_paths=4, n_particles=8)
        sol = solve_g(cfg)
        hedge_paths(cfg, simulate_paths(cfg, "P"), sol)
        arrays = {name for name, v in vars(sol).items() if isinstance(v, np.ndarray)}
        assert arrays == {"t_grid", "values", "s_grid", "x_grid"}


class TestPhi:
    def test_constant_hazard(self):
        cfg = make_config(gamma=uh.AffineGamma(0.1, 0.0),
                          factor=uh.AffineFactor(1.0, 0.05, 0.1),
                          grid=uh.PdeGrid(100, 100, 4.0, -0.5, 0.6), n_steps=200)
        phi = solve_phi(cfg)
        exact = np.exp(-0.1 * (1.0 - phi.t_grid))[:, None]
        assert np.abs(phi.values - exact).max() <= 1e-6

    def test_zero_hazard_gives_one(self):
        phi = solve_phi(make_config(factor=uh.AffineFactor(1.0, 0.05, 0.1)))
        assert np.abs(phi.values - 1.0).max() <= 1e-12

    def test_cir_riccati_oracle(self):
        factor = uh.AffineFactor(kappa=1.2, xbar=0.06, a_vol=0.25, square_root=True)
        cfg = make_config(factor=factor, gamma=uh.AffineGamma(0.0, 1.0), x0=0.06,
                          grid=uh.PdeGrid(100, 200, 4.0, -0.05, 0.6), n_steps=200)
        phi = solve_phi(cfg)
        x_band = np.linspace(0.01, 0.45, 45)
        oracle = np.array([affine_survival(factor, uh.AffineGamma(0.0, 1.0), float(x), 1.0)
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
    # two slices in the march and the factorization's arrays, not the surface
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
                      survival=uh.Payoff(slope=float("nan")))
    with pytest.raises(uh.NumericalError, match="non-finite values at time step 10"):
        solve_g(cfg, surface=False)


REDUCTION_GRID = uh.PdeGrid(100, 60, 4.0, -0.08, 0.5)


def g_against_phi(factor):
    """Constant survival payoff 1, no recovery, m0 = m1 = rho = 0: g = Phi at every s."""
    cfg = make_config(factor=factor, gamma=uh.AffineGamma(0.01, 1.0),
                      survival=uh.Payoff(level=1.0), grid=REDUCTION_GRID)
    return solve_g(cfg).values, solve_phi(cfg).values[:, None, :]


def g_against_gtilde():
    """Frozen factor, rho = 0, constant hazard, call payoff: g = exp(-gamma (T - t)) g~."""
    cfg = make_config(gamma=uh.AffineGamma(0.1, 0.0), grid=REDUCTION_GRID)
    g = solve_g(cfg)
    survival = np.exp(-0.1 * (1.0 - g.t_grid))[:, None]
    return g.values, (survival * solve_gtilde(cfg).values)[:, :, None]


@pytest.mark.parametrize("reduction", [
    pytest.param(lambda: g_against_phi(uh.AffineFactor(1.2, 0.06, 0.25, square_root=True)),
                 id="phi-cir"),
    pytest.param(lambda: g_against_phi(uh.AffineFactor(1.0, 0.05, 0.1)), id="phi-ou"),
    pytest.param(g_against_gtilde, id="gtilde-frozen"),
])
def test_1d_and_2d_problems_share_one_operator(reduction):
    g, reduced = reduction()
    assert np.abs(g - reduced).max() <= 1e-12


def operator_of(cfg):
    """The 2D operator ``solve_g`` assembles for ``cfg``."""
    g, c = cfg.pde_grid, cfg.coefficients
    s_grid = stretched_s_grid(g.n_s, g.s_max, cfg.contract.survival_payoff.strike)
    x_grid = np.linspace(g.x_min, g.x_max, g.n_x + 1)
    aa = c.factor.a(x_grid)
    drift = c.martingale_factor_drift(x_grid, aa, c.market_price_of_risk(x_grid))
    return _assemble_2d(s_grid, x_grid, c.sigma0, aa, drift)


def kronecker_sum(operator):
    """A = A_s (x) I + I (x) A_x as a scipy sparse matrix, from the axis stencils."""
    axes = [sp.diags([lower[1:], centre, upper[:-1]], [-1, 0, 1],
                     shape=(len(centre), len(centre)))
            for lower, centre, upper in operator]
    (n_s, n_x) = (axis.shape[0] for axis in axes)
    return (sp.kron(axes[0], sp.identity(n_x)) + sp.kron(sp.identity(n_s), axes[1])).tocsc()


def test_assembly_has_no_row_wrap_and_annihilates_constants():
    # the P-hat drift b - rho a mu/sigma = 0.05 + 3.5 x points out of both x edges
    cfg = make_config(m1=2.0, rho=-0.9, factor=uh.AffineFactor(1.0, 0.05, 0.5), c_bound=10.0)
    operator = operator_of(cfg)
    shape = tuple(len(centre) for _, centre, _ in operator)
    # an edge node has no outward weight: applied by slicing such a weight
    # would be dropped, and on the flattened grid it would couple the end of
    # one row to the start of the next
    for lower, _, upper in operator:
        assert lower[0] == 0.0 and upper[-1] == 0.0
    # the sliced product is the Kronecker sum, which couples grid neighbours only
    A = kronecker_sum(operator)
    w = np.random.default_rng(12).standard_normal(shape)
    assert np.abs(_apply(operator, w).ravel() - A @ w.ravel()).max() \
        <= 1e-14 * (abs(A) @ np.abs(w.ravel())).max()
    ones = np.ones(shape)
    absolute = [[np.abs(weights) for weights in stencil] for stencil in operator]
    assert np.all(np.abs(_apply(operator, ones)) <= 1e-14 * _apply(absolute, ones))


def reference_operators():
    """(operator, dt): the smoke grid (its s grid stretched at the
    strike), an OU-factor grid, and the g~ and Phi operators of the smoke
    scenario."""
    smoke = load_config(os.path.join(CONFIGS, "smoke.ini"))
    ou = make_config(m0=0.02, m1=0.5, sigma=0.3, rho=-0.5,
                     factor=uh.AffineFactor(1.5, 0.05, 0.3), x0=0.05,
                     grid=uh.PdeGrid(80, 30, 4.0, -0.6, 0.7), n_steps=50)
    g, c = smoke.pde_grid, smoke.coefficients
    s_grid = stretched_s_grid(g.n_s, g.s_max, 1.0)
    x_grid = np.linspace(g.x_min, g.x_max, g.n_x + 1)
    return [
        pytest.param(operator_of(smoke), smoke.dt, id="smoke"),
        pytest.param(operator_of(ou), ou.dt, id="ou"),
        pytest.param([_axis_stencil(s_grid, 0.5 * c.sigma0**2 * s_grid**2, 0.0), _NO_AXIS],
                     smoke.dt, id="gtilde"),
        pytest.param([_NO_AXIS, _axis_stencil(x_grid, 0.5 * c.factor.a(x_grid)**2,
                                              c.factor.b(x_grid))], smoke.dt, id="phi"),
    ]


@pytest.mark.parametrize("operator, dt", reference_operators())
def test_factorization_solves_like_a_sparse_direct_solve(operator, dt):
    factor = pde.splu(operator, dt)
    matrix = sp.identity(factor.shape[0] * factor.shape[1], format="csc") \
        - 0.5 * dt * kronecker_sum(operator)
    rng = np.random.default_rng(13)
    for rhs in (rng.standard_normal(factor.shape), np.ones(factor.shape)):
        kept = rhs.copy()
        got = factor.solve(rhs)
        ref = spsolve(matrix, rhs.ravel()).reshape(factor.shape)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(rhs, kept)


def test_singular_or_zero_pivot_system_is_a_numerical_error():
    # an x drift pointing out of the domain lowers the edge row's diagonal;
    # at dt = 2 a centre weight of 1 zeroes it.  With one node on the s axis
    # the edge-row matrix diag(0, 1) is singular.  With three s nodes and no
    # s coupling the one mode's eigenvalue is 0, so the first pivot is
    # 1 - 1 - 0 = 0, while the edge-row matrix [[0, -1], [-1, 1]] is not
    # singular.
    zero = np.zeros(2)
    with pytest.raises(uh.NumericalError, match="PDE linear solve failed"):
        pde.splu([_NO_AXIS, (zero, np.array([1.0, 0.0]), zero)], 2.0)
    s_axis = (np.zeros(3),) * 3
    x_axis = (np.array([0.0, 1.0]), np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(uh.NumericalError, match="zero or non-finite pivot"):
        pde.splu([s_axis, x_axis], 2.0)
    x_axis = (np.array([0.0, 0.1]), np.array([1.0, np.nan]), np.array([0.1, 0.0]))
    with pytest.raises(uh.NumericalError, match="zero or non-finite pivot"):
        pde.splu([s_axis, x_axis], 0.01)


def test_solution_is_stable_across_blas_thread_counts(tmp_path):
    # the factorization's transforms are BLAS products, whose last bits may
    # depend on whether OpenBLAS runs threaded
    probe = ("import sys, numpy as np; from ulhedge import pde;"
             " from ulhedge.config_io import load_config;"
             " np.save(sys.argv[2], pde.solve_g(load_config(sys.argv[1]), surface=False).values)")
    src = os.path.dirname(os.path.dirname(uh.__file__))
    solutions = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        path = tmp_path / f"g{threads}.npy"
        subprocess.run([sys.executable, "-c", probe, os.path.join(CONFIGS, "smoke.ini"),
                        str(path)], env=env, check=True)
        solutions.append(np.load(path))
    assert np.abs(solutions[0] - solutions[1]).max() <= 1e-13 * np.abs(solutions[0]).max()


class TestFeynmanKac:
    def test_terminal_probe_is_exact(self):
        cfg = bs_config()
        sol = solve_gtilde(cfg)
        # 1D probe via the 2D entry point requires the full solve
        g2 = solve_g(bs_config(factor=uh.AffineFactor(1.0, 0.05, 0.1), x0=0.05))
        res = feynman_kac_check(dataclasses.replace(cfg), g2, [(1.0, 1.5, 0.05)])
        assert res[0].z == 0.0 and res[0].mc_value == res[0].pde_value

    def test_zero_hazard_reduces_to_martingale_pricing(self):
        cfg = bs_config(factor=uh.AffineFactor(1.0, 0.05, 0.1), x0=0.05)
        sol = solve_g(cfg)
        res = feynman_kac_check(cfg, sol, [(0.0, 1.0, 0.05)], n_mc=40_000)
        assert abs(res[0].z) < 3.0
        assert abs(res[0].pde_value - BS_CALL_ATM) / BS_CALL_ATM <= 0.005

    def test_generic_scenario_probes(self):
        factor = uh.AffineFactor(1.2, 0.06, 0.25, square_root=True)
        cfg = make_config(m0=0.02, m1=0.5, sigma=0.2, rho=0.4, factor=factor,
                          gamma=uh.AffineGamma(0.01, 1.0),
                          recovery=uh.Payoff(slope=0.1), x0=0.06,
                          grid=uh.PdeGrid(400, 60, 5.0, -0.08, 0.5),
                          n_steps=200, seed=31)
        sol = solve_g(cfg)
        res = feynman_kac_check(cfg, sol,
                                [(0.0, 1.0, 0.06), (0.5, 1.2, 0.1), (0.5, 0.9, 0.03)],
                                n_mc=40_000)
        for r in res:
            assert abs(r.z) < 3.0, f"probe {r}"
