"""Monte Carlo worlds: correlated (W, B, S, X) paths, survival and death.

Paths live on the uniform grid t_k = k T / n_steps.  Row ``i`` of every array
is world ``i`` and is driven by its own counter-based streams, so a world does
not depend on the others simulated with it (the backtest's chunks rely on
this).  A world draws from each of its PATHS and DEATH streams once, so the
draw loops re-key one Philox per world (``rng.keyed_streams``) rather than
build a generator per world, and ``draw_worlds`` hands one batch's draws to
the P and the P_hat run of the same worlds.  The price is advanced in log
space (positivity is structural); the cumulative hazard uses the trapezoidal
rule; the death time is the first grid time at which the cumulative hazard
crosses an independent unit-exponential draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import NumericalError
from .models import ScenarioConfig

__all__ = [
    "PathBundle",
    "simulate_paths",
    "draw_worlds",
    "draw_brownian_increments",
    "draw_death_exponentials",
    "advance_market",
    "sample_death_time",
]


@dataclass(frozen=True)
class PathBundle:
    """One batch of simulated worlds (rows = paths, columns = grid times).

    ``W`` holds the Brownian motion driving S under the bundle's measure: the
    physical-measure W for ``measure == "P"`` and the martingale-measure
    Brownian for ``measure == "P_hat"``.
    """

    config: ScenarioConfig
    measure: str
    t_grid: np.ndarray          # (n_steps+1,)
    W: np.ndarray               # (n_paths, n_steps+1)
    B: np.ndarray
    S: np.ndarray
    X: np.ndarray
    Gamma: np.ndarray           # cumulative hazard, trapezoidal
    Y: np.ndarray               # survival process exp(-Gamma)
    tau: np.ndarray             # (n_paths,) grid time or +inf
    H: np.ndarray               # death indicator 1{tau <= t}
    path_indices: np.ndarray    # (n_paths,) global path ids (RNG stream keys)

    @property
    def n_paths(self) -> int:
        return self.S.shape[0]

    @property
    def n_steps(self) -> int:
        return self.S.shape[1] - 1

    @property
    def dt(self) -> float:
        return float(self.t_grid[1] - self.t_grid[0])

    def death_step(self) -> np.ndarray:
        """Index k* with tau = t_{k*}, or n_steps when the world survives."""
        n = self.n_steps
        k = np.full(self.n_paths, n, dtype=int)
        dead = np.isfinite(self.tau)
        if np.any(dead):
            k[dead] = np.rint(self.tau[dead] / self.dt).astype(int)
        return k

    def alive_mask(self) -> np.ndarray:
        """(n_paths, n_steps) mask: 1 while the interval [t_k, t_k+1] is inside [0, tau]."""
        return 1.0 - self.H[:, :-1]

    def stopped(self, paths: np.ndarray) -> np.ndarray:
        """A copy of ``paths`` (n_paths, n_steps+1) frozen after each world's death."""
        idx = np.minimum(np.arange(self.n_steps + 1), self.death_step()[:, None])
        return np.take_along_axis(paths, idx, axis=1)


def draw_brownian_increments(seed: int, path_indices, n_steps: int, dt: float):
    """Per-path (dW, dB) increments from each path's own stream."""
    path_indices = np.asarray(path_indices)
    n = path_indices.size
    dW = np.empty((n, n_steps))
    dB = np.empty((n, n_steps))
    root_dt = np.sqrt(dt)
    for row, g in enumerate(rng.keyed_streams(seed, rng.PATHS, path_indices)):
        z = g.standard_normal(2 * n_steps)
        dW[row] = root_dt * z[:n_steps]
        dB[row] = root_dt * z[n_steps:]
    return dW, dB


def draw_death_exponentials(seed: int, path_indices) -> np.ndarray:
    path_indices = np.asarray(path_indices)
    out = np.empty(path_indices.size)
    for row, g in enumerate(rng.keyed_streams(seed, rng.DEATH, path_indices)):
        out[row] = rng.unit_exponential(g)
    return out


def draw_worlds(config: ScenarioConfig, path_indices):
    """(dW, dB, death exponentials) of the worlds ``path_indices``, as
    ``simulate_paths`` draws them under either measure."""
    dW, dB = draw_brownian_increments(config.seed, path_indices,
                                      config.n_steps, config.dt)
    return dW, dB, draw_death_exponentials(config.seed, path_indices)


def advance_market(config: ScenarioConfig, dW: np.ndarray, dB: np.ndarray,
                   measure: str, s_init=None, x_init=None, t_start: float = 0.0):
    """Advance (S, X) from explicit Brownian increments.

    Under ``P`` the price drifts at mu; under ``P_hat`` the price is driftless
    and the factor drift picks up the Girsanov correction -a rho mu / sigma.
    Shared by the path simulator, the refinement checks and the Feynman-Kac
    probes (which start mid-grid at arbitrary states).
    """
    if measure not in ("P", "P_hat"):
        raise ValueError(f"unknown measure tag '{measure}'")
    c = config.coefficients
    n_paths, n_steps = dW.shape
    dt = config.dt
    S = np.empty((n_paths, n_steps + 1))
    X = np.empty((n_paths, n_steps + 1))
    S[:, 0] = config.s0 if s_init is None else s_init
    X[:, 0] = config.x0 if x_init is None else x_init
    rho = c.rho
    orth = np.sqrt(1.0 - rho**2)
    for k in range(n_steps):
        t = t_start + k * dt
        s_k, x_k = S[:, k], X[:, k]
        sig = c.sigma(t, s_k)
        mpr = c.market_price_of_risk(t, s_k, x_k)
        a_k = c.a(t, x_k)
        b_k = c.b(t, x_k)
        if measure == "P":
            log_drift = (mpr * sig - 0.5 * sig**2) * dt
            x_drift = b_k * dt
        else:
            log_drift = -0.5 * sig**2 * dt
            x_drift = (b_k - a_k * rho * mpr) * dt
        S[:, k + 1] = s_k * np.exp(log_drift + sig * dW[:, k])
        X[:, k + 1] = x_k + x_drift + a_k * (rho * dW[:, k] + orth * dB[:, k])
    if not (np.all(np.isfinite(S)) and np.all(np.isfinite(X))):
        bad = np.where(~(np.isfinite(S).all(axis=1) & np.isfinite(X).all(axis=1)))[0]
        raise NumericalError(f"non-finite state on path row(s) {bad[:5].tolist()}")
    return S, X


def cumulative_hazard(config: ScenarioConfig, t_grid: np.ndarray, X: np.ndarray):
    """Trapezoidal integral of gamma(t, X_t) along each path."""
    c = config.coefficients
    g = c.gamma_fn(t_grid[None, :], X)
    dt = float(t_grid[1] - t_grid[0])
    Gamma = np.zeros_like(X)
    np.cumsum(0.5 * (g[:, 1:] + g[:, :-1]) * dt, axis=1, out=Gamma[:, 1:])
    return Gamma


def sample_death_time(t_grid: np.ndarray, Gamma: np.ndarray, exp_draw: np.ndarray):
    """Death time from the canonical construction tau = inf{t: Gamma_t >= E}.

    The crossing is snapped to the first grid point at or after it, keeping H
    and the stopped integrals consistent on one grid; tau = +inf when the
    cumulative hazard never reaches the draw.
    """
    exp_draw = np.atleast_1d(np.asarray(exp_draw, dtype=float))
    if np.any(exp_draw <= 0.0):
        raise ValueError("exponential draws must be strictly positive")
    crossed = Gamma >= exp_draw[:, None]
    kstar = np.argmax(crossed, axis=1)
    hit = crossed[np.arange(Gamma.shape[0]), kstar]
    tau = np.where(hit, t_grid[kstar], np.inf)
    H = (t_grid[None, :] >= tau[:, None]).astype(float)
    return tau, H


def simulate_paths(config: ScenarioConfig, measure: str = "P",
                   path_indices=None, draws=None) -> PathBundle:
    """Simulate a batch of worlds under P or the minimal martingale measure.

    The same per-path streams drive both measures, so a P run and a P_hat run
    with one config are coupled by common random numbers.  ``draws``, when
    given, must be ``draw_worlds(config, path_indices)``; it is only read.
    """
    if path_indices is None:
        path_indices = np.arange(config.n_paths)
    t_grid = config.t_grid()
    dW, dB, edraw = draw_worlds(config, path_indices) if draws is None else draws
    S, X = advance_market(config, dW, dB, measure)
    Gamma = cumulative_hazard(config, t_grid, X)
    tau, H = sample_death_time(t_grid, Gamma, edraw)
    zeros = np.zeros((dW.shape[0], 1))
    return PathBundle(
        config=config,
        measure=measure,
        t_grid=t_grid,
        W=np.hstack([zeros, np.cumsum(dW, axis=1)]),
        B=np.hstack([zeros, np.cumsum(dB, axis=1)]),
        S=S,
        X=X,
        Gamma=Gamma,
        Y=np.exp(-Gamma),
        tau=tau,
        H=H,
        path_indices=np.asarray(path_indices, dtype=np.int64),
    )

