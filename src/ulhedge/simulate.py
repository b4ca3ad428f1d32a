"""Monte Carlo worlds: correlated (W, B, S, X) paths, survival and death.

Paths live on the uniform grid t_k = k T / n_steps.  Row ``i`` of every array
is world ``i`` and is driven by its own counter-based streams, so a world does
not depend on the others simulated with it (the backtest's chunks rely on
this).  A world draws from each of its PATHS and DEATH streams once, so the
draw loops re-key one Philox per world (``rng.keyed_streams``) rather than
build a generator per world, and ``draw_worlds`` hands one batch's draws to
the P and the P_hat run of the same worlds.  The price is advanced in log
space (positivity is structural) and the factor by ``factor_step``; the
cumulative hazard sums the trapezoids of ``hazard_increments``; the death time
is the first grid time at which the cumulative hazard crosses an independent
unit-exponential draw.  The particle filter steps by the same two functions.
A bundle stores only what is drawn and integrated: Y = exp(-Gamma) and
H = 1{t >= tau} are formed when read.
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
    "observed_increments",
    "sample_death_time",
]


@dataclass(frozen=True)
class PathBundle:
    """One batch of simulated worlds (rows = paths, columns = grid times).

    ``W`` holds the Brownian motion driving S under the bundle's measure: the
    physical-measure W for ``measure == "P"`` and the martingale-measure
    Brownian for ``measure == "P_hat"``.  ``Y`` and ``H`` are not stored:
    each read forms them from ``Gamma`` and ``tau``.
    """

    config: ScenarioConfig
    measure: str
    t_grid: np.ndarray          # (n_steps+1,)
    W: np.ndarray               # (n_paths, n_steps+1)
    B: np.ndarray
    S: np.ndarray
    X: np.ndarray
    Gamma: np.ndarray           # cumulative hazard, trapezoidal
    tau: np.ndarray             # (n_paths,) grid time or +inf
    path_indices: np.ndarray    # (n_paths,) global path ids (RNG stream keys)

    @property
    def Y(self) -> np.ndarray:      # survival process exp(-Gamma)
        return np.exp(-self.Gamma)

    @property
    def H(self) -> np.ndarray:      # death indicator 1{tau <= t}
        return (self.t_grid[None, :] >= self.tau[:, None]).astype(float)

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


def factor_step(rho: float, x, drift: np.ndarray, a, dW, dB, dt: float, work=None):
    """The Euler factor step x + drift dt + a (rho dW + sqrt(1 - rho^2) dB),
    formed in ``drift``'s array, its noise term in ``work`` if given (which
    may be ``dB``): one operation order for the simulator and the filter."""
    noise = np.multiply(dB, np.sqrt(1.0 - rho**2), out=work)
    noise += rho * dW
    noise *= a
    drift *= dt
    drift += x
    drift += noise
    return drift


def advance_market(config: ScenarioConfig, dW: np.ndarray, dB: np.ndarray,
                   measure: str, s_init=None, x_init=None):
    """Advance (S, X) from explicit Brownian increments.

    Under ``P`` the price drifts at mu; under ``P_hat`` the price is driftless
    and the factor drift picks up the Girsanov correction -a rho mu / sigma
    (``CoefficientSet.martingale_factor_drift``).  Shared by the path
    simulator, the refinement checks and the Feynman-Kac probes (which start
    mid-grid at arbitrary states); ``observed_increments`` inverts its log
    price step, so it is also the filter's reference.
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
    sig = c.sigma0
    half_var = 0.5 * (sig * sig)
    for k in range(n_steps):
        s_k, x_k = S[:, k], X[:, k]
        mpr = c.market_price_of_risk(x_k)
        a_k = c.factor.a(x_k)
        if measure == "P":
            log_drift = (mpr * sig - half_var) * dt
            x_drift = c.factor.b(x_k)
        else:
            log_drift = -half_var * dt
            x_drift = c.martingale_factor_drift(x_k, a_k, mpr)
        S[:, k + 1] = s_k * np.exp(log_drift + sig * dW[:, k])
        X[:, k + 1] = factor_step(c.rho, x_k, x_drift, a_k, dW[:, k], dB[:, k], dt)
    if not (np.all(np.isfinite(S)) and np.all(np.isfinite(X))):
        bad = np.where(~(np.isfinite(S).all(axis=1) & np.isfinite(X).all(axis=1)))[0]
        raise NumericalError(f"non-finite state on path row(s) {bad[:5].tolist()}")
    return S, X


def observed_increments(config: ScenarioConfig, S: np.ndarray) -> np.ndarray:
    """The martingale-measure Brownian increments that moved the price paths
    ``S`` (n_paths, n_steps+1): ``advance_market``'s log step inverted,
    (log(S_{k+1}/S_k) + sigma^2 dt / 2) / sigma.  On a physical-measure
    path this reads dW + (mu/sigma) dt.  Raises ``NumericalError`` unless
    sigma is positive.  The result is the one array allocated."""
    sig = config.coefficients.sigma0
    if not sig > 0:
        raise NumericalError("sigma vanishes on the observed path")
    half_var = 0.5 * (sig * sig) * config.dt
    dW = np.divide(S[:, 1:], S[:, :-1])
    np.log(dW, out=dW)
    dW += half_var
    dW /= sig
    return dW


def hazard_increments(rate, rate_next, dt: float, out=None):
    """Trapezoidal hazard increments 0.5 (gamma_k + gamma_{k+1}) dt, in ``out``
    if given (it may be ``rate`` itself)."""
    out = np.add(rate, rate_next, out=out)
    out *= 0.5 * dt
    return out


def cumulative_hazard(rates: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoidal integral along each path of the death rates ``rates``
    (n_paths, n_steps+1) on a grid of step ``dt``: the ``hazard_increments``,
    formed in one temporary, cumulated into ``rates``' own array, which
    becomes Gamma and is returned.
    """
    Gamma = rates
    increments = hazard_increments(Gamma[:, :-1], Gamma[:, 1:], dt)
    Gamma[:, 0] = 0.0
    np.cumsum(increments, axis=1, out=Gamma[:, 1:])
    return Gamma


def sample_death_time(t_grid: np.ndarray, Gamma: np.ndarray, exp_draw: np.ndarray):
    """Death time from the canonical construction tau = inf{t: Gamma_t >= E}.

    The crossing is snapped to the first grid point at or after it, keeping H
    and the stopped integrals consistent on one grid; tau = +inf when the
    cumulative hazard never reaches the draw.  H is formed from tau when read.
    """
    exp_draw = np.atleast_1d(np.asarray(exp_draw, dtype=float))
    if np.any(exp_draw <= 0.0):
        raise ValueError("exponential draws must be strictly positive")
    crossed = Gamma >= exp_draw[:, None]
    kstar = np.argmax(crossed, axis=1)
    hit = crossed[np.arange(Gamma.shape[0]), kstar]
    return np.where(hit, t_grid[kstar], np.inf)


def simulate_paths(config: ScenarioConfig, measure: str = "P",
                   path_indices=None, draws=None) -> PathBundle:
    """Simulate a batch of worlds under P or the minimal martingale measure.

    The same per-path streams drive both measures, so a P run and a P_hat run
    with one config are coupled by common random numbers.  ``draws``, when
    given, must be ``draw_worlds(config, path_indices)``; it is only read.
    W and B are cumulated before the hazard stage, so increments drawn here
    are let go before the hazard's arrays exist.
    """
    if path_indices is None:
        path_indices = np.arange(config.n_paths)
    t_grid = config.t_grid()
    dW, dB, edraw = draw_worlds(config, path_indices) if draws is None else draws
    S, X = advance_market(config, dW, dB, measure)
    W, B = np.zeros_like(S), np.zeros_like(S)
    np.cumsum(dW, axis=1, out=W[:, 1:])
    np.cumsum(dB, axis=1, out=B[:, 1:])
    del dW, dB, draws
    Gamma = cumulative_hazard(config.coefficients.gamma(X), config.dt)
    tau = sample_death_time(t_grid, Gamma, edraw)
    return PathBundle(config=config, measure=measure, t_grid=t_grid, W=W, B=B, S=S, X=X,
                      Gamma=Gamma, tau=tau,
                      path_indices=np.asarray(path_indices, dtype=np.int64))

