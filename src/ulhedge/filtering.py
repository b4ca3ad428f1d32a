"""Conditional-law machinery given the observed price path.

Because the observed price is driftless under the martingale measure and its
volatility never vanishes, the price filtration coincides with that of the
martingale-measure Brownian motion, whose increments can be read off the
price path.  The conditional law of the hidden factor (and of the survival
process it drives) given the price history is therefore sampled *exactly*:
particles are propagated with the observed price-Brownian increments plus
fresh independent orthogonal noise, with no importance weights and no
resampling, so the martingale-measure averages never degenerate.  Estimates
given survival under either measure are one survival-weighted ratio,
``ParticleCloud.survival_ratio``, that differs only in the particle weights:
Y under the martingale measure, Y times the inverse density exp(-log L) under
the physical measure (Kallianpur-Striebel).  The physical-measure weights
(projected drift, observable hazard rate) can degenerate over long horizons
or with a strong drift sensitivity.  A Kushner-Stratonovich residual checks
the filter against the generator equation it should solve.

Clouds are batched: axis 0 indexes worlds (observed paths), axis 1 particles.
Each world draws its orthogonal noise from its own counter-based stream, kept
for the cloud's life, so a batch of worlds filters identically to the same
worlds run one at a time.  The noise is drawn for a block of steps at once,
one call per world, with blocks bounded by ``NOISE_BLOCK_BYTES``; a stream's
normals are sequential, so the block length does not change the draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import rng
from .errors import CoefficientBoundError, NumericalError, SurvivalFloorError
from .models import ScenarioConfig

# bytes of orthogonal noise drawn per block (at least one step's worth)
NOISE_BLOCK_BYTES = 2 * 1024 * 1024

__all__ = [
    "ParticleCloud",
    "ProjectionSeries",
    "SmoothFunctional",
    "run_filter",
    "ks_residual",
    "functional_coord_x",
]


def _zero(t, s, x, y):
    return np.zeros(np.broadcast(s, x, y).shape)


@dataclass(frozen=True)
class SmoothFunctional:
    """A smooth f(t, s, x, y) with the partials the generator acts on."""

    name: str
    f: Callable
    f_t: Callable = _zero
    f_s: Callable = _zero
    f_x: Callable = _zero
    f_y: Callable = _zero
    f_ss: Callable = _zero
    f_sx: Callable = _zero
    f_xx: Callable = _zero


def functional_coord_x() -> SmoothFunctional:
    return SmoothFunctional(
        "x",
        f=lambda t, s, x, y: np.broadcast_to(x, np.broadcast(s, x, y).shape).copy(),
        f_x=lambda t, s, x, y: np.ones(np.broadcast(s, x, y).shape),
    )


class ParticleCloud:
    """Exact conditional sampler of (X, Y) given the observed price history.

    State arrays have shape (n_worlds, n_particles).  ``log_L`` accumulates
    the martingale-measure density kernel along (observed price, particle
    factor); its inverse exponential weights physical-measure projections.
    Survival ``Y = exp(-Gamma_p)`` and the coefficients ``mu``, ``a`` and
    ``gam`` at the current time are evaluated once per step and shared.
    """

    def __init__(self, config: ScenarioConfig, s_paths: np.ndarray,
                 world_indices=None, n_particles: int | None = None):
        s_paths = np.atleast_2d(np.asarray(s_paths, dtype=float))
        if s_paths.shape[1] != config.n_steps + 1:
            raise ValueError("observed price path does not match the config grid")
        self.config = config
        self.s_paths = s_paths
        self.n_worlds = s_paths.shape[0]
        self.n_particles = n_particles or config.n_particles
        self.t_grid = config.t_grid()
        self.dt = config.dt

        c = config.coefficients
        t_left = self.t_grid[:-1][None, :]
        sig = c.sigma(t_left, s_paths[:, :-1])
        if np.any(sig <= 0):
            raise NumericalError("sigma vanishes on the observed path")
        self.dW_obs = np.diff(s_paths, axis=1) / (s_paths[:, :-1] * sig)

        if world_indices is None:
            world_indices = np.arange(self.n_worlds)
        self.world_indices = np.asarray(world_indices)
        self._streams = [rng.stream(config.seed, rng.FILTER, int(w))
                         for w in self.world_indices]

        self._noise = None          # the current block of noise, see _next_noise
        self._noise_k0 = 0          # the step at which it began
        shape = (self.n_worlds, self.n_particles)
        self.X = np.full(shape, config.x0, dtype=float)
        self.Gamma_p = np.zeros(shape)
        self.log_L = np.zeros(shape)
        self.k = 0
        self._evaluate(c.gamma_fn(self.t, self.X))

    def _evaluate(self, gam: np.ndarray) -> None:
        """Cache Y and the coefficients at the current (t_k, S_k, X)."""
        c = self.config.coefficients
        self.Y = np.negative(self.Gamma_p)
        np.exp(self.Y, out=self.Y)
        self.mu = c.mu(self.t, self.s_now, self.X)
        self.a = c.a(self.t, self.X)
        self.gam = gam

    # -- state views ---------------------------------------------------------
    @property
    def t(self) -> float:
        return float(self.t_grid[self.k])

    @property
    def s_now(self) -> np.ndarray:
        """Observed price per world at the current index, shaped (n_worlds, 1)."""
        return self.s_paths[:, self.k][:, None]

    # -- evolution -------------------------------------------------------------
    def step(self) -> None:
        """Advance every world one grid interval (Euler factor, exact density).

        Updates run in place, in the operation order of the formulas.
        """
        if self.k >= self.config.n_steps:
            raise IndexError("cloud already at the terminal time")
        c = self.config.coefficients
        k = self.k
        t = self.t_grid[k]
        dt = self.dt
        kernel = self.mu / c.sigma(t, self.s_now)
        # |kernel| > c_bound without forming |kernel| (a NaN trips neither test)
        if kernel.max() > c.c_bound or kernel.min() < -c.c_bound:
            over = np.abs(kernel) > c.c_bound
            row = int(np.argmax(over.any(axis=1)))
            raise CoefficientBoundError(
                f"|mu/sigma| exceeded c_bound = {c.c_bound:.6g} at {self._where(row)}:"
                f" {int(over[row].sum())} particle(s)"
            )
        a = self.a
        rho = c.rho
        dw = self.dW_obs[:, k][:, None]

        dB = self._next_noise()
        dB *= np.sqrt(dt)

        # x_new = X + (b - a rho kernel) dt + a (rho dw + sqrt(1 - rho^2) dB)
        x_new = a * rho
        x_new *= kernel
        np.subtract(c.b(t, self.X), x_new, out=x_new)
        x_new *= dt
        x_new += self.X
        dB *= np.sqrt(1.0 - rho**2)
        dB += rho * dw
        dB *= a
        x_new += dB
        gam_new = c.gamma_fn(self.t_grid[k + 1], x_new)
        # trapezoidal hazard and the density kernel: 0.5 x dt == x (0.5 dt) exactly
        hazard = self.gam + gam_new
        hazard *= 0.5 * dt
        self.Gamma_p += hazard
        self.log_L -= kernel * dw
        kernel *= kernel
        kernel *= 0.5 * dt
        self.log_L += kernel
        self.X = x_new
        self.k = k + 1
        # one reduction is finite unless an element is not finite or the sum
        # overflows; only then are the rows scanned
        with np.errstate(over="ignore"):
            total = self.X.sum()
        if not np.isfinite(total):
            finite = np.isfinite(self.X).all(axis=1)
            if not finite.all():
                raise NumericalError(
                    f"non-finite particle state at {self._where(int(np.argmin(finite)))}")
        self._evaluate(gam_new)

    def _next_noise(self) -> np.ndarray:
        """This step's (n_worlds, n_particles) standard normals, a view of the block.

        A block is drawn when none is left: as many of the remaining steps as
        fit in ``NOISE_BLOCK_BYTES``, at least one.  The cloud lets go of a
        block as it hands out its last step, so a one-step block lives only
        as long as the caller's view, which the caller scales in place.
        """
        if self._noise is None:
            per_step = 8 * self.n_worlds * self.n_particles
            steps = max(1, min(self.config.n_steps - self.k,
                               NOISE_BLOCK_BYTES // per_step))
            self._noise = np.empty((self.n_worlds, steps, self.n_particles))
            for w, gen in enumerate(self._streams):
                gen.standard_normal(out=self._noise[w])
            self._noise_k0 = self.k
        block, j = self._noise, self.k - self._noise_k0
        if j == block.shape[1] - 1:
            self._noise = None
        return block[:, j]

    # -- conditional expectations ---------------------------------------------
    def pi(self, values: np.ndarray) -> np.ndarray:
        """Martingale-measure filter estimate: plain particle average."""
        return values.mean(axis=-1)

    def pi_se(self, values: np.ndarray) -> np.ndarray:
        return values.std(axis=-1, ddof=1) / np.sqrt(self.n_particles)

    def pi_functional(self, func: SmoothFunctional) -> np.ndarray:
        return self.pi(func.f(self.t, self.s_now, self.X, self.Y))

    def survival_ratio(self, values: np.ndarray, measure: str = "P_hat",
                       with_se: bool = False):
        """pi(values * W) / pi(W): conditional expectation given survival.

        The weight W is Y under ``"P_hat"`` and Y exp(-log L) under ``"P"``,
        the inverse density scaled to mean 1 per world, so the survival mass
        pi(W) and its floor check are the same for both measures.  ``values``
        is (n_worlds, n_particles), or a stack of such arrays along leading
        axes.  With ``with_se`` also returns the delta-method standard error
        sqrt(pi(W^2 (values - ratio)^2) / n_particles) / pi(W).
        """
        if measure == "P_hat":
            weight = self.Y
        elif measure == "P":
            weight = self.log_L.min(axis=1, keepdims=True) - self.log_L
            np.exp(weight, out=weight)
            weight *= self.n_particles / weight.sum(axis=1, keepdims=True)
            weight *= self.Y
        else:
            raise ValueError(f"unknown measure {measure!r}; expected 'P' or 'P_hat'")
        mass = self.pi(weight)
        self._check_floor(mass)
        est = self.pi(values * weight) / mass
        if not with_se:
            return est
        resid = weight * (values - est[..., None])
        return est, np.sqrt(self.pi(resid**2) / self.n_particles) / mass

    def _where(self, row: int) -> str:
        """The current step and the global index of world ``row``, for messages."""
        return f"step k={self.k} (t={self.t:.4g}), path {int(self.world_indices[row])}"

    def _check_floor(self, denom: np.ndarray) -> None:
        if np.any(denom < self.config.survival_floor):
            row = int(np.argmin(denom))
            raise SurvivalFloorError(
                f"survival mass exhausted at {self._where(row)}:"
                f" mass {float(denom[row]):.3e}"
                f" below the floor {self.config.survival_floor:.3e}"
            )

    def projected_drift(self):
        """Estimate of the physical predictable projection of mu on survival."""
        return self.survival_ratio(self.mu, "P")

    def generator_apply(self, func: SmoothFunctional) -> np.ndarray:
        """Per-particle generator of (S, X, Y) under the martingale measure."""
        c = self.config.coefficients
        t, s, x, y = self.t, self.s_now, self.X, self.Y
        sig = c.sigma(t, s)
        a = self.a
        drift_x = c.b(t, x) - c.rho * a * self.mu / sig
        return (func.f_t(t, s, x, y)
                + drift_x * func.f_x(t, s, x, y)
                - y * self.gam * func.f_y(t, s, x, y)
                + 0.5 * a**2 * func.f_xx(t, s, x, y)
                + c.rho * a * sig * s * func.f_sx(t, s, x, y)
                + 0.5 * sig**2 * s**2 * func.f_ss(t, s, x, y))


# ---------------------------------------------------------------------------
# series over the whole horizon
# ---------------------------------------------------------------------------

@dataclass
class ProjectionSeries:
    """Grid-indexed filter estimates with per-estimate standard errors.

    ``estimates[name]`` has shape (n_worlds, n_steps+1); drift and hazard
    projections are predictable, so their final column repeats the last
    computed value.
    """

    t_grid: np.ndarray
    estimates: dict = field(default_factory=dict)
    std_errors: dict = field(default_factory=dict)


def run_filter(config: ScenarioConfig, s_path, functionals=(),
               world_indices=None, n_particles: int | None = None) -> ProjectionSeries:
    """Run the cloud over the horizon collecting the standard projections.

    Always records pi(id_y), the projected drift and the observable hazard
    rate; extra ``SmoothFunctional``s are recorded under their names.
    """
    cloud = ParticleCloud(config, s_path, world_indices, n_particles)
    n = config.n_steps
    shape = (cloud.n_worlds, n + 1)
    series = ProjectionSeries(t_grid=cloud.t_grid)
    names = ["pi_y", "proj_mu", "hazard"] + [f.name for f in functionals]
    for name in names:
        series.estimates[name] = np.empty(shape)
        series.std_errors[name] = np.zeros(shape)

    for k in range(n + 1):
        series.estimates["pi_y"][:, k] = cloud.pi(cloud.Y)
        series.std_errors["pi_y"][:, k] = cloud.pi_se(cloud.Y)
        est, se = cloud.survival_ratio(np.stack([cloud.mu, cloud.gam]), "P", with_se=True)
        for i, name in enumerate(("proj_mu", "hazard")):
            series.estimates[name][:, k] = est[i]
            series.std_errors[name][:, k] = se[i]
        for func in functionals:
            vals = func.f(cloud.t, cloud.s_now, cloud.X, cloud.Y)
            series.estimates[func.name][:, k] = cloud.pi(vals)
            series.std_errors[func.name][:, k] = cloud.pi_se(vals)
        if k < n:
            cloud.step()
    return series


def ks_residual(config: ScenarioConfig, s_path, func: SmoothFunctional,
                world_indices=None, n_particles: int | None = None) -> np.ndarray:
    """Residual of the filter equation for f along the observed path(s).

    R_t = pi_t(f) - pi_0(f) - int pi(Lf) du - int [rho pi(a f_x)
    + S sigma pi(f_s)] dW_obs, evaluated with left-endpoint sums.  Shrinks at
    the usual O(sqrt(dt) + 1/sqrt(n_particles)) rate.
    """
    cloud = ParticleCloud(config, s_path, world_indices, n_particles)
    c = config.coefficients
    n = config.n_steps
    resid = np.zeros((cloud.n_worlds, n + 1))
    pi_f0 = cloud.pi_functional(func)
    drift_sum = np.zeros(cloud.n_worlds)
    gain_sum = np.zeros(cloud.n_worlds)
    for k in range(n):
        t, s, x, y = cloud.t, cloud.s_now, cloud.X, cloud.Y
        sig = c.sigma(t, s)
        pi_gen = cloud.pi(cloud.generator_apply(func))
        gain = c.rho * cloud.pi(cloud.a * func.f_x(t, s, x, y)) \
            + cloud.pi(sig * s * func.f_s(t, s, x, y))
        cloud.step()
        drift_sum += pi_gen * cloud.dt
        gain_sum += gain * cloud.dW_obs[:, k]
        resid[:, k + 1] = cloud.pi_functional(func) - pi_f0 - drift_sum - gain_sum
    return resid
