"""Conditional-law machinery given the observed price path.

Because the observed price is driftless under the martingale measure and its
volatility never vanishes, the price filtration coincides with that of the
martingale-measure Brownian motion, whose increments can be read off the
price path: ``simulate.observed_increments`` inverts the simulator's own log
step, so the increment a particle step reads is the one that moved the
world.  The conditional law of the hidden factor (and of the survival
process it drives) given the price history is therefore sampled *exactly*:
particles are propagated with the observed price-Brownian increments plus
fresh independent orthogonal noise, with no importance weights and no
resampling, so the martingale-measure averages never degenerate.  A particle
step calls the simulator's ``factor_step`` and ``hazard_increments`` and the
density's ``measure.log_density_increments``.  Estimates
given survival under either measure are one survival-weighted ratio,
``ParticleCloud.survival_ratio``, that differs only in the particle weights:
Y under the martingale measure, Y times the inverse density exp(-log L) under
the physical measure (Kallianpur-Striebel).  One weighing code
(``ParticleCloud._weight``) forms both weights, checks the survival mass
against the floor and records its smallest value per world; it also serves
``ParticleCloud.survival_deposit``, which spreads the martingale-measure
weights over the nodes of a uniform x grid (cloud-in-cell: Hockney &
Eastwood, *Computer Simulation Using Particles*, 1988), so that the survival
ratio of any field interpolated linearly from that grid is one dot product
per world, divided by the world's total deposit.  The deposit covers one
window of nodes per world, the cells of its particles and of its own state
plus the node above the highest, in arrays as wide as the widest window of
the batch; its total and the dot products are ``node_sums``, which add a
world's nodes in node order, so the zeros a wider window adds change no bit
and a world's results do not depend on the worlds batched with it.  The
physical-measure weights (projected drift, observable hazard rate) can
degenerate over long horizons or with a strong drift sensitivity.
A Kushner-Stratonovich residual checks the filter against the generator
equation it should solve.

Clouds are batched: axis 0 indexes worlds (observed paths), axis 1 particles.
Each world draws its orthogonal noise from its own counter-based stream, kept
for the cloud's life, so a batch of worlds filters identically to the same
worlds run one at a time.  The noise is drawn for a block of steps at once,
one call per world, with blocks bounded by ``NOISE_BLOCK_BYTES``; a stream's
normals are sequential, so the block length does not change the draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import rng
from .errors import CoefficientBoundError, ConfigError, NumericalError, SurvivalFloorError
from .measure import log_density_increments
from .models import ScenarioConfig
from .pde import locate
from .simulate import factor_step, hazard_increments, observed_increments

# bytes of orthogonal noise drawn per block (at least one step's worth)
NOISE_BLOCK_BYTES = 2 * 1024 * 1024

__all__ = [
    "Deposit",
    "ParticleCloud",
    "ProjectionSeries",
    "SmoothFunctional",
    "run_filter",
    "ks_residual",
    "functional_coord_x",
    "node_sums",
]


def node_sums(nodes: np.ndarray) -> np.ndarray:
    """Sums over the last axis, each from 0.0 adding the entries one at a
    time in order, so a sum depends on its entries alone: leading or
    trailing zeros change no bit of it, whatever the length of the axis.
    (A ``sum`` or ``vecdot`` along the axis groups its terms by the axis'
    length and alignment.)  One whole-array add per entry of the axis."""
    out = np.zeros(nodes.shape[:-1])
    for column in np.moveaxis(nodes, -1, 0):
        out += column
    return out


class Deposit(NamedTuple):
    """A cloud's survival deposit over one window of x nodes per world
    (``ParticleCloud.survival_deposit``): ``d_y`` and ``d_ya`` (n_worlds, W)
    hold the deposits of Y and Y a(X) on nodes lo, ..., lo + W - 1,
    ``total`` (n_worlds,) is each world's total deposit of Y, and ``lo``
    (n_worlds,) each window's first node."""

    d_y: np.ndarray
    d_ya: np.ndarray
    total: np.ndarray
    lo: np.ndarray


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
    ``gam`` at the current time are evaluated once per step and shared;
    ``step`` updates ``Gamma_p``, ``log_L`` and ``Y`` in place.
    ``min_mass`` (n_worlds,) is the smallest survival mass any floor check
    has seen per world, and ``max_window`` (n_worlds,) the widest window of
    x nodes any ``survival_deposit`` needed for it.
    """

    def __init__(self, config: ScenarioConfig, s_paths: np.ndarray, world_indices=None):
        s_paths = np.atleast_2d(np.asarray(s_paths, dtype=float))
        if s_paths.shape[1] != config.n_steps + 1:
            raise ValueError("observed price path does not match the config grid")
        self.config = config
        self.s_paths = s_paths
        self.n_worlds = s_paths.shape[0]
        self.n_particles = config.n_particles
        self.t_grid = config.t_grid()
        self.dt = config.dt
        self.dW_obs = observed_increments(config, s_paths)

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
        self.Y = np.empty(shape)
        self.min_mass = np.full(self.n_worlds, np.inf)
        self.max_window = np.zeros(self.n_worlds, dtype=np.intp)
        # two work arrays of the state's shape, reused within each call
        self._scratch = np.empty((2,) + shape)
        self.k = 0
        self._evaluate(config.coefficients.gamma(self.X))

    def _evaluate(self, gam: np.ndarray) -> None:
        """Cache Y and the coefficients at the current particle states X."""
        c = self.config.coefficients
        np.negative(self.Gamma_p, out=self.Y)
        np.exp(self.Y, out=self.Y)
        self.mu = c.mu(self.X)
        self.a = c.factor.a(self.X)
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
        """Advance every world one grid interval by the simulator's
        martingale-measure transition, dB = sqrt(dt) z formed in the noise
        block: a particle given a world's own increments retraces that
        world's X, Gamma and density bit for bit."""
        if self.k >= self.config.n_steps:
            raise IndexError("cloud already at the terminal time")
        c = self.config.coefficients
        k = self.k
        dt = self.dt
        kernel = np.divide(self.mu, c.sigma0, out=self._scratch[0])
        # |kernel| > c_bound without forming |kernel| (a NaN trips neither test)
        if kernel.max() > c.c_bound or kernel.min() < -c.c_bound:
            over = np.abs(kernel) > c.c_bound
            row = int(np.argmax(over.any(axis=1)))
            raise CoefficientBoundError(
                f"|mu/sigma| exceeded c_bound = {c.c_bound:.6g} at {self._where(row)}:"
                f" {int(over[row].sum())} particle(s)"
            )
        dw = self.dW_obs[:, k][:, None]
        dB = self._next_noise()
        dB *= np.sqrt(dt)
        drift = c.martingale_factor_drift(self.X, self.a, kernel, self._scratch[1])
        x_new = factor_step(c.rho, self.X, drift, self.a, dw, dB, dt, work=dB)
        gam_new = c.gamma(x_new)
        # the rate at t_k is not read again, so its buffer takes the increment
        self.Gamma_p += hazard_increments(self.gam, gam_new, dt, out=self.gam)
        self.log_L += log_density_increments(kernel, dw, dt, work=self._scratch[1])
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

    def _weight(self, measure: str):
        """The particle weights of ``measure``, up to a factor per world, and
        their particle average; the survival mass is checked on the way.

        The weight W is Y under ``"P_hat"`` and Y exp(-log L) under ``"P"``,
        the inverse density scaled to mean 1 per world, so the survival mass
        pi(W) and its floor check mean the same for both measures.  Every
        estimate is a ratio in which a factor per world cancels, so under
        ``"P"`` the weights returned are Y exp(min log L - log L), formed
        once, and the scale enters only the mass that is checked and
        recorded in ``min_mass``.
        """
        if measure == "P_hat":
            weight = self.Y
            total = mass = self.pi(weight)
        elif measure == "P":
            weight = np.subtract(self.log_L.min(axis=1, keepdims=True), self.log_L,
                                 out=self._scratch[0])
            np.exp(weight, out=weight)
            density_sum = weight.sum(axis=1)
            weight *= self.Y
            total = self.pi(weight)
            mass = total * self.n_particles / density_sum
        else:
            raise ValueError(f"unknown measure {measure!r}; expected 'P' or 'P_hat'")
        np.minimum(self.min_mass, mass, out=self.min_mass)
        self._check_floor(mass)
        return weight, total

    def survival_ratio(self, values: np.ndarray, measure: str = "P_hat",
                       with_se: bool = False):
        """pi(values * W) / pi(W): conditional expectation given survival.

        W is the weight of ``measure`` (see ``_weight``).  ``values`` is
        (n_worlds, n_particles), or a stack of such arrays along leading
        axes.  With ``with_se`` also returns the delta-method standard error
        sqrt(pi(W^2 (values - ratio)^2) / n_particles) / pi(W).
        """
        weight, total = self._weight(measure)
        est = np.vecdot(values, weight) / self.n_particles / total
        if not with_se:
            return est
        resid = weight * (values - est[..., None])
        return est, np.sqrt(self.pi(resid**2) / self.n_particles) / total

    def survival_deposit(self, grid: np.ndarray, own_x: np.ndarray) -> Deposit:
        """Cloud-in-cell deposit of the martingale-measure survival weights
        over one window of x nodes per world.

        A particle at cell c with interpolation weight w adds its weight
        times 1 - w to node c and times w to node c + 1, summed per world.
        A world's window starts at its lowest cell among its particles and
        its own state ``own_x`` (n_worlds, 1) and ends one node above the
        highest; all worlds share the widest window's width W (at most
        len(grid)), and a start is lowered where the window would pass the
        last node.  Returns a ``Deposit``: the deposits of the weights Y and
        Y a(X), each (n_worlds, W), node lo + j of the grid in column j,
        each world's total deposit of Y and the starts lo.  For rows r over
        the same windows, the dot product of each world's row of D_Y with
        its row of r, divided by its total, is ``survival_ratio`` of r
        interpolated linearly at X, and with D_Ya the same ratio of a(X)
        r(X).  The total is the deposit's own sum of Y, so a cloud inside
        one cell (the Dirac start) keeps 1 - w and w to the last bits; it
        and the dot products are ``node_sums``, which add a world's nodes
        in node order, so the zero nodes a wider window adds leave every
        result as it is.  The cost is one ``locate`` of the cloud and one
        of the own states (a point outside the grid raises
        DomainExcursionError) and two ``bincount``s per weight over
        world * W + cell - lo: the whole weight, less the upper share, at
        c, and the upper share, shifted one node up.  The survival mass is
        checked as in ``survival_ratio``; ``max_window`` records each
        world's own width hi - lo + 2.
        """
        weight, _ = self._weight("P_hat")
        cell, upper = locate(grid, self.X, "x")
        own = locate(grid, own_x, "x")[0][:, 0]
        lo = np.minimum(cell.min(axis=1), own)
        need = np.maximum(cell.max(axis=1), own) - lo + 2
        np.maximum(self.max_window, need, out=self.max_window)
        # a cell is at most len(grid) - 2, so the width is at most len(grid)
        width = int(need.max())
        np.minimum(lo, len(grid) - width, out=lo)
        size = self.n_worlds * width
        cell -= lo[:, None]
        cell += np.arange(0, size, width)[:, None]
        cell = cell.ravel()

        def deposit(whole, upper):
            nodes = np.bincount(cell, whole.ravel(), size)
            shifted = np.bincount(cell, upper.ravel(), size)
            nodes -= shifted
            # a window's last node takes no upper share, so none crosses
            # into the next world's window
            nodes[1:] += shifted[:-1]
            return nodes.reshape(self.n_worlds, width)

        upper *= weight                                   # Y w
        d_y = deposit(weight, upper)
        upper *= self.a                                   # Y w a
        d_ya = deposit(np.multiply(weight, self.a, out=self._scratch[0]), upper)
        return Deposit(d_y, d_ya, node_sums(d_y), lo)

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
        sig = c.sigma0
        a = self.a
        drift_x = c.martingale_factor_drift(x, a, self.mu / sig)
        return (func.f_t(t, s, x, y)
                + drift_x * func.f_x(t, s, x, y)
                - y * self.gam * func.f_y(t, s, x, y)
                + 0.5 * a**2 * func.f_xx(t, s, x, y)
                + c.rho * a * sig * s * func.f_sx(t, s, x, y)
                + 0.5 * (sig * sig) * s**2 * func.f_ss(t, s, x, y))


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
               world_indices=None) -> ProjectionSeries:
    """Run the cloud over the horizon collecting the standard projections.

    Always records pi(id_y), the projected drift and the observable hazard
    rate; extra ``SmoothFunctional``s are recorded under their names.  Fewer
    than two particles are refused: the standard errors are taken across them.
    """
    if config.n_particles < 2:
        raise ConfigError("the filter needs n_particles >= 2: its standard errors"
                          " are taken across at least two particles")
    cloud = ParticleCloud(config, s_path, world_indices)
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
                world_indices=None) -> np.ndarray:
    """Residual of the filter equation for f along the observed path(s).

    R_t = pi_t(f) - pi_0(f) - int pi(Lf) du - int [rho pi(a f_x)
    + S sigma pi(f_s)] dW_obs, evaluated with left-endpoint sums.  Shrinks at
    the usual O(sqrt(dt) + 1/sqrt(n_particles)) rate.
    """
    cloud = ParticleCloud(config, s_path, world_indices)
    c = config.coefficients
    n = config.n_steps
    resid = np.zeros((cloud.n_worlds, n + 1))
    pi_f0 = cloud.pi_functional(func)
    drift_sum = np.zeros(cloud.n_worlds)
    gain_sum = np.zeros(cloud.n_worlds)
    for k in range(n):
        t, s, x, y = cloud.t, cloud.s_now, cloud.X, cloud.Y
        pi_gen = cloud.pi(cloud.generator_apply(func))
        gain = c.rho * cloud.pi(cloud.a * func.f_x(t, s, x, y)) \
            + cloud.pi(c.sigma0 * s * func.f_s(t, s, x, y))
        cloud.step()
        drift_sum += pi_gen * cloud.dt
        gain_sum += gain * cloud.dW_obs[:, k]
        resid[:, k + 1] = cloud.pi_functional(func) - pi_f0 - drift_sum - gain_sum
    return resid
