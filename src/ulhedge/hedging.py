"""Hedging strategies, value and cost processes, and the backtest.

The partial-information strategy is the predictable projection of the
full-information one: with id_y the survival coordinate,

    theta_F = dg/ds + rho a/(sigma S) dg/dx,    theta*_t = pi(id_y theta_F) / pi(id_y),

evaluated one grid point before the price increment it multiplies, so the
position is a functional of the observable history only.  ``theta_full`` is
the one place theta_F is written.  The book value is the survival-weighted
projection of g.  Each step forms one row of g, dg/ds and dg/dx per world
from that step's slice of g alone, over the world's window of x nodes: the
cells its particles and its own factor state occupy, plus the node above
the highest.  For full information the rows are gathered at the world's own
factor state.  For partial information the particles never gather:
interpolation is linear in each particle's cell weights, so the survival
ratio of an interpolated field is the row dotted with the cloud's
cloud-in-cell deposit of the weights Y and Y a(X) on the same window
(``ParticleCloud.survival_deposit``), divided by the deposit's total, and
theta* is ``theta_full`` applied to those ratios.  The windows of a batch
share the widest one's width, so the dot products and the total add each
world's nodes in node order (``filtering.node_sums``): the zero nodes a
wider window adds change no bit, and a world hedges the same beside any
chunk-mates.  The cost process is assembled pathwise as payments plus book
value minus trading gains, and the backtest checks the
martingale / orthogonality / pricing properties that characterize the
locally risk-minimizing strategy.  ``HedgeSeries`` is the one per-world
record of a hedging run: it fixes which series exist and in what order.  Each
world is hedged from its own path and streams, so the backtest's chunk loop
is the one place where worlds are split, run in parallel and joined.  The
per-path series live only inside a chunk: when they are exported, each chunk
writes its rows of every series itself and the parent only appends the
chunks' text in world order; what a chunk returns is ``WorldStats``, the few
row-local numbers per world that the summary's cross-world statistics need.
"""

from __future__ import annotations

import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import csvio
from .errors import ConfigError, DomainExcursionError
from .filtering import Deposit, ParticleCloud, node_sums
from .models import ScenarioConfig, validate
from .pde import PdeSolution, interp_rows, solve_g, solve_gtilde, solve_phi
from .simulate import PathBundle, draw_worlds, simulate_paths

__all__ = [
    "HedgeSeries",
    "BacktestSummary",
    "HedgeReport",
    "payment_stream",
    "theta_full",
    "hedge_paths",
    "closed_form_theta",
    "backtest",
]


# ---------------------------------------------------------------------------
# payment stream
# ---------------------------------------------------------------------------

def payment_stream(bundle: PathBundle) -> np.ndarray:
    """Cumulative payments N_t (n_paths, n_steps+1): the death benefit at
    death, the survival benefit credited at maturity.  Piecewise constant with
    at most one jump before T; N_T is the contract claim per path."""
    contract = bundle.config.contract
    died = np.isfinite(bundle.tau)
    kstar = bundle.death_step()
    n = bundle.n_steps

    death_benefit = np.zeros(bundle.n_paths)
    if np.any(died):
        s_at_death = bundle.S[np.arange(bundle.n_paths), kstar]
        death_benefit[died] = contract.U(s_at_death[died])

    N = death_benefit[:, None] * bundle.H
    survival_benefit = np.where(~died, contract.G(bundle.S[:, -1]), 0.0)
    N[:, n] += survival_benefit
    return N


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

def _name_world(exc: DomainExcursionError, bundle: PathBundle, k: int):
    """The same excursion, naming the grid step and the global path index."""
    row = exc.index[0]
    return DomainExcursionError(
        f"step k={k}, path {int(bundle.path_indices[row])}: {exc}", exc.index)


def theta_full(c, s, a, g_s: np.ndarray, g_x: np.ndarray) -> np.ndarray:
    """Full-information strategy dg/ds + (rho a / (sigma s)) dg/dx, formed in
    place in ``g_s`` and returned.

    ``c`` holds the coefficients (sigma is the constant ``c.sigma0``); ``s``
    is each world's price, shaped to broadcast against ``g_s``
    ((n_worlds, 1)), and ``a`` is a(x) at the factor states where ``g_s``
    and ``g_x`` were gathered.  The hedge applies it to the gather at each
    world's own (S, X), where it is theta_F, and, with a = 1, to the
    survival ratios of g_s and a g_x at the particles, where it is theta*.
    """
    correction = c.rho / (c.sigma0 * s) * a
    correction *= g_x
    g_s += correction
    return g_s


def _projected(c, s: np.ndarray, rows: np.ndarray, deposit: Deposit):
    """The partial-information value and position of each world: its rows of
    g, dg/ds and dg/dx over its window (``slice_at_s``) dotted with the
    cloud's survival deposit over the same window
    (``ParticleCloud.survival_deposit``) and divided by its total give the
    survival ratios of g, g_s and a g_x at the particles, and
    ``theta_full`` with a = 1 turns the last two into theta*.  The dot
    products are ``node_sums``, in node order, so a world's results do not
    depend on how wide its chunk-mates made the window.  ``s`` is each
    world's price, (n_worlds,)."""
    d_y, d_ya, total, _ = deposit
    products = np.empty_like(rows)
    np.multiply(d_y, rows[:2], out=products[:2])
    np.multiply(d_ya, rows[2], out=products[2])
    value, g_s, a_g_x = node_sums(products) / total
    return value, theta_full(c, s, 1.0, g_s, a_g_x)


@dataclass
class HedgeSeries:
    """The per-world record of one hedging run (rows = worlds).

    The first eight fields are the exported series, in ``csvio.HEDGE_SERIES``
    order.  ``theta_*`` are interval-left positions (n_paths, n_steps),
    already zero after death; ``pfs_mu`` is the projected drift, the
    physical-measure survival ratio of mu at each interval's left end
    (n_paths, n_steps), which gives the martingale part of the stopped price;
    ``V`` and ``V_full`` are the partial- and full-information book values,
    zero at and after settlement; ``C`` and ``C_full`` the cost processes
    against them; ``N`` is the cumulative payment stream and ``S_stopped``
    the price frozen at death.  ``terminal_gap`` is the distance between the
    pre-settlement book value and the claim actually paid at maturity
    (survivors only) and ``death_step`` the index k* of tau = t_{k*}
    (n_steps for survivors).  The survival mass behind each ratio is checked
    against the floor in the cloud; ``min_mass`` is the smallest one per
    world (``ParticleCloud.min_mass``), and ``max_window`` the widest window
    of x nodes its cloud and own state needed at any step
    (``ParticleCloud.max_window``).
    """

    theta_star: np.ndarray
    theta_full: np.ndarray
    pfs_mu: np.ndarray
    V: np.ndarray
    C: np.ndarray
    C_full: np.ndarray
    N: np.ndarray
    S_stopped: np.ndarray
    V_full: np.ndarray
    terminal_gap: np.ndarray
    death_step: np.ndarray
    min_mass: np.ndarray
    max_window: np.ndarray


def hedge_paths(config: ScenarioConfig, bundle: PathBundle,
                g_sol: PdeSolution) -> HedgeSeries:
    """Run the filter-based hedge along every world of a bundle.

    The cloud sees only the observed price paths; positions and book values
    at index k use the cloud state at k (information up to t_k) and apply to
    the increment over [t_k, t_{k+1}).  Each step deposits the clouds on the
    x grid over one window of nodes per world, which covers the cells of its
    particles and of its own state (``survival_deposit``), locates every
    world once in s (``slice_at_s``: one row of g, dg/ds and dg/dx per world
    over its window) and reads those rows twice: dotted with the deposit
    (``_projected``), which gives the book value and the survival ratios of
    g_s and a g_x that ``theta_full`` turns into theta*, and gathered at the
    world's own X, where they give the full-information value and position.
    The cost processes are formed against the stopped price.
    """
    c = config.coefficients
    n = config.n_steps
    n_paths = bundle.n_paths
    cloud = ParticleCloud(config, bundle.S, bundle.path_indices)
    x_grid = g_sol.x_grid

    theta_star = np.zeros((n_paths, n))
    th_full = np.empty((n_paths, n))
    ratio = np.empty((n_paths, n + 1))
    V_full = np.empty((n_paths, n + 1))
    pfs_mu = np.empty((n_paths, n))

    for k in range(n + 1):
        s_k, x_own = cloud.s_now, bundle.X[:, k:k + 1]
        try:
            deposit = cloud.survival_deposit(x_grid, x_own)
            rows = g_sol.slice_at_s(("value", "d_s", "d_x"), k, s_k[:, 0],
                                    deposit.lo, deposit.d_y.shape[1])
            own = interp_rows(rows, x_grid, x_own, deposit.lo)
        except DomainExcursionError as exc:
            raise _name_world(exc, bundle, k) from exc
        ratio[:, k], theta_k = _projected(c, s_k[:, 0], rows, deposit)
        V_full[:, k] = own[0, :, 0]
        if k < n:
            th_full[:, k] = theta_full(c, s_k, c.factor.a(x_own), own[1], own[2])[:, 0]
            theta_star[:, k] = theta_k
            pfs_mu[:, k] = cloud.projected_drift()
            cloud.step()
    min_mass, max_window = cloud.min_mass, cloud.max_window
    del cloud, rows, deposit, own

    alive = 1.0 - bundle.H
    theta_star *= alive[:, :-1]
    th_full *= alive[:, :-1]
    V = alive * ratio
    V[:, n] = 0.0
    V_full *= alive
    V_full[:, n] = 0.0

    survived = ~np.isfinite(bundle.tau)
    gap = np.zeros(n_paths)
    gap[survived] = np.abs(ratio[survived, n]
                           - config.contract.G(bundle.S[survived, -1]))
    N = payment_stream(bundle)
    S_stopped = bundle.stopped(bundle.S)
    return HedgeSeries(
        theta_star=theta_star, theta_full=th_full, pfs_mu=pfs_mu, V=V,
        C=cost_process(N, V, theta_star, S_stopped),
        C_full=cost_process(N, V_full, th_full, S_stopped),
        N=N, S_stopped=S_stopped, V_full=V_full, terminal_gap=gap,
        death_step=bundle.death_step(), min_mass=min_mass, max_window=max_window)


def trading_gains(theta: np.ndarray, S_stopped: np.ndarray) -> np.ndarray:
    gains = np.zeros_like(S_stopped)
    np.cumsum(theta * np.diff(S_stopped, axis=1), axis=1, out=gains[:, 1:])
    return gains


def cost_process(N: np.ndarray, V: np.ndarray, theta: np.ndarray,
                 S_stopped: np.ndarray) -> np.ndarray:
    """C = N + V - int theta dS^tau, pathwise on the grid."""
    return N + V - trading_gains(theta, S_stopped)


# ---------------------------------------------------------------------------
# uncorrelated closed form
# ---------------------------------------------------------------------------

def _assert_uncorrelated_homogeneous(config: ScenarioConfig) -> None:
    c = config.coefficients
    if c.rho != 0.0:
        raise ConfigError("closed-form pipeline requires rho = 0")
    recovery = config.contract.death_recovery
    if recovery.strike is not None or recovery.level:
        raise ConfigError("closed-form pipeline needs a linear (or zero) death benefit")


def closed_form_theta(config: ScenarioConfig, bundle: PathBundle):
    """Uncorrelated-case strategy from the two 1D solves.

    theta*_t = [(dgtilde/ds - delta) m(T) + delta m(t)] / m(t) with m(t) the
    unconditional survival mass E[Y_t].  Time-homogeneous coefficients let
    m(t) be read off the survival transform as Phi(T - t, x0).  Solves both
    problems with every time slice (it reads them at each step) and returns
    (theta, gtilde, phi).
    """
    _assert_uncorrelated_homogeneous(config)
    gtilde, phi = solve_gtilde(config), solve_phi(config)
    delta = config.contract.death_recovery.slope
    n = config.n_steps
    m = np.array([phi.value(n - k, x=np.array([config.x0]))[0] for k in range(n + 1)])
    gs = np.stack([gtilde.value_ds(k, s=bundle.S[:, k]) for k in range(n)], axis=1)
    theta = ((gs - delta) * m[n] + delta * m[:-1]) / m[:-1]
    return theta * bundle.alive_mask(), gtilde, phi


# ---------------------------------------------------------------------------
# backtest
# ---------------------------------------------------------------------------

@dataclass
class BacktestSummary:
    """Cross-path statistics for the optimality diagnostics."""

    checkpoint_times: np.ndarray
    cost_mean: np.ndarray
    cost_se: np.ndarray
    cov_price: np.ndarray
    cov_price_se: np.ndarray
    cov_mart: np.ndarray
    cov_mart_se: np.ndarray
    price_lhs: float
    price_lhs_se: float
    price_rhs: float
    price_rhs_se: float
    zeta0_pde: float
    cost_var_partial: float
    cost_var_full: float
    terminal_gap_max: float
    v_terminal_max: float
    n_paths: int
    n_particles: int

    @property
    def cost_z(self) -> np.ndarray:
        return self.cost_mean / self.cost_se

    @property
    def cov_price_z(self) -> np.ndarray:
        return self.cov_price / self.cov_price_se

    @property
    def cov_mart_z(self) -> np.ndarray:
        return self.cov_mart / self.cov_mart_se

    @property
    def price_z(self) -> float:
        return (self.price_lhs - self.price_rhs) / \
            np.hypot(self.price_lhs_se, self.price_rhs_se)

    def verdicts(self) -> dict[str, tuple[np.ndarray, bool]]:
        """(z per checkpoint, passed) of each verdict, by name, in
        ``hedge_summary.csv`` order; the price identity has one z.  The one
        place the rule is written: a verdict passes when every |z| < 3."""
        return {name: (z, bool(np.all(np.abs(z) < 3.0)))
                for name, z in (("cost_mean_zero", self.cost_z),
                                ("orthogonal_to_price", self.cov_price_z),
                                ("orthogonal_to_martingale", self.cov_mart_z),
                                ("price_identity", np.array([self.price_z])))}


@dataclass
class HedgeReport:
    """What one backtest keeps: the summary, not the per-path series.

    ``pde_health`` holds the numerical-health counters of the solved g the
    worlds were hedged against, and ``filter_health`` those of the particle
    clouds: the smallest survival mass any world reached (``min_mass``)
    next to the ``survival_floor`` it was checked against, and the widest
    window of x nodes any world needed in a step (``max_window_nodes``, from
    ``max_window``) next to the grid's ``x_nodes``; ``series_files``
    lists the per-path series CSVs the backtest wrote (empty unless it was
    given an output directory), the only place the series outlive the
    chunks that formed them.
    """

    config: ScenarioConfig
    summary: BacktestSummary
    pde_health: dict
    filter_health: dict
    series_files: list = field(default_factory=list)


def _block_edges(n_steps: int) -> np.ndarray:
    """Step indices bounding the summary's eight checkpoint blocks."""
    return np.unique(np.linspace(0, n_steps, 9).astype(int))


def _cov_with_se(u: np.ndarray, v: np.ndarray):
    u = u - u.mean(axis=0, keepdims=True)
    v = v - v.mean(axis=0, keepdims=True)
    prod = u * v
    n = u.shape[0]
    return prod.mean(axis=0), prod.std(axis=0, ddof=1) / np.sqrt(n)


class WorldStats(NamedTuple):
    """The row-local inputs of ``BacktestSummary`` (rows = worlds).

    ``dC``, ``dS`` and ``dM`` are the cost, stopped-price and
    martingale-part increments over the ``_block_edges`` blocks
    (n_worlds, n_blocks); ``price_leg`` is C_T (= N_T - int theta dS^tau, as
    V_T = 0), ``cost_partial`` and ``cost_full`` are C_T - C_0 and
    C_full,T - C_full,0, ``terminal_gap`` is ``HedgeSeries.terminal_gap``,
    ``v_settle`` is |V| at the death step, ``claim_hat`` the
    martingale-measure claim N_T of the same world, ``min_mass`` the
    smallest survival mass its cloud reached (``HedgeSeries.min_mass``) and
    ``max_window`` the widest window of x nodes it needed
    (``HedgeSeries.max_window``).
    """

    dC: np.ndarray
    dS: np.ndarray
    dM: np.ndarray
    price_leg: np.ndarray
    cost_partial: np.ndarray
    cost_full: np.ndarray
    terminal_gap: np.ndarray
    v_settle: np.ndarray
    claim_hat: np.ndarray
    min_mass: np.ndarray
    max_window: np.ndarray


def _backtest_chunk(config: ScenarioConfig, g_sol: PdeSolution, part_dir,
                    bounds: tuple) -> WorldStats:
    """Simulate the worlds lo <= i < hi under P_hat and P and hedge them.

    The worlds' draws are made once and drive both measures.  The per-path
    series live only here: with a ``part_dir`` the chunk writes its rows of
    every exported series there, one part file per series, and it returns
    only the summary's per-world inputs, ``WorldStats``.
    """
    n = config.n_steps
    idx = np.arange(*bounds)
    draws = draw_worlds(config, idx)
    claim_hat = payment_stream(
        simulate_paths(config, "P_hat", path_indices=idx, draws=draws))[:, -1].copy()
    bundle = simulate_paths(config, "P", path_indices=idx, draws=draws)
    del draws
    series = hedge_paths(config, bundle, g_sol)
    del bundle
    if part_dir is not None:
        csvio.write_hedge_parts(part_dir, int(bounds[0]), series)
    S_stopped, C = series.S_stopped, series.C

    # martingale part of the stopped price under the observable flow
    alive = np.arange(n) < series.death_step[:, None]
    dM = np.diff(S_stopped, axis=1) - S_stopped[:, :-1] * series.pfs_mu * config.dt * alive
    edges = _block_edges(n)
    return WorldStats(
        dC=C[:, edges[1:]] - C[:, edges[:-1]],
        dS=S_stopped[:, edges[1:]] - S_stopped[:, edges[:-1]],
        dM=np.add.reduceat(dM, edges[:-1], axis=1),
        price_leg=C[:, -1].copy(),
        cost_partial=C[:, -1] - C[:, 0],
        cost_full=series.C_full[:, -1] - series.C_full[:, 0],
        terminal_gap=series.terminal_gap,
        v_settle=np.abs(series.V[np.arange(idx.size), series.death_step]),
        claim_hat=claim_hat,
        min_mass=series.min_mass,
        max_window=series.max_window)


_worker_inputs = ()   # (config, g_sol, part_dir), set once in each pool worker by its initializer


def _init_worker(*inputs) -> None:
    global _worker_inputs
    _worker_inputs = inputs


def _worker_chunk(bounds: tuple) -> WorldStats:
    return _backtest_chunk(*_worker_inputs, bounds)


def backtest(config: ScenarioConfig, chunk_size: int = 4000, workers: int = 1,
             out_dir=None) -> HedgeReport:
    """Simulate physical-measure worlds, hedge each one, test optimality.

    The worlds go in chunks of at most ``chunk_size``, as many as a multiple
    of ``min(workers, n_paths)`` and never more than there are worlds, run by
    a pool of that many processes when it exceeds 1 (a larger pool would
    fork idle workers); the pool initializer hands each worker the solved
    surface once.  The result is bit-identical for any chunk size and worker
    count: each chunk returns only its worlds' ``WorldStats``, and every
    cross-world reduction runs on their join.

    With ``out_dir``, the per-path series (``csvio.HEDGE_SERIES``) are
    written there as ``hedge_<name>.csv``: each chunk writes its rows to a
    private temporary directory inside ``out_dir``, and after the join the
    parent writes each header and appends the chunks' rows in world order.
    The temporary directory is removed whether the run succeeds or fails.

    Checks, across paths, so a run of fewer than two worlds is refused:
    (1) cost increments have zero mean at the block checkpoints, (2) cost
    increments are uncorrelated with the stopped price and with its
    martingale part, (3) the physical-measure price of the hedged claim
    matches the martingale-measure value, (4) full-information cost
    variance, reported next to the partial-information one.
    """
    report = validate(config)
    if not report.ok:
        raise ConfigError(str(report))
    if config.n_paths < 2:
        raise ConfigError("the backtest needs n_paths >= 2: its standard errors"
                          " and variances are taken across at least two worlds")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    g_sol = solve_g(config)
    n, n_paths = config.n_steps, config.n_paths

    per_round = min(workers, n_paths)
    n_chunks = max(-(-n_paths // chunk_size), per_round)
    n_chunks = min(-(-n_chunks // per_round) * per_round, n_paths)
    bounds = np.linspace(0, n_paths, n_chunks + 1).astype(int)
    chunks = list(zip(bounds[:-1], bounds[1:]))
    part_dir = None if out_dir is None else tempfile.mkdtemp(prefix=".hedge-parts-",
                                                             dir=out_dir)
    try:
        if per_round > 1:
            with ProcessPoolExecutor(per_round, initializer=_init_worker,
                                     initargs=(config, g_sol, part_dir)) as pool:
                parts = list(pool.map(_worker_chunk, chunks))
        else:
            parts = [_backtest_chunk(config, g_sol, part_dir, b) for b in chunks]
        stats = WorldStats(*map(np.concatenate, zip(*parts)))
        del parts
        series_files = [] if part_dir is None else \
            csvio.assemble_hedge_series(config, part_dir, bounds[:-1], out_dir)
    finally:
        if part_dir is not None:
            shutil.rmtree(part_dir, ignore_errors=True)

    dC = stats.dC
    cost_mean = dC.mean(axis=0)
    cost_se = dC.std(axis=0, ddof=1) / np.sqrt(n_paths)
    cov_p, cov_p_se = _cov_with_se(dC, stats.dS)
    cov_m, cov_m_se = _cov_with_se(dC, stats.dM)

    lhs, claim_hat = stats.price_leg, stats.claim_hat
    price_lhs = float(lhs.mean())
    price_lhs_se = float(lhs.std(ddof=1) / np.sqrt(n_paths))
    price_rhs = float(claim_hat.mean())
    price_rhs_se = float(claim_hat.std(ddof=1) / np.sqrt(claim_hat.size))

    zeta0 = float(g_sol.value(0, s=np.array([config.s0]), x=np.array([config.x0]))[0])
    summary = BacktestSummary(
        checkpoint_times=config.t_grid()[_block_edges(n)[1:]],
        cost_mean=cost_mean, cost_se=cost_se,
        cov_price=cov_p, cov_price_se=cov_p_se,
        cov_mart=cov_m, cov_mart_se=cov_m_se,
        price_lhs=price_lhs, price_lhs_se=price_lhs_se,
        price_rhs=price_rhs, price_rhs_se=price_rhs_se,
        zeta0_pde=zeta0,
        cost_var_partial=float(stats.cost_partial.var(ddof=1)),
        cost_var_full=float(stats.cost_full.var(ddof=1)),
        terminal_gap_max=float(stats.terminal_gap.max()),
        v_terminal_max=float(stats.v_settle.max()),
        n_paths=n_paths,
        n_particles=config.n_particles,
    )
    filter_health = {"min_survival_mass": float(stats.min_mass.min()),
                     "survival_floor": config.survival_floor,
                     "max_window_nodes": int(stats.max_window.max()),
                     "x_nodes": len(g_sol.x_grid)}
    return HedgeReport(config=config, summary=summary, pde_health=g_sol.health(),
                       filter_health=filter_health, series_files=series_files)
