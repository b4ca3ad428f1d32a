"""Model families, contracts and scenario configuration.

The market is a riskless account pinned at 1 plus one risky asset

    dS = S (mu(X) dt + sigma dW),
    dX = b(X) dt + a(X) (rho dW + sqrt(1 - rho^2) dB),

with a policyholder whose death intensity is gamma(X).  The paper lets every
coefficient depend on t (and mu, sigma on S); the families here are
time-homogeneous, so each coefficient takes only the state it reads: sigma is
the constant ``sigma0``, the drift is affine in the factor,
``mu = m0 + m1 x``; the factor is the one affine mean-reverting family
``b = kappa (xbar - x)`` with ``a`` constant (Ornstein-Uhlenbeck) or
``a_vol sqrt(max(x, 0))`` (square root), frozen at kappa = a = 0; the
intensity is the one affine family
``gamma = gamma0 + gamma1 max(x, 0)``, which the affine-transform oracles
solve in closed form; the one payoff formula, piecewise linear with at
most one kink, reads the price alone.  The value PDEs rely on
this: one operator serves every time step.  All coefficient callables accept
and broadcast numpy arrays, and each returns a fresh array, formed in place
with the arithmetic of its formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .errors import CoefficientBoundError, ConfigError

__all__ = [
    "AffineFactor",
    "AffineGamma",
    "Payoff",
    "Contract",
    "PdeGrid",
    "CoefficientSet",
    "ScenarioConfig",
    "ValidationReport",
    "validate",
]


# ---------------------------------------------------------------------------
# factor dynamics
# ---------------------------------------------------------------------------

def _clamped(x) -> np.ndarray:
    """max(x, 0) as a fresh float array (0-d for a scalar), to update in place."""
    x = np.asarray(x, dtype=float)
    return np.maximum(x, 0.0, out=np.empty_like(x))


@dataclass(frozen=True)
class AffineFactor:
    """Mean-reverting factor: b = kappa (xbar - x), with a = a_vol, or
    a = a_vol sqrt(max(x, 0)) when ``square_root`` is set.

    The Ornstein-Uhlenbeck factor of Vasicek (1977) and the square-root
    factor of Cox, Ingersoll & Ross (1985); (kappa, a_vol) = (0, 0), the
    default, is the frozen factor X_t = x0.
    """

    kappa: float = 0.0
    xbar: float = 0.0
    a_vol: float = 0.0
    square_root: bool = False

    def b(self, x):
        drift = self.xbar - np.asarray(x, dtype=float)
        drift *= self.kappa
        return drift

    def a(self, x):
        if not self.square_root:
            return np.full_like(np.asarray(x, dtype=float), self.a_vol)
        vol = _clamped(x)
        np.sqrt(vol, out=vol)
        vol *= self.a_vol
        return vol


# ---------------------------------------------------------------------------
# mortality intensity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineGamma:
    """gamma(x) = gamma0 + gamma1 max(x, 0).

    The factor is clamped at zero so the intensity stays nonnegative even
    when an OU factor path dips negative.  gamma1 = 0 is a constant
    intensity, (gamma0, gamma1) = (0, 1) the intensity max(x, 0).
    """

    gamma0: float
    gamma1: float

    def __call__(self, x):
        rate = _clamped(x)
        rate *= self.gamma1
        rate += self.gamma0
        return rate


# ---------------------------------------------------------------------------
# contract payoffs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Payoff:
    """level + slope s, plus max(s - strike, 0) when a strike is given.

    One formula for every payoff the contracts use: the zero payoff (the
    default), a constant ``level``, a linear ``slope``, the call (strike)
    and the put (level = strike, slope = -1, strike).  The terms are added
    in this order, which gives each of those the bits of its textbook
    formula (a put's K - s and s - K cancel exactly above K).
    """

    level: float = 0.0
    slope: float = 0.0
    strike: float | None = None

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        out = self.slope * s
        out += self.level
        if self.strike is not None:
            out += np.maximum(s - self.strike, 0.0)
        return out


@dataclass(frozen=True)
class Contract:
    """Endowment insurance: pays G(S_T) on survival, U(S_tau) at death.

    Zero recovery with nonzero G is a term insurance; zero G with nonzero U a
    pure endowment; both nonzero the combined endowment insurance.
    """

    maturity: float
    survival_payoff: Payoff
    death_recovery: Payoff = Payoff()

    def __post_init__(self):
        if self.maturity <= 0:
            raise ConfigError("contract maturity must be positive")

    def G(self, s):
        return self.survival_payoff(s)

    def U(self, s):
        return self.death_recovery(s)


# ---------------------------------------------------------------------------
# grids and scenario configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PdeGrid:
    n_s: int
    n_x: int
    s_max: float
    x_min: float
    x_max: float


@dataclass(frozen=True)
class CoefficientSet:
    """The coefficient quintuple (mu, sigma, b, a, gamma) plus rho: mu(x),
    sigma = ``sigma0``, b(x) and a(x) from ``factor`` and gamma(x).

    ``c_bound`` is the market-price-of-risk cap; evaluation raising on a
    breach keeps the square-integrability assumption behind the density
    process observable rather than silently violated.
    """

    m0: float
    m1: float
    sigma0: float
    factor: AffineFactor
    gamma: AffineGamma
    rho: float
    c_bound: float

    def mu(self, x):
        """m0 + m1 x."""
        drift = self.m1 * np.asarray(x, dtype=float)
        drift += self.m0
        return drift

    def martingale_factor_drift(self, x, a, kernel, work=None):
        """The martingale-measure factor drift b(x) - (a rho) kernel, for
        a = a(x) and the market price of risk ``kernel`` of x's shape,
        in b's fresh array; the correction is formed in ``work`` if given."""
        correction = np.multiply(a, self.rho, out=work)
        correction *= kernel
        drift = self.factor.b(x)
        drift -= correction
        return drift

    def market_price_of_risk(self, x):
        """mu(x)/sigma0, raising when the configured bound is breached."""
        ratio = self.mu(x) / self.sigma0
        if np.any(np.abs(ratio) > self.c_bound):
            worst = float(np.max(np.abs(ratio)))
            raise CoefficientBoundError(
                f"|mu/sigma| = {worst:.6g} exceeds c_bound = {self.c_bound:.6g}"
            )
        return ratio


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one hedging experiment."""

    coefficients: CoefficientSet
    contract: Contract
    s0: float
    x0: float
    n_steps: int
    n_paths: int
    n_particles: int
    pde_grid: PdeGrid
    seed: int = 0
    survival_floor: float = 1e-12

    @property
    def maturity(self) -> float:
        return self.contract.maturity

    def t_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.maturity, self.n_steps + 1)

    @property
    def dt(self) -> float:
        return self.maturity / self.n_steps


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "configuration: pass"
        return "configuration: FAIL\n" + "\n".join(f"  - {v}" for v in self.violations)


def _non_finite(obj, prefix: str = ""):
    """Dotted names of the non-finite floats in a dataclass and those nested
    in it (a NaN passes every comparison check of ``validate``)."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _non_finite(value, f"{prefix}{f.name}.")
        elif isinstance(value, float) and not np.isfinite(value):
            yield prefix + f.name


def validate(config: ScenarioConfig) -> ValidationReport:
    """Check a scenario against its structural constraints.

    Report-style: collects every violated constraint instead of raising on
    the first one.
    """
    rep = ValidationReport()
    c = config.coefficients
    g = config.pde_grid

    bad = ", ".join(_non_finite(config))
    if bad:
        rep.violations.append(f"every numeric parameter must be finite: {bad}")
    if config.n_steps < 2:
        rep.violations.append("n_steps must be >= 2")
    if config.n_paths < 1:
        rep.violations.append("n_paths must be >= 1")
    if config.n_particles < 1:
        rep.violations.append("n_particles must be >= 1")
    if config.survival_floor <= 0 or config.survival_floor >= 1:
        rep.violations.append("survival_floor must lie in (0, 1)")
    if config.s0 <= 0:
        rep.violations.append("s0 must be positive")
    if not g.s_max > config.s0:
        rep.violations.append("pde_grid.s_max must exceed s0")
    if not g.x_min < config.x0 < g.x_max:
        rep.violations.append("x0 must lie strictly inside (x_min, x_max)")
    if g.n_s < 3 or g.n_x < 2:
        rep.violations.append("pde grid must have n_s >= 3 and n_x >= 2")

    if not 0.0 <= c.rho <= 1.0:
        rep.violations.append("rho must lie in [0, 1]")
    if c.sigma0 <= 0:
        rep.violations.append("sigma must be strictly positive")
    if c.c_bound <= 0:
        rep.violations.append("c_bound must be positive")

    f = c.factor
    if (f.kappa, f.a_vol) != (0.0, 0.0):      # (0, 0) is the frozen factor
        if f.kappa <= 0:
            rep.violations.append("factor kappa must be positive")
        if f.a_vol <= 0:
            rep.violations.append("factor volatility must be positive")
    if f.square_root and 2.0 * f.kappa * f.xbar < f.a_vol**2:
        rep.violations.append(
            f"CIR Feller condition violated: 2*kappa*xbar = {2*f.kappa*f.xbar:.6g}"
            f" < a^2 = {f.a_vol**2:.6g}"
        )
    if c.gamma.gamma0 < 0 or c.gamma.gamma1 < 0:
        rep.violations.append("gamma0 and gamma1 must be nonnegative")

    if c.sigma0 > 0:
        # mu is affine in x, so |mu/sigma| peaks at an edge of the x grid
        ratio = np.abs(c.mu(np.array([g.x_min, g.x_max])) / c.sigma0)
        if np.any(ratio > c.c_bound):
            rep.violations.append(
                f"|mu/sigma| reaches {float(ratio.max()):.6g} on the configured"
                f" grid, above c_bound = {c.c_bound:.6g}"
            )

    return rep
