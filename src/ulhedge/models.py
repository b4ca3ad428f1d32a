"""Model families, contracts and scenario configuration.

The market is a riskless account pinned at 1 plus one risky asset

    dS = S (mu(t, S, X) dt + sigma(t, S) dW),
    dX = b(t, X) dt + a(t, X) (rho dW + sqrt(1 - rho^2) dB),

with a policyholder whose death intensity is gamma(t, X).  The concrete
families below keep sigma constant and the drift affine in the factor,
``mu = m0 + m1 x``; the factor is frozen (no dynamics), Ornstein-Uhlenbeck or
square-root mean reverting.  All coefficient callables accept and broadcast
numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CoefficientBoundError, ConfigError

__all__ = [
    "FactorFamily",
    "FrozenFactor",
    "OUFactor",
    "CIRFactor",
    "GammaFamily",
    "ConstantGamma",
    "LinearGamma",
    "AffineGamma",
    "Payoff",
    "ConstantPayoff",
    "LinearPayoff",
    "CallPayoff",
    "PutPayoff",
    "ZeroRecovery",
    "Contract",
    "PdeGrid",
    "CoefficientSet",
    "ScenarioConfig",
    "ValidationReport",
    "validate",
]


# ---------------------------------------------------------------------------
# factor dynamics families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrozenFactor:
    """Degenerate factor: b = a = 0, so X_t = x0 for all t."""

    name = "frozen"

    def b(self, t, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def a(self, t, x):
        return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class OUFactor:
    """Mean-reverting Gaussian factor: b = kappa (xbar - x), a constant."""

    kappa: float
    xbar: float
    a_vol: float

    name = "ou"

    def b(self, t, x):
        return self.kappa * (self.xbar - np.asarray(x, dtype=float))

    def a(self, t, x):
        return np.full_like(np.asarray(x, dtype=float), self.a_vol)


@dataclass(frozen=True)
class CIRFactor:
    """Square-root factor: b = kappa (xbar - x), a = a_vol sqrt(max(x, 0))."""

    kappa: float
    xbar: float
    a_vol: float

    name = "cir"

    def b(self, t, x):
        return self.kappa * (self.xbar - np.asarray(x, dtype=float))

    def a(self, t, x):
        return self.a_vol * np.sqrt(np.maximum(np.asarray(x, dtype=float), 0.0))

    def feller_ok(self) -> bool:
        return 2.0 * self.kappa * self.xbar >= self.a_vol**2


FactorFamily = FrozenFactor | OUFactor | CIRFactor


# ---------------------------------------------------------------------------
# mortality intensity families
# ---------------------------------------------------------------------------
# The x-dependent families clamp the factor at zero so the intensity stays
# nonnegative even when an OU factor path dips negative.

@dataclass(frozen=True)
class ConstantGamma:
    gamma0: float

    name = "constant"

    def __call__(self, t, x):
        return np.full_like(np.asarray(x, dtype=float), self.gamma0)


@dataclass(frozen=True)
class LinearGamma:
    """gamma(t, x) = max(x, 0)."""

    name = "linear"

    def __call__(self, t, x):
        return np.maximum(np.asarray(x, dtype=float), 0.0)


@dataclass(frozen=True)
class AffineGamma:
    """gamma(t, x) = gamma0 + gamma1 max(x, 0)."""

    gamma0: float
    gamma1: float

    name = "affine"

    def __call__(self, t, x):
        return self.gamma0 + self.gamma1 * np.maximum(np.asarray(x, dtype=float), 0.0)


GammaFamily = ConstantGamma | LinearGamma | AffineGamma


# ---------------------------------------------------------------------------
# contract payoffs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantPayoff:
    level: float

    name = "constant"

    def __call__(self, t, s):
        return np.full_like(np.asarray(s, dtype=float), self.level)


@dataclass(frozen=True)
class LinearPayoff:
    slope: float

    name = "linear"

    def __call__(self, t, s):
        return self.slope * np.asarray(s, dtype=float)


@dataclass(frozen=True)
class CallPayoff:
    strike: float

    name = "call"

    def __call__(self, t, s):
        return np.maximum(np.asarray(s, dtype=float) - self.strike, 0.0)


@dataclass(frozen=True)
class PutPayoff:
    strike: float

    name = "put"

    def __call__(self, t, s):
        return np.maximum(self.strike - np.asarray(s, dtype=float), 0.0)


ZeroRecovery = ConstantPayoff(0.0)

Payoff = ConstantPayoff | LinearPayoff | CallPayoff | PutPayoff


@dataclass(frozen=True)
class Contract:
    """Endowment insurance: pays G(T, S_T) on survival, U(t, S_t) at death.

    Zero recovery with nonzero G is a term insurance; zero G with nonzero U a
    pure endowment; both nonzero the combined endowment insurance.
    """

    maturity: float
    survival_payoff: Payoff
    death_recovery: Payoff = ZeroRecovery

    def __post_init__(self):
        if self.maturity <= 0:
            raise ConfigError("contract maturity must be positive")

    def G(self, s):
        return self.survival_payoff(self.maturity, s)

    def U(self, t, s):
        return self.death_recovery(t, s)


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
    """The coefficient quintuple (mu, sigma, b, a, gamma) plus rho.

    ``c_bound`` is the market-price-of-risk cap; evaluation raising on a
    breach keeps the square-integrability assumption behind the density
    process observable rather than silently violated.
    """

    m0: float
    m1: float
    sigma0: float
    factor: FactorFamily
    gamma: GammaFamily
    rho: float
    c_bound: float

    def mu(self, t, s, x):
        return self.m0 + self.m1 * np.asarray(x, dtype=float) + 0.0 * np.asarray(s, dtype=float)

    def sigma(self, t, s):
        return np.full_like(np.asarray(s, dtype=float), self.sigma0)

    def b(self, t, x):
        return self.factor.b(t, x)

    def a(self, t, x):
        return self.factor.a(t, x)

    def gamma_fn(self, t, x):
        return self.gamma(t, x)

    def market_price_of_risk(self, t, s, x, check: bool = True):
        """mu/sigma, raising when the configured bound is breached."""
        ratio = self.mu(t, s, x) / self.sigma(t, s)
        if check and np.any(np.abs(ratio) > self.c_bound):
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
    label: str = ""

    @property
    def maturity(self) -> float:
        return self.contract.maturity

    def t_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.maturity, self.n_steps + 1)

    @property
    def dt(self) -> float:
        return self.maturity / self.n_steps

    def with_updates(self, **kw) -> "ScenarioConfig":
        from dataclasses import replace

        return replace(self, **kw)


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


def _sample_lattice(config: ScenarioConfig):
    n = 9
    g = config.pde_grid
    t = np.linspace(0.0, config.maturity, n)
    s = np.linspace(g.s_max / n, g.s_max, n)
    x = np.linspace(g.x_min, g.x_max, n)
    return np.meshgrid(t, s, x, indexing="ij")


def validate(config: ScenarioConfig) -> ValidationReport:
    """Check a scenario against its structural constraints.

    Report-style: collects every violated constraint instead of raising on
    the first one.
    """
    rep = ValidationReport()
    c = config.coefficients
    g = config.pde_grid

    if config.n_steps < 2:
        rep.violations.append("n_steps must be >= 2")
    if config.n_paths < 1:
        rep.violations.append("n_paths must be >= 1")
    if config.n_particles < 1:
        rep.violations.append("n_particles must be >= 1")
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

    if isinstance(c.factor, (OUFactor, CIRFactor)):
        if c.factor.kappa <= 0:
            rep.violations.append("factor kappa must be positive")
        if c.factor.a_vol <= 0:
            rep.violations.append("factor volatility must be positive")
    if isinstance(c.factor, CIRFactor) and not c.factor.feller_ok():
        f = c.factor
        rep.violations.append(
            f"CIR Feller condition violated: 2*kappa*xbar = {2*f.kappa*f.xbar:.6g}"
            f" < a^2 = {f.a_vol**2:.6g}"
        )
    if isinstance(c.gamma, ConstantGamma) and c.gamma.gamma0 < 0:
        rep.violations.append("gamma0 must be nonnegative")
    if isinstance(c.gamma, AffineGamma) and (c.gamma.gamma0 < 0 or c.gamma.gamma1 < 0):
        rep.violations.append("gamma0 and gamma1 must be nonnegative")

    if c.sigma0 > 0:
        t, s, x = _sample_lattice(config)
        sig = c.sigma(t, s)
        if np.any(sig <= 0):
            rep.violations.append("sigma must be strictly positive on the grid")
        else:
            ratio = np.abs(c.mu(t, s, x) / sig)
            if np.any(ratio > c.c_bound):
                rep.violations.append(
                    f"|mu/sigma| reaches {float(ratio.max()):.6g} on the configured"
                    f" grid, above c_bound = {c.c_bound:.6g}"
                )
        if np.any(c.gamma_fn(t, x) < 0):
            rep.violations.append("gamma must be nonnegative on the grid")

    return rep
