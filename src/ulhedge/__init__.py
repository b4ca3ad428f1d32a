"""Locally risk-minimizing hedging of unit-linked life insurance contracts.

The package simulates a market with an unobservable stochastic factor driving
both the risky-asset drift and the policyholder's mortality intensity, prices
endowment insurance contracts under the minimal martingale measure, filters
the hidden factor from the observed price path, and backtests the resulting
full- and partial-information hedging strategies.
"""

from .config_io import config_hash, load_config, parse_config
from .errors import (
    CoefficientBoundError,
    ConfigError,
    DomainExcursionError,
    NumericalError,
    SurvivalFloorError,
)
from .models import (
    AffineGamma,
    CallPayoff,
    CIRFactor,
    CoefficientSet,
    ConstantGamma,
    ConstantPayoff,
    Contract,
    FrozenFactor,
    LinearGamma,
    LinearPayoff,
    OUFactor,
    PdeGrid,
    PutPayoff,
    ScenarioConfig,
    ValidationReport,
    ZeroRecovery,
    validate,
)
from .simulate import PathBundle, simulate_paths

__version__ = "0.1.0"
