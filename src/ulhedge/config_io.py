"""Scenario configuration files.

The on-disk format is INI: one section per block, plain ``key = value``
pairs.  Unknown sections or keys are rejected so typos fail loudly.  See
README for the full schema and a worked example.
"""

from __future__ import annotations

import configparser
import hashlib

from .errors import ConfigError
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
)

_SECTIONS = {
    "run": {"seed", "n_steps", "n_paths", "n_particles", "s0", "x0",
            "c_bound", "survival_floor", "label"},
    "price": {"sigma", "m0", "m1", "rho"},
    "factor": {"family", "kappa", "xbar", "a"},
    "gamma": {"family", "gamma0", "gamma1"},
    "contract": {"maturity", "survival_payoff", "strike", "level", "slope",
                 "death_recovery", "recovery_strike", "recovery_level",
                 "recovery_slope"},
    "pde_grid": {"n_s", "n_x", "s_max", "x_min", "x_max"},
}

_REQUIRED_SECTIONS = ("run", "price", "factor", "gamma", "contract", "pde_grid")


def _payoff(kind: str, sec, prefix: str = ""):
    get = lambda key, fallback=None: sec.get(prefix + key, fallback)
    if kind == "constant":
        level = get("level")
        if level is None:
            raise ConfigError(f"constant payoff needs '{prefix}level'")
        return ConstantPayoff(float(level))
    if kind == "linear":
        slope = get("slope")
        if slope is None:
            raise ConfigError(f"linear payoff needs '{prefix}slope'")
        return LinearPayoff(float(slope))
    if kind == "call":
        strike = get("strike")
        if strike is None:
            raise ConfigError(f"call payoff needs '{prefix}strike'")
        return CallPayoff(float(strike))
    if kind == "put":
        strike = get("strike")
        if strike is None:
            raise ConfigError(f"put payoff needs '{prefix}strike'")
        return PutPayoff(float(strike))
    if kind == "zero":
        return ConstantPayoff(0.0)
    raise ConfigError(f"unknown payoff kind '{kind}'")


def _factor(sec):
    family = sec.get("family", "frozen").strip().lower()
    if family == "frozen":
        return FrozenFactor()
    try:
        kappa = float(sec["kappa"])
        xbar = float(sec["xbar"])
        a = float(sec["a"])
    except KeyError as exc:
        raise ConfigError(f"factor family '{family}' needs key {exc}") from exc
    if family == "ou":
        return OUFactor(kappa, xbar, a)
    if family == "cir":
        return CIRFactor(kappa, xbar, a)
    raise ConfigError(f"unknown factor family '{family}'")


def _gamma(sec):
    family = sec.get("family", "constant").strip().lower()
    if family == "constant":
        return ConstantGamma(float(sec.get("gamma0", "0")))
    if family == "linear":
        return LinearGamma()
    if family == "affine":
        return AffineGamma(float(sec.get("gamma0", "0")), float(sec.get("gamma1", "0")))
    raise ConfigError(f"unknown gamma family '{family}'")


def parse_config(text: str) -> ScenarioConfig:
    """Parse configuration text into a ScenarioConfig (no validation)."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
    for section in _REQUIRED_SECTIONS:
        if section not in parser:
            raise ConfigError(f"missing config section [{section}]")

    run = parser["run"]
    price = parser["price"]
    contract_sec = parser["contract"]
    grid_sec = parser["pde_grid"]

    try:
        coefficients = CoefficientSet(
            m0=float(price.get("m0", "0")),
            m1=float(price.get("m1", "0")),
            sigma0=float(price["sigma"]),
            factor=_factor(parser["factor"]),
            gamma=_gamma(parser["gamma"]),
            rho=float(price.get("rho", "0")),
            c_bound=float(run.get("c_bound", "10")),
        )
        survival = _payoff(contract_sec.get("survival_payoff", "zero").strip().lower(),
                           contract_sec)
        recovery = _payoff(contract_sec.get("death_recovery", "zero").strip().lower(),
                           contract_sec, prefix="recovery_")
        contract = Contract(
            maturity=float(contract_sec["maturity"]),
            survival_payoff=survival,
            death_recovery=recovery,
        )
        grid = PdeGrid(
            n_s=int(grid_sec["n_s"]),
            n_x=int(grid_sec["n_x"]),
            s_max=float(grid_sec["s_max"]),
            x_min=float(grid_sec["x_min"]),
            x_max=float(grid_sec["x_max"]),
        )
        config = ScenarioConfig(
            coefficients=coefficients,
            contract=contract,
            s0=float(run["s0"]),
            x0=float(run["x0"]),
            n_steps=int(run["n_steps"]),
            n_paths=int(run["n_paths"]),
            n_particles=int(run["n_particles"]),
            pde_grid=grid,
            seed=int(run.get("seed", "0")),
            survival_floor=float(run.get("survival_floor", "1e-12")),
            label=run.get("label", ""),
        )
    except ConfigError:
        raise
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    return config


def load_config(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return parse_config(text)


def config_hash(config: ScenarioConfig) -> str:
    """Short stable hash identifying a scenario (stamped into CSV headers)."""
    return hashlib.sha256(repr(config).encode()).hexdigest()[:12]
