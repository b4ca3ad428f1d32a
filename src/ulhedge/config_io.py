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
    AffineFactor,
    AffineGamma,
    CallPayoff,
    CoefficientSet,
    ConstantPayoff,
    Contract,
    LinearPayoff,
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


# payoff kind -> (family, the one key it reads)
_PAYOFFS = {
    "constant": (ConstantPayoff, "level"),
    "linear": (LinearPayoff, "slope"),
    "call": (CallPayoff, "strike"),
    "put": (PutPayoff, "strike"),
}


def _payoff(kind: str, sec, prefix: str = ""):
    if kind == "zero":
        return ConstantPayoff(0.0)
    if kind not in _PAYOFFS:
        raise ConfigError(f"unknown payoff kind '{kind}'")
    family, key = _PAYOFFS[kind]
    value = sec.get(prefix + key)
    if value is None:
        raise ConfigError(f"{kind} payoff needs '{prefix}{key}'")
    return family(float(value))


def _factor(sec):
    """The factor: ``frozen`` reads no key, ``ou`` and ``cir`` (the square
    root) read kappa, xbar and a."""
    family = sec.get("family", "frozen").strip().lower()
    if family == "frozen":
        return AffineFactor()
    if family not in ("ou", "cir"):
        raise ConfigError(f"unknown factor family '{family}'")
    try:
        return AffineFactor(float(sec["kappa"]), float(sec["xbar"]), float(sec["a"]),
                            square_root=family == "cir")
    except KeyError as exc:
        raise ConfigError(f"factor family '{family}' needs key {exc}") from exc


def _gamma(sec):
    """The intensity: ``constant`` reads gamma0 (gamma1 = 0), ``linear`` is
    max(x, 0) and ``affine`` reads both coefficients."""
    family = sec.get("family", "constant").strip().lower()
    if family == "linear":
        return AffineGamma(0.0, 1.0)
    if family not in ("constant", "affine"):
        raise ConfigError(f"unknown gamma family '{family}'")
    gamma1 = sec.get("gamma1", "0") if family == "affine" else "0"
    return AffineGamma(float(sec.get("gamma0", "0")), float(gamma1))


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
