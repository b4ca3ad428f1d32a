"""Scenario configuration files.

The on-disk format is INI: one section per block, plain ``key = value``
pairs.  ``_SCHEMA`` names, for each section and each family or payoff
spelling in it, the keys that spelling reads, with their defaults, and the
builder it calls; ``parse_config`` refuses every other key by name, so typos
and leftovers fail loudly.  Every payoff spelling builds the one ``Payoff``
(level + slope s, plus max(s - strike, 0) when it has a strike).
``scenario_record`` renders a parsed scenario as a nested dict of its
dataclass fields, a payoff as its level, slope and strike (null without a
kink); ``config_hash`` is taken of that record, and the run manifest writes
it as its ``config`` object.  See README for the schema.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import fields, is_dataclass

from .errors import ConfigError
from .models import (
    AffineFactor,
    AffineGamma,
    CoefficientSet,
    Contract,
    Payoff,
    PdeGrid,
    ScenarioConfig,
)

# Each spelling: ({key it reads: default, or the key's type when it is
# required}, builder called with those keys by name).
_FACTOR_KEYS = {"kappa": float, "xbar": float, "a": float}
_FACTORS = {
    "frozen": ({}, AffineFactor),
    "ou": (_FACTOR_KEYS, lambda kappa, xbar, a: AffineFactor(kappa, xbar, a)),
    "cir": (_FACTOR_KEYS,
            lambda kappa, xbar, a: AffineFactor(kappa, xbar, a, square_root=True)),
}
_GAMMAS = {
    "constant": ({"gamma0": 0.0}, lambda gamma0: AffineGamma(gamma0, 0.0)),
    "linear": ({}, lambda: AffineGamma(0.0, 1.0)),
    "affine": ({"gamma0": 0.0, "gamma1": 0.0}, AffineGamma),
}
_PAYOFFS = {
    "zero": ({}, Payoff),
    "constant": ({"level": float}, Payoff),
    "linear": ({"slope": float}, Payoff),
    "call": ({"strike": float}, Payoff),
    "put": ({"strike": float}, lambda strike: Payoff(level=strike, slope=-1.0, strike=strike)),
}


def _plain(keys, builder=dict):
    """A section's keys that no spelling picks."""
    return None, "", "", {None: (keys, builder)}


# section -> {key that picks a spelling, or None: (default spelling, what the
# spellings are called in messages, prefix of the keys they read, spellings)}
_SCHEMA = {
    "run": {None: _plain({"seed": 0, "n_steps": int, "n_paths": int, "n_particles": int,
                          "s0": float, "x0": float, "c_bound": 10.0,
                          "survival_floor": 1e-12})},
    "price": {None: _plain({"sigma": float, "m0": 0.0, "m1": 0.0, "rho": 0.0})},
    "factor": {"family": ("frozen", "factor family", "", _FACTORS)},
    "gamma": {"family": ("constant", "gamma family", "", _GAMMAS)},
    "contract": {None: _plain({"maturity": float}),
                 "survival_payoff": ("zero", "payoff kind", "", _PAYOFFS),
                 "death_recovery": ("zero", "payoff kind", "recovery_", _PAYOFFS)},
    "pde_grid": {None: _plain({"n_s": int, "n_x": int, "s_max": float, "x_min": float,
                               "x_max": float}, PdeGrid)},
}


def _section(parser, section: str) -> dict:
    """Each part of one section, built from the keys its spelling reads
    (keyed by the key that picks it); any other key of the section is refused."""
    if section not in parser:
        raise ConfigError(f"missing config section [{section}]")
    sec = parser[section]
    built, read, picked = {}, set(), []
    for pick, (default, noun, prefix, spellings) in _SCHEMA[section].items():
        spelling = pick and sec.get(pick, default).strip().lower()
        if spelling not in spellings:
            raise ConfigError(f"unknown {noun} '{spelling}'")
        if pick:
            read.add(pick)
            picked.append(f"{pick} '{spelling}'")
        keys, builder = spellings[spelling]
        values = {}
        for key, default_value in keys.items():
            name = prefix + key
            read.add(name)
            text = sec.get(name)
            required = isinstance(default_value, type)
            if text is None and required:
                who = f"{spelling} {noun.split()[0]}" if pick else f"[{section}]"
                raise ConfigError(f"{who} needs '{name}'")
            kind = default_value if required else type(default_value)
            try:
                values[key] = default_value if text is None else kind(text)
            except ValueError as exc:
                raise ConfigError(f"bad config value for '{name}' in [{section}]: "
                                  f"{exc}") from exc
        built[pick] = builder(**values)
    for key in sec:
        if key not in read:
            by = f" by {' or '.join(picked)}" if picked else ""
            raise ConfigError(f"key '{key}' in [{section}] is not read{by}")
    return built


def parse_config(text: str) -> ScenarioConfig:
    """Parse configuration text into a ScenarioConfig (no validation)."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
    parts = {section: _section(parser, section) for section in _SCHEMA}

    run, price, contract = parts["run"][None], parts["price"][None], parts["contract"]
    coefficients = CoefficientSet(
        m0=price["m0"], m1=price["m1"], sigma0=price["sigma"],
        factor=parts["factor"]["family"], gamma=parts["gamma"]["family"],
        rho=price["rho"], c_bound=run.pop("c_bound"))
    return ScenarioConfig(
        coefficients=coefficients,
        contract=Contract(contract[None]["maturity"], contract["survival_payoff"],
                          contract["death_recovery"]),
        pde_grid=parts["pde_grid"][None],
        **run,
    )


def load_config(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return parse_config(text)


def scenario_record(config) -> dict:
    """The scenario as a nested dict of its dataclass fields."""
    record = {}
    for f in fields(config):
        value = getattr(config, f.name)
        record[f.name] = scenario_record(value) if is_dataclass(value) else value
    return record


def config_hash(config: ScenarioConfig) -> str:
    """Short stable hash identifying a scenario (stamped into CSV headers): of
    its record in JSON, whose floats are written by ``repr`` and read back to
    the same bits."""
    record = json.dumps(scenario_record(config), sort_keys=True)
    return hashlib.sha256(record.encode()).hexdigest()[:12]
