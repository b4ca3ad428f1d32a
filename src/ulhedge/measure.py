"""Minimal martingale measure machinery.

The density of the minimal martingale measure is the stochastic exponential
of minus the market price of risk integrated against W, whose log increments
(``log_density_increments``) the bundles and the filter's particles share.
Expectations under the new measure can be formed either by reweighting P
paths with L or by simulating driftless paths directly; the tests do both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .simulate import PathBundle, observed_increments

__all__ = ["DensityPath", "density_path", "log_density_increments"]


@dataclass(frozen=True)
class DensityPath:
    """Doleans-Dade exponential L of -(mu/sigma) . W along each path."""

    log_L: np.ndarray    # (n_paths, n_steps+1), log_L_0 = 0

    @property
    def L(self) -> np.ndarray:      # exp(log_L), formed when read
        return np.exp(self.log_L)


def log_density_increments(kernel, dW_hat, dt: float, work=None):
    """The increments kernel^2 dt/2 - kernel dW_hat of log L along the
    martingale-measure increments dW_hat (dW + kernel dt under P), formed as
    kernel (kernel dt/2 - dW_hat) in ``work`` if given (not an input)."""
    out = np.multiply(kernel, 0.5 * dt, out=work)
    out -= dW_hat
    out *= kernel
    return out


def density_path(bundle: PathBundle) -> DensityPath:
    """Density process of the minimal martingale measure along the bundle.

    Whichever measure simulated the bundle, the increments are read off its
    prices (``simulate.observed_increments``); E_P[L_t] = 1 on a P bundle.
    """
    c, S = bundle.config, bundle.S
    kernel = c.coefficients.market_price_of_risk(bundle.X[:, :-1])
    dlog = log_density_increments(kernel, observed_increments(c, S), c.dt)
    log_L = np.zeros_like(bundle.S)
    np.cumsum(dlog, axis=1, out=log_L[:, 1:])
    if not np.all(np.isfinite(log_L)):
        bad = np.where(~np.isfinite(log_L).all(axis=1))[0]
        raise NumericalError(f"non-finite density on path row(s) {bad[:5].tolist()}")
    return DensityPath(log_L=log_L)
