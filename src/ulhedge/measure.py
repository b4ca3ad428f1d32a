"""Minimal martingale measure machinery.

The density of the minimal martingale measure is the stochastic exponential
of minus the market price of risk integrated against W.  Everything here is a
pure path-to-path transformation on a simulated bundle; expectations under
the new measure can be formed either by reweighting P paths with L or by
simulating driftless paths directly, and the tests cross-check the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .simulate import PathBundle

__all__ = ["DensityPath", "density_path", "girsanov_shift"]


@dataclass(frozen=True)
class DensityPath:
    """Doleans-Dade exponential L of -(mu/sigma) . W along each path."""

    log_L: np.ndarray    # (n_paths, n_steps+1), log_L_0 = 0

    @property
    def L(self) -> np.ndarray:      # exp(log_L), formed when read
        return np.exp(self.log_L)


def _kernel(bundle: PathBundle) -> np.ndarray:
    c = bundle.config.coefficients
    t_left = bundle.t_grid[:-1][None, :]
    return c.market_price_of_risk(t_left, bundle.S[:, :-1], bundle.X[:, :-1])


def density_path(bundle: PathBundle) -> DensityPath:
    """Density process of the minimal martingale measure along the bundle.

    For a P bundle, d log L = -(mu/sigma) dW - (mu/sigma)^2/2 dt, and
    E_P[L_t] = 1.  For a P_hat bundle the same object is accumulated in its
    Girsanov-shifted form d log L = -(mu/sigma) dW_hat + (mu/sigma)^2/2 dt
    (bundle.W is then the P_hat Brownian), which is what per-particle weights
    in the filter use.
    """
    kernel = _kernel(bundle)
    dW = np.diff(bundle.W, axis=1)
    half = 0.5 * kernel**2 * bundle.dt
    if bundle.measure == "P":
        dlog = -kernel * dW - half
    else:
        dlog = -kernel * dW + half
    log_L = np.zeros_like(bundle.W)
    np.cumsum(dlog, axis=1, out=log_L[:, 1:])
    if not np.all(np.isfinite(log_L)):
        bad = np.where(~np.isfinite(log_L).all(axis=1))[0]
        raise NumericalError(f"non-finite density on path row(s) {bad[:5].tolist()}")
    return DensityPath(log_L=log_L)


def girsanov_shift(bundle: PathBundle) -> np.ndarray:
    """W_hat = W + integral of mu/sigma dt along a P bundle."""
    if bundle.measure != "P":
        raise ValueError("girsanov_shift expects a bundle simulated under P")
    kernel = _kernel(bundle)
    W_hat = bundle.W.copy()
    W_hat[:, 1:] += np.cumsum(kernel * bundle.dt, axis=1)
    return W_hat

