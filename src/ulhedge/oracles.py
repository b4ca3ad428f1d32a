"""Reference values computed by routes independent of the main solvers.

These are the cross-checks the verification suite tests against: lognormal
closed forms for the driftless price, the closed-form affine transform for
the intensity gamma0 + gamma1 x of an ``AffineFactor`` (Vasicek for a
constant volatility, Cox-Ingersoll-Ross for the square root, exp(-gamma(x0) t)
for the frozen factor), and the Ornstein-Uhlenbeck mean.  None of them share
code with the finite-difference solvers, the particle filter or the path
simulator.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

from .models import AffineFactor, AffineGamma

__all__ = [
    "black_scholes_call",
    "black_scholes_delta",
    "ou_mean",
    "affine_survival",
    "affine_hazard_rate",
]


def black_scholes_call(s, k: float, sigma: float, tau):
    """Zero-rate Black-Scholes call price at time-to-maturity tau."""
    s = np.asarray(s, dtype=float)
    tau = np.asarray(tau, dtype=float)
    intrinsic = np.maximum(s - k, 0.0)
    vol = sigma * np.sqrt(np.maximum(tau, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = (np.log(s / k) + 0.5 * vol**2) / vol
    price = np.where(vol > 0, s * ndtr(d1) - k * ndtr(d1 - vol), intrinsic)
    return price if price.shape else float(price)


def black_scholes_delta(s, k: float, sigma: float, tau):
    s = np.asarray(s, dtype=float)
    tau = np.asarray(tau, dtype=float)
    vol = sigma * np.sqrt(np.maximum(tau, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = (np.log(s / k) + 0.5 * vol**2) / vol
    delta = np.where(vol > 0, ndtr(d1), (s > k).astype(float))
    return delta if delta.shape else float(delta)


def ou_mean(x0: float, kappa: float, xbar: float, t):
    """E[X_t] for dX = kappa (xbar - X) dt + a dB."""
    t = np.asarray(t, dtype=float)
    return xbar + (x0 - xbar) * np.exp(-kappa * t)


def _riccati_state(factor, gamma, t):
    """Closed-form solution (A, B) of the affine transform's Riccati system

        B' = -kappa B + vb B^2 / 2 - c1,   A' = kappa xbar B + va B^2 / 2 - c0,

    A(0) = B(0) = 0, so that E[exp(-int_0^t gamma(X_u) du)] = exp(A + B x0);
    also returns the map B -> (A', B').  For dX = kappa(xbar - X)dt +
    sqrt(va + vb X)dB and (c0, c1) = (gamma0, gamma1), valid while x >= 0
    keeps the max(x, 0) clamps inactive: a_vol^2 is vb for the square root,
    the bond-price formula of Cox, Ingersoll & Ross (Econometrica 53, 1985)
    for the intensity c1 X, else va, that of Vasicek (J. Financial Economics
    5, 1977)."""
    kappa, xbar, c0, c1 = factor.kappa, factor.xbar, gamma.gamma0, gamma.gamma1
    va, vb = (0.0, factor.a_vol**2) if factor.square_root else (factor.a_vol**2, 0.0)

    def rhs(b):      # the system is autonomous and A enters neither derivative
        return kappa * xbar * b + 0.5 * va * b * b - c0, -kappa * b + 0.5 * vb * b * b - c1

    if vb > 0.0:
        h = np.sqrt(kappa**2 + 2.0 * vb * c1)
        grown = -np.expm1(-h * t)                      # 1 - exp(-h t)
        denom = (h + kappa) * grown + 2.0 * h * np.exp(-h * t)
        b = -2.0 * c1 * grown / denom
        a = (2.0 * kappa * xbar / vb) * (0.5 * (kappa - h) * t - np.log(denom / (2.0 * h)))
    else:
        phi = -np.expm1(-kappa * t) / kappa            # (1 - exp(-kappa t)) / kappa
        b = -c1 * phi
        a = -c1 * xbar * (t - phi) + 0.5 * va * c1**2 * ((t - phi) / kappa**2
                                                          - phi**2 / (2.0 * kappa))
    return a - c0 * t, b, rhs


def affine_survival(factor: AffineFactor, gamma: AffineGamma, x0: float, t):
    """E[exp(-int_0^t gamma(X_u) du)] for the affine intensity.

    The frozen factor (kappa = 0) reduces to exp(-gamma(x0) t) exactly.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if factor.kappa == 0:
        out = np.exp(-float(gamma(x0)) * t)
    else:
        a, b, _ = _riccati_state(factor, gamma, t)
        out = np.exp(a + b * x0)
    return out if out.shape != (1,) else float(out[0])


def affine_hazard_rate(factor: AffineFactor, gamma: AffineGamma, x0: float, t):
    """-d/dt log E[exp(-int_0^t gamma(X_u) du)], the population hazard rate.

    Equals E[gamma(X_t) Y_t] / E[Y_t]; evaluated from the Riccati right-hand
    side at the closed-form state rather than by differencing.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if factor.kappa == 0:
        out = np.full_like(t, float(gamma(x0)))
    else:
        a, b, rhs = _riccati_state(factor, gamma, t)
        da, db = rhs(b)
        out = -(da + db * x0)
    return out if out.shape != (1,) else float(out[0])
