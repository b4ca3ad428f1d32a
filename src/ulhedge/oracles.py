"""Reference values computed by routes independent of the main solvers.

These are the cross-checks the verification suite tests against: lognormal
closed forms for the driftless price, the affine (Riccati ODE) transform for
mean-reverting hazards, and the Ornstein-Uhlenbeck mean.  None of them share
code with the finite-difference solvers, the particle filter or the path
simulator.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import ndtr

from .models import (
    AffineGamma,
    CIRFactor,
    ConstantGamma,
    FactorFamily,
    FrozenFactor,
    GammaFamily,
    LinearGamma,
    OUFactor,
)

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


def _affine_parameters(factor: FactorFamily, gamma: GammaFamily):
    """Map (factor, gamma) families onto dX = kappa(xbar - x)dt + sqrt(va + vb x)dB,
    gamma(x) = c0 + c1 x.  Valid as long as paths stay where the max(x, 0)
    clamps are inactive (x >= 0)."""
    if isinstance(factor, FrozenFactor):
        kappa, xbar, va, vb = 0.0, 0.0, 0.0, 0.0
    elif isinstance(factor, OUFactor):
        kappa, xbar, va, vb = factor.kappa, factor.xbar, factor.a_vol**2, 0.0
    elif isinstance(factor, CIRFactor):
        kappa, xbar, va, vb = factor.kappa, factor.xbar, 0.0, factor.a_vol**2
    else:
        raise TypeError(f"unsupported factor family {factor!r}")
    if isinstance(gamma, ConstantGamma):
        c0, c1 = gamma.gamma0, 0.0
    elif isinstance(gamma, LinearGamma):
        c0, c1 = 0.0, 1.0
    elif isinstance(gamma, AffineGamma):
        c0, c1 = gamma.gamma0, gamma.gamma1
    else:
        raise TypeError(f"unsupported gamma family {gamma!r}")
    return kappa, xbar, va, vb, c0, c1


def _riccati_solution(factor, gamma, horizon: float):
    kappa, xbar, va, vb, c0, c1 = _affine_parameters(factor, gamma)

    def rhs(_t, y):
        _, b = y
        db = -kappa * b + 0.5 * vb * b * b - c1
        da = kappa * xbar * b + 0.5 * va * b * b - c0
        return (da, db)

    sol = solve_ivp(rhs, (0.0, horizon), (0.0, 0.0), dense_output=True,
                    rtol=1e-10, atol=1e-12, max_step=horizon / 50)
    if not sol.success:
        raise RuntimeError(f"Riccati integration failed: {sol.message}")
    return sol, rhs


def affine_survival(factor: FactorFamily, gamma: GammaFamily, x0: float, t):
    """E[exp(-int_0^t gamma(X_u) du)] for the affine families.

    Degenerate (frozen) factors reduce to exp(-gamma(x0) t) exactly.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if isinstance(factor, FrozenFactor):
        out = np.exp(-float(gamma(0.0, x0)) * t)
    else:
        sol, _ = _riccati_solution(factor, gamma, float(t.max()) if t.max() > 0 else 1.0)
        a, b = sol.sol(t)
        out = np.exp(a + b * x0)
    return out if out.shape != (1,) else float(out[0])


def affine_hazard_rate(factor: FactorFamily, gamma: GammaFamily, x0: float, t):
    """-d/dt log E[exp(-int_0^t gamma(X_u) du)], the population hazard rate.

    Equals E[gamma(X_t) Y_t] / E[Y_t]; evaluated from the Riccati state
    derivatives rather than by differencing.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if isinstance(factor, FrozenFactor):
        out = np.full_like(t, float(gamma(0.0, x0)))
    else:
        sol, rhs = _riccati_solution(factor, gamma, float(t.max()) if t.max() > 0 else 1.0)
        states = sol.sol(t)
        out = np.empty_like(t)
        for i in range(t.size):
            da, db = rhs(t[i], states[:, i])
            out[i] = -(da + db * x0)
    return out if out.shape != (1,) else float(out[0])
