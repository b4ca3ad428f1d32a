import numpy as np
import pytest

import ulhedge as uh


def make_config(
    m0=0.0, m1=0.0, sigma=0.2, factor=None, gamma=None, rho=0.0, c_bound=5.0,
    maturity=1.0, survival=None, recovery=None,
    s0=1.0, x0=0.05, n_steps=100, n_paths=1000, n_particles=200,
    grid=None, seed=1234,
):
    """One-stop scenario builder with plain defaults for the unit tests."""
    factor = factor if factor is not None else uh.AffineFactor()
    gamma = gamma if gamma is not None else uh.AffineGamma(0.0, 0.0)
    survival = survival if survival is not None else uh.Payoff(strike=1.0)
    recovery = recovery if recovery is not None else uh.Payoff()
    grid = grid if grid is not None else uh.PdeGrid(n_s=200, n_x=40, s_max=5.0,
                                                    x_min=-0.5, x_max=0.6)
    return uh.ScenarioConfig(
        coefficients=uh.CoefficientSet(m0=m0, m1=m1, sigma0=sigma, factor=factor,
                                       gamma=gamma, rho=rho, c_bound=c_bound),
        contract=uh.Contract(maturity, survival, recovery),
        s0=s0, x0=x0, n_steps=n_steps, n_paths=n_paths, n_particles=n_particles,
        pde_grid=grid, seed=seed,
    )


@pytest.fixture
def basic_config():
    return make_config()


def assert_within_se(value, target, se, factor=3.0, label=""):
    se = max(float(se), 1e-300)
    z = abs(value - target) / se
    assert z <= factor, f"{label}: {value} vs {target} (z = {z:.2f}, se = {se:.3g})"


def rng_matrix(seed, shape):
    return np.random.default_rng(seed).standard_normal(shape)
