import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ulhedge as uh
from ulhedge.errors import CoefficientBoundError

from conftest import make_config


class TestValidation:
    def test_basic_config_passes(self):
        cfg = make_config(m0=0.05, sigma=0.2, c_bound=1.0)
        rep = uh.validate(cfg)
        assert rep.ok, rep.violations

    def test_zero_sigma_fails_with_message(self):
        cfg = make_config(sigma=0.0)
        rep = uh.validate(cfg)
        assert not rep.ok
        assert any("sigma must be strictly positive" in v for v in rep.violations)

    def test_cir_feller_violation(self):
        # 2 * 1 * 0.02 = 0.04 < 0.5^2 = 0.25; only the square root is checked
        for square_root in (True, False):
            cfg = make_config(factor=uh.AffineFactor(1.0, 0.02, 0.5, square_root),
                              gamma=uh.AffineGamma(0.0, 1.0),
                              grid=uh.PdeGrid(200, 40, 5.0, -0.1, 0.6))
            rep = uh.validate(cfg)
            assert rep.ok is not square_root
            assert any("Feller" in v for v in rep.violations) is square_root

    @pytest.mark.parametrize("square_root", [False, True], ids=["ou", "cir"])
    @pytest.mark.parametrize("kappa, a_vol, message", [
        (0.0, 0.2, "factor kappa must be positive"),
        (-1.0, 0.2, "factor kappa must be positive"),
        (1.0, 0.0, "factor volatility must be positive"),
        (1.0, -0.2, "factor volatility must be positive"),
    ])
    def test_factor_needs_positive_kappa_and_volatility(self, square_root, kappa, a_vol,
                                                        message):
        factor = uh.AffineFactor(kappa, 0.05, a_vol, square_root=square_root)
        assert message in uh.validate(make_config(factor=factor)).violations

    @pytest.mark.parametrize("square_root", [False, True], ids=["ou", "cir"])
    def test_zero_kappa_and_volatility_is_the_frozen_factor(self, square_root):
        rep = uh.validate(make_config(factor=uh.AffineFactor(0.0, 0.05, 0.0, square_root)))
        assert rep.ok, rep.violations

    @pytest.mark.parametrize("floor", [2.0, 1.0, 0.0, -1.0])
    def test_survival_floor_outside_unit_interval_fails(self, floor):
        rep = uh.validate(dataclasses.replace(make_config(), survival_floor=floor))
        assert rep.violations == ["survival_floor must lie in (0, 1)"]

    def test_count_violations(self):
        cfg = dataclasses.replace(make_config(), n_paths=0, n_steps=1)
        rep = uh.validate(cfg)
        assert any("n_paths must be >= 1" in v for v in rep.violations)
        assert any("n_steps must be >= 2" in v for v in rep.violations)

    @pytest.mark.parametrize("gamma0, gamma1", [(-0.01, 0.0), (0.0, -1.0), (-0.01, -1.0)])
    def test_negative_gamma_coefficient_is_one_violation(self, gamma0, gamma1):
        rep = uh.validate(make_config(gamma=uh.AffineGamma(gamma0, gamma1)))
        assert [v for v in rep.violations if "gamma" in v] == [
            "gamma0 and gamma1 must be nonnegative"]

    @pytest.mark.parametrize("field, cfg", [
        ("coefficients.c_bound", make_config(c_bound=np.nan)),
        ("survival_floor", dataclasses.replace(make_config(), survival_floor=np.nan)),
        ("coefficients.gamma.gamma0", make_config(gamma=uh.AffineGamma(np.nan, 0.0))),
        ("coefficients.sigma0", make_config(sigma=np.nan)),
        ("coefficients.sigma0", make_config(sigma=np.inf)),
        ("coefficients.gamma.gamma1", make_config(gamma=uh.AffineGamma(0.0, np.inf))),
    ])
    def test_non_finite_parameter_fails(self, field, cfg):
        # each of these passed the checks written as comparisons
        rep = uh.validate(cfg)
        assert f"every numeric parameter must be finite: {field}" in rep.violations

    def test_mu_bound_checked_on_grid(self):
        cfg = make_config(m0=5.0, sigma=0.2, c_bound=1.0)
        rep = uh.validate(cfg)
        assert any("c_bound" in v for v in rep.violations)

    @pytest.mark.parametrize("m0, m1, edge, other", [
        (0.0, 1.8, "x_max", "x_min"),     # |mu/sigma| 5.4 at x_max, 4.5 at x_min
        (-0.6, 1.0, "x_min", "x_max"),    # |mu/sigma| 5.5 at x_min, 0 at x_max
    ])
    def test_mu_bound_breached_at_one_grid_edge(self, m0, m1, edge, other):
        # mu is affine in x: the two edges of the x grid are where |mu/sigma| peaks
        cfg = make_config(m0=m0, m1=m1, sigma=0.2, c_bound=5.0)
        c, g = cfg.coefficients, cfg.pde_grid
        worst = abs(float(c.mu(getattr(g, edge)))) / c.sigma0
        assert worst > c.c_bound >= abs(float(c.mu(getattr(g, other)))) / c.sigma0
        assert (f"|mu/sigma| reaches {worst:.6g} on the configured grid,"
                f" above c_bound = 5") in uh.validate(cfg).violations


class TestEvaluateCoefficients:
    """Point evaluation of the ``CoefficientSet`` methods."""

    def test_constant_gamma(self):
        c = make_config(gamma=uh.AffineGamma(0.05, 0.0)).coefficients
        for x in (0.0, -3.0, 7.0):
            assert float(c.gamma(x)) == 0.05

    def test_linear_gamma_clamps_negative_factor(self):
        c = make_config(gamma=uh.AffineGamma(0.0, 1.0)).coefficients
        assert float(c.gamma(-1.0)) == 0.0

    def test_constant_and_linear_forms_are_bit_identical_to_their_formulas(self):
        # the folded intensity returns the bits of full_like(x, gamma0) with
        # gamma1 = 0 and of maximum(x, 0) with (gamma0, gamma1) = (0, 1)
        rng = np.random.default_rng(20)
        edges = [0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324, 2.225e-308, -2.225e-308,
                 1e-310, -1e-310, np.finfo(float).max, -np.finfo(float).max]
        x = np.concatenate([rng.standard_normal(100_000) * 10.0 ** rng.integers(-320, 300, 100_000),
                            edges])
        bits = lambda a: np.asarray(a).view(np.uint64)
        for gamma0 in (0.0, 0.05, 5e-324, 1e300):
            assert np.array_equal(bits(uh.AffineGamma(gamma0, 0.0)(x)),
                                  bits(np.full_like(x, gamma0)))
        assert np.array_equal(bits(uh.AffineGamma(0.0, 1.0)(x)),
                              bits(np.maximum(x, 0.0)))

    def test_ou_drift_zero_at_mean(self):
        c = make_config(factor=uh.AffineFactor(kappa=2.0, xbar=0.1, a_vol=0.2)).coefficients
        assert float(c.factor.b(0.1)) == 0.0

    def test_bound_breach_raises(self):
        c = make_config(m0=0.0, m1=1.0, sigma=0.2, c_bound=1.0).coefficients
        with pytest.raises(CoefficientBoundError):
            c.market_price_of_risk(10.0)

    def test_nonpositive_price_rejected(self):
        # a price enters the model only through s0; the PDE grids start at s = 0
        for s0 in (0.0, -1.0):
            rep = uh.validate(make_config(s0=s0))
            assert any("s0 must be positive" in v for v in rep.violations)

    def test_validate_pass_implies_evaluation_succeeds(self):
        cfg = make_config(m0=0.05, m1=0.3,
                          factor=uh.AffineFactor(1.0, 0.05, 0.2),
                          gamma=uh.AffineGamma(0.01, 0.5))
        assert uh.validate(cfg).ok
        g, c = cfg.pde_grid, cfg.coefficients
        x = np.linspace(g.x_min, g.x_max, 5)
        c.market_price_of_risk(x)
        for value in (c.mu(x), c.factor.b(x), c.factor.a(x), c.gamma(x)):
            assert np.all(np.isfinite(value))


@st.composite
def factor_families(draw):
    kind = draw(st.sampled_from(["frozen", "ou", "cir"]))
    if kind == "frozen":
        return uh.AffineFactor()
    kappa = draw(st.floats(0.1, 5.0))
    xbar = draw(st.floats(0.01, 0.5))
    if kind == "ou":
        return uh.AffineFactor(kappa, xbar, draw(st.floats(0.01, 1.0)))
    a = draw(st.floats(0.01, np.sqrt(2 * kappa * xbar)))
    return uh.AffineFactor(kappa, xbar, a, square_root=True)


@st.composite
def gamma_families(draw):
    kind = draw(st.sampled_from(["constant", "linear", "affine"]))
    if kind == "constant":
        return uh.AffineGamma(draw(st.floats(0.0, 1.0)), 0.0)
    if kind == "linear":
        return uh.AffineGamma(0.0, 1.0)
    return uh.AffineGamma(draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 2.0)))


class TestFamilyProperties:
    @given(gamma=gamma_families(),
           x=st.floats(-10.0, 10.0))
    def test_gamma_nonnegative_everywhere(self, gamma, x):
        assert float(gamma(x)) >= 0.0

    @given(factor=factor_families(), gamma=gamma_families(), x=st.floats(-5.0, 5.0))
    @settings(max_examples=60)
    def test_evaluation_deterministic(self, factor, gamma, x):
        c = make_config(m0=0.01, m1=0.1, factor=factor, gamma=gamma, c_bound=1e6).coefficients

        def point():
            return (float(c.mu(x)), float(c.factor.b(x)), float(c.factor.a(x)),
                    float(c.gamma(x)), float(c.market_price_of_risk(x)))

        assert point() == point()

    @given(factor=factor_families(), gamma=gamma_families(), x=st.floats(-5.0, 5.0))
    @settings(max_examples=60)
    def test_continuity_probe_in_x(self, factor, gamma, x):
        # difference quotient stays bounded as the probe step shrinks
        cfg = make_config(m0=0.01, m1=0.1, factor=factor, gamma=gamma, c_bound=1e6)
        c = cfg.coefficients
        for fn in (lambda z: float(c.factor.b(z)), lambda z: float(c.factor.a(z)),
                   lambda z: float(c.gamma(z))):
            coarse = abs(fn(x + 1e-3) - fn(x))
            fine = abs(fn(x + 1e-6) - fn(x))
            assert fine <= coarse + 1e-9

    def test_vectorized_evaluation_broadcasts(self):
        cfg = make_config(m1=0.5, factor=uh.AffineFactor(1.0, 0.05, 0.2, square_root=True),
                          gamma=uh.AffineGamma(0.01, 1.0))
        c = cfg.coefficients
        x = np.linspace(-0.2, 0.4, 7)
        assert c.mu(x).shape == (7,)
        assert c.gamma(x).min() >= 0.01


class TestContract:
    def test_payoff_kinds(self):
        s = np.array([0.0, 0.5, 1.0, 2.0])
        assert np.array_equal(uh.Payoff(strike=1.0)(s), [0.0, 0.0, 0.0, 1.0])
        put = uh.Payoff(level=1.0, slope=-1.0, strike=1.0)
        assert np.array_equal(put(s), [1.0, 0.5, 0.0, 0.0])
        assert np.array_equal(uh.Payoff(slope=0.3)(s), 0.3 * s)
        assert np.array_equal(uh.Payoff(level=2.0)(s), np.full(4, 2.0))
        assert np.array_equal(uh.Payoff()(s), np.zeros(4))

    def test_maturity_positive(self):
        with pytest.raises(uh.ConfigError):
            uh.Contract(0.0, uh.Payoff(strike=1.0))

    def test_contract_taxonomy(self):
        # the death benefit defaults to the zero payoff
        term = uh.Contract(1.0, uh.Payoff(strike=1.0))
        assert term.death_recovery == uh.Payoff()
        assert np.array_equal(term.U(np.array([0.0, 1.0, 3.0])), np.zeros(3))
        endow = uh.Contract(1.0, uh.Payoff(), uh.Payoff(slope=0.2))
        assert np.array_equal(endow.G(np.array([0.0, 3.0])), np.zeros(2))
        assert np.array_equal(endow.U(np.array([3.0])), [0.2 * 3.0])
