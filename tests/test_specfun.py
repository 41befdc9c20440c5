"""Gamma, Mittag-Leffler, derivative identity, domination certificates."""

import math

import mpmath
import numpy as np
import pytest

from rpde_lab import specfun
from rpde_lab.errors import NumericsError


class TestGamma:
    def test_unit(self):
        assert specfun.gamma_fn(1.0) == 1.0

    def test_factorial(self):
        assert specfun.gamma_fn(5.0) == pytest.approx(24.0, rel=1e-14)

    def test_half_squared_is_pi(self):
        assert specfun.gamma_fn(0.5) ** 2 == pytest.approx(math.pi, abs=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            specfun.gamma_fn(0.0)
        with pytest.raises(ValueError):
            specfun.gamma_fn(-2.5)


class TestMittagLeffler:
    def test_exponential_reduction(self):
        zs = np.linspace(0.0, 10.0, 201)
        vals = specfun.mittag_leffler_array(1.0, 1.0, zs)
        assert np.max(np.abs(vals - np.exp(zs)) / np.exp(zs)) <= 1e-10

    def test_value_at_zero(self):
        for beta, c in ((0.5, 0.5), (0.75, 1.0), (0.3, 2.0)):
            assert specfun.mittag_leffler(beta, c, 0.0) == \
                pytest.approx(1.0 / specfun.gamma_fn(c), rel=1e-14)

    def test_against_high_precision_series(self):
        # 200-term summation at 50 significant digits
        mpmath.mp.dps = 50
        beta = c = mpmath.mpf("0.5")
        z = mpmath.mpf("1")
        oracle = sum(z ** (beta * k) / mpmath.gamma(k * beta + c) for k in range(200))
        assert specfun.mittag_leffler(0.5, 0.5, 1.0) == pytest.approx(float(oracle), rel=1e-13)

    def test_strictly_increasing(self):
        zs = np.linspace(0.0, 30.0, 400)
        vals = specfun.mittag_leffler_array(0.6, 1.0, zs)
        assert np.all(np.diff(vals) > 0)

    def test_overflow_horizon(self):
        with pytest.raises(NumericsError):
            specfun.mittag_leffler(0.5, 1.0, 400.0)
        specfun.mittag_leffler(0.5, 1.0, 400.0, horizon=500.0)  # raised horizon passes

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            specfun.mittag_leffler(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            specfun.mittag_leffler(0.5, 1.0, -1.0)


class TestDerivative:
    def test_exponential_limit(self):
        zs = np.linspace(0.5, 5.0, 20)
        assert specfun.ml_derivative_array(1.0, zs) == pytest.approx(np.exp(zs), rel=1e-12)

    def test_identity_against_finite_differences(self):
        for beta in (0.35, 0.5, 0.66, 0.8, 0.95):
            for z in (0.5, 1.0, 2.5, 5.0, 8.0):
                h = 1e-4 * max(1.0, z)
                fd = (specfun.mittag_leffler(beta, 1.0, z + h)
                      - specfun.mittag_leffler(beta, 1.0, z - h)) / (2 * h)
                assert specfun.ml_derivative(beta, z) == pytest.approx(fd, rel=1e-6)

    def test_positive(self):
        assert np.all(specfun.ml_derivative_array(0.5, np.linspace(0.1, 20, 50)) > 0)

    def test_singular_at_zero(self):
        with pytest.raises(ValueError):
            specfun.ml_derivative(0.5, 0.0)


class TestCertificate:
    def test_beta_one_small_constant(self):
        cert = specfun.certify_ml_bound(1.0, 2.0, 40.0)
        # exp(z) <= m exp(2z) already with m = exp(-z_min), so far below 1.1
        assert cert.m_beta <= 1.1

    def test_memoized_certificate_equals_fresh_one(self):
        cert = specfun.certify_ml_bound(0.6, 2.0, 50.0)
        assert specfun.certify_ml_bound(0.6, 2.0, 50.0) is cert
        fresh = specfun.certify_ml_bound.__wrapped__(0.6, 2.0, 50.0)
        assert fresh is not cert
        assert (cert.m_beta, cert.z_min, cert.z_max, cert.n_grid) == \
            (fresh.m_beta, fresh.z_min, fresh.z_max, fresh.n_grid)

    def test_certificate_reverifies_on_fresh_grid(self):
        for beta in (0.4, 0.75):
            cert = specfun.certify_ml_bound(beta, 2.0, 50.0)
            zs = np.random.default_rng(31).uniform(2.0, 50.0, 500)
            assert np.all(specfun.ml_derivative_array(beta, zs) <= cert.m_beta * np.exp(2.0 * zs))

    def test_asymptotic_log_slope(self):
        slope = (math.log(specfun.mittag_leffler(0.5, 0.5, 100.0))
                 - math.log(specfun.mittag_leffler(0.5, 0.5, 50.0))) / 50.0
        assert abs(slope - 1.0) <= 0.05

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            specfun.certify_ml_bound(0.5, 0.5, 10.0)
        with pytest.raises(ValueError):
            specfun.certify_ml_bound(0.5, 5.0, 2.0)
