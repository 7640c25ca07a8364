"""Special-function accuracy against independent references."""

import math

import numpy as np
import pytest
import scipy.special as sps

from lomaxmix.errors import DomainError
from lomaxmix.special import regularized_upper_incomplete_gamma, riemann_zeta


class TestIncompleteGamma:
    def test_exponential_tail(self):
        # a = 1 reduces to the exponential survival function
        np.testing.assert_allclose(
            regularized_upper_incomplete_gamma(1.0, 1.0), math.exp(-1.0), rtol=1e-14
        )

    def test_half_integer_vs_erfc(self):
        for x in (0.01, 0.3, 1.0, 4.0, 25.0):
            np.testing.assert_allclose(
                regularized_upper_incomplete_gamma(0.5, x),
                math.erfc(math.sqrt(x)),
                rtol=1e-12,
            )

    def test_integer_shape_vs_poisson_sum(self):
        # Q(n, x) = e^-x sum_{j<n} x^j / j!
        for a in (2, 5, 20, 80):
            for x in (0.5 * a, a, 2.0 * a):
                ref = 0.0
                log_term = -x
                for j in range(a):
                    ref += math.exp(log_term)
                    log_term += math.log(x) - math.log(j + 1)
                np.testing.assert_allclose(
                    regularized_upper_incomplete_gamma(float(a), x), ref, rtol=1e-11
                )

    def test_accuracy_contract_against_scipy(self):
        """Relative accuracy 1e-10 over a, x in [1e-3, 1e6]."""
        rng = np.random.default_rng(42)
        a = np.exp(rng.uniform(np.log(1e-3), np.log(1e6), 400))
        x = np.exp(rng.uniform(np.log(1e-3), np.log(1e6), 400))
        for ai, xi in zip(a, x):
            ref = float(sps.gammaincc(ai, xi))
            got = regularized_upper_incomplete_gamma(float(ai), float(xi))
            if ref == 0.0 or ref < 5e-324 * 1e10:
                assert got < 1e-290
            else:
                assert abs(got - ref) <= 1e-10 * ref, (ai, xi, got, ref)

    def test_large_a_near_transition(self):
        # the exponent prefactor is most delicate when x ~ a is huge
        for a in (1e4, 1e5, 1e6):
            for x in (a * 0.99, a, a * 1.01):
                ref = float(sps.gammaincc(a, x))
                got = regularized_upper_incomplete_gamma(a, x)
                np.testing.assert_allclose(got, ref, rtol=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            regularized_upper_incomplete_gamma(0.0, 1.0)
        with pytest.raises(DomainError):
            regularized_upper_incomplete_gamma(1.0, 0.0)
        with pytest.raises(DomainError):
            regularized_upper_incomplete_gamma(1.0, -2.0)


class TestZeta:
    def test_basel(self):
        np.testing.assert_allclose(riemann_zeta(2.0)[0], math.pi**2 / 6.0, rtol=1e-10)

    def test_against_scipy(self):
        for s in (1.01, 1.1, 1.5, 2.5, 4.0, 10.0, 25.0, 49.0):
            np.testing.assert_allclose(
                riemann_zeta(s)[0], float(sps.zeta(s, 1)), rtol=1e-12
            )

    def test_derivative_at_two(self):
        # zeta'(2) = pi^2/6 (gamma + log 2 pi - 12 log A), A the Glaisher constant
        np.testing.assert_allclose(riemann_zeta(2.0)[1], -0.93754825431584375, rtol=1e-13)

    def test_derivative_against_scipy_differences(self):
        # central differences of zeta - 1 (scipy's zetac), which keeps its
        # relative precision where zeta(s) rounds to 1; the step shrinks with
        # s - 1, so the truncation error stays near 1e-8 of the derivative
        for s in np.concatenate([1.0 + np.geomspace(1e-3, 1.0, 12), np.linspace(2.5, 49.9, 12)]):
            h = 1e-4 * min(1.0, s - 1.0)
            central = (sps.zetac(s + h) - sps.zetac(s - h)) / (2.0 * h)
            np.testing.assert_allclose(riemann_zeta(float(s))[1], central, rtol=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            riemann_zeta(1.0)
        with pytest.raises(DomainError):
            riemann_zeta(0.5)
