"""Closed-form probability functions: exact values, stability, invariants."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from lomaxmix import (
    DomainError,
    LomaxComponent,
    MixtureModel,
    RankModel,
    ValidationError,
    mixture_ccdf,
    mixture_log_pmf,
    mixture_pmf,
    rank_frequency,
)
from lomaxmix.distributions import SCALE_BOUNDS, SHAPE_BOUNDS, _mix_ccdf_scalar

from conftest import random_mixture
from mechanism import gamma_pdf, lognormal_asymptote


def single(b, v):
    return MixtureModel.from_parameters([1.0], [b], [v])


def mixed_geometric_mass(b, v, k):
    """Quadrature oracle: integral of the gamma density times the geometric
    mass (1 - e^-lam) e^-((k-1) lam), independent of the closed form.

    The integrand peaks near v / (b + k - 1); integration is split there
    and run at tight relative tolerance so tiny tail masses keep relative
    accuracy.
    """
    def integrand(lam):
        return gamma_pdf(lam, v, b) * (-math.expm1(-lam)) * math.exp(-(k - 1.0) * lam)

    peak = max(v / (b + k - 1.0), 1e-300)
    total = 0.0
    edges = [0.0, peak, 30.0 * peak]
    for lo, hi in zip(edges[:-1], edges[1:]):
        part, _ = quad(integrand, lo, hi, limit=400, epsabs=0.0, epsrel=1e-11)
        total += part
    part, _ = quad(integrand, edges[-1], np.inf, limit=400, epsabs=0.0, epsrel=1e-11)
    return total + part


class TestMixturePmf:
    def test_unit_component_telescopes(self):
        # b = v = 1 gives mass 1 / (k (k + 1))
        m = single(1.0, 1.0)
        assert mixture_pmf(m, 1) == 0.5
        np.testing.assert_allclose(mixture_pmf(m, 10), 1.0 / 110.0, rtol=1e-14)

    def test_quadrature_oracle_point(self):
        m = single(3.0, 2.5)
        oracle = mixed_geometric_mass(3.0, 2.5, 5)
        np.testing.assert_allclose(oracle, 0.03412763717664204, rtol=1e-8)
        np.testing.assert_allclose(mixture_pmf(m, 5), oracle, rtol=1e-8)

    def test_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = random_mixture(rng)
            p = mixture_pmf(m, np.arange(1, 200))
            assert np.all(p > 0.0)
            assert np.all(p <= 1.0)

    def test_domain(self):
        m = single(1.0, 1.0)
        with pytest.raises(DomainError):
            mixture_pmf(m, 0)
        with pytest.raises(DomainError):
            mixture_pmf(m, 1.5)


class TestMixtureCcdf:
    def test_exactly_one_at_support_start(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            assert mixture_ccdf(random_mixture(rng), 1) == 1.0

    def test_single_component_reciprocal(self):
        np.testing.assert_allclose(mixture_ccdf(single(1.0, 1.0), 10), 0.1, rtol=1e-14)

    def test_two_component_value(self):
        m = MixtureModel.from_parameters([0.5, 0.5], [1.0, 2.0], [1.0, 1.0])
        np.testing.assert_allclose(
            mixture_ccdf(m, 3), 0.5 / 3.0 + 0.5 * 0.5, rtol=1e-14
        )

    def test_scalar_form_matches_array_form(self):
        """The scalar survival of gof binning is the quantity mixture_ccdf gives.

        Exactly 1.0 at k = 1; elsewhere within the rounding of two libm
        implementations of log1p and exp: exp turns an ulp of a component's
        log-survival y into |y| ulp of its survival, so the bound sums
        c (b / (b + k - 1))^v (1 + |y|) over the components.
        """
        rng = np.random.default_rng(17)
        ks = np.unique(np.round(np.geomspace(1.0, 1e9, 400)))
        eps = np.finfo(float).eps
        for _ in range(200):
            m = random_mixture(rng)
            arr = mixture_ccdf(m, ks)
            scal = np.array([_mix_ccdf_scalar(m, float(k)) for k in ks])
            assert scal[0] == arr[0] == 1.0
            tol = np.zeros_like(ks)
            for comp in m.components:
                y = comp.shape * np.log(comp.scale / (comp.scale + ks - 1.0))
                tol += comp.weight * np.exp(y) * (1.0 + np.abs(y))
            assert np.all(np.abs(scal - arr) <= 4.0 * eps * tol)


class TestMixtureLogPmf:
    def test_matches_direct_log(self):
        np.testing.assert_allclose(
            mixture_log_pmf(single(1.0, 1.0), 1), math.log(0.5), rtol=1e-14
        )
        np.testing.assert_allclose(
            mixture_log_pmf(single(1.0, 1.0), 10**6),
            math.log(1.0) - math.log(1e6) - math.log(1e6 + 1.0),
            rtol=1e-12,
        )

    def test_agrees_with_linear_space(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = random_mixture(rng)
            lp = mixture_log_pmf(m, 50)
            np.testing.assert_allclose(lp, math.log(mixture_pmf(m, 50)), rtol=1e-12)

    def test_finite_and_decreasing_to_1e9(self):
        m = MixtureModel.from_parameters([0.6, 0.4], [0.5, 40.0], [2.0, 800.0])
        ks = np.unique(np.geomspace(1, 1e9, 200).astype(np.int64))
        lp = mixture_log_pmf(m, ks)
        assert np.all(np.isfinite(lp))
        assert np.all(np.diff(lp) < 0.0)


class TestRankLaws:
    def test_frequency_values(self):
        rm = RankModel(shape=1.0, scale=2.0, population=100)
        np.testing.assert_allclose(rank_frequency(rm, 4), 0.48, rtol=1e-12)
        assert rank_frequency(rm, 100) == 0.0

    def test_round_trip_with_rank_of_size(self):
        # f_r is the (population-normalized) inverse of the rank law
        # rank(x) = l (b / (b + x))^v
        rm = RankModel(shape=1.0, scale=2.0, population=100)
        for r in (1, 5, 50):
            size = rank_frequency(rm, r) * rm.population
            rank = rm.population * (rm.scale / (rm.scale + size)) ** rm.shape
            np.testing.assert_allclose(rank, r, rtol=1e-10)

    def test_monotone_nonincreasing(self):
        rm = RankModel(shape=0.8, scale=3.0, population=500)
        f = rank_frequency(rm, np.arange(1, 501))
        assert np.all(np.diff(f) <= 0.0)
        assert np.all(f >= 0.0)

    def test_domain(self):
        rm = RankModel(shape=1.0, scale=1.0, population=10)
        with pytest.raises(DomainError):
            rank_frequency(rm, 0)
        with pytest.raises(DomainError):
            rank_frequency(rm, 11)

    def test_frequencies_past_float64_refused(self):
        # expm1(log(1000 / r) / 0.001) / 1000 overflows for r up to 491;
        # it once came back as inf with an overflow warning
        rm = RankModel(shape=0.001, scale=1.0, population=1000)
        with pytest.raises(DomainError, match="f_r overflows float64 at shape 0.001 and population 1000"):
            rank_frequency(rm, np.arange(1, 1001))
        assert rank_frequency(rm, 1000) == 0.0


class TestLognormalAsymptote:
    def test_exact_at_unit_k(self):
        # ln k = 0 collapses the correction for every m
        for m in (1.0, 10.0, 1e6):
            np.testing.assert_allclose(lognormal_asymptote(1.0, 1.0, m, 1.0), 1.0, rtol=1e-14)

    def test_converges_to_power_form(self):
        val = lognormal_asymptote(1.0, 1.0, 1e6, 10.0)
        assert abs(val - 1e-2) <= 1e-4 * 1e-2

    def test_correction_factor_interval(self):
        b, v, m = 2.0, 3.0, 1e5
        for k in (5.0, 50.0):
            power = v * b**v * k ** (-v - 1.0)
            ratio = lognormal_asymptote(b, v, m, k) / power
            lower = math.exp(-v * math.log(k) ** 2 / (2.0 * m))
            assert lower - 1e-15 <= ratio <= 1.0 + 1e-15


class TestModelInvariants:
    """Structural properties every valid mixture must satisfy."""

    def test_normalization_partial_sums(self):
        rng = np.random.default_rng(4)
        ks = np.arange(1, 10**4 + 1)
        for _ in range(25):
            m = random_mixture(rng)
            total = mixture_pmf(m, ks).sum() + mixture_ccdf(m, 10**4 + 1)
            np.testing.assert_allclose(total, 1.0, atol=1e-9)

    def test_telescoping_identity(self):
        # pmf(k) == ccdf(k) - ccdf(k+1); the difference of two independently
        # rounded survival values carries absolute error of order
        # 1e-16 * ccdf, so the comparison is made on the survival scale.
        rng = np.random.default_rng(5)
        ks = np.unique(np.geomspace(1, 10**6, 400).astype(np.int64))
        for _ in range(25):
            m = random_mixture(rng)
            pmf = mixture_pmf(m, ks)
            diff = mixture_ccdf(m, ks) - mixture_ccdf(m, ks + 1)
            assert np.all(np.abs(diff - pmf) <= 1e-12 * mixture_ccdf(m, ks))

    def test_quadrature_agreement_sample(self):
        rng = np.random.default_rng(6)
        ks = np.unique(np.geomspace(1, 10**4, 8).astype(np.int64))
        for _ in range(5):
            b = float(np.exp(rng.uniform(np.log(0.01), np.log(100.0))))
            v = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
            m = single(b, v)
            for k in ks:
                oracle = mixed_geometric_mass(b, v, int(k))
                np.testing.assert_allclose(mixture_pmf(m, int(k)), oracle, rtol=1e-6)

    def test_complete_monotonicity(self):
        # alternating forward differences of a mixture of geometrics stay
        # nonnegative at every order
        rng = np.random.default_rng(7)
        ks = np.arange(1, 1001)
        for _ in range(20):
            b = float(np.exp(rng.uniform(np.log(0.01), np.log(100.0))))
            v = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
            vals = mixture_pmf(single(b, v), np.arange(1, 1006))
            diff = vals
            for order in range(1, 5):
                diff = np.diff(diff)
                signed = (-1.0) ** order * diff[: len(ks)]
                assert np.all(signed >= -1e-12)

    def test_power_law_reduction(self):
        # tail mass approaches v b^v k^-(v+1); the first-order correction is
        # (v+1)|2b-1|/(2k), so shapes are capped at 8 for the 1% tolerance
        # at k = 1000 max(b, 1)
        rng = np.random.default_rng(8)
        for _ in range(50):
            b = float(np.exp(rng.uniform(np.log(0.01), np.log(100.0))))
            v = float(np.exp(rng.uniform(np.log(0.1), np.log(8.0))))
            k = int(1000 * max(b, 1.0))
            ratio = mixture_pmf(single(b, v), k) / (v * b**v * float(k) ** (-v - 1.0))
            assert abs(ratio - 1.0) < 0.01

    def test_duplicate_component_degeneracy(self):
        base = MixtureModel.from_parameters([0.6, 0.4], [2.0, 9.0], [1.5, 0.8])
        split = MixtureModel.from_parameters(
            [0.3, 0.3, 0.4], [2.0, 2.0, 9.0], [1.5, 1.5, 0.8]
        )
        ks = np.arange(1, 500)
        np.testing.assert_allclose(
            mixture_pmf(split, ks), mixture_pmf(base, ks), rtol=1e-15
        )
        np.testing.assert_allclose(
            mixture_ccdf(split, ks), mixture_ccdf(base, ks), rtol=1e-15
        )

    def test_strictly_decreasing_tails(self):
        rng = np.random.default_rng(9)
        ks = np.arange(1, 2000)
        for _ in range(25):
            m = random_mixture(rng)
            assert np.all(np.diff(mixture_pmf(m, ks)) < 0.0)
            assert np.all(np.diff(mixture_ccdf(m, ks)) < 0.0)


class TestInputDtypes:
    def test_integer_input_gives_the_float_input_bits(self):
        # integer k is used as it is, without a float copy
        rng = np.random.default_rng(4)
        ks = np.unique(np.concatenate([np.arange(1, 300), rng.integers(1, 2**63 - 1, 300), [2**63 - 1]]))
        for _ in range(40):
            m = random_mixture(rng, b_range=SCALE_BOUNDS, v_range=SHAPE_BOUNDS)
            for f in (mixture_pmf, mixture_ccdf, mixture_log_pmf):
                want = f(m, ks.astype(float))
                assert np.array_equal(f(m, ks), want) and np.array_equal(f(m, ks.astype(np.uint64)), want)
        rm = RankModel(shape=1.3, scale=2.0, population=10**6)
        r = rng.integers(1, 10**6 + 1, 1000)
        assert np.array_equal(rank_frequency(rm, r), rank_frequency(rm, r.astype(float)))
        # a population past int64 next to int64 ranks, which numpy may not convert
        rm = RankModel(shape=1.3, scale=2.0, population=10**20)
        r = rng.integers(1, 2**63 - 1, 1000)
        assert np.array_equal(rank_frequency(rm, r), rank_frequency(rm, r.astype(float)))

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.int8, float])
    def test_values_below_one_rejected(self, dtype):
        with pytest.raises(DomainError, match=">= 1"):
            mixture_pmf(single(1.0, 1.0), np.array([3, 0, 2], dtype=dtype))


class TestValidation:
    def test_weight_sum_enforced(self):
        with pytest.raises(ValidationError):
            MixtureModel.from_parameters([0.5, 0.6], [1.0, 2.0], [1.0, 1.0])

    def test_scale_shape_bounds(self):
        with pytest.raises(ValidationError):
            LomaxComponent(weight=1.0, scale=1e-7, shape=1.0)
        with pytest.raises(ValidationError):
            LomaxComponent(weight=1.0, scale=1e10, shape=1.0)
        with pytest.raises(ValidationError):
            LomaxComponent(weight=1.0, scale=1.0, shape=2e3)
        with pytest.raises(ValidationError):
            LomaxComponent(weight=1.2, scale=1.0, shape=1.0)

    def test_canonical_order(self):
        m = MixtureModel.from_parameters([0.2, 0.5, 0.3], [1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        weights = [c.weight for c in m.components]
        assert weights == sorted(weights, reverse=True)
        # equal weights tie-break by ascending mean rate
        m2 = MixtureModel.from_parameters([0.5, 0.5], [1.0, 4.0], [1.0, 1.0])
        rates = [c.mean_rate for c in m2.components]
        assert rates == sorted(rates)

    def test_permutation_invariance(self):
        a = MixtureModel.from_parameters([0.3, 0.7], [5.0, 1.0], [2.0, 1.0])
        b = MixtureModel.from_parameters([0.7, 0.3], [1.0, 5.0], [1.0, 2.0])
        assert a == b

    def test_empty_mixture_rejected(self):
        with pytest.raises(ValidationError):
            MixtureModel(())

    def test_gamma_mixing_mean(self):
        # the C2 oracle's mixing density is normalized with mean shape / rate
        total, _ = quad(gamma_pdf, 0.0, np.inf, args=(2.5, 5.0), limit=200)
        mean, _ = quad(lambda lam: lam * gamma_pdf(lam, 2.5, 5.0), 0.0, np.inf, limit=200)
        np.testing.assert_allclose(total, 1.0, atol=1e-9)
        np.testing.assert_allclose(mean, 0.5, atol=1e-9)
