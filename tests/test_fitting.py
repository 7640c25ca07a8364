"""Likelihood, AIC bookkeeping, mixture MLE, and baseline fits."""

import math
import warnings
from functools import partial

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from lomaxmix import (
    CountSample,
    DegenerateDataError,
    DomainError,
    FitConfig,
    MixtureModel,
    ValidationError,
    aic,
    fit_lognormal,
    fit_mixture,
    fit_power_law,
    log_likelihood,
    mixture_log_pmf,
    mixture_pmf,
    n_params_for_order,
    sample_mixture,
    scan_orders,
)
from lomaxmix import fitting
from lomaxmix.distributions import SCALE_BOUNDS, SHAPE_BOUNDS
from lomaxmix.fitting import _SLAB, _TALLY
from lomaxmix.special import riemann_zeta

import minimize_reference
from conftest import random_mixture
from memory import held_above, peak_above


def single(b, v):
    return MixtureModel.from_parameters([1.0], [b], [v])


TRUTH_2 = MixtureModel.from_parameters([0.7, 0.3], [2.0, 20.0], [1.2, 3.0])
WIDE = MixtureModel.from_parameters([0.7, 0.3], [5.0, 500.0], [0.9, 1.3])
SEPARATED = MixtureModel.from_parameters([0.5, 0.5], [1.0, 50.0], [0.3, 2.0])
# seeds 1 and 4 end 1,559 and 1,424 nats below the truth, reported converged
_MISSES_THE_BETTER_BASIN = pytest.mark.xfail(
    strict=True, reason="no start reaches the better basin; nested starts from order M - 1 are ROADMAP item 2"
)

# Two objectives at the noise floor, with the arguments of _minimize after fun.
# The noisy bowl is 5e6 plus a steep bowl, and 3 in 4 points evaluate one
# ulp high, as a long sum rounds.
_BOWL_TOP, _BOWL_CURV = 5e6, 1e7 * np.array([1.0, 30.0])
NOISY_BOWL_ARGS = (
    0.3 + np.random.default_rng(0).normal(0.0, 0.5, (12, 2)), np.full(2, -5.0), np.full(2, 5.0), 1e-11, 50_000
)


def noisy_bowl(x):
    u = x - 0.3
    w = u[:, 0] - u[:, 1]
    mixed = x.view(np.uint64).sum(axis=1) * np.uint64(0x9E3779B97F4A7C15)
    noise = np.spacing(_BOWL_TOP) * (mixed >> np.uint64(62) != 0)
    f = _BOWL_TOP + (_BOWL_CURV * (np.cosh(u) - 1.0)).sum(axis=1) + _BOWL_CURV[0] * w**4 + noise
    return f, _BOWL_CURV * np.sinh(u) + 4.0 * _BOWL_CURV[0] * w[:, None] ** 3 * np.array([1.0, -1.0])


# The plateau is flat at 4e6 with a tiny constant slope, and every point but
# its start evaluates 8 ulps high.
PLATEAU_TOP = 4e6
PLATEAU_ARGS = (np.array([[0.5, -0.5]]), -np.ones(2), np.ones(2), 1e-20, 50)


def plateau(x):
    moved = (x != PLATEAU_ARGS[0]).any(axis=1)
    return PLATEAU_TOP + 8.0 * np.spacing(PLATEAU_TOP) * moved, np.tile([1e-12, -2e-12], (x.shape[0], 1))


class TestCountSample:
    def test_distinct_form_is_read_only_and_independent_of_the_input(self):
        values = np.array([4, 9, 1, 4])
        sample = CountSample(values)
        for array in (sample.ks, sample.counts):
            assert array.dtype == np.int64 and not np.shares_memory(array, values)
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 7
        values[0] = 2  # the sample does not see its input change
        assert sample.ks.tolist() == [1, 4, 9] and sample.counts.tolist() == [1, 2, 1]
        assert sample.size == 4

    @settings(max_examples=80, deadline=None, database=None)
    @given(
        pool=st.lists(
            st.one_of(
                st.integers(1, 50),
                st.integers(_TALLY - 3, _TALLY + 3),
                st.integers(1, 2**63 - 1),
                st.just(2**63 - 1),
            ),
            min_size=1,
            max_size=30,
        ),
        size=st.sampled_from([1, 2, _SLAB - 1, _SLAB, _SLAB + 1, 3 * _SLAB + 2]),
        seed=st.integers(0, 2**32 - 1),
    )
    # sorted, each of its slabs has a larger top value than the slabs before it
    @example(pool=[1, 50, 300, _TALLY - 1], size=3 * _SLAB + 2, seed=0)
    def test_distinct_equals_unique(self, pool, size, seed):
        # values below, across and above the tally's end, drawn from a small pool so they repeat
        values = np.array(pool, dtype=np.int64)[np.random.default_rng(seed).integers(0, len(pool), size)]
        want_ks, want_counts = np.unique(values, return_counts=True)
        # in drawn order, and ascending, in which the tally grows slab by slab
        for ordered in (values, np.sort(values)):
            sample = CountSample(ordered)
            assert sample.ks.dtype == sample.counts.dtype == np.int64
            assert np.array_equal(sample.ks, want_ks) and np.array_equal(sample.counts, want_counts)

    def test_distinct_peak_per_value(self):
        # 1e6 draws from 0.7:5:0.9,0.3:500:1.3, 99.9% of them below _TALLY:
        # 1.0 bytes per value (np.unique sorted a copy, 10 bytes per value)
        values = sample_mixture(MixtureModel.from_parameters([0.7, 0.3], [5.0, 500.0], [0.9, 1.3]), 10**6, 0)
        sample, peak = peak_above(CountSample, values)
        assert sample.size == values.size
        assert peak / values.size < 2

    def test_keeps_only_the_distinct_form(self):
        # 1e6 draws take 8 MB; the sample holds their 14,450 distinct values and counts, 0.2 MB
        model = MixtureModel.from_parameters([0.7, 0.3], [5.0, 500.0], [0.9, 1.3])
        CountSample(sample_mixture(model, 10, 0))  # the modules numpy imports on a first call
        sample, held = held_above(lambda: CountSample(sample_mixture(model, 10**6, 0)))
        assert sample.size == 10**6
        assert held < 2**20

    def test_rejects_bad_values(self):
        with pytest.raises(DomainError):
            CountSample(np.array([0, 1]))
        with pytest.raises(DomainError):
            CountSample(np.array([-1e300]))
        with pytest.raises(DomainError):
            CountSample(np.array([1.5]))
        with pytest.raises(DegenerateDataError):
            CountSample(np.array([], dtype=np.int64))

    @pytest.mark.parametrize(
        "values",
        [np.array([2**63], dtype=np.uint64), np.array([2**64 - 1], dtype=np.uint64),
         np.array([2.0**63]), np.array([1e300])],
        ids=["uint64-2**63", "uint64-max", "float-2**63", "float-1e300"],
    )
    def test_rejects_values_past_int64(self, values):
        # these once wrapped or warned in the int64 cast and were reported as < 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"must be <= {2**63 - 1}"):
                CountSample(values)

    def test_keeps_the_largest_int64_value(self):
        for values in (np.array([2**63 - 1], dtype=np.uint64), np.array([2.0**63 - 1024])):
            assert CountSample(values).ks.tolist() == [int(values[0])]


class TestLogLikelihood:
    def test_single_point(self):
        data = CountSample(np.array([1]))
        np.testing.assert_allclose(
            log_likelihood(single(1.0, 1.0), data), math.log(0.5), rtol=1e-14
        )

    def test_two_points(self):
        data = CountSample(np.array([1, 2]))
        np.testing.assert_allclose(
            log_likelihood(single(1.0, 1.0), data),
            math.log(0.5) + math.log(1.0 / 6.0),
            rtol=1e-13,
        )

    def test_weighted_equals_termwise(self):
        rng = np.random.default_rng(0)
        model = MixtureModel.from_parameters([0.4, 0.6], [1.0, 8.0], [0.9, 2.0])
        values = rng.integers(1, 500, size=1000)
        data = CountSample(values)
        termwise = sum(mixture_log_pmf(model, int(k)) for k in values)
        np.testing.assert_allclose(log_likelihood(model, data), termwise, rtol=1e-9)


class TestAic:
    def test_parameter_count(self):
        assert n_params_for_order(2) == 5
        assert n_params_for_order(3) == 8

    def test_formula(self):
        assert aic(0.0, 1) == 2.0
        assert aic(-10.0, 5) == 30.0

    @pytest.mark.parametrize("n_params", [2.5, True], ids=["2.5", "True"])
    def test_non_integral_parameter_count_refused(self, n_params):
        with pytest.raises(DomainError, match="n_params must be an integer"):
            aic(-10.0, n_params)

    @pytest.mark.parametrize("log_likelihood", [math.nan, -math.inf], ids=["nan", "-inf"])
    def test_non_finite_log_likelihood_refused(self, log_likelihood):
        with pytest.raises(DomainError, match="log_likelihood must be finite"):
            aic(log_likelihood, 2)

    def test_bit_exact_on_fit(self):
        data = CountSample(sample_mixture(single(2.0, 1.5), 2000, seed=1))
        fit = fit_mixture(data, 1, FitConfig(starts=4, seed=0))
        assert fit.aic == aic(fit.log_likelihood, fit.n_params)
        assert fit.n_params == n_params_for_order(fit.order)


class TestFitMixture:
    def test_single_component_recovery(self):
        data = CountSample(sample_mixture(single(2.0, 1.5), 10**5, seed=42))
        fit = fit_mixture(data, 1, FitConfig(seed=0))
        comp = fit.model.components[0]
        assert abs(comp.scale - 2.0) / 2.0 < 0.05
        assert abs(comp.shape - 1.5) / 1.5 < 0.05
        assert fit.converged

    def test_dominates_truth_likelihood(self):
        data = CountSample(sample_mixture(TRUTH_2, 3 * 10**4, seed=7))
        fit = fit_mixture(data, 2, FitConfig(seed=7))
        assert fit.log_likelihood >= log_likelihood(TRUTH_2, data) - 1e-6

    @pytest.mark.parametrize(
        "seed",
        [0, pytest.param(1, marks=_MISSES_THE_BETTER_BASIN), 2, 3, pytest.param(4, marks=_MISSES_THE_BETTER_BASIN)],
    )
    def test_dominates_a_separated_truth(self, seed):
        # 0.5:1:0.3,0.5:50:2 at n = 1e5, seeds fixed in advance; about 6,500 distinct values, not screened
        data = CountSample(sample_mixture(SEPARATED, 10**5, seed=seed))
        fit = fit_mixture(data, 2, FitConfig(20, 0))
        assert fit.log_likelihood >= log_likelihood(SEPARATED, data) - 1e-6

    def test_dominates_every_start_seed(self):
        # the returned optimum must beat the method-of-moments seed
        from lomaxmix.fitting import _moment_start, _objective

        data = CountSample(sample_mixture(TRUTH_2, 10**4, seed=3))
        ks, counts = data.ks.astype(float), data.counts.astype(float)
        nll, _ = _objective(_moment_start(ks, counts, 2)[None], ks, counts)
        seed_val = -nll[0]
        fit = fit_mixture(data, 2, FitConfig(seed=3))
        assert fit.log_likelihood >= seed_val

    def test_constant_data_degenerate(self):
        with pytest.raises(DegenerateDataError):
            fit_mixture(CountSample(np.ones(100, dtype=np.int64)), 1)

    def test_sample_too_small(self):
        with pytest.raises(ValidationError):
            fit_mixture(CountSample(np.array([1, 2, 3])), 2)

    def test_order_below_one(self):
        with pytest.raises(DomainError, match="order must be >= 1, got 0"):
            fit_mixture(CountSample(np.array([1, 2, 3])), 0)

    # 2.5 ended in a TypeError inside numpy, and True fitted one component
    @pytest.mark.parametrize("order", [2.5, True, "2"], ids=["2.5", "True", "str"])
    def test_non_integral_order_refused(self, order):
        with pytest.raises(DomainError, match="order must be an integer"):
            fit_mixture(CountSample(np.array([1, 2, 3, 5, 8, 13])), order)

    def test_integral_float_order_fits_as_int(self):
        data = CountSample(sample_mixture(TRUTH_2, 2000, seed=5))
        config = FitConfig(starts=3, seed=np.int64(5))
        assert fit_mixture(data, 2.0, config) == fit_mixture(data, 2, FitConfig(starts=3, seed=5))

    def test_deterministic(self):
        data = CountSample(sample_mixture(TRUTH_2, 5000, seed=5))
        a = fit_mixture(data, 2, FitConfig(starts=6, seed=11))
        b = fit_mixture(data, 2, FitConfig(starts=6, seed=11))
        assert a.model == b.model
        assert a.log_likelihood == b.log_likelihood
        assert a.aic == b.aic

    def test_sample_order_invariant(self):
        rng = np.random.default_rng(13)
        values = sample_mixture(TRUTH_2, 5000, seed=13)
        shuffled = values.copy()
        rng.shuffle(shuffled)
        a = fit_mixture(CountSample(values), 2, FitConfig(starts=4, seed=2))
        b = fit_mixture(CountSample(shuffled), 2, FitConfig(starts=4, seed=2))
        assert a.model == b.model and a.log_likelihood == b.log_likelihood

    def test_canonical_output_and_weight_recovery(self):
        # weights recovered within 3 standard errors; the SE is the marginal
        # one from the full 5-parameter observed information, since the
        # profile curvature alone understates it under correlation
        data = CountSample(sample_mixture(TRUTH_2, 10**6, seed=17))
        fit = fit_mixture(data, 2, FitConfig(seed=17))
        weights = [c.weight for c in fit.model.components]
        assert weights == sorted(weights, reverse=True)

        comps = fit.model.components
        p_hat = np.array(
            [comps[0].weight, comps[0].scale, comps[0].shape, comps[1].scale, comps[1].shape]
        )

        def ll(p):
            c1, b1, v1, b2, v2 = p
            m = MixtureModel.from_parameters([c1, 1.0 - c1], [b1, b2], [v1, v2])
            return log_likelihood(m, data)

        h = np.abs(p_hat) * 1e-4
        n_par = 5
        hess = np.zeros((n_par, n_par))
        for i in range(n_par):
            for j in range(i, n_par):
                if i == j:
                    up, dn = p_hat.copy(), p_hat.copy()
                    up[i] += h[i]
                    dn[i] -= h[i]
                    hess[i, i] = (ll(up) - 2.0 * ll(p_hat) + ll(dn)) / h[i] ** 2
                else:
                    vals = {}
                    for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                        p = p_hat.copy()
                        p[i] += si * h[i]
                        p[j] += sj * h[j]
                        vals[si, sj] = ll(p)
                    hess[i, j] = hess[j, i] = (
                        vals[1, 1] - vals[1, -1] - vals[-1, 1] + vals[-1, -1]
                    ) / (4.0 * h[i] * h[j])
        cov = np.linalg.inv(-hess)
        se_c1 = math.sqrt(cov[0, 0])
        assert abs(p_hat[0] - 0.7) <= 3.0 * se_c1


class TestFitConfig:
    @pytest.mark.parametrize(
        "field, value",
        [("starts", 0), ("starts", -3), ("starts", 2.5), ("starts", True),
         ("seed", 1.5), ("seed", True), ("seed", "3")],
    )
    def test_rejects_nonsense(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be"):
            FitConfig(**{field: value})


class TestFitter:
    """The batched objective and the projected BFGS search over all starts."""

    @pytest.fixture(scope="class")
    def data(self):
        return CountSample(sample_mixture(TRUTH_2, 3000, seed=5))

    @staticmethod
    def rows(data, order, n, seed):
        ks, counts = data.ks.astype(float), data.counts.astype(float)
        rng = np.random.default_rng(seed)
        theta = fitting._moment_start(ks, counts, order) + rng.normal(0.0, 0.5, (n, 3 * order - 1))
        return theta, ks, counts

    def gradient_matches_central_differences(self, data, order, widths=None):
        theta, ks, counts = self.rows(data, order, 3, order)
        if order == 3:  # the last component at the shape bound
            theta[1, -1] = math.log(fitting.SHAPE_BOUNDS[1])
        objective = partial(fitting._objective, ks=ks, counts=counts, widths=widths)
        _, grad = objective(theta)
        step = 1e-5
        numeric = np.empty_like(grad)
        for j in range(theta.shape[1]):
            up, down = theta.copy(), theta.copy()
            up[:, j] += step
            down[:, j] -= step
            numeric[:, j] = (objective(up)[0] - objective(down)[0]) / (2.0 * step)
        for g, fd in zip(grad, numeric):
            assert np.abs(g - fd).max() <= 1e-6 * np.abs(g).max()

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_gradient_matches_central_differences(self, data, order):
        self.gradient_matches_central_differences(data, order)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_interval_gradient_matches_central_differences(self, data, order):
        widths = np.random.default_rng(order).integers(1, 40, data.ks.size).astype(float)
        self.gradient_matches_central_differences(data, order, widths)

    def test_objective_is_the_log_likelihood(self, data):
        theta, ks, counts = self.rows(data, 3, 4, 0)
        nll, _ = fitting._objective(theta, ks, counts)
        c, b, v = fitting._unpack(theta, 3)
        for i in range(theta.shape[0]):
            model = MixtureModel.from_parameters(c[i] / c[i].sum(), b[i], v[i])
            np.testing.assert_allclose(-nll[i], log_likelihood(model, data), rtol=1e-12)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_unit_widths_are_the_distinct_values(self, order):
        # over three slabs of _BLOCK values
        rng = np.random.default_rng(order)
        ks = np.unique(rng.integers(1, 10**6, size=3 * fitting._BLOCK)).astype(float)
        counts = rng.integers(1, 50, size=ks.size).astype(float)
        theta = rng.normal(0.0, 1.5, (6, 3 * order - 1))
        values = fitting._objective(theta, ks, counts)
        intervals = fitting._objective(theta, ks, counts, np.ones_like(ks))
        assert all(np.array_equal(a, b) for a, b in zip(values, intervals))

    def test_an_interval_scores_the_mass_of_its_values(self):
        starts, widths = np.array([1.0, 3.0, 10.0, 11.0, 300.0]), np.array([2.0, 7.0, 1.0, 13.0, 6.0])
        counts = np.array([3.0, 1.0, 2.0, 5.0, 4.0])
        theta = np.random.default_rng(5).normal(0.0, 1.0, (4, 8))  # order 3
        nll, _ = fitting._objective(theta, starts, counts, widths)
        c, b, v = fitting._unpack(theta, 3)
        for i in range(theta.shape[0]):
            model = MixtureModel.from_parameters(c[i] / c[i].sum(), b[i], v[i])
            mass = [mixture_pmf(model, np.arange(k, k + w)).sum() for k, w in zip(starts, widths)]
            np.testing.assert_allclose(nll[i], -np.dot(counts, np.log(mass)), rtol=1e-12)

    @pytest.mark.parametrize("n_distinct", [300, 2 * fitting._BLOCK + 77])
    def test_rows_do_not_depend_on_their_batch(self, n_distinct):
        rng = np.random.default_rng(n_distinct)
        ks = np.unique(rng.integers(1, 10**6, size=n_distinct)).astype(float)
        counts = rng.integers(1, 50, size=ks.size).astype(float)
        theta = rng.normal(0.0, 1.0, (7, 8))  # order 3
        nll, grad = fitting._objective(theta, ks, counts)
        for i in range(theta.shape[0]):
            alone = fitting._objective(theta[i : i + 1], ks, counts)
            assert alone[0][0] == nll[i] and np.array_equal(alone[1][0], grad[i])
        subset = [5, 1, 3]
        part = fitting._objective(theta[subset], ks, counts)
        assert np.array_equal(part[0], nll[subset]) and np.array_equal(part[1], grad[subset])

    def test_more_starts_extend_the_start_list(self, data):
        # the starts are a prefix, and each start's path ignores the others
        ks, counts = data.ks.astype(float), data.counts.astype(float)
        rng = np.random.default_rng(3)
        x0 = fitting._moment_start(ks, counts, 3) + rng.normal(0.0, 0.7, (6, 8))
        lo, hi = fitting._box(3)

        def fun(theta):
            return fitting._objective(theta, ks, counts)

        full = fitting._minimize(fun, x0, lo, hi, 1e-11, 50_000)
        part = fitting._minimize(fun, x0[:4], lo, hi, 1e-11, 50_000)
        for a, b in zip(full, part):
            assert np.array_equal(a[:4], b)
        fits = [fit_mixture(data, 3, FitConfig(starts=n, seed=1)) for n in range(1, 7)]
        for fewer, more in zip(fits, fits[1:]):
            assert more.log_likelihood >= fewer.log_likelihood

    def test_rows_at_the_noise_floor_reach_the_gradient_rule(self):
        # Near the optimum of the noisy bowl the decrease a step predicts is
        # below eps |f|, so a decrease test compares rounding noise; the
        # derivative does not.  Armijo backtracking alone stops 3 of these
        # 12 rows with a relative projected gradient up to 1.9e-9, and
        # spends up to 64 evaluations on a row, 318 in all.
        _, lo, hi, tol, _ = NOISY_BOWL_ARGS
        x, f, converged, evals = fitting._minimize(noisy_bowl, *NOISY_BOWL_ARGS)
        g = noisy_bowl(x)[1]
        assert converged.all()
        assert (np.abs(np.clip(x - g, lo, hi) - x).max(axis=1) <= tol * np.maximum(1.0, f)).all()
        assert evals.max() <= 25 and evals.sum() <= 250

    def test_a_row_at_the_noise_floor_takes_one_trial(self):
        # the scaled-gradient step of the plateau predicts a decrease of
        # 2.5e-12, far below eps f, and every point but the start evaluates
        # 8 ulps high: the trial fails its test, and a row that fails along
        # the scaled gradient has converged, without halving the step (tol is
        # below eps, so the gradient rule cannot end the row first)
        _, f, converged, evals = fitting._minimize(plateau, *PLATEAU_ARGS)
        assert converged.tolist() == [True] and evals.tolist() == [2] and f[0] == PLATEAU_TOP

    def test_evaluation_cap_is_per_start(self, data, monkeypatch):
        real = fitting._minimize
        results = []

        def recorder(*args):
            results.append(real(*args))
            return results[-1]

        budget = fitting._MAX_EVALS
        monkeypatch.setattr(fitting, "_minimize", recorder)
        monkeypatch.setattr(fitting, "_MAX_EVALS", 7)
        fit = fit_mixture(data, 2, FitConfig(starts=5))
        (_, _, converged, evals), = results
        assert evals.tolist() == [7] * 5
        assert not converged.any() and fit.converged is False
        monkeypatch.setattr(fitting, "_MAX_EVALS", budget)
        fit = fit_mixture(data, 2, FitConfig(starts=5))
        assert fit.converged and results[-1][3].max() < 50_000


class TestSearchOracle:
    """_minimize returns the bits of the lockstep search of tests/minimize_reference.py."""

    @staticmethod
    def same(fun, *args, search=fitting._minimize) -> bool:
        got, want = search(fun, *args), minimize_reference.minimize(fun, *args)
        return all(np.array_equal(a, b) for a, b in zip(got, want))

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        order=st.integers(1, 4),
        size=st.integers(20, 1000),
        starts=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mixture_starts(self, order, size, starts, seed):
        # a budget of 5,000 evaluations bounds the test's time; most rows converge first
        rng = np.random.default_rng(seed)
        data = CountSample(sample_mixture(random_mixture(rng), size, seed=seed))
        ks, counts = data.ks.astype(float), data.counts.astype(float)
        x0 = fitting._moment_start(ks, counts, order) + rng.normal(0.0, 0.7, (starts, 3 * order - 1))
        fun = partial(fitting._objective, ks=ks, counts=counts)
        assert self.same(fun, x0, *fitting._box(order), fitting._TOL, 5_000)

    def test_noise_floor_objectives(self):
        assert self.same(noisy_bowl, *NOISY_BOWL_ARGS)
        assert self.same(plateau, *PLATEAU_ARGS)

    @pytest.fixture
    def checked(self, monkeypatch):
        """Each _minimize call of a fit is checked against the reference."""
        real, seen = fitting._minimize, []

        def both(fun, *args):
            seen.append(self.same(fun, *args, search=real))
            return real(fun, *args)

        monkeypatch.setattr(fitting, "_minimize", both)
        return seen

    def test_power_law_row(self, checked):
        fit_power_law(CountSample(sample_mixture(TRUTH_2, 3000, seed=5)))
        assert checked == [True]

    def test_budget_of_seven_evaluations(self, checked, monkeypatch):
        monkeypatch.setattr(fitting, "_MAX_EVALS", 7)
        fit_mixture(CountSample(sample_mixture(TRUTH_2, 3000, seed=5)), 2, FitConfig(starts=5))
        assert checked == [True]

    def test_one_call_per_evaluation_of_the_longest_row(self, monkeypatch):
        # each call evaluates every running row at its own trial point; in
        # lockstep each halving was a call of its own, for the rows still searching
        real_objective, real_minimize = fitting._objective, fitting._minimize
        rows, results = [], []

        def counted(theta, ks, counts):
            rows.append(theta.shape[0])
            return real_objective(theta, ks, counts)

        def recorder(*args):
            results.append(real_minimize(*args))
            return results[-1]

        monkeypatch.setattr(fitting, "_objective", counted)
        monkeypatch.setattr(fitting, "_minimize", recorder)
        fit_mixture(CountSample(sample_mixture(TRUTH_2, 3000, seed=5)), 3, FitConfig())
        ((_, _, _, evals),) = results
        assert len(rows) == evals.max() and sum(rows) == evals.sum()


class TestScreen:
    """At M = 1 and 2, a large sample's starts are screened on its grouped form."""

    @pytest.fixture(scope="class")
    def wide(self):
        # 6,894 distinct values, 1,413 grouped
        return CountSample(sample_mixture(WIDE, 2 * 10**5, seed=0))

    @pytest.fixture
    def searches(self, monkeypatch):
        """Each _minimize call of a fit: its start rows, whether its sample was grouped, its result."""
        real, calls = fitting._minimize, []

        def recorder(fun, x, *args):
            calls.append((x, "widths" in fun.keywords, real(fun, x, *args)))
            return calls[-1][2]

        monkeypatch.setattr(fitting, "_minimize", recorder)
        return calls

    @staticmethod
    def shapes(calls):
        return [(x.shape[0], grouped) for x, grouped, _ in calls]

    def test_grouped_form_pools_each_value_into_one_interval(self, wide):
        ks, counts = wide.ks.astype(float), wide.counts.astype(float)
        starts, widths, pooled = fitting._grouped(ks, counts)
        kept = int((ks <= fitting._GROUP_FROM).sum())
        assert np.array_equal(starts[:kept], ks[:kept]) and (widths[:kept] == 1.0).all()
        assert (starts[1:] >= starts[:-1] + widths[:-1]).all()
        assert (widths <= np.maximum(1.0, starts * (fitting._GROUP_RATIO - 1.0) + 1.0)).all()
        at = np.searchsorted(starts, ks, side="right") - 1  # the interval each value falls in
        assert (ks < starts[at] + widths[at]).all()
        assert np.array_equal(np.bincount(at, weights=counts), pooled) and pooled.all()

    def test_agreeing_starts_search_the_full_sample_once(self, wide, searches):
        fit = fit_mixture(wide, 2, FitConfig())
        assert self.shapes(searches) == [(20, True), (1, False)]
        starts, (_, _, row) = searches[0][0], searches[1]
        ks, counts = wide.ks.astype(float), wide.counts.astype(float)
        full = partial(fitting._objective, ks=ks, counts=counts)
        every = fitting._minimize(full, starts, *fitting._box(2), fitting._TOL, fitting._MAX_EVALS)
        assert all(np.array_equal(a, b[:1]) for a, b in zip(row, every))  # the search of row 0
        best = int(np.argmin(every[1]))
        c, b, v = fitting._unpack(every[0][best : best + 1], 2)
        best_ll = log_likelihood(MixtureModel.from_parameters(c[0] / c[0].sum(), b[0], v[0]), wide)
        assert abs(fit.log_likelihood - best_ll) <= 8 * np.spacing(abs(best_ll))
        assert fit.converged and fit.sample_size == wide.size

    def test_three_components_are_not_screened(self, wide, searches):
        # from M = 3 up the starts tend to end apart on the grouped form, so it is not searched
        fit = fit_mixture(wide, 3, FitConfig())
        assert self.shapes(searches) == [(20, False)]
        x, f, converged, _ = searches[0][2]
        best = int(np.argmin(f))  # the first minimum
        c, b, v = fitting._unpack(x[best : best + 1], 3)
        bounded = np.clip(b[0], *SCALE_BOUNDS), np.clip(v[0], *SHAPE_BOUNDS)
        assert fit.model == MixtureModel.from_parameters(c[0] / c[0].sum(), *bounded)
        assert fit.converged == converged[best]

    def test_a_two_basin_sample_keeps_the_better_optimum(self, searches):
        # 8,868 distinct values, 1,778 grouped: screened.  Some starts end in an
        # optimum 18,000 nats below the best, so the first start alone would lose it.
        model = MixtureModel.from_parameters([0.4, 0.6], [2.0, 200.0], [0.5, 1.1])
        fit = fit_mixture(CountSample(sample_mixture(model, 2 * 10**5, seed=1)), 2, FitConfig())
        assert self.shapes(searches) == [(20, True), (20, False)]
        f = searches[1][2][1]
        assert f[0] - f.min() > 1e4
        np.testing.assert_allclose(fit.log_likelihood, -f.min(), rtol=1e-12)

    def test_a_bench_sized_sample_is_not_screened(self, searches):
        # 412 distinct values, 395 grouped: more than a quarter of them
        fit_mixture(CountSample(sample_mixture(TRUTH_2, 10**5, seed=0)), 2, FitConfig())
        assert self.shapes(searches) == [(20, False)]

    def test_one_start_is_not_screened(self, wide, searches):
        fit_mixture(wide, 2, FitConfig(starts=1))
        assert self.shapes(searches) == [(1, False)]

    def test_two_starts_are_screened_in_one_search(self, wide, searches):
        fit_mixture(wide, 2, FitConfig(starts=2))
        assert self.shapes(searches) == [(2, True), (1, False)]


class TestScanOrders:
    def test_single_order(self):
        data = CountSample(sample_mixture(single(2.0, 1.5), 3000, seed=2))
        scan = scan_orders(data, 1, FitConfig(starts=4, seed=0))
        assert len(scan.fits) == 1
        assert scan.best_index == 0
        assert scan.delta_aic_runner_up is None

    def test_selects_two_components(self):
        data = CountSample(sample_mixture(TRUTH_2, 5 * 10**4, seed=21))
        scan = scan_orders(data, 4, FitConfig(seed=21))
        assert scan.best.order == 2
        assert scan.delta_aic_runner_up > 0.0

    def test_single_geometric_like_component(self):
        # near-geometric truth: one tight component suffices
        data = CountSample(sample_mixture(single(100.0, 100.0), 2 * 10**4, seed=8))
        scan = scan_orders(data, 3, FitConfig(seed=8))
        assert scan.best.order == 1

    def test_more_components_than_distinct_values(self):
        # from M = 3 up, the moment start spreads its components around the mean;
        # every order then fits the two values as well as one component does
        scan = scan_orders(CountSample([1] * 10 + [2] * 10), 4, FitConfig())
        assert [f.order for f in scan.fits] == [1, 2, 3, 4] and not scan.failures
        for fit in scan.fits:
            assert abs(fit.log_likelihood - scan.fits[0].log_likelihood) <= 1e-9

    @pytest.mark.parametrize("max_order", [2.5, True], ids=["2.5", "True"])
    def test_non_integral_max_order_refused(self, max_order):
        with pytest.raises(DomainError, match="max_order must be an integer"):
            scan_orders(CountSample(np.array([1, 2, 3, 5, 8, 13])), max_order)

    def test_best_is_min_aic(self):
        data = CountSample(sample_mixture(TRUTH_2, 2 * 10**4, seed=4))
        scan = scan_orders(data, 3, FitConfig(starts=6, seed=4))
        aics = [f.aic for f in scan.fits]
        assert scan.best.aic == min(aics)


class TestPowerLawBaseline:
    def test_zeta_sampler_recovery(self):
        # inverse-CDF sampling of the zeta distribution, beta = 2.5
        beta = 2.5
        kmax = 10**6
        pmf = np.arange(1, kmax + 1, dtype=float) ** -beta / riemann_zeta(beta)[0]
        cdf = np.cumsum(pmf)
        rng = np.random.default_rng(7)
        draws = np.searchsorted(cdf, rng.random(10**5), side="right") + 1
        fit = fit_power_law(CountSample(draws))
        assert abs(fit.params["beta"] - beta) / beta < 0.02
        assert fit.converged
        assert fit.n_params == 1
        assert fit.aic == aic(fit.log_likelihood, 1)

    @pytest.mark.parametrize(
        "model", [TRUTH_2, MixtureModel.from_parameters([0.7, 0.3], [5.0, 500.0], [0.9, 1.3])]
    )
    def test_exponent_is_the_root_of_the_score(self, model):
        # reference: a brentq root of the score -mean log k - (log zeta)'(beta),
        # the derivative a central difference of log scipy.special.zeta
        data = CountSample(sample_mixture(model, 2 * 10**4, seed=12))
        ks, counts = data.ks, data.counts
        mean_log = float(np.dot(counts, np.log(ks)) / counts.sum())
        h = 1e-5

        def score(beta):
            d_log_zeta = (math.log(sps.zeta(beta + h)) - math.log(sps.zeta(beta - h))) / (2 * h)
            return -mean_log - d_log_zeta

        ref = brentq(score, 1.01, 10.0, xtol=1e-15, rtol=1e-15)
        fit = fit_power_law(data)
        assert fit.converged and fit.note == ""
        assert abs(fit.params["beta"] - ref) <= 1e-9 * ref

    def test_largest_counts_solve_the_score_inside_the_box(self):
        # mean log k is at most log 2**63 = 43.67, whose root is 1.0226, so no
        # int64 sample puts the exponent at its lower bound 1 + 1e-9
        fit = fit_power_law(CountSample(np.full(3, 2**63 - 1, dtype=np.int64)))
        zeta, d_zeta = riemann_zeta(fit.params["beta"])
        assert fit.converged and fit.params["beta"] > 1.02
        np.testing.assert_allclose(-d_zeta / zeta, math.log(2.0**63), rtol=1e-9)

    def test_all_ones_flagged(self):
        fit = fit_power_law(CountSample(np.ones(50, dtype=np.int64)))
        assert not fit.converged
        assert fit.params["beta"] >= 49.0

    def test_aic_worse_than_mixture_on_mixture_data(self):
        data = CountSample(sample_mixture(TRUTH_2, 2 * 10**4, seed=30))
        mix = fit_mixture(data, 2, FitConfig(starts=8, seed=0))
        assert fit_power_law(data).aic > mix.aic


class TestLognormalBaseline:
    def test_constant_data_degenerate(self):
        with pytest.raises(DegenerateDataError):
            fit_lognormal(CountSample(np.full(4, 3, dtype=np.int64)))

    def test_sampler_recovery(self):
        # continuous lognormal scaled x1000 before rounding, so the integer
        # grid does not bias the log moments
        rng = np.random.default_rng(3)
        x = rng.lognormal(1.0, 0.5, 10**5) * 1000.0
        fit = fit_lognormal(CountSample(np.maximum(1, np.rint(x)).astype(np.int64)))
        assert abs(fit.params["mu"] - math.log(1000.0) - 1.0) < 0.02
        assert abs(fit.params["sigma"] - 0.5) / 0.5 < 0.02
        assert fit.n_params == 2

    def test_aic_worse_than_mixture_on_mixture_data(self):
        data = CountSample(sample_mixture(TRUTH_2, 2 * 10**4, seed=31))
        mix = fit_mixture(data, 2, FitConfig(starts=8, seed=0))
        assert fit_lognormal(data).aic > mix.aic
