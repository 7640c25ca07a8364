"""Likelihood, AIC bookkeeping, mixture MLE, and baseline fits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    n_params_for_order,
    sample_mixture,
    scan_orders,
)
from lomaxmix import fitting
from lomaxmix.report import sample_digest
from lomaxmix.special import riemann_zeta


def single(b, v):
    return MixtureModel.from_parameters([1.0], [b], [v])


TRUTH_2 = MixtureModel.from_parameters([0.7, 0.3], [2.0, 20.0], [1.2, 3.0])


class TestCountSample:
    def test_distinct_merges_weights(self):
        a = CountSample(np.array([1, 1, 2, 4]))
        b = CountSample(np.array([1, 2, 4]), weights=np.array([2, 1, 1]))
        ka, ca = a.distinct()
        kb, cb = b.distinct()
        assert np.array_equal(ka, kb) and np.array_equal(ca, cb)
        assert a.size == b.size == 4

    def test_rejects_bad_values(self):
        with pytest.raises(DomainError):
            CountSample(np.array([0, 1]))
        with pytest.raises(DomainError):
            CountSample(np.array([1.5]))
        with pytest.raises(DegenerateDataError):
            CountSample(np.array([], dtype=np.int64))


    @settings(max_examples=40, deadline=None, database=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(1, 10**6), st.integers(0, 30)), min_size=1, max_size=40
        ).filter(lambda p: sum(w for _, w in p) >= 1)
    )
    def test_weighted_and_expanded_forms_agree(self, pairs):
        values = np.array([k for k, _ in pairs], dtype=np.int64)
        weights = np.array([w for _, w in pairs], dtype=np.int64)
        weighted = CountSample(values, weights=weights)
        expanded = CountSample(np.repeat(values, weights))
        for a, b in zip(weighted.distinct(), expanded.distinct()):
            assert np.array_equal(a, b)
        assert sample_digest(weighted) == sample_digest(expanded)
        model = MixtureModel.from_parameters([0.6, 0.4], [2.0, 50.0], [1.1, 2.5])
        assert log_likelihood(model, weighted) == log_likelihood(model, expanded)
        if weighted.distinct()[0].size < 2 or weighted.size < 2:
            return
        config = FitConfig(starts=2, seed=1)
        a, b = fit_mixture(weighted, 1, config), fit_mixture(expanded, 1, config)
        assert a.model == b.model and a.log_likelihood == b.log_likelihood


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

    def test_bit_exact_on_fit(self):
        data = sample_mixture(single(2.0, 1.5), 2000, seed=1)
        fit = fit_mixture(data, 1, FitConfig(starts=4, seed=0))
        assert fit.aic == aic(fit.log_likelihood, fit.n_params)
        assert fit.n_params == n_params_for_order(fit.order)


class TestFitMixture:
    def test_single_component_recovery(self):
        data = sample_mixture(single(2.0, 1.5), 10**5, seed=42)
        fit = fit_mixture(data, 1, FitConfig(seed=0))
        comp = fit.model.components[0]
        assert abs(comp.scale - 2.0) / 2.0 < 0.05
        assert abs(comp.shape - 1.5) / 1.5 < 0.05
        assert fit.converged

    def test_dominates_truth_likelihood(self):
        data = sample_mixture(TRUTH_2, 3 * 10**4, seed=7)
        fit = fit_mixture(data, 2, FitConfig(seed=7))
        assert fit.log_likelihood >= log_likelihood(TRUTH_2, data) - 1e-6

    def test_dominates_every_start_seed(self):
        # the returned optimum must beat the method-of-moments seed
        from lomaxmix.fitting import _moment_start, _objective

        data = sample_mixture(TRUTH_2, 10**4, seed=3)
        ks, counts = (a.astype(float) for a in data.distinct())
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

    def test_deterministic(self):
        data = sample_mixture(TRUTH_2, 5000, seed=5)
        a = fit_mixture(data, 2, FitConfig(starts=6, seed=11))
        b = fit_mixture(data, 2, FitConfig(starts=6, seed=11))
        assert a.model == b.model
        assert a.log_likelihood == b.log_likelihood
        assert a.aic == b.aic

    def test_sample_order_invariant(self):
        rng = np.random.default_rng(13)
        values = sample_mixture(TRUTH_2, 5000, seed=13).values
        shuffled = values.copy()
        rng.shuffle(shuffled)
        a = fit_mixture(CountSample(values), 2, FitConfig(starts=4, seed=2))
        b = fit_mixture(CountSample(shuffled), 2, FitConfig(starts=4, seed=2))
        assert a.model == b.model and a.log_likelihood == b.log_likelihood

    def test_canonical_output_and_weight_recovery(self):
        # weights recovered within 3 standard errors; the SE is the marginal
        # one from the full 5-parameter observed information, since the
        # profile curvature alone understates it under correlation
        data = sample_mixture(TRUTH_2, 10**6, seed=17)
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
        [("starts", 0), ("starts", -3), ("max_evals", 0),
         ("tol", -1.0), ("tol", 0.0), ("tol", math.nan), ("tol", math.inf)],
    )
    def test_rejects_nonsense(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be"):
            FitConfig(**{field: value})


class TestFitter:
    """The batched objective and the projected BFGS search over all starts."""

    @pytest.fixture(scope="class")
    def data(self):
        return sample_mixture(TRUTH_2, 3000, seed=5)

    @staticmethod
    def rows(data, order, n, seed):
        ks, counts = (a.astype(float) for a in data.distinct())
        rng = np.random.default_rng(seed)
        theta = fitting._moment_start(ks, counts, order) + rng.normal(0.0, 0.5, (n, 3 * order - 1))
        return theta, ks, counts

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_gradient_matches_central_differences(self, data, order):
        theta, ks, counts = self.rows(data, order, 3, order)
        if order == 3:  # the last component at the shape bound
            theta[1, -1] = math.log(fitting.SHAPE_BOUNDS[1])
        _, grad = fitting._objective(theta, ks, counts)
        step = 1e-5
        numeric = np.empty_like(grad)
        for j in range(theta.shape[1]):
            up, down = theta.copy(), theta.copy()
            up[:, j] += step
            down[:, j] -= step
            numeric[:, j] = (
                fitting._objective(up, ks, counts)[0] - fitting._objective(down, ks, counts)[0]
            ) / (2.0 * step)
        for g, fd in zip(grad, numeric):
            assert np.abs(g - fd).max() <= 1e-6 * np.abs(g).max()

    def test_objective_is_the_log_likelihood(self, data):
        theta, ks, counts = self.rows(data, 3, 4, 0)
        nll, _ = fitting._objective(theta, ks, counts)
        c, b, v = fitting._unpack(theta, 3)
        for i in range(theta.shape[0]):
            model = MixtureModel.from_parameters(c[i] / c[i].sum(), b[i], v[i])
            np.testing.assert_allclose(-nll[i], log_likelihood(model, data), rtol=1e-12)

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
        ks, counts = (a.astype(float) for a in data.distinct())
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

    def test_evaluation_cap_is_per_start(self, data, monkeypatch):
        real = fitting._minimize
        results = []

        def recorder(*args):
            results.append(real(*args))
            return results[-1]

        monkeypatch.setattr(fitting, "_minimize", recorder)
        fit = fit_mixture(data, 2, FitConfig(starts=5, max_evals=7))
        (_, _, converged, evals), = results
        assert evals.tolist() == [7] * 5
        assert not converged.any() and fit.converged is False
        fit = fit_mixture(data, 2, FitConfig(starts=5))
        assert fit.converged and results[-1][3].max() < 50_000


class TestScanOrders:
    def test_single_order(self):
        data = sample_mixture(single(2.0, 1.5), 3000, seed=2)
        scan = scan_orders(data, 1, FitConfig(starts=4, seed=0))
        assert len(scan.fits) == 1
        assert scan.best_index == 0
        assert scan.delta_aic_runner_up is None

    def test_selects_two_components(self):
        data = sample_mixture(TRUTH_2, 5 * 10**4, seed=21)
        scan = scan_orders(data, 4, FitConfig(seed=21))
        assert scan.best.order == 2
        assert scan.delta_aic_runner_up > 0.0

    def test_single_geometric_like_component(self):
        # near-geometric truth: one tight component suffices
        data = sample_mixture(single(100.0, 100.0), 2 * 10**4, seed=8)
        scan = scan_orders(data, 3, FitConfig(seed=8))
        assert scan.best.order == 1

    def test_best_is_min_aic(self):
        data = sample_mixture(TRUTH_2, 2 * 10**4, seed=4)
        scan = scan_orders(data, 3, FitConfig(starts=6, seed=4))
        aics = [f.aic for f in scan.fits]
        assert scan.best.aic == min(aics)


class TestPowerLawBaseline:
    def test_zeta_sampler_recovery(self):
        # inverse-CDF sampling of the zeta distribution, beta = 2.5
        beta = 2.5
        kmax = 10**6
        pmf = np.arange(1, kmax + 1, dtype=float) ** -beta / riemann_zeta(beta)
        cdf = np.cumsum(pmf)
        rng = np.random.default_rng(7)
        draws = np.searchsorted(cdf, rng.random(10**5), side="right") + 1
        fit = fit_power_law(CountSample(draws))
        assert abs(fit.params["beta"] - beta) / beta < 0.02
        assert fit.converged
        assert fit.n_params == 1
        assert fit.aic == aic(fit.log_likelihood, 1)

    def test_all_ones_flagged(self):
        fit = fit_power_law(CountSample(np.ones(50, dtype=np.int64)))
        assert not fit.converged
        assert fit.params["beta"] >= 49.0

    def test_aic_worse_than_mixture_on_mixture_data(self):
        data = sample_mixture(TRUTH_2, 2 * 10**4, seed=30)
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
        data = sample_mixture(TRUTH_2, 2 * 10**4, seed=31)
        mix = fit_mixture(data, 2, FitConfig(starts=8, seed=0))
        assert fit_lognormal(data).aic > mix.aic
