"""Empirical survival curves and the Pearson chi-square engine."""

import numpy as np
import pytest

from lomaxmix import (
    CountSample,
    DomainError,
    FitConfig,
    InsufficientResolutionError,
    MixtureModel,
    ValidationError,
    chi_square_test,
    empirical_ccdf,
    fit_mixture,
    mixture_ccdf,
    sample_mixture,
)
from lomaxmix.gof import GofBin, _bin_edges, chi_square_statistic, chi_square_survival


def single(b, v):
    return MixtureModel.from_parameters([1.0], [b], [v])


class TestEmpiricalCcdf:
    def test_hand_counted(self):
        ks, fr = empirical_ccdf(CountSample(np.array([1, 1, 2, 4])))
        assert ks.tolist() == [1, 2, 4]
        assert fr.tolist() == [1.0, 0.5, 0.25]

    def test_single_value(self):
        ks, fr = empirical_ccdf(CountSample(np.array([7])))
        assert ks.tolist() == [7]
        assert fr.tolist() == [1.0]

    def test_close_to_model_ccdf(self):
        # Dvoretzky-Kiefer-Wolfowitz: 1e5 draws stay within 0.01 of the model
        model = MixtureModel.from_parameters([0.6, 0.4], [1.5, 12.0], [1.1, 2.5])
        data = sample_mixture(model, 10**5, seed=29)
        ks, fr = empirical_ccdf(data)
        gap = np.abs(fr - mixture_ccdf(model, ks))
        assert gap.max() < 0.01

    def test_monotone_and_normalized(self):
        data = sample_mixture(single(3.0, 1.0), 5000, seed=2)
        _, fr = empirical_ccdf(data)
        assert fr[0] == 1.0
        assert np.all(np.diff(fr) < 0.0)
        ks, counts = data.distinct()
        assert fr[-1] == counts[-1] / data.size


class TestChiSquareStatistic:
    def test_zero_when_equal(self):
        obs = np.array([10.0, 20.0, 30.0])
        assert chi_square_statistic(obs, obs) == 0.0
        assert chi_square_survival(0.0, 5) == 1.0

    def test_textbook_quantile(self):
        # upper tail of chi-square(5) at 11.0705 is 5%
        p = chi_square_survival(11.0705, 5)
        assert abs(p - 0.05) < 1e-4

    def test_survival_decreasing_in_statistic(self):
        ps = [chi_square_survival(x, 7) for x in np.linspace(0.1, 60.0, 200)]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_validates(self):
        with pytest.raises(DomainError):
            chi_square_survival(-1.0, 5)
        with pytest.raises(DomainError):
            chi_square_survival(1.0, 0)
        with pytest.raises(DomainError):
            chi_square_statistic([1.0], [0.0])


class TestChiSquareTest:
    def test_bin_construction(self):
        model = single(2.0, 1.5)
        data = sample_mixture(model, 10**4, seed=3)
        rep = chi_square_test(model, data, n_params=0, alpha=0.1)
        assert rep.bins[0].k_lo == 1
        assert rep.bins[-1].k_hi is None
        for left, right in zip(rep.bins[:-1], rep.bins[1:]):
            assert left.k_hi == right.k_lo
        assert all(b.expected >= 5.0 for b in rep.bins)
        assert sum(b.observed for b in rep.bins) == data.size
        np.testing.assert_allclose(
            sum(b.expected for b in rep.bins), data.size, atol=1e-6
        )
        assert rep.dof == len(rep.bins) - 1 - rep.n_params

    @pytest.mark.parametrize(
        "model",
        [single(2.0, 1.5), MixtureModel.from_parameters([0.7, 0.3], [5.0, 500.0], [0.9, 1.3])],
        ids=["M1", "M2"],
    )
    def test_bins_equal_a_per_bin_reference(self, model):
        # each bin counted over the raw values, and n times the survival's fall across it
        values = sample_mixture(model, 20_000, seed=8).values
        rep = chi_square_test(model, CountSample(values), n_params=0, alpha=0.1)
        edges, survs = _bin_edges(model, float(values.size))
        n = float(values.size)
        reference = []
        for i, lo in enumerate(edges[:-1]):
            hi = edges[i + 1]
            observed = int(np.count_nonzero((values >= lo) & (values < hi)))
            reference.append(GofBin(lo, hi, observed, n * (survs[i] - survs[i + 1])))
        reference.append(GofBin(edges[-1], None, int(np.count_nonzero(values >= edges[-1])), n * survs[-1]))
        assert rep.bins == tuple(reference)
        assert all(type(b.observed) is int and type(b.expected) is float for b in rep.bins)

    def test_true_model_not_rejected(self):
        model = single(2.0, 1.5)
        data = sample_mixture(model, 10**5, seed=11)
        rep = chi_square_test(model, data, n_params=0, alpha=0.001)
        assert not rep.rejected

    def test_alpha_is_a_parameter(self):
        model = single(2.0, 1.5)
        data = sample_mixture(model, 10**4, seed=5)
        lo = chi_square_test(model, data, n_params=0, alpha=1e-9)
        hi = chi_square_test(model, data, n_params=0, alpha=0.999999)
        assert lo.alpha == 1e-9 and hi.alpha == 0.999999
        assert not lo.rejected
        assert hi.rejected
        assert (lo.rejected == (lo.p_value < lo.alpha))
        assert (hi.rejected == (hi.p_value < hi.alpha))

    def test_representation_and_order_invariance(self):
        model = single(1.5, 1.2)
        values = sample_mixture(model, 4000, seed=6).values
        rng = np.random.default_rng(0)
        shuffled = values.copy()
        rng.shuffle(shuffled)
        reps = [
            chi_square_test(model, CountSample(values), 0, 0.05),
            chi_square_test(model, CountSample(shuffled), 0, 0.05),
        ]
        assert reps[0].chi2 == reps[1].chi2
        assert reps[0].p_value == reps[1].p_value

    def test_level_with_fitted_parameters(self):
        """The level holds when the M = 2 fit's 5 parameters come off dof.

        Samples of 500 from a two-component truth, seeds 0 to 99, each
        fitted with 5 starts and tested at alpha = 0.1.  With dof = bins - 1
        - 5 the rejections are Bin(100, 0.1), and [3, 20] leaves about 1e-3
        in each tail.  These fits reject 8 (a median of 23 bins); with dof =
        bins - 1 they reject 1.  Budget: 100 fits and tests, about 5 s.
        """
        truth = MixtureModel.from_parameters([0.7, 0.3], [2.0, 20.0], [1.2, 3.0])
        rejected = 0
        for seed in range(100):
            data = sample_mixture(truth, 500, seed=seed)
            fit = fit_mixture(data, 2, FitConfig(starts=5))
            rejected += chi_square_test(fit.model, data, fit.n_params, 0.1).rejected
        assert 3 <= rejected <= 20

    def test_too_small_sample(self):
        model = single(1.0, 1.0)
        with pytest.raises(ValidationError):
            chi_square_test(model, CountSample(np.arange(1, 11)), 0, 0.05)

    def test_insufficient_bins(self):
        # nearly all model mass at k = 1: only the tail bin survives merging
        model = single(0.01, 5.0)
        data = CountSample(np.ones(60, dtype=np.int64))
        with pytest.raises(InsufficientResolutionError):
            chi_square_test(model, data, n_params=0, alpha=0.05)

    def test_dof_exhausted_by_parameters(self):
        model = single(2.0, 1.5)
        data = sample_mixture(model, 200, seed=9)
        rep = chi_square_test(model, data, n_params=0, alpha=0.05)
        with pytest.raises(InsufficientResolutionError):
            chi_square_test(model, data, n_params=len(rep.bins) - 1, alpha=0.05)
