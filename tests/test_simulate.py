"""Sampler correctness: exact inverse transforms, moments, reproducibility."""

import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from lomaxmix import (
    CountSample,
    DomainError,
    MixtureModel,
    ValidationError,
    chi_square_test,
    sample_mixture,
)
from lomaxmix.simulate import _CHUNK, _SLAB, _ahead, _boost, _counts_from_rates, _gamma_at_least_one, _rng

import mechanism
import sampler_reference
from memory import peak_above


def single(b, v):
    return MixtureModel.from_parameters([1.0], [b], [v])


def gamma_variates(rng, shape, size):
    """``size`` Gamma(shape) variates as ``sample_mixture`` draws a component's rates, before its scale."""
    g = np.concatenate([np.empty(0), *_gamma_at_least_one(rng, shape + (shape < 1.0), size)])
    if shape < 1.0:
        _boost(rng, g, shape)
    return g


def geometric_draws(lam, n, seed):
    """Counts of the single-rate geometric law, P(K > k) = e^(-k lam)."""
    return _counts_from_rates(_rng(seed), np.full(n, lam))


class TestGeometricSampler:
    def test_mean_at_log2(self):
        s = geometric_draws(math.log(2.0), 10**6, seed=1)
        sigma_mean = math.sqrt(2.0 / 10**6)  # Var(K) = e^-lam / (1 - e^-lam)^2
        assert abs(s.mean() - 2.0) < 3.0 * sigma_mean

    def test_mean_at_small_rate(self):
        s = geometric_draws(0.01, 10**6, seed=2)
        assert abs(s.mean() - 100.50083333194443) / 100.5 < 0.01

    def test_large_rate_collapses_to_one(self):
        assert np.all(geometric_draws(20.0, 1000, seed=5) == 1)

    def test_vanishing_rate_saturates_below_int64_max(self):
        # rate 0 and rates whose draws round to 2**63 or more as floats
        counts = _counts_from_rates(_rng(0), np.array([0.0, 1e-300, 1e-280]))
        assert counts.tolist() == [2**63 - 1024] * 3

    def test_inverse_transform_tail(self):
        lam = 0.3
        s = geometric_draws(lam, 10**6, seed=3)
        for k in (1, 5, 20):
            target = math.exp(-k * lam)
            sigma = math.sqrt(target * (1.0 - target) / 10**6)
            observed = np.mean(s > k)
            assert abs(observed - target) < 3.0 * sigma

    def test_reproducible(self):
        a = geometric_draws(0.7, 1000, seed=9)
        b = geometric_draws(0.7, 1000, seed=9)
        c = geometric_draws(0.7, 1000, seed=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestGammaVariates:
    def test_moments(self):
        for shape in (0.3, 0.5, 1.0, 3.0, 40.0):
            g = gamma_variates(_rng(11), shape, 3 * 10**5)
            assert abs(g.mean() - shape) / shape < 0.02
            assert abs(g.var() - shape) / shape < 0.05

    def test_distribution_ks(self):
        # both branches of the sampler against the scipy gamma CDF
        for shape in (0.4, 2.5):
            g = gamma_variates(_rng(23), shape, 10**5)
            res = stats.kstest(g, stats.gamma(a=shape).cdf)
            assert res.pvalue > 1e-3


class TestMixtureSampler:
    def test_mass_at_one(self):
        s = sample_mixture(single(1.0, 1.0), 10**6, seed=3)
        sigma = math.sqrt(0.25 / 10**6)
        assert abs(np.mean(s == 1) - 0.5) < 3.0 * sigma

    def test_reproducible_per_seed(self):
        model = MixtureModel.from_parameters([0.7, 0.3], [2.0, 20.0], [1.2, 3.0])
        a = sample_mixture(model, 100, seed=1)
        b = sample_mixture(model, 100, seed=1)
        c = sample_mixture(model, 100, seed=2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_peak_memory_of_a_million_draws(self):
        # README: 1e6 draws from 0.7:5:0.9,0.3:500:1.3 peak at 11.2 MiB of numpy memory,
        # 8.6 of them the output and the component index (17.0 with each component's
        # rates and mask whole)
        model = MixtureModel.from_parameters([0.7, 0.3], [5.0, 500.0], [0.9, 1.3])
        draws, peak = peak_above(sample_mixture, model, 1_000_000, 0)
        assert draws.size == 1_000_000
        assert peak < 13 * 2**20

    def test_golden_stream(self):
        model = MixtureModel.from_parameters([0.7, 0.3], [2.0, 20.0], [1.2, 3.0])
        s = sample_mixture(model, 10, seed=123)
        assert s.tolist() == [2, 1, 2, 2, 13, 1, 2, 1, 4, 2]

    def test_matches_closed_form_chi_square(self):
        model = MixtureModel.from_parameters([0.7, 0.3], [2.0, 20.0], [1.2, 3.0])
        data = CountSample(sample_mixture(model, 10**6, seed=41))
        rep = chi_square_test(model, data, n_params=0, alpha=0.001)
        assert not rep.rejected

    def test_two_sample_consistency(self):
        # two independent streams binned on a common grid
        model = single(2.0, 1.5)
        a = sample_mixture(model, 10**6, seed=51)
        b = sample_mixture(model, 10**6, seed=52)
        edges = np.array([1, 2, 3, 5, 8, 13, 21, 40, 100, 10**9])
        oa, _ = np.histogram(a, bins=edges)
        ob, _ = np.histogram(b, bins=edges)
        keep = (oa + ob) > 0
        chi2 = float(np.sum((oa[keep] - ob[keep]) ** 2 / (oa[keep] + ob[keep])))
        dof = int(keep.sum() - 1)
        from lomaxmix.gof import chi_square_survival

        assert chi_square_survival(chi2, dof) > 0.001

    def test_validation(self):
        model = single(1.0, 1.0)
        with pytest.raises(Exception):
            sample_mixture(model, 0, seed=1)
        with pytest.raises(ValidationError):
            sample_mixture("not a model", 10, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**128], ids=["-1", "2**128"])
    def test_seed_outside_philox_key_range(self, seed):
        with pytest.raises(DomainError, match="seed must lie in"):
            sample_mixture(single(1.0, 1.0), 10, seed=seed)

    def test_largest_seed_accepted(self):
        assert sample_mixture(single(1.0, 1.0), 10, seed=2**128 - 1).size == 10

    # int() truncated these: 10.5 drew 10 counts and seed 1.9 the stream of seed 1
    @pytest.mark.parametrize(
        "n, seed, name",
        [(10.5, 1, "n"), (float("nan"), 1, "n"), ("10", 1, "n"), (True, 1, "n"),
         (10, 1.9, "seed"), (10, float("inf"), "seed"), (10, True, "seed")],
        ids=["n-10.5", "n-nan", "n-str", "n-True", "seed-1.9", "seed-inf", "seed-True"],
    )
    def test_non_integral_arguments_refused(self, n, seed, name):
        with pytest.raises(DomainError, match=f"{name} must be an integer"):
            sample_mixture(single(1.0, 1.0), n, seed=seed)

    def test_integral_floats_accepted(self):
        model = single(1.0, 1.0)
        assert np.array_equal(sample_mixture(model, 1e3, seed=2.0), sample_mixture(model, 1000, seed=2))


class TestAhead:
    """_ahead gives the stream ``delta`` doubles later and leaves its argument
    where it was, from any fill of Philox's four-output buffer."""

    @pytest.mark.parametrize("seed", [0, 7, 2**128 - 2, 2**128 - 1])
    def test_equals_the_stream_delta_doubles_later(self, seed):
        for drawn in range(8):  # 0 to 3 doubles left in the buffer, twice over
            for delta in [0, 1, 2, 3, 4, 5, 7, 8, 9, 4097, _CHUNK + 3]:
                rng = _rng(seed)
                rng.random(drawn)
                ahead = _ahead(rng, delta)
                want = _rng(seed)
                want.random(drawn + delta)
                assert np.array_equal(ahead.random(9), want.random(9)), (drawn, delta)
                want = _rng(seed)
                want.random(drawn)
                assert np.array_equal(rng.random(9), want.random(9)), (drawn, delta)

    @pytest.mark.parametrize("shape", [0.3, 1.3])
    def test_gamma_leaves_the_generator_at_the_whole_array_position(self, shape):
        for size in [1, 2, _CHUNK - 1, _CHUNK + 1, 3 * _CHUNK]:
            rng, want = _rng(5), _rng(5)
            rng.random(size % 4)  # start with some doubles buffered
            want.random(size % 4)
            gamma_variates(rng, shape, size)
            sampler_reference.gamma_variates(want, shape, size)
            assert np.array_equal(rng.random(9), want.random(9)), size

    def test_counts_may_overwrite_their_rates(self):
        lam = np.geomspace(1e-12, 30.0, 3 * _CHUNK + 5)
        lam[::7] = 0.0
        want = sampler_reference.counts_from_rates(_rng(8), lam)
        got = _counts_from_rates(_rng(8), lam)
        assert np.shares_memory(got, lam)
        assert np.array_equal(got, want)


class TestStreamReference:
    """The chunked, in-place sampler draws the same values as the whole-array
    reference of sampler_reference, across chunk edges and both gamma branches."""

    SIZES = [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 200_000]

    @pytest.mark.parametrize("shape", [0.05, 0.3, 0.9, 1.0, 1.3, 3.0, 40.0])
    def test_gamma_variates(self, shape):
        for size in self.SIZES:
            for seed in (0, 1, 2):
                got = gamma_variates(_rng(seed), shape, size)
                want = sampler_reference.gamma_variates(_rng(seed), shape, size)
                assert np.array_equal(got, want), (size, seed)

    def test_counts_from_rates(self):
        for size in self.SIZES:
            lam = np.geomspace(1e-12, 30.0, size)
            lam[::7] = 0.0
            got = _counts_from_rates(_rng(size), lam.copy())  # which it overwrites
            want = sampler_reference.counts_from_rates(_rng(size), lam)
            assert np.array_equal(got, want), size

    @pytest.mark.parametrize(
        "spec",
        [
            ([1.0], [2.0], [0.4]),
            ([0.7, 0.3], [5.0, 500.0], [0.9, 1.3]),
            ([0.2, 0.5, 0.3], [1.0, 30.0, 4.0], [2.5, 0.05, 40.0]),
            ([1e-9, 1.0 - 2e-9, 1e-9], [3.0, 3.0, 3.0], [1.2, 3.0, 0.3]),
        ],
    )
    def test_sample_mixture(self, spec):
        model = MixtureModel.from_parameters(*spec)
        sizes = [(1, 0), (_CHUNK + 1, 3), (_SLAB - 1, 5), (_SLAB + 1, 6), (3 * _SLAB, 7), (200_000, 4)]
        for n, seed in sizes:
            want = sampler_reference.sample_values(model, n, _rng(seed))
            assert np.array_equal(sample_mixture(model, n, seed), want), (n, seed)

    @pytest.mark.parametrize(
        ("seed", "digest"),
        [
            (0, "c8c059d1fdc5685e81b79e0cdc70f3c38c14266dbb271e29cd0c5b96b1d233d1"),
            (1, "66ff0246ca3dbeeccbbbde7b8befc395ae7881c7d920512124fee0c93ea21018"),
        ],
    )
    def test_golden_wide_stream(self, seed, digest):
        # 0.7:5:0.9,0.3:500:1.3 reaches the boost below shape 1 and several rejection rounds
        model = MixtureModel.from_parameters([0.7, 0.3], [5.0, 500.0], [0.9, 1.3])
        values = sample_mixture(model, 300_000, seed)
        assert hashlib.sha256(values.tobytes()).hexdigest() == digest


class TestCompetingObservables:
    """The C10 oracle's draws, built on this module's uniform and gamma samplers."""

    def test_single_competitor_uniform_marginal(self):
        budget = 3.0
        draws = mechanism.competing_observables(1, budget, 10**5, seed=5)
        mid = budget / 2.0
        assert abs(np.mean(draws >= mid) - 0.5) < 0.01
        # exact curve for N=1 is linear
        np.testing.assert_allclose(mechanism.exact_ccdf(mid, 1, budget), 0.5)

    def test_large_n_matches_exact_marginal(self):
        draws = mechanism.competing_observables(1000, 1.0, 10**5, seed=6)
        assert mechanism.sup_distance(draws, mechanism.exact_ccdf(draws, 1000, 1.0)) < 0.01

    def test_exact_close_to_exponential_limit(self):
        x = np.linspace(0.0, 3.0 / 1000, 20001)
        gap = np.abs(mechanism.exact_ccdf(x, 1000, 1.0) - mechanism.exponential_ccdf(x, 1000, 1.0))
        assert gap.max() < 0.005

    def test_samples_in_budget(self):
        budget = 4.8
        draws = mechanism.competing_observables(5, budget, 5000, seed=8)
        assert np.all(draws >= 0.0)
        assert np.all(draws <= budget)
