"""Pearson chi-square goodness of fit and empirical survival curves.

Binning walks the integer support from k = 1 upward, greedily closing
each contiguous bin as soon as its expected count reaches the classical
validity floor (five); the final open bin absorbs the model's remaining
tail mass through the survival function, so expected counts always total
the sample size.  Degrees of freedom follow the fitted-parameter
correction dof = bins - 1 - n_params.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import MixtureModel, _integral, _mix_ccdf_scalar
from .errors import DomainError, InsufficientResolutionError, ValidationError
from .fitting import CountSample
from .special import regularized_upper_incomplete_gamma

__all__ = [
    "GofReport",
    "empirical_ccdf",
    "chi_square_statistic",
    "chi_square_survival",
    "chi_square_test",
]

_MIN_EXPECTED = 5.0
_MIN_BINS = 3
_MIN_SAMPLE = 25
_K_CAP = 2**62


@dataclass(frozen=True)
class GofReport:
    """Chi-square test outcome at significance level ``alpha``.

    Each bin is the record a report writes: ``{"k_lo", "k_hi", "observed",
    "expected"}`` for the contiguous bin [k_lo, k_hi), k_hi None for the open tail.
    """

    chi2: float
    dof: int
    p_value: float
    bins: tuple[dict, ...]
    alpha: float
    rejected: bool
    n_params: int
    sample_size: int


def empirical_ccdf(data: CountSample) -> tuple[np.ndarray, np.ndarray]:
    """Distinct observed values k and the sample fractions P_hat(K >= k)."""
    tail = np.cumsum(data.counts[::-1])[::-1]
    return data.ks, tail / data.size


def chi_square_statistic(observed, expected) -> float:
    """Pearson statistic sum (obs - exp)^2 / exp over aligned bins."""
    obs = np.asarray(observed, dtype=float)
    exp = np.asarray(expected, dtype=float)
    if obs.shape != exp.shape:
        raise ValidationError("observed and expected must align")
    if np.any(exp <= 0.0):
        raise DomainError("expected counts must be positive")
    return float(np.sum((obs - exp) ** 2 / exp))


def chi_square_survival(chi2: float, dof: int) -> float:
    """Upper-tail probability of the chi-square distribution."""
    if dof < 1:
        raise DomainError(f"dof must be >= 1, got {dof!r}")
    if chi2 < 0.0:
        raise DomainError(f"chi2 must be >= 0, got {chi2!r}")
    if chi2 == 0.0:
        return 1.0
    return regularized_upper_incomplete_gamma(dof / 2.0, chi2 / 2.0)


def _bin_edges(model: MixtureModel, n: float) -> tuple[list[int], list[float]]:
    """Contiguous integer bin edges with expected count >= 5 per closed bin,
    and the model survival at each edge."""
    edges = [1]
    survs = [1.0]
    surv_lo = 1.0
    while n * surv_lo >= 2.0 * _MIN_EXPECTED:
        lo = edges[-1]
        # gallop for the first edge with enough mass, then bisect for the
        # smallest such edge
        step = 1
        hi = lo + 1
        surv_hi = _mix_ccdf_scalar(model, hi)
        while n * (surv_lo - surv_hi) < _MIN_EXPECTED and hi < _K_CAP:
            step *= 2
            hi = lo + step
            surv_hi = _mix_ccdf_scalar(model, hi)
        if n * (surv_lo - surv_hi) < _MIN_EXPECTED:
            break
        low = lo + step // 2 if step > 1 else lo
        while hi - low > 1:
            mid = (low + hi) // 2
            surv_mid = _mix_ccdf_scalar(model, mid)
            if n * (surv_lo - surv_mid) >= _MIN_EXPECTED:
                hi, surv_hi = mid, surv_mid
            else:
                low = mid
        edges.append(hi)
        surv_lo = surv_hi
        survs.append(surv_lo)
    if len(edges) > 1 and n * surv_lo < _MIN_EXPECTED:
        edges.pop()  # merge a skinny tail into the last closed bin
        survs.pop()
    return edges, survs


def _check_alpha(alpha: float) -> None:
    """Refuse a significance level outside (0, 1); the CLI calls this before it loads and fits a sample."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")


def chi_square_test(
    model: MixtureModel,
    data: CountSample,
    n_params: int,
    alpha: float,
) -> GofReport:
    """Pearson chi-square test of ``model`` against ``data``.

    ``n_params`` is the number of parameters that were estimated from
    this data (0 for a fully specified model); it reduces the degrees of
    freedom as dof = bins - 1 - n_params.
    """
    n_params = _integral("n_params", n_params, 0)
    _check_alpha(alpha)
    ks, counts, n = data.ks, data.counts, data.size
    if n < _MIN_SAMPLE:
        raise ValidationError(f"need at least {_MIN_SAMPLE} observations, got {n}")

    edges, survs = _bin_edges(model, float(n))
    if len(edges) < _MIN_BINS:
        raise InsufficientResolutionError(
            f"only {len(edges)} bins of expected count >= {_MIN_EXPECTED}; "
            "the binned data cannot resolve the test"
        )
    dof = len(edges) - 1 - n_params
    if dof < 1:
        raise InsufficientResolutionError(
            f"{len(edges)} bins leave dof = {dof} after {n_params} fitted parameters"
        )

    # observed and expected counts per bin; the last bin is the open tail
    cum = np.concatenate([[0], np.cumsum(counts)])
    positions = np.searchsorted(ks, np.asarray(edges, dtype=np.int64), side="left")
    observed = np.diff(cum[positions], append=n)
    expected = -np.diff(survs, append=0.0) * n  # n (s_i - s_i+1), and n s_last
    bins = tuple(
        {"k_lo": lo, "k_hi": hi, "observed": o, "expected": e}
        for lo, hi, o, e in zip(edges, edges[1:] + [None], observed.tolist(), expected.tolist())
    )

    chi2 = chi_square_statistic(observed, expected)
    p_value = chi_square_survival(chi2, dof)
    return GofReport(
        chi2=chi2,
        dof=dof,
        p_value=p_value,
        bins=bins,
        alpha=float(alpha),
        rejected=p_value < alpha,
        n_params=n_params,
        sample_size=n,
    )
