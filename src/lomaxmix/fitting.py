"""Maximum-likelihood fitting of discrete Lomax mixtures and baselines.

The mixture likelihood is maximized with a derivative-free simplex search
over an unconstrained reparameterization: log scales, log shapes, and
stick-breaking logits for the weights.  Multi-start initialization uses a
method-of-moments seed (quantile partition of the sample, one component
per group) plus log-normal jitter of factor-2 scale.  Model order is
selected by AIC; a discrete power law and a continuous lognormal serve as
comparison baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    SCALE_BOUNDS,
    SHAPE_BOUNDS,
    MixtureModel,
    _mix_log_pmf,
    mixture_log_pmf,
)
from .errors import (
    DegenerateDataError,
    DomainError,
    FitError,
    ValidationError,
)
from .optimize import nelder_mead
from .special import riemann_zeta

__all__ = [
    "CountSample",
    "FitConfig",
    "FitResult",
    "ScanResult",
    "BaselineResult",
    "n_params_for_order",
    "aic",
    "log_likelihood",
    "fit_mixture",
    "scan_orders",
    "fit_power_law",
    "fit_lognormal",
]

_PENALTY = 1e15
_LOG_JITTER = math.log(2.0)
# Outside the direct plan (see FitConfig), every start gets _COARSE_EVALS
# screening evaluations and the _REFINE_TOP best are polished to tol.
_COARSE_EVALS = 2_000
_REFINE_TOP = 8


@dataclass(frozen=True, eq=False)
class CountSample:
    """A multiset of positive-integer observations.

    ``values`` are the observed counts; optional ``weights`` give the
    multiplicity of each entry, so weighted and unweighted forms can
    represent the same multiset.
    """

    values: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        vals = np.asarray(self.values)
        if vals.ndim != 1 or vals.size == 0:
            raise DegenerateDataError("sample must be a non-empty 1-d sequence")
        if vals.dtype.kind == "f":
            if np.any(vals != np.floor(vals)) or not np.all(np.isfinite(vals)):
                raise DomainError("sample values must be integers")
            vals = vals.astype(np.int64)
        elif vals.dtype.kind not in "iu":
            raise DomainError(f"sample values must be integers, got dtype {vals.dtype}")
        else:
            vals = vals.astype(np.int64)
        if np.any(vals < 1):
            raise DomainError("sample values must be >= 1")
        object.__setattr__(self, "values", vals)
        if self.weights is not None:
            w = np.asarray(self.weights)
            if w.shape != vals.shape:
                raise ValidationError("weights must match values in length")
            if w.dtype.kind == "f":
                if np.any(w != np.floor(w)):
                    raise DomainError("weights must be integers")
            w = w.astype(np.int64)
            if np.any(w < 0):
                raise DomainError("weights must be >= 0")
            if int(w.sum()) < 1:
                raise DegenerateDataError("total weight must be >= 1")
            object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        """Total number of observations in the multiset."""
        if self.weights is None:
            return int(self.values.size)
        return int(self.weights.sum())

    def distinct(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted distinct values and their multiplicities."""
        if self.weights is None:
            vals, counts = np.unique(self.values, return_counts=True)
            return vals, counts.astype(np.int64)
        vals, inverse = np.unique(self.values, return_inverse=True)
        counts = np.zeros(vals.size, dtype=np.int64)
        np.add.at(counts, inverse, self.weights)
        keep = counts > 0
        return vals[keep], counts[keep]


@dataclass(frozen=True)
class FitConfig:
    """Knobs of the multi-start simplex search.

    ``starts`` starts are drawn from ``seed``, and no start spends more than
    ``max_evals`` objective evaluations.  With one start, or with
    ``max_evals`` at most 2,000, every start runs to relative tolerance
    ``tol``.  Otherwise every start is screened for 2,000 evaluations and
    the 8 best are polished to ``tol`` with the remaining
    ``max_evals - 2,000``.
    """

    starts: int = 20
    seed: int = 0
    max_evals: int = 50_000
    tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.starts < 1:
            raise DomainError(f"starts must be >= 1, got {self.starts!r}")
        if self.max_evals < 1:
            raise DomainError(f"max_evals must be >= 1, got {self.max_evals!r}")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise DomainError(f"tol must be finite and > 0, got {self.tol!r}")


@dataclass(frozen=True)
class FitResult:
    """A fitted mixture with its likelihood, AIC and search diagnostics."""

    model: MixtureModel
    log_likelihood: float
    n_params: int
    aic: float
    sample_size: int
    converged: bool
    starts_used: int
    seed: int

    @property
    def order(self) -> int:
        return self.model.order


@dataclass(frozen=True)
class BaselineResult:
    """Summary of a non-mixture comparison fit (power law or lognormal)."""

    kind: str
    params: dict
    log_likelihood: float
    n_params: int
    aic: float
    sample_size: int
    converged: bool
    note: str = ""


@dataclass(frozen=True)
class ScanResult:
    """Fits over a range of model orders plus the AIC-selected index."""

    fits: tuple[FitResult, ...]
    best_index: int
    failures: dict[int, str] = field(default_factory=dict)

    @property
    def best(self) -> FitResult:
        return self.fits[self.best_index]

    @property
    def delta_aic_runner_up(self) -> float | None:
        """AIC gap between the selected order and the next-best one."""
        if len(self.fits) < 2:
            return None
        others = [f.aic for i, f in enumerate(self.fits) if i != self.best_index]
        return min(others) - self.fits[self.best_index].aic


def n_params_for_order(order: int) -> int:
    """Number of free parameters of an M-component mixture: 3M - 1."""
    if order < 1:
        raise DomainError(f"order must be >= 1, got {order!r}")
    return 3 * order - 1


def aic(log_likelihood: float, n_params: int) -> float:
    """Akaike information criterion, -2 log L + 2 n."""
    if n_params < 1:
        raise DomainError(f"n_params must be >= 1, got {n_params!r}")
    if not math.isfinite(log_likelihood):
        raise DomainError("log_likelihood must be finite")
    return -2.0 * log_likelihood + 2.0 * n_params


def log_likelihood(model: MixtureModel, data: CountSample) -> float:
    """Sum of log mixture mass over the sample, via the distinct-value form."""
    ks, counts = data.distinct()
    return float(np.dot(counts.astype(float), mixture_log_pmf(model, ks)))


# ---------------------------------------------------------------------------
# unconstrained reparameterization
# ---------------------------------------------------------------------------


def _sigmoid(t: float) -> float:
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def _weights_from_logits(logits: np.ndarray, order: int) -> np.ndarray:
    c = np.empty(order)
    remaining = 1.0
    for j in range(order - 1):
        f = _sigmoid(float(logits[j]))
        f = min(max(f, 1e-15), 1.0 - 1e-15)
        c[j] = remaining * f
        remaining *= 1.0 - f
    c[order - 1] = remaining
    return c


def _logits_from_weights(c: np.ndarray) -> np.ndarray:
    order = c.size
    logits = np.empty(order - 1)
    remaining = 1.0
    for j in range(order - 1):
        f = min(max(c[j] / remaining, 1e-12), 1.0 - 1e-12)
        logits[j] = math.log(f / (1.0 - f))
        remaining *= 1.0 - f
    return logits


def _pack(c: np.ndarray, b: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.concatenate([_logits_from_weights(c), np.log(b), np.log(v)])


def _unpack(theta: np.ndarray, order: int):
    logits = theta[: order - 1]
    b = np.exp(np.minimum(theta[order - 1 : 2 * order - 1], 709.0))
    v = np.exp(np.minimum(theta[2 * order - 1 :], 709.0))
    return _weights_from_logits(logits, order), b, v


def _make_objective(ks: np.ndarray, counts: np.ndarray, order: int):
    b_lo, b_hi = SCALE_BOUNDS
    v_lo, v_hi = SHAPE_BOUNDS

    def nll(theta: np.ndarray) -> float:
        c, b, v = _unpack(theta, order)
        if np.any(b < b_lo) or np.any(b > b_hi) or np.any(v < v_lo) or np.any(v > v_hi):
            return _PENALTY
        val = -float(np.dot(counts, _mix_log_pmf(c, b, v, ks)))
        if not math.isfinite(val):
            return _PENALTY
        return val

    return nll


def _moment_start(ks: np.ndarray, counts: np.ndarray, order: int):
    """Quantile-partition seed: one component per group of the empirical mass.

    Each group contributes weight = its mass fraction, scale = its mean
    value, shape = 1.
    """
    n = counts.sum()
    n_distinct = ks.size
    b_lo, b_hi = SCALE_BOUNDS
    if n_distinct >= order:
        cum = np.cumsum(counts)
        edges = [0]
        for j in range(1, order):
            e = int(np.searchsorted(cum, n * j / order, side="left"))
            e = min(max(e, edges[-1] + 1), n_distinct - (order - j))
            edges.append(e)
        edges.append(n_distinct)
        weights, scales = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            mass = counts[lo:hi].sum()
            weights.append(mass / n)
            scales.append(np.dot(ks[lo:hi], counts[lo:hi]) / mass)
    else:  # fewer distinct values than components: spread around the mean
        mean = float(np.dot(ks, counts) / n)
        weights = [1.0 / order] * order
        scales = [mean * 2.0 ** (j - (order - 1) / 2.0) for j in range(order)]
    c = np.maximum(np.asarray(weights, dtype=float), 1e-3)
    c /= c.sum()
    b = np.clip(np.asarray(scales, dtype=float), b_lo * 10.0, b_hi / 10.0)
    v = np.ones(order)
    return _pack(c, b, v)


def fit_mixture(data: CountSample, order: int, config: FitConfig = FitConfig()) -> FitResult:
    """Maximum-likelihood fit of an ``order``-component mixture.

    Returns the best local optimum over ``config.starts`` starts; the
    fitted log-likelihood is never below the likelihood at any start's
    initial point.  Deterministic for a given (data, order, config).
    """
    if order < 1:
        raise DomainError(f"order must be >= 1, got {order!r}")
    ks_i, counts_i = data.distinct()
    n = int(counts_i.sum())
    n_free = n_params_for_order(order)
    if n < n_free:
        raise ValidationError(
            f"sample size {n} is too small to fit {n_free} parameters"
        )
    if ks_i.size == 1:
        raise DegenerateDataError(
            "all observations are identical; the mixture likelihood has no interior optimum"
        )
    ks = ks_i.astype(float)
    counts = counts_i.astype(float)
    nll = _make_objective(ks, counts, order)

    theta0 = _moment_start(ks, counts, order)
    key = np.array([config.seed % 2**64, order], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    starts = [theta0]
    for _ in range(config.starts - 1):
        starts.append(theta0 + rng.normal(0.0, _LOG_JITTER, theta0.size))

    # Direct plan: every start runs to tol.  Otherwise every start is
    # screened, then the leaders are polished within the rest of the cap.
    direct = config.starts == 1 or config.max_evals <= _COARSE_EVALS
    if direct:
        tol, budget = config.tol, config.max_evals
    else:
        tol, budget = max(config.tol, 1e-6), _COARSE_EVALS
    runs = [nelder_mead(nll, theta, tol=tol, max_evals=budget) for theta in starts]
    if not direct:
        # sorted() is stable, so the leaders are ordered by (fun, start index).
        # A polish cannot end above its screening optimum: that is its first
        # vertex, and Nelder-Mead never lets its best vertex get worse.
        leaders = sorted(runs, key=lambda r: r.fun)[:_REFINE_TOP]
        budget = config.max_evals - _COARSE_EVALS
        runs = [
            nelder_mead(nll, r.x, step=0.05, tol=config.tol, max_evals=budget)
            for r in leaders
        ]
    best = min(runs, key=lambda r: r.fun)  # the first minimum in run order

    if best.fun >= _PENALTY / 2.0:
        raise FitError(
            f"no start produced a usable optimum for order {order} "
            f"(best objective {best.fun}, {config.starts} starts)"
        )

    c, b, v = _unpack(best.x, order)
    b_lo, b_hi = SCALE_BOUNDS
    v_lo, v_hi = SHAPE_BOUNDS
    model = MixtureModel.from_parameters(
        c / c.sum(), np.clip(b, b_lo, b_hi), np.clip(v, v_lo, v_hi)
    )
    ll = log_likelihood(model, data)
    return FitResult(
        model=model,
        log_likelihood=ll,
        n_params=n_free,
        aic=aic(ll, n_free),
        sample_size=n,
        converged=best.converged,
        starts_used=config.starts,
        seed=config.seed,
    )


def scan_orders(data: CountSample, max_order: int, config: FitConfig = FitConfig()) -> ScanResult:
    """Fit every order 1..max_order and select the minimum-AIC model.

    Per-order failures are recorded rather than raised as long as at
    least one order fits; AIC ties go to the smaller order.
    """
    if max_order < 1:
        raise DomainError(f"max_order must be >= 1, got {max_order!r}")
    fits: list[FitResult] = []
    failures: dict[int, str] = {}
    for order in range(1, max_order + 1):
        try:
            fits.append(fit_mixture(data, order, config))
        except (FitError, DegenerateDataError, ValidationError, DomainError) as exc:
            failures[order] = str(exc)
    if not fits:
        raise FitError(f"no order in 1..{max_order} produced a fit: {failures}")
    best_index = min(range(len(fits)), key=lambda i: (fits[i].aic, fits[i].order))
    return ScanResult(fits=tuple(fits), best_index=best_index, failures=failures)


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def _golden_min(fn, lo: float, hi: float, iters: int = 160) -> float:
    """Golden-section minimum of a unimodal scalar function on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(iters):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = fn(x2)
    return (a + b) / 2.0


_BETA_LO = 1.0 + 1e-9
_BETA_HI = 50.0


def fit_power_law(data: CountSample) -> BaselineResult:
    """MLE of the zeta-normalized discrete power law P(k) = k^-beta / zeta(beta).

    The exponent is found by one-dimensional search over beta in
    (1, 50]; hitting either end of that range is flagged as a
    non-converged boundary fit.
    """
    ks_i, counts_i = data.distinct()
    ks = ks_i.astype(float)
    counts = counts_i.astype(float)
    n = counts.sum()
    sum_log = float(np.dot(counts, np.log(ks)))

    def nll(beta: float) -> float:
        return beta * sum_log + n * math.log(riemann_zeta(beta))

    converged, note = True, ""
    if sum_log == 0.0:  # every observation is k = 1; likelihood increases in beta
        beta_hat = _BETA_HI
        converged, note = False, "exponent at upper search bound (all mass at k = 1)"
    else:
        beta_hat = _golden_min(nll, _BETA_LO, _BETA_HI)
        if beta_hat >= _BETA_HI - 1e-3:
            converged, note = False, "exponent at upper search bound (mass concentrated at k = 1)"
        elif beta_hat <= _BETA_LO + 1e-6:
            converged, note = False, "exponent at lower bound: non-normalizable, non-finite-mean fit"
    ll = -nll(beta_hat)
    return BaselineResult(
        kind="power_law",
        params={"beta": float(beta_hat)},
        log_likelihood=ll,
        n_params=1,
        aic=aic(ll, 1),
        sample_size=int(n),
        converged=converged,
        note=note,
    )


def fit_lognormal(data: CountSample) -> BaselineResult:
    """Closed-form continuous lognormal MLE on the log counts."""
    ks_i, counts_i = data.distinct()
    ks = ks_i.astype(float)
    counts = counts_i.astype(float)
    n = counts.sum()
    log_k = np.log(ks)
    mu = float(np.dot(counts, log_k) / n)
    var = float(np.dot(counts, (log_k - mu) ** 2) / n)
    if var == 0.0:
        raise DegenerateDataError(
            "log-counts have zero variance; lognormal fit is degenerate"
        )
    sigma = math.sqrt(var)
    ll = -n * (math.log(sigma) + 0.5 * math.log(2.0 * math.pi) + 0.5) - float(
        np.dot(counts, log_k)
    )
    return BaselineResult(
        kind="lognormal",
        params={"mu": mu, "sigma": sigma},
        log_likelihood=ll,
        n_params=2,
        aic=aic(ll, 2),
        sample_size=int(n),
        converged=True,
    )


