"""Maximum-likelihood fitting of discrete Lomax mixtures and baselines.

The mixture likelihood is maximized over stick-breaking logits for the
weights, log scales and log shapes, boxed to the model's parameter
bounds.  All starts step together: one batched evaluation returns every
start's objective and analytic gradient, and a projected quasi-Newton
(BFGS) search moves each start on its own.  The starts are a
method-of-moments seed (quantile partition of the sample, one component
per group) plus log-normal jitter of factor-2 scale.  Model order is
selected by AIC; a discrete power law and a continuous lognormal serve as
comparison baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .distributions import (
    SCALE_BOUNDS,
    SHAPE_BOUNDS,
    MixtureModel,
    _component_terms,
    mixture_log_pmf,
)
from .errors import (
    DegenerateDataError,
    DomainError,
    FitError,
    ValidationError,
)
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

_LOG_JITTER = math.log(2.0)
_LOGIT_BOUND = 34.5  # a stick-breaking weight at this bound is ~1e-15
# Distinct values per slab of the batched objective, so its (starts, M,
# _BLOCK) temporaries stay a few MB at any sample size.
_BLOCK = 1024
_MAX_HALVINGS = 10  # per line search
_ARMIJO = 1e-4
_WINDOW = 10  # steps over which a decrease below tol ends a start


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
    """Knobs of the multi-start quasi-Newton search.

    ``starts`` starts are drawn from ``seed`` and searched together.  A
    start converges when its projected gradient is at most ``tol``
    max(1, |f|), f the negative log-likelihood, or when f fell by less than
    that over its last 10 steps.  A start that spends ``max_evals``
    evaluations of the objective and its gradient stops unconverged.
    """

    starts: int = 20
    seed: int = 0
    max_evals: int = 50_000
    tol: float = 1e-11

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
# bounded reparameterization and the batched objective
# ---------------------------------------------------------------------------


def _weights_from_logits(logits: np.ndarray) -> np.ndarray:
    """(S, M) stick-breaking weights of (S, M - 1) logits."""
    frac = 1.0 / (1.0 + np.exp(-logits))
    rest = 1.0 / (1.0 + np.exp(logits))  # 1 - frac without the cancellation
    c = np.empty((logits.shape[0], logits.shape[1] + 1))
    remaining = np.ones(logits.shape[0])
    for j in range(logits.shape[1]):
        c[:, j] = remaining * frac[:, j]
        remaining = remaining * rest[:, j]
    c[:, -1] = remaining
    return c


def _unpack(theta: np.ndarray, order: int):
    """(S, P) parameter rows to (S, M) weights, scales and shapes."""
    c = _weights_from_logits(theta[:, : order - 1])
    return c, np.exp(theta[:, order - 1 : 2 * order - 1]), np.exp(theta[:, 2 * order - 1 :])


def _box(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds of (logits, log b, log v)."""
    bounds = [(-_LOGIT_BOUND, _LOGIT_BOUND)] * (order - 1)
    bounds += [np.log(SCALE_BOUNDS)] * order + [np.log(SHAPE_BOUNDS)] * order
    return tuple(np.array(bounds).T)


def _objective(theta: np.ndarray, ks: np.ndarray, counts: np.ndarray):
    """Negative log-likelihood of each row of theta (S, P), and its gradient.

    With s, t and v t from ``_component_terms``, D = -expm1(v t) and
    Q = e^{v t} / D, a component's log-mass is -v s + log D and

        d log p / d log v = -v (s + t Q),
        d log p / d log b = v ((k - 1) / (k - 1 + b) - Q b / ((k - 1 + b)(k + b))).

    The mixture weights these by the responsibilities r; the logits of the
    stick-breaking weights take d f / d logit_j = -(R_j (1 - f_j) - f_j
    sum_{i>j} R_i), R_i the count-weighted sum of r_i.  The distinct values
    are taken _BLOCK at a time and every sum over them is a numpy sum over
    the last axis, so a row's result does not depend on the other rows.
    """
    rows, n_par = theta.shape
    order = (n_par + 1) // 3
    c, b, v = _unpack(theta, order)
    log_c = np.log(c)[:, :, None]
    b_col, neg_v = b[:, :, None], -v[:, :, None]
    nll = np.zeros(rows)
    resp = np.zeros((rows, order))
    grad_b = np.zeros((rows, order))
    grad_v = np.zeros((rows, order))
    for lo in range(0, ks.size, _BLOCK):
        k, n = ks[lo : lo + _BLOCK], counts[lo : lo + _BLOCK]
        s, t, d = _component_terms(b, v, k)
        q = np.exp(d)
        np.expm1(d, out=d)
        np.negative(d, out=d)  # D
        q /= d  # Q
        logp = s * neg_v
        logp += np.log(d, out=d)
        logp += log_c
        if order == 1:
            log_mix, w = logp[:, 0], n  # every responsibility is 1
        else:
            top = logp.max(axis=1)
            logp -= top[:, None]
            w = np.exp(logp, out=logp)
            total = w.sum(axis=1)
            log_mix = np.log(total)
            log_mix += top
            w *= (n / total)[:, None]  # count-weighted responsibilities
            resp += w.sum(axis=2)
        nll -= (log_mix * n).sum(axis=1)
        t *= q
        t += s  # s + t Q
        grad_v += np.multiply(t, w, out=t).sum(axis=2)
        # (k - 1)/(k - 1 + b) - Q b/((k - 1 + b)(k + b)) = (z - Q / (k + b)) / (1 + z)
        # with z = (k - 1) / b
        z = np.divide(k - 1.0, b_col, out=s)
        np.add(k, b_col, out=d)
        np.divide(q, d, out=q)
        np.subtract(z, q, out=q)
        z += 1.0
        q /= z
        grad_b += np.multiply(q, w, out=q).sum(axis=2)
    grad = np.empty_like(theta)
    if order > 1:
        logits = theta[:, : order - 1]
        later = np.cumsum(resp[:, :0:-1], axis=1)[:, ::-1]  # sum over i > j of R_i
        grad[:, : order - 1] = later / (1 + np.exp(-logits)) - resp[:, :-1] / (1 + np.exp(logits))
    grad[:, order - 1 : 2 * order - 1] = -v * grad_b
    grad[:, 2 * order - 1 :] = v * grad_v
    return nll, grad


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
    logits, remaining = [], 1.0  # stick-breaking
    for weight in c[:-1]:
        f = min(max(weight / remaining, 1e-12), 1.0 - 1e-12)
        logits.append(math.log(f / (1.0 - f)))
        remaining *= 1.0 - f
    return np.concatenate([logits, np.log(b), np.zeros(order)])  # log v = 0


def _held(x, g, lo, hi) -> np.ndarray:
    """Parameters held at a bound: at the bound with the gradient pushing out."""
    return ((x <= lo) & (g > 0.0)) | ((x >= hi) & (g < 0.0))


def _minimize(fun, x, lo, hi, tol: float, max_evals: int):
    """Projected BFGS from every row of x (S, P) at once, within [lo, hi].

    ``fun`` maps rows to their objective values and gradients.  Parameters
    at a bound whose gradient pushes outward are held; the others step along
    -H g, H a per-row inverse-Hessian estimate on the free parameters.  A
    parameter that becomes held leaves H, one released re-enters it as the
    scaled identity, so H keeps what it learned.  A backtracking line search
    halves a step at most _MAX_HALVINGS times; failing along -H g, the row
    retries along the scaled gradient, and failing there it has converged
    (its noise floor).  It also converges when its projected gradient is at
    most tol max(1, |f|) or f fell by less than that over its last _WINDOW
    steps, and stops unconverged after ``max_evals`` evaluations.  A row's
    path depends on that row alone.  Returns the final rows, objectives,
    convergence flags and evaluation counts.
    """
    n_par = x.shape[1]
    diag = np.arange(n_par)
    x = np.clip(x, lo, hi)
    f, g = fun(x)
    out = [x.copy(), f.copy(), np.zeros(f.size, dtype=bool), np.ones(f.size, dtype=np.int64)]
    # the rows still running, in row order
    row, evals, converged = np.arange(f.size), out[3].copy(), out[2].copy()
    h_inv = np.zeros((f.size, n_par, n_par))
    fresh = np.ones(f.size, dtype=bool)  # no H: step along the scaled gradient
    gamma = np.full(f.size, math.nan)  # latest s.y / y.y
    held = _held(x, g, lo, hi)
    recent = np.full((f.size, _WINDOW + 1), math.inf)  # f over the last steps
    recent[:, -1] = f
    while True:
        limit = tol * np.maximum(1.0, np.abs(f))
        converged |= np.abs(np.clip(x - g, lo, hi) - x).max(axis=1) <= limit
        converged |= recent[:, 0] - f <= limit
        done = converged | (evals >= max_evals) | ~np.isfinite(f)
        if done.any():
            for dst, val in zip(out, (x, f, converged, evals)):
                dst[row[done]] = val[done]
            if done.all():
                return tuple(out)
            state = (row, x, f, g, evals, converged, h_inv, fresh, gamma, held, recent)
            row, x, f, g, evals, converged, h_inv, fresh, gamma, held, recent = (
                a[~done] for a in state
            )

        free = ~held
        g_free = g * free
        step = -(h_inv * g_free[:, None, :]).sum(axis=2)
        fresh |= (step * g_free).sum(axis=1) >= 0.0  # not a descent direction
        scale = np.where(np.isnan(gamma), 1.0 / np.abs(g_free).max(axis=1), gamma)
        step = np.where(fresh[:, None], -scale[:, None] * g_free, step)

        trial, f_t, g_t = x.copy(), f.copy(), g.copy()
        good = np.zeros(row.size, dtype=bool)
        pending = np.arange(row.size)
        for halving in range(_MAX_HALVINGS + 1):
            x_p = np.clip(x[pending] + 0.5**halving * step[pending], lo, hi)
            f_p, g_p = fun(x_p)
            evals[pending] += 1
            ok = f_p <= f[pending] + _ARMIJO * ((x_p - x[pending]) * g[pending]).sum(axis=1)
            moved = pending[ok]
            trial[moved], f_t[moved], g_t[moved], good[moved] = x_p[ok], f_p[ok], g_p[ok], True
            pending = pending[~ok & (evals[pending] < max_evals)]
            if pending.size == 0:
                break
        failed = ~good & (evals < max_evals)
        converged |= failed & fresh  # the noise floor
        fresh |= failed

        # BFGS update on the free parameters; a fresh row first gets gamma I
        s, y = trial - x, (g_t - g) * free
        sy, yy = (s * y).sum(axis=1), (y * y).sum(axis=1)
        curved = good & (sy > 1e-12 * np.sqrt((s * s).sum(axis=1) * yy))
        sy = np.where(curved, sy, 1.0)
        gamma = np.where(curved, sy / np.where(curved, yy, 1.0), gamma)
        h = np.where((curved & fresh)[:, None, None], 0.0, h_inv)
        h[:, diag, diag] += np.where((curved & fresh)[:, None] & free, gamma[:, None], 0.0)
        hy = (h * y[:, None, :]).sum(axis=2)
        rho = 1.0 / sy
        coef = rho * (1.0 + rho * (y * hy).sum(axis=1))
        h += coef[:, None, None] * s[:, :, None] * s[:, None, :]
        h -= rho[:, None, None] * (hy[:, :, None] * s[:, None, :] + s[:, :, None] * hy[:, None, :])
        h_inv = np.where(curved[:, None, None], h, h_inv)
        fresh &= ~curved

        x, g = np.where(good[:, None], trial, x), np.where(good[:, None], g_t, g)
        f = np.where(good, f_t, f)
        now_held = _held(x, g, lo, hi)
        changed = now_held != held
        h_inv *= ~(changed[:, :, None] | changed[:, None, :])
        h_inv[:, diag, diag] += np.where(changed & ~now_held & ~fresh[:, None], gamma[:, None], 0.0)
        held = now_held
        recent = np.concatenate([recent[:, 1:], f[:, None]], axis=1)


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
        raise ValidationError(f"sample size {n} is too small to fit {n_free} parameters")
    if ks_i.size == 1:
        raise DegenerateDataError(
            "all observations are identical; the mixture likelihood has no interior optimum"
        )
    ks = ks_i.astype(float)
    counts = counts_i.astype(float)

    theta0 = _moment_start(ks, counts, order)
    key = np.array([config.seed % 2**64, order], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    starts = theta0 + np.vstack(
        [np.zeros(theta0.size), rng.normal(0.0, _LOG_JITTER, (config.starts - 1, theta0.size))]
    )
    fun = partial(_objective, ks=ks, counts=counts)
    x, f, converged, _ = _minimize(fun, starts, *_box(order), config.tol, config.max_evals)
    best = int(np.argmin(np.where(np.isfinite(f), f, np.inf)))  # the first minimum
    if not np.isfinite(f[best]):
        raise FitError(f"no start produced a usable optimum for order {order}")

    c, b, v = _unpack(x[best : best + 1], order)
    model = MixtureModel.from_parameters(
        c[0] / c[0].sum(), np.clip(b[0], *SCALE_BOUNDS), np.clip(v[0], *SHAPE_BOUNDS)
    )
    ll = log_likelihood(model, data)
    return FitResult(
        model=model,
        log_likelihood=ll,
        n_params=n_free,
        aic=aic(ll, n_free),
        sample_size=n,
        converged=bool(converged[best]),
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


