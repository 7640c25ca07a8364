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
from functools import cached_property, partial

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
_EPS = float(np.finfo(float).eps)
# Hager and Zhang's approximate Wolfe test for a step whose predicted decrease
# f cannot resolve: sigma phi'(0) <= phi'(1) <= (2 delta - 1) phi'(0)
_WOLFE_SIGMA, _WOLFE_DELTA = 0.9, 0.1
_WINDOW = 10  # steps over which a decrease below tol ends a start
_TOL = 1e-11  # the relative stop tolerance of every fit; see _minimize
_MAX_EVALS = 50_000  # evaluations of the objective and its gradient per start
# CountSample tallies the values below _TALLY (a tally of at most 512 KiB),
# _SLAB values at a time, and sorts only the rest
_TALLY = 2**16
_SLAB = 2**14
# the most int64 or float64 values numpy holds in one array: its byte size must fit intp
_MAX_SIZE = np.iinfo(np.intp).max // np.dtype(np.int64).itemsize


@dataclass(frozen=True, eq=False)
class CountSample:
    """A multiset of positive-integer observations.

    ``values`` are the observed counts, one entry per observation.  The
    sample holds them read-only, so its distinct-value form is computed
    once: an int64 array that is read-only and owns its data is kept as
    it is, any other input is copied.  The distinct values are counted,
    not sorted: values below ``_TALLY`` go into a tally as long as the
    largest of them, and only a copy of the larger ones is sorted, so a
    heavy-tailed sample needs no sorted copy of itself.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values)
        if vals.ndim != 1 or vals.size == 0:
            raise DegenerateDataError("sample must be a non-empty 1-d sequence")
        if vals.dtype.kind == "f":
            if np.any(vals != np.floor(vals)) or not np.all(np.isfinite(vals)):
                raise DomainError("sample values must be integers")
        elif vals.dtype.kind not in "iu":
            raise DomainError(f"sample values must be integers, got dtype {vals.dtype}")
        if np.any(vals < 1):
            raise DomainError("sample values must be >= 1")
        # only these dtypes hold values that int64 cannot
        if (vals.dtype.kind == "f" or vals.dtype == np.uint64) and np.any(vals >= 2**63):
            raise DomainError(f"sample values must be <= {2**63 - 1}")
        if vals.dtype != np.int64 or vals.flags.writeable or not vals.flags.owndata:
            vals = vals.astype(np.int64)  # a copy the caller cannot change
            vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def size(self) -> int:
        """Number of observations."""
        return int(self.values.size)

    def distinct(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted distinct values and their multiplicities (read-only arrays)."""
        return self._distinct

    @cached_property
    def _distinct(self) -> tuple[np.ndarray, np.ndarray]:
        values = self.values
        rest = values[values >= _TALLY]  # the values not tallied
        tally = np.zeros(_TALLY if rest.size else int(values.max()) + 1, dtype=np.int64)
        for lo in range(0, values.size, _SLAB):
            slab = values[lo : lo + _SLAB]
            np.add.at(tally, slab[slab < _TALLY], 1)
        small = np.flatnonzero(tally)
        rest.sort()
        edges = np.empty(rest.size + 1, dtype=bool)  # where each run of equal values starts, and the end
        edges[0] = edges[-1] = True
        np.not_equal(rest[1:], rest[:-1], out=edges[1:-1])
        edges = np.flatnonzero(edges)
        vals = np.empty(small.size + edges.size - 1, dtype=np.int64)
        vals[: small.size] = small
        np.take(rest, edges[:-1], out=vals[small.size :], mode="clip")  # "raise" would buffer out
        del rest
        counts = np.empty_like(vals)
        counts[: small.size] = tally[small]
        np.subtract(edges[1:], edges[:-1], out=counts[small.size :])
        vals.flags.writeable = False
        counts.flags.writeable = False
        return vals, counts


@dataclass(frozen=True)
class FitConfig:
    """Knobs of the multi-start quasi-Newton search.

    ``starts`` starts are drawn from ``seed`` and searched together.  Every
    fit stops on the rules of ``_minimize``, with tol = ``_TOL`` and
    max_evals = ``_MAX_EVALS``.
    """

    starts: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.starts < 1:
            raise DomainError(f"starts must be >= 1, got {self.starts!r}")


@dataclass(frozen=True)
class FitResult:
    """A fitted mixture with its likelihood, AIC and search diagnostics."""

    model: MixtureModel
    log_likelihood: float
    n_params: int
    aic: float
    sample_size: int
    converged: bool

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
    neg_v = -v[:, :, None]
    nll = np.zeros(rows)
    resp = np.zeros((rows, order))
    grad_b = np.zeros((rows, order))
    grad_v = np.zeros((rows, order))
    # every slab's terms, in buffers allocated once; see _component_terms
    bufs = np.empty((7, rows, order, min(ks.size, _BLOCK)))
    for lo in range(0, ks.size, _BLOCK):
        k, n = ks[lo : lo + _BLOCK], counts[lo : lo + _BLOCK]
        z, s, kb, t, d, q, logp = bufs[..., : k.size]
        _component_terms(b, v, k, out=(z, s, kb, t, d))  # z = (k - 1) / b, kb = k + b
        np.exp(d, out=q)
        np.expm1(d, out=d)
        np.negative(d, out=d)  # D
        q /= d  # Q
        np.multiply(s, neg_v, out=logp)
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
        q /= kb
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
    halves a step p at most _MAX_HALVINGS times until f falls by the Armijo
    fraction of the decrease -g.p predicts.  At the noise floor, where that
    prediction is at most eps max(1, |f|) and f's rounding hides it, the
    search is one trial x_p at the full step, accepted on Hager and Zhang's
    approximate Wolfe test: f_p <= f + eps max(1, |f|) and sigma phi'(0) <=
    phi'(1) <= (2 delta - 1) phi'(0), with phi'(0) = g.(x_p - x) and phi'(1)
    = g_p.(x_p - x).  Failing along -H g, the row retries along the scaled
    gradient, and failing there it has converged.  It also converges when
    its projected gradient is at most tol max(1, |f|) or f fell by less
    than that over its last _WINDOW steps, and stops unconverged after
    ``max_evals`` evaluations.  A row's path depends on that row alone.
    Returns the final rows, objectives, convergence flags and evaluation
    counts.
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
            state = (row, x, f, g, evals, converged, h_inv, fresh, gamma, held, recent, limit)
            row, x, f, g, evals, converged, h_inv, fresh, gamma, held, recent, limit = (
                a[~done] for a in state
            )

        free = ~held
        g_free = g * free
        step = -(h_inv * g_free[:, None, :]).sum(axis=2)
        fresh |= (step * g_free).sum(axis=1) >= 0.0  # not a descent direction
        scale = np.where(np.isnan(gamma), 1.0 / np.abs(g_free).max(axis=1), gamma)
        step = np.where(fresh[:, None], -scale[:, None] * g_free, step)
        # the noise floor: the decrease -g.step predicts is at most
        # eps max(1, |f|) = limit eps / tol, below what f can resolve
        floor = (step * g_free).sum(axis=1) * (-tol / _EPS) <= limit

        trial, f_t, g_t = x.copy(), f.copy(), g.copy()
        good = np.zeros(row.size, dtype=bool)
        pending = np.arange(row.size)
        for halving in range(_MAX_HALVINGS + 1):
            x_p = np.clip(x[pending] + 0.5**halving * step[pending], lo, hi)
            f_p, g_p = fun(x_p)
            evals[pending] += 1
            dx = x_p - x[pending]
            slope = (dx * g[pending]).sum(axis=1)  # phi'(0)
            ok = f_p <= f[pending] + _ARMIJO * slope
            retry = ~ok & (evals[pending] < max_evals)
            if halving == 0 and floor.any():  # one trial, tested on the derivative
                end = (dx * g_p).sum(axis=1)  # phi'(1)
                wolfe = (f_p <= f + limit * (_EPS / tol)) & (
                    (_WOLFE_SIGMA * slope <= end) & (end <= (2.0 * _WOLFE_DELTA - 1.0) * slope)
                )
                ok = np.where(floor, wolfe, ok)
                retry &= ~floor
            moved = pending[ok]
            trial[moved], f_t[moved], g_t[moved], good[moved] = x_p[ok], f_p[ok], g_p[ok], True
            pending = pending[retry]
            if pending.size == 0:
                break
        failed = ~good & (evals < max_evals)
        converged |= failed & fresh  # failed along the scaled gradient too
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


def _check_start_array(starts: int, order: int) -> None:
    """Refuse a start array of starts x (3M - 1) values that numpy cannot hold."""
    if starts > _MAX_SIZE // (n_free := n_params_for_order(order)):
        raise DomainError(f"starts x (3M - 1) = {starts} x {n_free} values at M = {order} exceeds the {_MAX_SIZE} one array can hold")


def fit_mixture(data: CountSample, order: int, config: FitConfig = FitConfig()) -> FitResult:
    """Maximum-likelihood fit of an ``order``-component mixture.

    Returns the best local optimum over ``config.starts`` starts; the
    fitted log-likelihood is never below the likelihood at any start's
    initial point.  Deterministic for a given (data, order, config).
    """
    if order < 1:
        raise DomainError(f"order must be >= 1, got {order!r}")
    _check_start_array(config.starts, order)
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
    x, f, converged, _ = _minimize(fun, starts, *_box(order), _TOL, _MAX_EVALS)
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
    )


def scan_orders(data: CountSample, max_order: int, config: FitConfig = FitConfig()) -> ScanResult:
    """Fit every order 1..max_order and select the minimum-AIC model.

    Per-order failures are recorded rather than raised as long as at
    least one order fits; AIC ties go to the smaller order.
    """
    if max_order < 1:
        raise DomainError(f"max_order must be >= 1, got {max_order!r}")
    _check_start_array(config.starts, max_order)
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


_BETA_HI = 50.0
# beta - 1 is searched on a log scale, so the pole of zeta at beta = 1 is a
# gentle slope there and not a wall that stops the line search
_LOG_BETA_BOUNDS = (math.log(1e-9), math.log(_BETA_HI - 1.0))  # beta in [1 + 1e-9, 50]


def fit_power_law(data: CountSample) -> BaselineResult:
    """MLE of the zeta-normalized discrete power law P(k) = k^-beta / zeta(beta).

    The exponent solves -zeta'(beta) / zeta(beta) = mean log k; it is found
    by the mixtures' projected BFGS on log(beta - 1), beta in [1 + 1e-9, 50].
    When every observation is k = 1 the likelihood increases in beta, and
    the fit is flagged as non-converged at beta = 50.
    """
    ks_i, counts_i = data.distinct()
    ks = ks_i.astype(float)
    counts = counts_i.astype(float)
    n = counts.sum()
    sum_log = float(np.dot(counts, np.log(ks)))

    def nll(beta: float) -> tuple[float, float]:  # and its derivative in log(beta - 1)
        zeta, d_zeta = riemann_zeta(beta)
        return beta * sum_log + n * math.log(zeta), (beta - 1.0) * (sum_log + n * d_zeta / zeta)

    def objective(x: np.ndarray):  # one (1, 1) row of log(beta - 1)
        f, g = nll(1.0 + math.exp(x[0, 0]))
        return np.array([f]), np.full((1, 1), g)

    if sum_log == 0.0:  # every observation is k = 1
        beta_hat, converged = _BETA_HI, False
        note = "exponent at upper search bound (all mass at k = 1)"
    else:
        x, _, done, _ = _minimize(objective, np.zeros((1, 1)), *_LOG_BETA_BOUNDS, _TOL, _MAX_EVALS)
        beta_hat, converged, note = 1.0 + math.exp(x[0, 0]), bool(done[0]), ""
    ll = -nll(beta_hat)[0]
    return BaselineResult(
        kind="power_law",
        params={"beta": beta_hat},
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


