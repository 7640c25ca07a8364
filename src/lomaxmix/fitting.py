"""Maximum-likelihood fitting of discrete Lomax mixtures and baselines.

The mixture likelihood is maximized over stick-breaking logits for the
weights, log scales and log shapes, boxed to the model's parameter
bounds.  The starts share one batched evaluation: each call returns every
running start's objective and analytic gradient at that start's own trial
point, and a projected quasi-Newton (BFGS) search with a line search per
start moves each start on its own.  The starts are a
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
    _integral,
    _validate_counts,
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
# a block at a time (the constructor's blocks are _SLAB values), and sorts only the rest
_TALLY = 2**16
_SLAB = 2**14
# a large sample's starts are screened on its values up to _GROUP_FROM, then intervals 0.5% wide, up to order
# _SCREEN_TO: at M = 3 and 4 the screen passed in none of eight 20-start fits of 3e5-1e6 counts, and cost time
_GROUP_FROM, _GROUP_RATIO, _SCREEN_TO = 256, 1.005, 2
# the most int64 or float64 values numpy holds in one array: its byte size must fit intp
_MAX_SIZE = np.iinfo(np.intp).max // np.dtype(np.int64).itemsize


@dataclass(frozen=True, eq=False, init=False)
class CountSample:
    """A multiset of positive-integer observations, held as its distinct values.

    ``CountSample(values)`` takes the observed counts, one entry per
    observation, and keeps ``ks``, the sorted distinct values, and
    ``counts``, their multiplicities: read-only int64 arrays that share
    no memory with ``values``.  The likelihood depends on a sample only
    through this form.  The values are counted, not sorted: a block of
    values at a time, those below ``_TALLY`` go into a tally that grows to
    the largest of them, and only the larger ones are kept and sorted, so
    a heavy-tailed sample needs no sorted copy of itself.  The constructor
    feeds ``_hold`` slabs of ``_SLAB`` values, and ``_from_blocks`` takes
    the blocks of a loader, so a loader need not hold the values whole.
    """

    ks: np.ndarray
    counts: np.ndarray

    def __init__(self, values) -> None:
        values = np.asarray(values)
        if values.ndim != 1 or values.size == 0:
            raise DegenerateDataError("sample must be a non-empty 1-d sequence")
        values, _ = _validate_counts(values, "sample values")
        # only these dtypes hold values that int64 cannot
        if (values.dtype.kind == "f" or values.dtype == np.uint64) and np.any(values >= 2**63):
            raise DomainError(f"sample values must be <= {2**63 - 1}")
        values = values.astype(np.int64, copy=False)
        self._hold(values[lo : lo + _SLAB] for lo in range(0, values.size, _SLAB))

    @classmethod
    def _from_blocks(cls, blocks) -> CountSample:
        """The sample of the values of ``blocks``, int64 arrays of values >= 1, read one block at a time."""
        sample = object.__new__(cls)
        sample._hold(blocks)
        return sample

    def _hold(self, blocks) -> None:
        """Set ``ks`` and ``counts`` from the blocks of values, as in ``_from_blocks``."""
        tally = np.zeros(1, dtype=np.int64)  # tally[v]: the values v so far
        rest = [np.empty(0, dtype=np.int64)]  # the values not tallied, per block
        for block in blocks:
            if block.max(initial=0) >= _TALLY:
                rest.append(block[block >= _TALLY])
                block = block[block < _TALLY]
            top = int(block.max(initial=0))
            if top >= tally.size:
                # zeros, not np.append: the pages of the new tail stay unwritten until
                # a value lands there, so a sparse tail costs no resident memory
                grown = np.zeros(top + 1, dtype=np.int64)
                grown[: tally.size] = tally
                tally = grown
            np.add.at(tally, block, 1)
            del block  # not held while the next block is made
        rest = np.concatenate(rest)
        small = np.flatnonzero(tally)
        rest.sort()
        edges = np.empty(rest.size + 1, dtype=bool)  # where each run of equal values starts, and the end
        edges[0] = edges[-1] = True
        np.not_equal(rest[1:], rest[:-1], out=edges[1:-1])
        edges = np.flatnonzero(edges)
        ks = np.empty(small.size + edges.size - 1, dtype=np.int64)
        ks[: small.size] = small
        np.take(rest, edges[:-1], out=ks[small.size :], mode="clip")  # "raise" would buffer out
        counts = np.empty_like(ks)
        counts[: small.size] = tally[small]
        np.subtract(edges[1:], edges[:-1], out=counts[small.size :])
        ks.flags.writeable = False
        counts.flags.writeable = False
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "counts", counts)

    @property
    def size(self) -> int:
        """Number of observations."""
        return int(self.counts.sum())


@dataclass(frozen=True)
class FitConfig:
    """Knobs of the multi-start quasi-Newton search.

    ``starts`` starts are drawn from ``seed`` and searched together (or, at M = 1
    and 2, perhaps the first alone; see ``fit_mixture``).  Every fit stops on the
    rules of ``_minimize``, with tol = ``_TOL`` and max_evals = ``_MAX_EVALS``.
    """

    starts: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "starts", _integral("starts", self.starts, 1))
        object.__setattr__(self, "seed", _integral("seed", self.seed))


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
    return 3 * _integral("order", order, 1) - 1


def aic(log_likelihood: float, n_params: int) -> float:
    """Akaike information criterion, -2 log L + 2 n."""
    n_params = _integral("n_params", n_params, 1)
    if not math.isfinite(log_likelihood):
        raise DomainError("log_likelihood must be finite")
    return -2.0 * log_likelihood + 2.0 * n_params


def log_likelihood(model: MixtureModel, data: CountSample) -> float:
    """Sum of log mixture mass over the sample, via the distinct-value form."""
    return float(np.dot(data.counts.astype(float), mixture_log_pmf(model, data.ks)))


# ---------------------------------------------------------------------------
# bounded reparameterization and the batched objective
# ---------------------------------------------------------------------------


def _weights_from_logits(logits: np.ndarray):
    """(S, M) stick-breaking weights of (S, M - 1) logits, and the 1 + exp(-logit)
    and 1 + exp(logit) they divide by, which the logit gradient divides by too."""
    over = 1.0 + np.exp(-logits), 1.0 + np.exp(logits)
    frac, rest = 1.0 / over[0], 1.0 / over[1]  # rest = 1 - frac without the cancellation
    c = np.empty((logits.shape[0], logits.shape[1] + 1))
    remaining = np.ones(logits.shape[0])
    for j in range(logits.shape[1]):
        c[:, j] = remaining * frac[:, j]
        remaining = remaining * rest[:, j]
    c[:, -1] = remaining
    return c, over


def _unpack(theta: np.ndarray, order: int):
    """(S, P) parameter rows to (S, M) weights, scales and shapes."""
    c = _weights_from_logits(theta[:, : order - 1])[0]
    return c, np.exp(theta[:, order - 1 : 2 * order - 1]), np.exp(theta[:, 2 * order - 1 :])


def _box(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds of (logits, log b, log v)."""
    bounds = [(-_LOGIT_BOUND, _LOGIT_BOUND)] * (order - 1)
    bounds += [np.log(SCALE_BOUNDS)] * order + [np.log(SHAPE_BOUNDS)] * order
    return tuple(np.array(bounds).T)


def _objective(theta: np.ndarray, ks: np.ndarray, counts: np.ndarray, widths=None):
    """Negative log-likelihood of each row of theta (S, P), and its gradient.

    With s, t and v t from ``_component_terms``, D = -expm1(v t) and
    Q = e^{v t} / D, a component's log-mass is -v s + log D and

        d log p / d log v = -v (s + t Q),
        d log p / d log b = v ((k - 1) / (k - 1 + b) - Q w b / ((k - 1 + b)(k - 1 + w + b))),

    where row k holds the observations in [k, k + w): w is 1 when ``widths``
    is None, and otherwise a grouped sample's interval width (_grouped).

    The mixture weights these by the responsibilities r; the logits of the
    stick-breaking weights take d f / d logit_j = -(R_j (1 - f_j) - f_j
    sum_{i>j} R_i), R_i the count-weighted sum of r_i.  The distinct values
    are taken _BLOCK at a time and every sum over them is a numpy sum over
    the last axis, so a row's result does not depend on the other rows.
    """
    rows, n_par = theta.shape
    order = (n_par + 1) // 3
    c, (over_frac, over_rest) = _weights_from_logits(theta[:, : order - 1])
    b, v = np.exp(theta[:, order - 1 : 2 * order - 1]), np.exp(theta[:, 2 * order - 1 :])
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
        w_k = None if widths is None else widths[lo : lo + _BLOCK]
        z, s, kb, t, d, q, logp = bufs[..., : k.size]
        _component_terms(b, v, k, out=(z, s, kb, t, d), w=w_k)  # z = (k - 1) / b, kb = k - 1 + w + b
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
        # (k - 1)/(k - 1 + b) - Q w_k b/((k - 1 + b) kb) = (z - Q w_k / kb) / (1 + z)
        q /= kb
        if w_k is not None:
            q *= w_k
        np.subtract(z, q, out=q)
        z += 1.0
        q /= z
        grad_b += np.multiply(q, w, out=q).sum(axis=2)
    grad = np.empty_like(theta)
    if order > 1:
        later = np.cumsum(resp[:, :0:-1], axis=1)[:, ::-1]  # sum over i > j of R_i
        grad[:, : order - 1] = later / over_frac - resp[:, :-1] / over_rest
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

    ``fun`` maps rows to their objective values and gradients; each call
    evaluates every running row once, at that row's own trial point.
    Parameters at a bound whose gradient pushes outward are held; the others
    step along -H g, H a per-row inverse-Hessian estimate on the free
    parameters.  A parameter that becomes held leaves H, one released
    re-enters it as the scaled identity, so H keeps what it learned.  Each
    row runs its own backtracking line search: it halves its step p, one
    call at a time and at most _MAX_HALVINGS times, until f falls by the
    Armijo fraction of the decrease -g.p predicts.  At the noise floor,
    where that prediction is at most eps max(1, |f|) and f's rounding hides
    it, the search is one trial x_p at the full step, accepted on Hager and
    Zhang's approximate Wolfe test: f_p <= f + eps max(1, |f|) and sigma
    phi'(0) <= phi'(1) <= (2 delta - 1) phi'(0), with phi'(0) = g.(x_p - x)
    and phi'(1) = g_p.(x_p - x).  Failing along -H g, the row retries along
    the scaled gradient, and failing there it has converged.  It also
    converges when its projected gradient is at most tol max(1, |f|) or f
    fell by less than that over its last _WINDOW steps, and stops
    unconverged after ``max_evals`` evaluations, one per call it runs for.
    The stop tests and the direction are computed for every row at each
    call; a row in mid-search keeps the x, f, g and H its search started
    from, so only the rows whose search ended can change them.  A row's path
    depends on that row alone.  Returns the final rows, objectives,
    convergence flags and evaluation counts.
    """
    n_par = x.shape[1]
    diag = np.arange(n_par)
    x = np.clip(x, lo, hi)
    f, g = (a.copy() for a in fun(x))  # updated in place
    out = [x.copy(), f.copy(), np.zeros(f.size, dtype=bool), np.ones(f.size, dtype=np.int64)]
    # the rows still running, in row order; each call evaluates them all
    row, calls, converged = np.arange(f.size), 1, out[2].copy()
    h_inv = np.zeros((f.size, n_par, n_par))
    fresh = np.ones(f.size, dtype=bool)  # no H: step along the scaled gradient
    gamma = np.full(f.size, math.nan)  # latest s.y / y.y
    held = _held(x, g, lo, hi)
    recent = np.full((f.size, _WINDOW + 1), math.inf)  # f over the last steps
    recent[:, -1] = f
    scale = np.ones(f.size)  # 0.5**(halvings so far) in each row's search
    while True:
        limit = tol * np.maximum(1.0, np.abs(f))
        converged |= np.maximum.reduce(np.abs(np.minimum(np.maximum(x - g, lo), hi) - x), axis=1) <= limit
        converged |= recent[:, 0] - f <= limit
        done = converged | ~np.isfinite(f) | (calls >= max_evals)
        if done.any():
            at = row[done]
            out[0][at], out[1][at], out[2][at], out[3][at] = x[done], f[done], converged[done], calls
            if done.all():
                return tuple(out)
            state = (row, x, f, g, converged, h_inv, fresh, gamma, held, recent, scale, limit)
            row, x, f, g, converged, h_inv, fresh, gamma, held, recent, scale, limit = (a[~done] for a in state)

        free = ~held
        g_free = g * free
        step = -np.add.reduce(h_inv * g_free[:, None, :], axis=2)
        gain = np.add.reduce(step * g_free, axis=1)
        fresh |= gain >= 0.0  # not a descent direction
        if fresh.any():
            first = np.where(np.isnan(gamma), 1.0 / np.maximum.reduce(np.abs(g_free), axis=1), gamma)
            step = np.where(fresh[:, None], -first[:, None] * g_free, step)
            gain = np.add.reduce(step * g_free, axis=1)
        # the noise floor: the decrease -g.step predicts is at most
        # eps max(1, |f|) = limit eps / tol, below what f can resolve
        floor = gain * (-tol / _EPS) <= limit

        x_p = np.minimum(np.maximum(x + scale[:, None] * step, lo), hi)
        f_p, g_p = fun(x_p)
        calls += 1
        dx = x_p - x
        slope = np.add.reduce(dx * g, axis=1)  # phi'(0)
        good = f_p <= f + _ARMIJO * slope
        last = scale <= 0.5**_MAX_HALVINGS  # the search's last trial
        if floor.any():  # one trial, tested on the derivative
            end = np.add.reduce(dx * g_p, axis=1)  # phi'(1)
            wolfe = (f_p <= f + limit * (_EPS / tol)) & (
                (_WOLFE_SIGMA * slope <= end) & (end <= (2.0 * _WOLFE_DELTA - 1.0) * slope)
            )
            good = np.where(floor, wolfe, good)
            last |= floor
        retry = ~good & (calls < max_evals)
        failed = retry & last
        retry ^= failed
        converged |= failed & fresh  # failed along the scaled gradient too
        fresh |= failed
        scale = np.where(retry, 0.5 * scale, 1.0)

        if good.any():
            # BFGS update on the free parameters; a fresh row first gets gamma I
            y = np.where(good[:, None], g_p - g, 0.0)
            y *= free
            sy, yy = np.add.reduce(dx * y, axis=1), np.add.reduce(y * y, axis=1)
            curved = good & (sy > 1e-12 * np.sqrt(np.add.reduce(dx * dx, axis=1) * yy))
            if curved.any():
                sy = np.where(curved, sy, 1.0)
                np.divide(sy, yy, out=gamma, where=curved)
                h = h_inv.copy()
                # no diagonal entry of H is -0.0, so the + 0.0 a reset adds to the other rows changes no bit
                if (reset := curved & fresh).any():
                    h[reset] = 0.0
                    h[:, diag, diag] += np.where(reset[:, None] & free, gamma[:, None], 0.0)
                hy = np.add.reduce(h * y[:, None, :], axis=2)
                rho = 1.0 / sy
                coef = rho * (1.0 + rho * np.add.reduce(y * hy, axis=1))
                h += coef[:, None, None] * dx[:, :, None] * dx[:, None, :]
                hs = hy[:, :, None] * dx[:, None, :]
                hs = hs + hs.transpose(0, 2, 1)  # hy_i s_j + s_i hy_j
                hs *= rho[:, None, None]
                h -= hs
                np.copyto(h_inv, h, where=curved[:, None, None])
                fresh &= ~curved

            np.copyto(x, x_p, where=good[:, None])
            np.copyto(g, g_p, where=good[:, None])
            np.copyto(f, f_p, where=good)
            now_held = _held(x, g, lo, hi)
            changed = now_held != held
            if changed.any():
                h_inv *= ~(changed[:, :, None] | changed[:, None, :])
                h_inv[:, diag, diag] += np.where(changed & ~now_held & ~fresh[:, None], gamma[:, None], 0.0)
                held = now_held
        np.copyto(recent, np.concatenate([recent[:, 1:], f[:, None]], axis=1), where=~retry[:, None])


def _grouped(ks: np.ndarray, counts: np.ndarray):
    """The start, width and count of each non-empty interval of the sample.

    Values up to _GROUP_FROM are intervals of width 1; the larger ones pool
    into [e_j, e_j+1), e_j = floor((_GROUP_FROM + 1) _GROUP_RATIO^j).  A heavy
    tail of K distinct values keeps at most _GROUP_FROM + log(max k / e_0) /
    log(_GROUP_RATIO) + 1 of them.
    """
    big = int(np.searchsorted(ks, _GROUP_FROM, side="right"))
    n_edges = max(2, math.ceil(math.log(ks[-1] / (_GROUP_FROM + 1)) / math.log(_GROUP_RATIO)) + 2)
    edges = np.floor((_GROUP_FROM + 1) * _GROUP_RATIO ** np.arange(n_edges))
    pooled = np.bincount(np.searchsorted(edges, ks[big:], side="right") - 1, weights=counts[big:])
    used = np.flatnonzero(pooled)
    widths = np.concatenate([np.ones(big), np.diff(edges)[used]])
    return np.concatenate([ks[:big], edges[used]]), widths, np.concatenate([counts[:big], pooled[used]])


def _check_start_array(starts: int, order: int) -> int:
    """3M - 1, once a start array of starts x (3M - 1) values is known to fit in one numpy array."""
    if starts > _MAX_SIZE // (n_free := n_params_for_order(order)):
        raise DomainError(f"starts x (3M - 1) = {starts} x {n_free} values at M = {order} exceeds the {_MAX_SIZE} one array can hold")
    return n_free


def fit_mixture(data: CountSample, order: int, config: FitConfig = FitConfig()) -> FitResult:
    """Maximum-likelihood fit of an ``order``-component mixture.

    Returns the best local optimum over ``config.starts`` starts, or, at M = 1 and 2 when
    every start converges to one value on the sample's grouped form, the first start's
    optimum, which can miss a better one few starts reach (see the screen).
    The fitted log-likelihood is never below that at the first start's initial
    point.  Deterministic for a given (data, order, config).
    """
    order = _integral("order", order, 1)
    n_free = _check_start_array(config.starts, order)
    n = data.size
    if n < n_free:
        raise ValidationError(f"sample size {n} is too small to fit {n_free} parameters")
    if data.ks.size == 1:
        raise DegenerateDataError(
            "all observations are identical; the mixture likelihood has no interior optimum"
        )
    ks = data.ks.astype(float)
    counts = data.counts.astype(float)

    theta0 = _moment_start(ks, counts, order)
    key = np.array([config.seed % 2**64, order], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    starts = theta0 + np.vstack(
        [np.zeros(theta0.size), rng.normal(0.0, _LOG_JITTER, (config.starts - 1, theta0.size))]
    )
    # Screen on a grouped form at most 1/4 the size: if every start converges there to one value, search the first alone
    if config.starts > 1 and order <= _SCREEN_TO and 4 * (grouped := _grouped(ks, counts))[0].size <= ks.size:
        fun = partial(_objective, ks=grouped[0], widths=grouped[1], counts=grouped[2])
        _, f, done, _ = _minimize(fun, starts, *_box(order), _TOL, _MAX_EVALS)
        if done.all() and np.ptp(f) <= _TOL * max(1.0, abs(f.min())):  # False where f holds inf or nan
            starts = starts[:1]
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
    least one order fits; AIC ties go to the smaller order.  The scan
    stops at the first order with more parameters than observations,
    since every higher order has more still, and at the first degenerate
    sample error, which depends on the data alone.
    """
    max_order = _integral("max_order", max_order, 1)
    _check_start_array(config.starts, max_order)
    fits: list[FitResult] = []
    failures: dict[int, str] = {}
    for order in range(1, max_order + 1):
        try:
            fits.append(fit_mixture(data, order, config))
        except (FitError, DegenerateDataError, ValidationError, DomainError) as exc:
            failures[order] = str(exc)
            if isinstance(exc, DegenerateDataError) or n_params_for_order(order) > data.size:
                break
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
    ks = data.ks.astype(float)
    counts = data.counts.astype(float)
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
    ks = data.ks.astype(float)
    counts = data.counts.astype(float)
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


