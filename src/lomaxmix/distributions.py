"""Probability functions for mixtures of discrete Lomax components.

A discrete Lomax component with scale ``b`` and shape ``v`` puts mass

    P(K = k) = b^v / (k - 1 + b)^v - b^v / (k + b)^v,    k = 1, 2, ...

on the positive integers; it arises as a gamma mixture of geometric
distributions and has survival function ``(b / (b + k - 1))^v``.  A
mixture model is a convex combination of such components.  The module
also provides the rank-frequency law a component induces.

All evaluation is done in cancellation-free form: the mixture PMF is
computed as ``survival * (-expm1(v * log1p(-1 / (k + b))))`` rather
than as a difference of two powers, which for ``k >> b`` would lose
every significant digit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ValidationError

__all__ = [
    "SCALE_BOUNDS",
    "SHAPE_BOUNDS",
    "LomaxComponent",
    "MixtureModel",
    "RankModel",
    "mixture_pmf",
    "mixture_ccdf",
    "mixture_log_pmf",
    "rank_frequency",
]

# Outside these bounds the closed forms underflow or overflow in float64.
SCALE_BOUNDS = (1e-6, 1e9)
SHAPE_BOUNDS = (1e-6, 1e3)

_WEIGHT_SUM_TOL = 1e-12


def _check_finite(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError(f"{name} must be finite, got {x!r}")
    return x


def _positive(name: str, x: float) -> float:
    x = _check_finite(name, x)
    if not x > 0.0:
        raise DomainError(f"{name} must be > 0, got {x!r}")
    return x


@dataclass(frozen=True)
class LomaxComponent:
    """One mixture component: weight, scale ``b`` and shape ``v``.

    The hidden per-state rate of the component is gamma distributed with
    mean ``shape / scale``; that mean is exposed as :attr:`mean_rate` and
    is how a component's dynamism is read off a fitted model.
    """

    weight: float
    scale: float
    shape: float

    def __post_init__(self) -> None:
        w = _check_finite("weight", self.weight)
        b = _check_finite("scale", self.scale)
        v = _check_finite("shape", self.shape)
        if not 0.0 <= w <= 1.0:
            raise ValidationError(f"weight must lie in [0, 1], got {w!r}")
        if not SCALE_BOUNDS[0] <= b <= SCALE_BOUNDS[1]:
            raise ValidationError(f"scale must lie in {SCALE_BOUNDS}, got {b!r}")
        if not SHAPE_BOUNDS[0] <= v <= SHAPE_BOUNDS[1]:
            raise ValidationError(f"shape must lie in {SHAPE_BOUNDS}, got {v!r}")
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "scale", b)
        object.__setattr__(self, "shape", v)

    @property
    def mean_rate(self) -> float:
        """Mean of the component's hidden rate distribution, shape/scale."""
        return self.shape / self.scale


def _canonical_key(c: LomaxComponent):
    # Descending weight, ties broken by ascending mean rate.
    return (-c.weight, c.mean_rate, c.scale, c.shape)


def _left_fold(values) -> float:
    acc = 0.0
    for x in values:
        acc += x
    return acc


def _snap_weights_to_one(weights: list[float]) -> list[float]:
    """Nudge weights (by at most a few ulp) so their left-fold sum is 1.0.

    The survival function at k = 1 is exactly the weight sum; making that
    sum bit-exact keeps ccdf(1) == 1.0 without any special casing.
    """
    for _ in range(4):
        if _left_fold(weights) == 1.0:
            return weights
        head = _left_fold(weights[:-1])
        tail = 1.0 - head
        if tail >= 0.0:
            weights[-1] = tail
        else:  # tiny last weight with sum slightly above one
            weights[0] -= _left_fold(weights) - 1.0
    return weights


@dataclass(frozen=True)
class MixtureModel:
    """An ordered convex mixture of :class:`LomaxComponent` values.

    Components are stored in canonical order (descending weight, ties by
    ascending mean rate) so that fits and reports are deterministic under
    label permutation.  Weights must sum to one within 1e-12; they are
    then snapped so the floating-point sum is exactly 1.0.
    """

    components: tuple[LomaxComponent, ...]
    _c: np.ndarray = field(init=False, repr=False, compare=False)
    _b: np.ndarray = field(init=False, repr=False, compare=False)
    _v: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        if len(comps) < 1:
            raise ValidationError("a mixture needs at least one component")
        if not all(isinstance(c, LomaxComponent) for c in comps):
            raise ValidationError("components must be LomaxComponent instances")
        total = _left_fold(c.weight for c in comps)
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ValidationError(
                f"component weights must sum to 1 within {_WEIGHT_SUM_TOL}, got {total!r}"
            )
        # Snapping can break a tie of weights and so the canonical order;
        # sort and snap again (one round unless weights tie) until the order
        # holds, so that a model built from this one's components is this model.
        for _ in range(4):
            comps = tuple(sorted(comps, key=_canonical_key))
            weights = _snap_weights_to_one([c.weight for c in comps])
            comps = tuple(
                LomaxComponent(weight=w, scale=c.scale, shape=c.shape)
                for w, c in zip(weights, comps)
            )
            if comps == tuple(sorted(comps, key=_canonical_key)):
                break
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "_c", np.array([c.weight for c in comps]))
        object.__setattr__(self, "_b", np.array([c.scale for c in comps]))
        object.__setattr__(self, "_v", np.array([c.shape for c in comps]))

    @classmethod
    def from_parameters(cls, weights, scales, shapes) -> "MixtureModel":
        """Build a model from parallel weight/scale/shape sequences."""
        weights, scales, shapes = list(weights), list(scales), list(shapes)
        if not len(weights) == len(scales) == len(shapes):
            raise ValidationError("weights, scales and shapes must have equal length")
        return cls(
            tuple(
                LomaxComponent(weight=w, scale=b, shape=v)
                for w, b, v in zip(weights, scales, shapes)
            )
        )

    @property
    def order(self) -> int:
        """Number of mixture components M."""
        return len(self.components)


@dataclass(frozen=True)
class RankModel:
    """Rank-size law induced by a continuous Lomax tail over ``population`` units."""

    shape: float
    scale: float
    population: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", _positive("shape", self.shape))
        object.__setattr__(self, "scale", _positive("scale", self.scale))
        l = int(self.population)
        if l < 1 or l != self.population:
            raise DomainError(f"population must be a positive integer, got {self.population!r}")
        object.__setattr__(self, "population", l)


def _validate_counts(k, name: str = "k"):
    """Validate integer support values k >= 1, return (array, scalar?).

    Integer input comes back as it is, float input as float64: wherever an
    integer meets a float, numpy converts it exactly as a float copy would.
    """
    arr = np.asarray(k)
    if arr.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be integer-valued, got dtype {arr.dtype}")
    if arr.dtype.kind == "f":
        arr = arr.astype(float)
        if not np.all(np.isfinite(arr)):
            raise DomainError(f"{name} must be finite")
        if np.any(arr != np.floor(arr)):
            raise DomainError(f"{name} must be integer-valued")
    if np.any(arr < 1):
        raise DomainError(f"{name} must be >= 1")
    return arr, arr.ndim == 0


def _ret(value: np.ndarray, scalar: bool):
    return float(value[()]) if scalar else value


# ---------------------------------------------------------------------------
# the component kernel (shared with the batched fitting objective) and its
# mixture reductions, on raw parameter arrays
# ---------------------------------------------------------------------------


def _log_survival_terms(b, k: np.ndarray, z=None, s=None) -> np.ndarray:
    """s = log1p((k - 1) / b), so a component's log-survival is -v s; ``z`` and
    ``s`` are None or buffers for (k - 1) / b and s (by default s overwrites z)."""
    z = np.divide(k - 1.0, b[..., None], out=z)
    return np.log1p(z, out=z if s is None else s)


def _component_terms(b, v, k: np.ndarray, out=None):
    """s, t and v t of each component, shaped b.shape + (K,).

    s = log1p((k - 1) / b) and t = log1p(-1 / (k + b)), so the survival is
    exp(-v s), the step to the next survival is -expm1(v t) and the mass is
    their product.  b and v are (M,) for one model or (S, M) for S models.
    Each operation writes into its operand: fresh (M, K) temporaries past
    malloc's mmap threshold fault in page by page, which made a 14k-value
    objective 1.5x slower.  In place rounds the same, bit for bit.  ``out``
    is None or five arrays of that shape for (k - 1) / b, s, k + b, t and
    v t: a caller that needs the quotient and the sum again allocates them
    once and reads them back.
    """
    z, s, kb, t, vt = out or (None,) * 5
    s = _log_survival_terms(b, k, z, s)
    kb = np.add(k, b[..., None], out=kb)
    t = np.divide(-1.0, kb, out=kb if t is None else t)
    np.log1p(t, out=t)
    return s, t, np.multiply(t, v[..., None], out=vt)


def _log_survival_and_step(b, v, k: np.ndarray):
    """(M, K) log-survival -v s and step -expm1(v t) of each component."""
    log_surv, _, step = _component_terms(b, v, k)
    log_surv *= -v[:, None]
    np.expm1(step, out=step)
    np.negative(step, out=step)
    return log_surv, step


def _component_ccdf(c, b, v, k: np.ndarray) -> np.ndarray:
    """(M, K) weighted survival c (b / (b + k - 1))^v of each component."""
    # s alone: all of _component_terms doubles the time and the peak here
    rows = _log_survival_terms(b, k)
    rows *= -v[:, None]
    np.exp(rows, out=rows)
    rows *= c[:, None]
    return rows


def _mix_pmf(c, b, v, k: np.ndarray) -> np.ndarray:
    mass, step = _log_survival_and_step(b, v, k)
    np.exp(mass, out=mass)
    mass *= step
    mass *= c[:, None]
    return mass.sum(axis=0)


def _mix_log_pmf(c, b, v, k: np.ndarray) -> np.ndarray:
    rows, step = _log_survival_and_step(b, v, k)
    # math.log, not np.log, which differs by an ulp on rare inputs: reported
    # likelihoods keep their bytes.  A zero weight gives a -inf row.
    rows += np.array([math.log(ci) if ci > 0.0 else -math.inf for ci in c])[:, None]
    rows += np.log(step, out=step)
    top = rows.max(axis=0)
    rows -= top
    return top + np.log(np.exp(rows, out=rows).sum(axis=0))


def _mix_ccdf_scalar(model: MixtureModel, k: float) -> float:
    """Survival at one k in ``math``, for binning's point-by-point search."""
    acc = 0.0
    for comp in model.components:
        acc += comp.weight * math.exp(-comp.shape * math.log1p((k - 1.0) / comp.scale))
    return acc


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def _on_model(kernel, model: MixtureModel, k):
    # the kernels take 1-d k; any other shape is flattened and restored
    k_arr, scalar = _validate_counts(k)
    value = kernel(model._c, model._b, model._v, k_arr.ravel())
    return _ret(value.reshape(k_arr.shape), scalar)


def mixture_pmf(model: MixtureModel, k):
    """Mixture mass at integer k >= 1; lies in (0, 1] before underflow."""
    return _on_model(_mix_pmf, model, k)


def mixture_ccdf(model: MixtureModel, k):
    """P(K >= k) = sum_i c_i (b_i / (b_i + k - 1))^v_i; exactly 1 at k = 1."""
    # sum(axis=0) adds the rows in order, the same left fold as the scalar form
    return _on_model(lambda *params: _component_ccdf(*params).sum(axis=0), model, k)


def mixture_log_pmf(model: MixtureModel, k):
    """log of :func:`mixture_pmf`, evaluated fully in log space.

    Stays finite and strictly decreasing for k up to 1e9 even where the
    linear-space mass underflows.
    """
    return _on_model(_mix_log_pmf, model, k)


def rank_frequency(rm: RankModel, r):
    """Relative frequency of the r-th ranked unit, r in [1, population].

    Computed as ``(b / l) * expm1(log(l / r) / v)``, the same quantity as
    ``b l^(1/v - 1) r^(-1/v) - b / l`` but with exact cancellation at
    r = l.  Floating error can still not drive it negative; the result is
    clamped at zero regardless.
    """
    r_arr, scalar = _validate_counts(r, "r")
    if np.any(r_arr > rm.population):
        raise DomainError(f"r must be <= population ({rm.population})")
    out = (rm.scale / rm.population) * np.expm1(
        np.log(float(rm.population) / r_arr) / rm.shape
    )
    out = np.maximum(out, 0.0)
    return _ret(out, scalar)
