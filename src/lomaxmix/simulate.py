"""Seeded draws from the mixture model.

All randomness flows from the counter-based Philox bit generator through
uniform doubles only; normals are produced by Box-Muller and gamma
variates by the Marsaglia-Tsang squeeze/rejection method (with the
power-of-uniform boost below shape 1).  Streams are therefore a pure,
platform-independent function of the seed.

Mixture draws use the exact conditional inverse transform

    K = 1 + floor(-ln(U) / lam),    lam ~ Gamma(shape, rate),

whose marginal law is exactly the mixture PMF, so samples from here are
a trustworthy independent check of the closed forms.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import MixtureModel
from .errors import DomainError, ValidationError
from .fitting import CountSample

__all__ = ["sample_mixture"]

# the largest draw, the largest float below 2**63: float(2**63 - 1) rounds up to 2**63, past int64
_MAX_DRAW = np.nextafter(2.0**63, 0.0)


def _rng(seed: int) -> np.random.Generator:
    seed = int(seed)
    if not 0 <= seed < 2**128:
        raise DomainError(f"seed must lie in [0, 2**128), got {seed!r}")
    return np.random.Generator(np.random.Philox(key=seed))


def _open_uniform(rng: np.random.Generator, size: int) -> np.ndarray:
    # random() covers [0, 1); flip to (0, 1] so logs never see zero.
    return 1.0 - rng.random(size)


def _standard_normals(rng: np.random.Generator, size: int) -> np.ndarray:
    half = (size + 1) // 2
    u1 = _open_uniform(rng, half)
    u2 = rng.random(half)
    r = np.sqrt(-2.0 * np.log(u1))
    ang = 2.0 * math.pi * u2
    return np.concatenate([r * np.cos(ang), r * np.sin(ang)])[:size]


def _gamma_at_least_one(rng: np.random.Generator, shape: float, size: int) -> np.ndarray:
    """Marsaglia-Tsang rejection sampling, valid for shape >= 1."""
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(size)
    filled = 0
    while filled < size:
        need = size - filled
        m = need + (need >> 3) + 16
        x = _standard_normals(rng, m)
        u = rng.random(m)
        t = 1.0 + c * x
        valid = t > 0.0
        v = np.where(valid, t, 1.0) ** 3
        with np.errstate(divide="ignore"):
            slow = np.log(np.maximum(u, 1e-320)) < 0.5 * x**2 + d * (1.0 - v + np.log(v))
        accept = valid & ((u < 1.0 - 0.0331 * x**4) | slow)
        got = np.count_nonzero(accept)
        take = min(got, need)
        out[filled : filled + take] = d * v[accept][:take]
        filled += take
    return out


def _gamma_variates(rng: np.random.Generator, shape: float, size: int) -> np.ndarray:
    if shape >= 1.0:
        return _gamma_at_least_one(rng, shape, size)
    # boost: Gamma(shape) = Gamma(shape + 1) * U^(1/shape)
    g = _gamma_at_least_one(rng, shape + 1.0, size)
    u = _open_uniform(rng, size)
    return g * u ** (1.0 / shape)


def _counts_from_rates(rng: np.random.Generator, lam: np.ndarray) -> np.ndarray:
    u = _open_uniform(rng, lam.size)
    with np.errstate(over="ignore", divide="ignore"):
        k = 1.0 + np.floor(-np.log(u) / lam)
    # astronomically large draws (vanishing rates) saturate at _MAX_DRAW
    return np.minimum(k, _MAX_DRAW).astype(np.int64)


def sample_mixture(model: MixtureModel, n: int, seed: int = 0) -> CountSample:
    """Draw ``n`` counts from the mixture: pick a component by weight, draw
    its gamma rate, then the geometric count given that rate.

    Deterministic and reproducible for a given seed.
    """
    if not isinstance(model, MixtureModel):
        raise ValidationError("model must be a MixtureModel")
    n = int(n)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n!r}")
    rng = _rng(seed)
    cum = np.cumsum(model._c)
    idx = np.searchsorted(cum, rng.random(n), side="right")
    idx = np.minimum(idx, model.order - 1)
    out = np.empty(n, dtype=np.int64)
    for i, comp in enumerate(model.components):
        mask = idx == i
        m = int(np.count_nonzero(mask))
        if m == 0:
            continue
        lam = _gamma_variates(rng, comp.shape, m) / comp.scale
        out[mask] = _counts_from_rates(rng, lam)
    return CountSample(out)
