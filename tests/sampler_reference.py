"""Test-side reference for the mixture sampler's stream.

``lomaxmix.simulate`` runs its arithmetic in place and chunk by chunk and
picks components by comparisons.  This is the same sampler written on
whole arrays, with ``searchsorted`` for the pick, for the stream tests to
compare against: both must give the same values for the same seed.
"""

import math

import numpy as np

from lomaxmix.simulate import _MAX_DRAW


def open_uniform(rng, size):
    return 1.0 - rng.random(size)


def standard_normals(rng, size):
    half = (size + 1) // 2
    u1 = open_uniform(rng, half)
    u2 = rng.random(half)
    r = np.sqrt(-2.0 * np.log(u1))
    ang = 2.0 * math.pi * u2
    return np.concatenate([r * np.cos(ang), r * np.sin(ang)])[:size]


def gamma_at_least_one(rng, shape, size):
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(size)
    filled = 0
    while filled < size:
        need = size - filled
        m = need + (need >> 3) + 16
        x = standard_normals(rng, m)
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


def gamma_variates(rng, shape, size):
    if shape >= 1.0:
        return gamma_at_least_one(rng, shape, size)
    g = gamma_at_least_one(rng, shape + 1.0, size)
    u = open_uniform(rng, size)
    return g * u ** (1.0 / shape)


def counts_from_rates(rng, lam):
    u = open_uniform(rng, lam.size)
    with np.errstate(over="ignore", divide="ignore"):
        k = 1.0 + np.floor(-np.log(u) / lam)
    return np.minimum(k, _MAX_DRAW).astype(np.int64)


def sample_values(model, n, rng):
    """The counts ``sample_mixture(model, n, seed)`` draws from ``rng = _rng(seed)``."""
    cum = np.cumsum(model._c)
    idx = np.searchsorted(cum, rng.random(n), side="right")
    idx = np.minimum(idx, model.order - 1)
    out = np.empty(n, dtype=np.int64)
    for i, comp in enumerate(model.components):
        mask = idx == i
        m = int(np.count_nonzero(mask))
        if m == 0:
            continue
        lam = gamma_variates(rng, comp.shape, m) / comp.scale
        out[mask] = counts_from_rates(rng, lam)
    return out
