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

Every array of draws is made whole, by the same generator calls in the
same order as a whole-array sampler makes them, so the stream does not
depend on how the arithmetic is split.  The arithmetic on the draws runs
in place, ``_CHUNK`` values at a time: written on whole arrays, each step
makes a new array the size of the draws, and those temporaries, not the
draws, set the peak memory of a large call.  The squeeze test's x**4 is
(x**2)**2, reusing the x**2 of the exact test: numpy's float power takes
a scalar path for a negative base, about 30 times slower.  The two can
differ in the last bit, but the squeeze only short-cuts the exact log
test, which accepts everything the squeeze does, so a draw's fate could
change only where the two bounds meet within an ulp; the stream tests
compare with the whole-array form.
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
# candidates per pass of the elementwise arithmetic: 512 KiB of float64, so a pass's operands stay in cache
_CHUNK = 65_536
# the most int64 values numpy holds in one array: its byte size must fit intp
_MAX_SIZE = np.iinfo(np.intp).max // np.dtype(np.int64).itemsize


def _rng(seed: int) -> np.random.Generator:
    seed = int(seed)
    if not 0 <= seed < 2**128:
        raise DomainError(f"seed must lie in [0, 2**128), got {seed!r}")
    return np.random.Generator(np.random.Philox(key=seed))


def _open_uniform(rng: np.random.Generator, size: int) -> np.ndarray:
    # random() covers [0, 1); flip to (0, 1] so logs never see zero.
    u = rng.random(size)
    return np.subtract(1.0, u, out=u)


def _standard_normals(rng: np.random.Generator, size: int) -> np.ndarray:
    half = (size + 1) // 2
    r = _open_uniform(rng, half)
    ang = rng.random(half)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    ang *= 2.0 * math.pi
    out = np.empty(2 * half)
    cos_rows, sin_rows = out.reshape(2, half)
    for lo in range(0, half, _CHUNK):
        part = slice(lo, lo + _CHUNK)
        cos, sin = cos_rows[part], sin_rows[part]
        np.cos(ang[part], out=cos)
        cos *= r[part]
        np.sin(ang[part], out=sin)
        sin *= r[part]
    return out[:size]


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
        for lo in range(0, m, _CHUNK):
            if filled == size:
                break
            xs, us = x[lo : lo + _CHUNK], u[lo : lo + _CHUNK]
            v = c * xs
            v += 1.0
            valid = v > 0.0
            v[~valid] = 1.0
            v **= 3
            x2 = np.square(xs)
            squeeze = np.square(x2)  # x**4, see the module docstring
            squeeze *= 0.0331
            np.subtract(1.0, squeeze, out=squeeze)
            accept = us < squeeze
            with np.errstate(divide="ignore"):
                rhs = np.log(v)
                lhs = np.log(np.maximum(us, 1e-320))
            rhs += 1.0 - v
            rhs *= d
            x2 *= 0.5
            rhs += x2
            accept |= lhs < rhs
            accept &= valid
            got = v[accept]
            take = min(got.size, size - filled)
            np.multiply(got[:take], d, out=out[filled : filled + take])
            filled += take
    return out


def _gamma_variates(rng: np.random.Generator, shape: float, size: int) -> np.ndarray:
    if shape >= 1.0:
        return _gamma_at_least_one(rng, shape, size)
    # boost: Gamma(shape) = Gamma(shape + 1) * U^(1/shape)
    g = _gamma_at_least_one(rng, shape + 1.0, size)
    u = _open_uniform(rng, size)
    for lo in range(0, size, _CHUNK):
        boost = u[lo : lo + _CHUNK]
        boost **= 1.0 / shape
        g[lo : lo + _CHUNK] *= boost
    return g


def _counts_from_rates(rng: np.random.Generator, lam: np.ndarray) -> np.ndarray:
    u = _open_uniform(rng, lam.size)
    counts = u.view(np.int64)  # each chunk's counts overwrite its uniforms
    with np.errstate(over="ignore", divide="ignore"):
        for lo in range(0, u.size, _CHUNK):
            k = np.log(u[lo : lo + _CHUNK])
            np.negative(k, out=k)
            k /= lam[lo : lo + _CHUNK]
            np.floor(k, out=k)
            k += 1.0
            # astronomically large draws (vanishing rates) saturate at _MAX_DRAW
            np.minimum(k, _MAX_DRAW, out=k)
            counts[lo : lo + _CHUNK] = k
    return counts


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
    if n > _MAX_SIZE:
        raise DomainError(f"n = {n} exceeds the {_MAX_SIZE} draws one array can hold")
    rng = _rng(seed)
    pick = rng.random(n)
    # the component index: how many of the first M - 1 cumulative weights are <= the uniform
    idx = np.zeros(n, dtype=np.min_scalar_type(model.order - 1))
    for edge in np.cumsum(model._c)[:-1].tolist():
        idx += edge <= pick
    del pick
    out = np.empty(n, dtype=np.int64)
    for i, comp in enumerate(model.components):
        mask = idx == i
        m = int(np.count_nonzero(mask))
        if m == 0:
            continue
        lam = _gamma_variates(rng, comp.shape, m)
        lam /= comp.scale
        out[mask] = _counts_from_rates(rng, lam)
    out.flags.writeable = False  # hand the draws over to CountSample uncopied
    return CountSample(out)
