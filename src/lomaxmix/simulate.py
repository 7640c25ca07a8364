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

Every chunk of ``_CHUNK`` values gets the uniforms a whole-array sampler
gives it, so the stream does not depend on how the work is split, but no
array of uniforms is made whole.  The component pick, the boost and the
geometric counts draw theirs a chunk at a time.  A gamma round reads its
radius, angle and acceptance uniforms at three places in the stream at
once; Philox is counter-based, so ``_ahead`` reaches any offset without
drawing the values before it.  The arithmetic runs in place on the
chunk.  A component's gamma rates go straight into its slots of the
int64 output, viewed as float64, as each chunk is accepted; then a slab
of ``_SLAB`` output positions at a time, they are boosted, scaled and
overwritten by their geometric counts, whose uniforms are read at their
offset past the boost's.  So a call holds its output, the component
index and a slab: written on whole arrays, each step makes a new array
the size of the draws, and those temporaries set the peak memory of a
large call.

The squeeze test's x**4 is (x**2)**2, reusing the x**2 of the exact
test: numpy's float power takes a scalar path for a negative base, about
30 times slower.  The two can differ in the last bit, but the squeeze
only short-cuts the exact log test, which accepts everything the squeeze
does, so a draw's fate could change only where the two bounds meet
within an ulp; the stream tests compare with the whole-array form.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import MixtureModel
from .errors import DomainError, ValidationError
from .fitting import _MAX_SIZE

__all__ = ["sample_mixture"]

# the largest draw, the largest float below 2**63: float(2**63 - 1) rounds up to 2**63, past int64
_MAX_DRAW = np.nextafter(2.0**63, 0.0)
# values per pass of the elementwise arithmetic: a gamma round holds about a
# dozen temporaries of this length, 128 KiB each as float64
_CHUNK = 16_384
# output positions per slab of a component's slots: a slab's positions and rates
# take 1 MiB, and smaller slabs cost time in numpy calls
_SLAB = 65_536
# doubles per Philox counter value: the bit generator makes its outputs four at a time
_PHILOX_BLOCK = 4


def _rng(seed: int) -> np.random.Generator:
    seed = int(seed)
    if not 0 <= seed < 2**128:
        raise DomainError(f"seed must lie in [0, 2**128), got {seed!r}")
    return np.random.Generator(np.random.Philox(key=seed))


def _open_uniform(rng: np.random.Generator, size: int) -> np.ndarray:
    # random() covers [0, 1); flip to (0, 1] so logs never see zero.
    u = rng.random(size)
    return np.subtract(1.0, u, out=u)


def _ahead(rng: np.random.Generator, delta: int) -> np.random.Generator:
    """A copy of the Philox generator ``rng`` that stands ``delta`` doubles further along its stream.

    ``advance`` moves Philox's counter by whole blocks of four outputs and
    empties its buffer, so the doubles still buffered are drawn first and
    the last ``delta % 4`` after the jump.
    """
    state = rng.bit_generator.state
    out = np.random.Generator(np.random.Philox(key=0))
    out.bit_generator.state = state
    buffered = min(delta, _PHILOX_BLOCK - state["buffer_pos"])
    out.random(buffered)
    delta -= buffered
    if delta >= _PHILOX_BLOCK:
        out.bit_generator.advance(delta // _PHILOX_BLOCK)
    out.random(delta % _PHILOX_BLOCK)
    return out


def _gamma_at_least_one(rng: np.random.Generator, shape: float, size: int):
    """Marsaglia-Tsang rejection sampling, valid for shape >= 1: yields the
    ``size`` variates in order, a chunk of accepted candidates at a time.

    A round of m candidates reads the stream as the whole-array sampler
    does: m Box-Muller normals from ``half`` = ceil(m / 2) radius and
    ``half`` angle uniforms, the cosines first and then the sines, and
    then m acceptance uniforms.  Each chunk of candidates draws its
    uniforms at their offsets into the round, and ``rng`` ends where the
    whole round leaves it once the generator is exhausted.
    """
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    filled = 0
    while filled < size:
        need = size - filled
        m = need + (need >> 3) + 16
        half = (m + 1) // 2
        at_u = _ahead(rng, 2 * half)
        for trig, count in ((np.cos, half), (np.sin, m - half)):
            at_r, at_angle = _ahead(rng, 0), _ahead(rng, half)
            for lo in range(0, count, _CHUNK):
                if filled == size:
                    break
                k = min(_CHUNK, count - lo)
                xs = _open_uniform(at_r, k)
                np.log(xs, out=xs)
                xs *= -2.0
                np.sqrt(xs, out=xs)
                angle = at_angle.random(k)
                angle *= 2.0 * math.pi
                xs *= trig(angle, out=angle)
                us = at_u.random(k)
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
                got = v[accept][: size - filled]
                got *= d
                filled += got.size
                yield got
        rng.bit_generator.state = _ahead(rng, 2 * half + m).bit_generator.state


def _boost(rng: np.random.Generator, g: np.ndarray, shape: float) -> None:
    """Multiply the Gamma(shape + 1) variates ``g`` by U^(1/shape) in place,
    which makes them Gamma(shape), drawing U a chunk at a time."""
    for lo in range(0, g.size, _CHUNK):
        boost = _open_uniform(rng, min(_CHUNK, g.size - lo))
        boost **= 1.0 / shape
        g[lo : lo + _CHUNK] *= boost


def _gamma_variates(rng: np.random.Generator, shape: float, size: int) -> np.ndarray:
    """``size`` Gamma(shape) variates, the rates ``sample_mixture`` draws for a component before its scale."""
    g = np.concatenate([np.empty(0), *_gamma_at_least_one(rng, shape + (shape < 1.0), size)])
    if shape < 1.0:
        _boost(rng, g, shape)
    return g


def _counts_from_rates(rng: np.random.Generator, lam: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The geometric count of each rate, written to the int64 array ``out`` (new by default).

    ``out`` may be ``lam.view(np.int64)``: each chunk's counts overwrite
    its rates once they are read.
    """
    counts = np.empty(lam.size, dtype=np.int64) if out is None else out
    with np.errstate(over="ignore", divide="ignore"):
        for lo in range(0, lam.size, _CHUNK):
            k = _open_uniform(rng, min(_CHUNK, lam.size - lo))
            np.log(k, out=k)
            np.negative(k, out=k)
            k /= lam[lo : lo + _CHUNK]
            np.floor(k, out=k)
            k += 1.0
            # astronomically large draws (vanishing rates) saturate at _MAX_DRAW
            np.minimum(k, _MAX_DRAW, out=k)
            counts[lo : lo + _CHUNK] = k
    return counts


def sample_mixture(model: MixtureModel, n: int, seed: int = 0) -> np.ndarray:
    """Draw ``n`` counts from the mixture, an int64 array in draw order: pick
    a component by weight, draw its gamma rate, then the geometric count
    given that rate.

    Deterministic and reproducible for a given seed.  Beside the output
    it holds a byte per draw, the component index, and a slab's rates
    and positions.
    """
    if not isinstance(model, MixtureModel):
        raise ValidationError("model must be a MixtureModel")
    n = int(n)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n!r}")
    if n > _MAX_SIZE:
        raise DomainError(f"n = {n} exceeds the {_MAX_SIZE} draws one array can hold")
    rng = _rng(seed)
    # the component index: how many of the first M - 1 cumulative weights are <= the uniform
    idx = np.zeros(n, dtype=np.min_scalar_type(model.order - 1))
    edges = np.cumsum(model._c)[:-1].tolist()
    past = [n] + [0] * model.order  # the draws past each edge, from an edge at 0 to one at 1
    for lo in range(0, n, _CHUNK):
        pick = rng.random(min(_CHUNK, n - lo))
        part = idx[lo : lo + _CHUNK]
        for j, edge in enumerate(edges, start=1):
            hit = edge <= pick
            part += hit
            past[j] += int(np.count_nonzero(hit))
    out = np.empty(n, dtype=np.int64)
    rates = out.view(np.float64)  # a component's rates, in its slots until they become counts
    for i, comp in enumerate(model.components):
        m = past[i] - past[i + 1]
        if m == 0:
            continue
        boost = comp.shape < 1.0
        _scatter(_gamma_at_least_one(rng, comp.shape + boost, m), _slots(idx, i), rates)
        geometric = _ahead(rng, m) if boost else rng  # its uniforms follow the boost's
        for at in _slots(idx, i):
            lam = rates[at]
            if boost:
                _boost(rng, lam, comp.shape)
            lam /= comp.scale
            out[at] = _counts_from_rates(geometric, lam, out=lam.view(np.int64))
        rng = geometric
    return out


def _slots(idx: np.ndarray, i: int):
    """Yield the positions of component ``i`` in the index ``idx``, a slab of ``_SLAB`` positions at a time."""
    for lo in range(0, idx.size, _SLAB):
        at = np.flatnonzero(idx[lo : lo + _SLAB] == i)
        at += lo
        yield at


def _scatter(chunks, slots, dest: np.ndarray) -> None:
    """Write the values of ``chunks`` to ``dest`` at the positions ``slots`` yields, both in order."""
    at = np.empty(0, dtype=np.intp)
    for values in chunks:
        while values.size:
            if not at.size:
                at = next(slots)
            k = min(values.size, at.size)
            dest[at[:k]] = values[:k]
            at, values = at[k:], values[k:]
