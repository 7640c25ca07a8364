"""Generative oracles for the mixture model and its underlying mechanisms.

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
from dataclasses import dataclass

import numpy as np

from .distributions import GeometricState, MixtureModel
from .errors import DomainError, ValidationError
from .fitting import CountSample

__all__ = [
    "CompetingObservablesConfig",
    "CompetingObservablesResult",
    "sample_mixture",
    "sample_geometric_state",
    "simulate_competing_observables",
]

_MAX_COUNT = np.iinfo(np.int64).max - 1


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
    # astronomically large draws (vanishing rates) saturate at int64
    return np.minimum(k, float(_MAX_COUNT)).astype(np.int64)


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


def sample_geometric_state(state: GeometricState, n: int, seed: int = 0) -> CountSample:
    """Draw ``n`` counts from the single-rate geometric law by inverse transform."""
    if not isinstance(state, GeometricState):
        raise ValidationError("state must be a GeometricState")
    n = int(n)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n!r}")
    rng = _rng(seed)
    lam = np.full(n, state.rate)
    return CountSample(_counts_from_rates(rng, lam))


@dataclass(frozen=True)
class CompetingObservablesConfig:
    """Monte Carlo setup for N + 1 observables sharing a fixed rate budget.

    The budget is theta * rho * mu; rates are uniform on the simplex
    {w >= 0, sum w = rho * mu} and the observed count is k0 = theta * w0.
    """

    n_observables: int
    theta: float
    rho: float
    mu: float
    draws: int
    seed: int = 0

    def __post_init__(self) -> None:
        if int(self.n_observables) < 1 or self.n_observables != int(self.n_observables):
            raise ValidationError(f"n_observables must be a positive integer, got {self.n_observables!r}")
        object.__setattr__(self, "n_observables", int(self.n_observables))
        for name in ("theta", "mu"):
            val = float(getattr(self, name))
            if not (math.isfinite(val) and val > 0.0):
                raise ValidationError(f"{name} must be positive and finite, got {val!r}")
            object.__setattr__(self, name, val)
        rho = float(self.rho)
        if not 0.0 < rho <= 1.0:
            raise ValidationError(f"rho must lie in (0, 1], got {rho!r}")
        object.__setattr__(self, "rho", rho)
        if int(self.draws) < 1:
            raise ValidationError(f"draws must be >= 1, got {self.draws!r}")
        object.__setattr__(self, "draws", int(self.draws))

    @property
    def budget(self) -> float:
        """Total observable count budget theta * rho * mu."""
        return self.theta * self.rho * self.mu

    @property
    def limit_rate(self) -> float:
        """Rate of the exponential limit law, N / (theta rho mu)."""
        return self.n_observables / self.budget


@dataclass(frozen=True)
class CompetingObservablesResult:
    """Empirical k0 draws together with the two reference survival curves."""

    config: CompetingObservablesConfig
    samples: np.ndarray  # sorted ascending

    def exact_ccdf(self, x):
        """P(k0 >= x) = (1 - x / budget)^N, the uniform-simplex marginal."""
        x = np.asarray(x, dtype=float)
        u = np.clip(1.0 - x / self.config.budget, 0.0, 1.0)
        out = u**self.config.n_observables
        return float(out[()]) if out.ndim == 0 else out

    def exponential_ccdf(self, x):
        """Large-N limit e^(-x N / budget) of the exact survival curve."""
        x = np.asarray(x, dtype=float)
        out = np.exp(-self.config.limit_rate * x)
        return float(out[()]) if out.ndim == 0 else out

    def empirical_ccdf(self, x):
        """Fraction of draws >= x."""
        x = np.asarray(x, dtype=float)
        n = self.samples.size
        out = (n - np.searchsorted(self.samples, x, side="left")) / n
        return float(out[()]) if out.ndim == 0 else out

    def sup_distance_to_exact(self) -> float:
        """Kolmogorov-style sup |empirical - exact| over the sample points."""
        n = self.samples.size
        exact = self.exact_ccdf(self.samples)
        hi = np.abs((n - np.arange(n)) / n - exact)
        lo = np.abs((n - np.arange(n) - 1) / n - exact)
        return float(np.maximum(hi, lo).max())

    def reference_table(self, x) -> np.ndarray:
        """Columns (x, empirical, exact, exponential-limit) for plotting."""
        x = np.asarray(x, dtype=float)
        return np.column_stack(
            [x, self.empirical_ccdf(x), self.exact_ccdf(x), self.exponential_ccdf(x)]
        )

    def write_reference_tsv(self, path, x) -> None:
        table = self.reference_table(x)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x\tempirical\texact\texponential_limit\n")
            for row in table:
                fh.write("\t".join(repr(val) for val in row) + "\n")


def simulate_competing_observables(
    config: CompetingObservablesConfig,
) -> CompetingObservablesResult:
    """Monte Carlo the stationary competing-observables mechanism.

    Each draw places N + 1 rates uniformly on the budget simplex via the
    normalized-exponentials construction; only the first coordinate is
    needed, so the other N exponentials enter through their sum, drawn
    as a single Gamma(N) variate.
    """
    rng = _rng(config.seed)
    n_draws = config.draws
    e0 = -np.log(_open_uniform(rng, n_draws))
    rest = _gamma_variates(rng, float(config.n_observables), n_draws)
    w0 = config.rho * config.mu * e0 / (e0 + rest)
    k0 = np.sort(config.theta * w0)
    return CompetingObservablesResult(config=config, samples=k0)
