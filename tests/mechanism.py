"""Test-side oracles for the mechanisms behind the mixture model.

The library ships the fitted model only.  Acceptance criteria C2, C5 and
C10 check it against the mechanisms the paper derives it from, written
here in the least code each check needs.
"""

import math

import numpy as np

from lomaxmix.simulate import _gamma_at_least_one, _open_uniform, _rng


def gamma_pdf(lam, shape, rate):
    """Density rate^shape lam^(shape-1) e^(-rate lam) / Gamma(shape) of the hidden rate, lam > 0."""
    return math.exp(
        shape * math.log(rate) + (shape - 1.0) * math.log(lam) - rate * lam - math.lgamma(shape)
    )


def lognormal_asymptote(b, v, m, k):
    """Lognormal-form tail density (v b^v e^(vm/2) / k) e^(-(ln k + m)^2 v / (2m)).

    Written as the identical v b^v k^(-v-1) e^(-v (ln k)^2 / (2m)), so that
    e^(vm/2) never overflows; as m grows it tends to v b^v k^(-v-1).
    """
    return v * b**v * k ** (-v - 1.0) * np.exp(-v * np.log(k) ** 2 / (2.0 * m))


def competing_observables(n, budget, draws, seed):
    """Sorted draws of the first of n + 1 rates uniform on the simplex summing to ``budget``.

    Normalized exponentials place the rates; the other n exponentials enter
    only through their sum, one Gamma(n) variate per draw.
    """
    rng = _rng(seed)
    e0 = -np.log(_open_uniform(rng, draws))
    rest = np.concatenate(list(_gamma_at_least_one(rng, float(n), draws)))  # Gamma(n), n >= 1
    return np.sort(budget * e0 / (e0 + rest))


def exact_ccdf(x, n, budget):
    """P(first rate >= x) = (1 - x / budget)^n, the uniform-simplex marginal."""
    return np.clip(1.0 - x / budget, 0.0, 1.0) ** n


def exponential_ccdf(x, n, budget):
    """Large-n limit e^(-x n / budget) of :func:`exact_ccdf`."""
    return np.exp(-(n / budget) * x)


def sup_distance(draws, curve):
    """Kolmogorov sup |empirical - curve| of sorted draws, over both sides of each step."""
    n = draws.size
    i = np.arange(n)
    return float(
        np.maximum(np.abs((n - i) / n - curve), np.abs((n - i - 1) / n - curve)).max()
    )
