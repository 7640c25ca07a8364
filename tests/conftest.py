import numpy as np
import pytest

from lomaxmix import LomaxComponent, MixtureModel


def random_mixture(rng, max_order=4, b_range=(0.01, 100.0), v_range=(0.1, 10.0)):
    """A random valid model: log-uniform scales/shapes, Dirichlet weights."""
    order = int(rng.integers(1, max_order + 1))
    b = np.exp(rng.uniform(np.log(b_range[0]), np.log(b_range[1]), order))
    v = np.exp(rng.uniform(np.log(v_range[0]), np.log(v_range[1]), order))
    c = rng.dirichlet(np.ones(order))
    return MixtureModel(
        tuple(LomaxComponent(weight=ci, scale=bi, shape=vi) for ci, bi, vi in zip(c, b, v))
    )


def strip_timestamps(report: dict) -> dict:
    """Copy of a report without its nondeterministic fields."""
    out = dict(report)
    out.pop("created_at", None)
    return out


@pytest.fixture
def make_random_mixture():
    return random_mixture
