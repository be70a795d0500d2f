import numpy as np
import pytest
from hypothesis import settings

from convrates.cnn import CnnParams, ConvLayer

# the same examples on every run, without the .hypothesis/ example database
settings.register_profile("convrates", derandomize=True, deadline=None)
settings.load_profile("convrates")


def random_cnn(rng, d=None, s=None, J=None, L=None, scale=1.0):
    """Random small network for property tests."""
    d = d or int(rng.integers(2, 7))
    s = s or int(rng.integers(1, d + 1))
    J = J or int(rng.integers(1, 5))
    L = L or int(rng.integers(1, 4))
    layers = []
    for i in range(L):
        in_c = 1 if i == 0 else J
        layers.append(
            ConvLayer(
                scale * rng.standard_normal((s, J, in_c)),
                scale * rng.standard_normal(J),
            )
        )
    W = scale * rng.standard_normal((d, J))
    return CnnParams(d, s, layers, W)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
