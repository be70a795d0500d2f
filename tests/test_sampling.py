"""Unit-cube point sets: the numpy Sobol draw against scipy's own.

`scipy.stats.qmc.Sobol` is the oracle: `unit_cube_points` must return its
points byte for byte, so a change to scipy's direction-number file or to its
scrambling algorithm fails here rather than silently moving every sup-norm
check that samples the cube.
"""

import time

import numpy as np
import pytest
from scipy.stats import qmc

from convrates import sampling
from convrates.errors import PreconditionError
from convrates.sampling import unit_cube_points


def _scipy_points(d, n, seed):
    n_sob = n // 2
    uniform = np.random.default_rng(seed).random((n - n_sob, d))
    m = max(1, (n_sob - 1).bit_length())
    sobol = qmc.Sobol(d, scramble=True, seed=seed).random_base2(m)[:n_sob]
    return np.concatenate([uniform, sobol])


class TestSobolMatchesScipy:
    @pytest.mark.parametrize("seed", [0, 2**31 + 5, 2**64 + 5])
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 40, 300])
    def test_bit_identical(self, d, seed):
        for m in range(15):
            # odd n; floor(n/2) Sobol points: 2^m (a full batch, and at m = 0
            # the one-point slice of a two-point batch), then 2^m + 1 and
            # 2^m - 1 (slices of a larger batch)
            for n_sob in sorted({2**m, 2**m + 1, max(1, 2**m - 1)}):
                n = 2 * n_sob + 1
                got = unit_cube_points(d, n, seed)
                assert got.tobytes() == _scipy_points(d, n, seed).tobytes(), (d, n, seed)

    def test_last_row_of_the_direction_table(self):
        d = sampling._SOBOL_MAXDIM
        assert unit_cube_points(d, 7, 3).tobytes() == _scipy_points(d, 7, 3).tobytes()


class TestDimensionGuard:
    @pytest.mark.parametrize("d", [0, -1, sampling._SOBOL_MAXDIM + 1])
    def test_rejected_before_any_draw(self, d, monkeypatch):
        monkeypatch.setattr(sampling, "_sobol", lambda *a: pytest.fail("drew Sobol points"))
        with pytest.raises(PreconditionError, match="Sobol"):
            unit_cube_points(d, 1000, seed=0)


def test_draw_after_the_first_is_cheap():
    unit_cube_points(8, 10, seed=0)  # builds the direction table
    best = np.inf
    for seed in range(20):
        start = time.perf_counter()
        sampling._sobol(8, 5000, seed)
        best = min(best, time.perf_counter() - start)
    assert best < 2e-3
