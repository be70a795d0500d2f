"""Point sets on the unit cube used by exactness checks and Monte Carlo.

Sup-norm distances between functions are approximated by maxima over sampled
points.  To reduce the chance that a sampled max badly underestimates the true
sup, the point set mixes i.i.d. uniform draws with a low-discrepancy
Sobol sequence.

Only the Sobol draw needs scipy, so `_sobol` imports `scipy.stats.qmc` on
first use.  Importing `scipy.stats` costs about 0.5 s and 60 MB, which every
process importing the package would otherwise pay: training and the rate
studies never draw a Sobol point, and only `cover-check` and
`verify-compile` load it.
"""

import numpy as np

from .errors import PreconditionError

# largest point set or sample the lab draws: the shipped rate studies stop at
# 8192 points and `verify-compile` defaults to 10^4, 10^7 points in d = 2
# take 160 MB, and a larger count would otherwise ask for terabytes or
# overflow float64 arithmetic on the count
_SAMPLE_GUARD = 10_000_000


def _sobol(d, n, seed):
    # imported here, not at module level: scipy.stats costs about 0.5 s and
    # 60 MB to import, and only Sobol draws need it
    from scipy.stats import qmc

    # draw a power-of-two batch (where Sobol balance holds) and slice
    m = max(1, (n - 1).bit_length())
    pts = qmc.Sobol(d, scramble=True, seed=seed).random_base2(m)
    return pts[:n]


def unit_cube_points(d, n, seed):
    """Return an (n, d) array of points in [0,1]^d: ceil(n/2) i.i.d. uniform
    draws followed by floor(n/2) scrambled Sobol points."""
    if not 1 <= n <= _SAMPLE_GUARD:
        raise PreconditionError(f"need between 1 and {_SAMPLE_GUARD} points, not {n}")
    n_sob = n // 2
    rng = np.random.default_rng(seed)
    pts = [rng.random((n - n_sob, d))]
    if n_sob > 0:
        pts.append(_sobol(d, n_sob, seed))
    return np.concatenate(pts, axis=0)


def spawn_rng(seed, *path):
    """Independent generator for a (seed, index...) cell.

    Deterministic in the cell coordinates and independent of the order in
    which cells are evaluated, so concurrent schedules reproduce the same
    stream per cell.
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, path)]))
