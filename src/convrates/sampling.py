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
    if n < 1:
        raise PreconditionError(f"need at least one point, not {n}")
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
