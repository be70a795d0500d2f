"""Point sets on the unit cube used by exactness checks and Monte Carlo.

Sup-norm distances between functions are approximated by maxima over sampled
points.  To reduce the chance that a sampled max badly underestimates the true
sup, the point set mixes i.i.d. uniform draws with a low-discrepancy
Sobol sequence.

The Sobol points are drawn here in numpy, bit for bit as
`scipy.stats.qmc.Sobol(d, scramble=True, seed=seed)` draws them: Joe & Kuo's
(2008) direction numbers under Matousek's (1998) linear matrix scramble plus
a digital shift.  Only the direction-number table is read from scipy's data
file, so no verb imports `scipy.stats`, which costs about 0.5 s and 60 MB:
the benchmark's `cover-check` and `verify-compile` runs peak at about 62 and
64 MB instead of 124 and 127 MB.
"""

import importlib.util
import os

import numpy as np

from .errors import check_size

# rows of Joe & Kuo's direction-number table, and the bits of each number
_SOBOL_MAXDIM = 21201
_BITS = 30

_POW2 = np.uint32(1) << np.arange(_BITS, dtype=np.uint32)

_directions = np.zeros((0, _BITS), np.uint32)  # the rows built so far


def _build_directions(d):
    # read on first use, not at import: the file costs about 12 ms to load,
    # and find_spec imports the scipy package but not scipy.stats
    folder = importlib.util.find_spec("scipy.stats").submodule_search_locations[0]
    with np.load(os.path.join(folder, "_sobol_direction_numbers.npz")) as dns:
        poly, vinit = dns["poly"][:d], dns["vinit"][:d]
    # row r's primitive polynomial has degree deg[r]; its coefficient of
    # x^(deg-1-k) weighs v[j-1-k] by 2^(k+1) in the recurrence for v[j]
    max_deg = vinit.shape[1]
    deg = np.frexp(poly)[1] - 1
    k = np.arange(max_deg)
    taps = ((poly[:, None] >> np.maximum(deg[:, None] - 1 - k, 0)) & 1) * (k < deg[:, None])
    taps <<= k + 1
    # max_deg zero columns ahead of v[0] keep every window in range
    v = np.zeros((d, max_deg + _BITS), np.int64)
    v[:, max_deg : 2 * max_deg] = vinit
    v[0, max_deg:] = 1
    rows = np.arange(d)
    for j in range(1, _BITS):
        c = max_deg + j
        new = v[rows, c - deg] ^ np.bitwise_xor.reduce(taps * v[:, c - 1 : j - 1 : -1], axis=1)
        recur = (0 < deg) & (deg <= j)
        v[recur, c] = new[recur]
    return (v[:, max_deg:] << np.arange(_BITS - 1, -1, -1)).astype(np.uint32)


def _direction_numbers(d):
    """(d, 30) unscrambled direction numbers, as `qmc.Sobol` builds them."""
    global _directions
    if len(_directions) < d:
        _directions = _build_directions(d)
    return _directions[:d]


def _sobol(d, n, seed):
    # the same n points qmc.Sobol(d, scramble=True, seed=seed) gives from
    # random_base2(m)[:n]: a point never depends on how many follow it; the
    # shift bits and then the scramble come from the stream in scipy's order
    rng = np.random.default_rng(seed)
    shift = rng.integers(2, size=(d, _BITS), dtype=np.uint32) @ _POW2
    ltm = np.tril(rng.integers(2, size=(d, _BITS, _BITS), dtype=np.uint32)).astype(np.uint8)
    ltm[:, np.arange(_BITS), np.arange(_BITS)] = 1
    # scramble: direction number j's bits (most significant first) times
    # each dimension's lower-triangular matrix, mod 2
    msb_first = _POW2[::-1]
    bits = (_direction_numbers(d)[:, :, None] & msb_first).astype(bool).astype(np.uint8)
    directions = (bits @ ltm.transpose(0, 2, 1) & 1).astype(np.uint32) @ msb_first
    # point k XORs in direction number ctz(k); ruler[k-1] = ctz(k)
    ruler = np.zeros(n - 1, np.intp)
    for b in range(1, (n - 1).bit_length()):
        ruler[(1 << b) - 1 :: 1 << b] = b
    q = np.empty((n, d), np.uint32)
    q[0] = 0
    np.take(directions.T, ruler, axis=0, out=q[1:])
    np.bitwise_xor.accumulate(q, axis=0, out=q)
    q ^= shift
    return q * 2.0**-_BITS


def unit_cube_points(d, n, seed):
    """Return an (n, d) array of points in [0,1]^d: ceil(n/2) i.i.d. uniform
    draws followed by floor(n/2) scrambled Sobol points."""
    check_size("points", n)
    check_size("the Sobol dimension d", d, limit=_SOBOL_MAXDIM)
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
