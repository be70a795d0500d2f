"""Covering numbers of layered function classes via a Lipschitz recursion.

A feed-forward parameterization is summarized by per-layer constants
(gamma_l, lambda_l): gamma_l bounds how much layer l can grow or separate
inputs (sup norm), lambda_l bounds the layer's sensitivity to its own
parameters.  The recursion

    C_0 = lambda_0,   C_{l+1} = gamma_{l+1} C_l + lambda_{l+1} prod_{i<=l} gamma_i

produces the total parameter-to-function Lipschitz constant C: two parameter
vectors within eps of each other (sup norm, entries bounded by B) realize
functions within C * eps in sup norm on [0,1]^d.  Hence an eps/C grid on the
parameter box is an eps-cover of the function class and the metric entropy is
at most N * log(C * B / eps).

For the constrained CNN class (rescaled so hidden layer norms are <= 1 and
the output 1-norm is <= M, with M >= 1) the constants are gamma_l = 1 and
lambda_l = s*J + 1 for the conv layers and gamma_L = M, lambda_L = d*J for
the output contraction.

`empirical_cover_check` validates the recursion constructively on tiny
architectures: random parameter vectors are snapped to the grid and the
realized functions compared on sampled points.  Its exhaustive variant
evaluates the trial networks first, then streams the grid networks through
one reused block of rows: each block is filled through one reused parameter
view (the grid values are finite by construction, so the view is validated
once), and the nearest grid network of each block is found by an exact pruned
search: the distance over a head of the sampled points bounds each grid
network's distance from below, so only networks whose bound beats the best
full distance so far (over this and earlier blocks) are compared on every
point, and a block with no such network is skipped.  The running minimum
over blocks is the same float as a scan of the whole table, which is never
held: peak memory is about (trials + block rows) x points floats, whatever
the number of grid networks.

Every constant entering a bound must be finite: non-finite input, or a bound
that overflows float64, raises PreconditionError instead of flowing on as
nan or inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cnn import forward, param_count, params_from_vector, params_view
from .errors import PreconditionError, check_budget, check_finite, check_size
from .sampling import spawn_rng, unit_cube_points


def _check_eps(eps):
    if not 0 < eps < math.inf:
        raise PreconditionError(f"eps={eps} must be finite and positive")


@dataclass
class LayeredComplexitySpec:
    """Per-layer constants feeding the covering recursion."""

    gammas: np.ndarray
    lambdas: np.ndarray
    param_bound: float
    n_params: int

    def __post_init__(self):
        self.gammas = check_finite(self.gammas, "every gamma")
        self.lambdas = check_finite(self.lambdas, "every lambda")
        if self.gammas.shape != self.lambdas.shape or self.gammas.ndim != 1:
            raise PreconditionError("gammas and lambdas must be equal-length vectors")
        if self.gammas.shape[0] < 1:
            raise PreconditionError("need at least one layer")
        if np.any(self.gammas < 1.0):
            raise PreconditionError("every gamma must be at least 1")
        if np.any(self.lambdas < 0.0):
            raise PreconditionError("every lambda must be nonnegative")
        if not 0 <= self.param_bound < math.inf:
            raise PreconditionError("parameter bound must be finite and nonnegative")


@dataclass
class EntropyResult:
    """Output of the covering recursion.

    param_lipschitz is the recursion value C; product_bound is the closed
    form (sum of lambdas) * (product of gammas), always an upper bound for C.
    """

    param_lipschitz: float
    product_bound: float
    n_params: int
    param_bound: float

    def entropy_bound(self, eps):
        """N * log(C * B / eps), the metric entropy guarantee at scale eps."""
        _check_eps(eps)
        return self.n_params * math.log(self.param_lipschitz * self.param_bound / eps)


def covering_recursion(spec):
    """Run the Lipschitz recursion over the layer constants."""
    g, lam = spec.gammas, spec.lambdas
    c = lam[0]
    prod = g[0]
    with np.errstate(over="ignore"):  # an overflow is reported below
        for level in range(1, g.shape[0]):
            c = g[level] * c + lam[level] * prod
            prod *= g[level]
        product_bound = lam.sum() * prod
    if not (math.isfinite(c) and math.isfinite(product_bound)):
        raise PreconditionError("the covering recursion overflows float64")
    return EntropyResult(
        param_lipschitz=float(c),
        product_bound=float(product_bound),
        n_params=spec.n_params,
        param_bound=spec.param_bound,
    )


def cnn_complexity_spec(d, s, J, L, M):
    """Layer constants of the constrained CNN class with norm budget M >= 1."""
    if not 2 <= s <= d:
        raise PreconditionError(f"filter size s={s} outside [2, d={d}]")
    if J < 1:
        raise PreconditionError(f"channel count J={J} must be at least 1")
    check_size("L + 1 layer constants", L + 1, low=2)
    check_budget(M)
    gammas = np.ones(L + 1)
    gammas[L] = M
    lambdas = np.full(L + 1, float(s * J + 1))
    lambdas[L] = d * J
    return LayeredComplexitySpec(gammas, lambdas, max(float(M), 1.0), param_count(d, s, J, L))


def cnn_param_lipschitz(d, s, J, L, M):
    """Closed form of the recursion for the CNN constants: L*M*(sJ+1) + dJ."""
    return L * M * (s * J + 1) + d * J


def cnn_lipschitz_bound(d, s, J, L, M):
    """Closed-form product bound (dJ + sJL + L) * M; at most 3*d*J*L*M."""
    return (d * J + s * J * L + L) * M


def entropy_bound_cnn(d, s, J, L, M, eps):
    """Metric entropy guarantee N * log(3*d*J*L*M^2 / eps) for the CNN class."""
    check_budget(M)
    _check_eps(eps)
    ratio = 3 * d * J * L * M * M / eps
    if not math.isfinite(ratio):
        raise PreconditionError("3*d*J*L*M^2/eps overflows float64")
    return param_count(d, s, J, L) * math.log(ratio)


# -- constructive validation on tiny architectures -------------------------

_COVER_PARAM_GUARD = 8
_EXHAUSTIVE_GUARD = 300_000
_GRID_GUARD = 1_000_000  # grid points per parameter
_HEAD_POINTS = 64  # sampled points behind the exhaustive search's lower bounds
_BLOCK_BYTES = 4 << 20  # one block of grid-network values in the exhaustive search


@dataclass
class CoverCheckReport:
    """Outcome of a brute-force cover validation run."""

    n_params: int
    resolution: int
    candidate_count: int
    covering_radius: float
    target_radius: float
    n_points: int
    worst_distance: float
    passed: bool
    distances: np.ndarray = field(repr=False)


def _grid_values(B, resolution):
    check_size("grid points per dimension", resolution, low=2, limit=_GRID_GUARD)
    return np.linspace(-B, B, resolution)


def _snap_to_grid(theta, grid):
    idx = np.clip(np.round((theta - grid[0]) / (grid[1] - grid[0])), 0, len(grid) - 1)
    return grid[idx.astype(int)]


def _nearest_row_distance(table, head, f, upper=math.inf):
    """min(upper, min over rows of max_j |table[row, j] - f[j]|), exactly.

    `head` is a contiguous copy of the first columns of `table`.  The max over
    those columns bounds each row's distance from below.  When no bound lies
    below `upper` (the running minimum of earlier blocks) the result is
    `upper` and no row is compared on every column.  Otherwise the full
    distance of the row with the smallest bound, or `upper` if smaller, is an
    upper bound, and only rows whose bound lies strictly below it are compared
    on every column.  Each term |g - f| is the same double as in a scan of the
    whole table and max and min are exact, so the result equals that scan's
    bit for bit.
    """
    lower = np.abs(head - f[: head.shape[1]]).max(axis=1)
    nearest = lower.argmin()
    if lower[nearest] >= upper:
        return upper
    best = min(upper, np.abs(table[nearest] - f).max())
    rows = table[lower < best]
    if rows.shape[0] == 0:
        return best
    rows -= f
    np.abs(rows, out=rows)
    return min(best, rows.max(axis=1).min())


def empirical_cover_check(
    d,
    s,
    J,
    L,
    M,
    eps,
    grid_resolution=None,
    trials=100,
    seed=0,
    n_points=1000,
    exhaustive=False,
):
    """Verify the eps-cover property of the parameter grid on a tiny class.

    Draws `trials` random parameter vectors from [-B, B]^N, snaps each to the
    nearest grid point (the cover candidate the recursion guarantees), and
    measures the sampled sup distance between the two realized functions: the
    max over the sampled points (mixed uniform and Sobol), a lower bound on the
    sup distance over the cube.
    With `exhaustive=True` the distance is minimized over every grid network
    instead.  The trial networks are evaluated first and held as one
    trials x points array; the grid networks are then evaluated block by
    block into one reused buffer of about `_BLOCK_BYTES`, each through one
    `params_view` whose vector is overwritten before each `forward`, and an
    exact pruned search (`_nearest_row_distance`) lowers each trial's running
    minimum by the block's nearest distance, skipping a block that cannot
    lower it.  The result is the one a full scan of the candidates x points
    table gives, at a peak of about (trials + block rows) x points floats.
    Either variant rejects trials x points above `_EXHAUSTIVE_GUARD * 1000`
    before any point is drawn.  Every distance must come out at most eps; a
    failure falsifies the recursion constants.
    """
    _check_eps(eps)
    if trials < 1:
        raise PreconditionError(f"trials={trials} must be at least 1")
    if n_points < 1000:
        raise PreconditionError("need at least 1000 sample points")
    n = param_count(d, s, J, L)
    check_size("parameters of a grid enumeration", n, limit=_COVER_PARAM_GUARD)
    result = covering_recursion(cnn_complexity_spec(d, s, J, L, M))
    B = result.param_bound
    target_radius = eps / result.param_lipschitz
    if grid_resolution is None:
        steps = B / target_radius if target_radius > 0 else math.inf  # eps / C may underflow
        check_size("grid points per dimension", steps + 1, limit=_GRID_GUARD)
        grid_resolution = math.ceil(steps) + 1
    grid = _grid_values(B, grid_resolution)
    covering_radius = B / (grid_resolution - 1)
    candidate_count = grid_resolution**n

    if exhaustive:
        check_size("grid networks to search", candidate_count, limit=_EXHAUSTIVE_GUARD)
    # the exhaustive search holds the trial values at once; allow either
    # variant the table size the candidate guard allows at the default 1000 points
    check_size("trials x points", trials * n_points, limit=_EXHAUSTIVE_GUARD * 1000)

    X = unit_cube_points(d, n_points, seed=seed)
    arch = (d, s, J, L)
    thetas = (spawn_rng(seed, t).uniform(-B, B, size=n) for t in range(trials))

    if exhaustive:
        trial_values = np.stack([forward(params_from_vector(th, *arch), X) for th in thetas])
        distances = np.full(trials, np.inf)
        grid_thetas = np.stack(
            np.meshgrid(*([grid] * n), indexing="ij"), axis=-1
        ).reshape(-1, n)
        block = np.empty((max(1, _BLOCK_BYTES // (8 * n_points)), n_points))
        vec = grid_thetas[0].copy()
        net = params_view(vec, *arch)  # validated once; grid values are finite
        for start in range(0, candidate_count, block.shape[0]):
            rows = block[: candidate_count - start]
            for row, t in zip(rows, grid_thetas[start:]):
                vec[:] = t
                row[:] = forward(net, X)
            head = np.ascontiguousarray(rows[:, :_HEAD_POINTS])
            for i, f_trial in enumerate(trial_values):
                distances[i] = _nearest_row_distance(rows, head, f_trial, distances[i])
    else:
        distances = np.empty(trials)
        for t, theta in enumerate(thetas):
            f_trial = forward(params_from_vector(theta, *arch), X)
            f_cand = forward(params_from_vector(_snap_to_grid(theta, grid), *arch), X)
            distances[t] = np.abs(f_cand - f_trial).max()

    worst = float(distances.max())
    return CoverCheckReport(
        n_params=n,
        resolution=grid_resolution,
        candidate_count=candidate_count,
        covering_radius=covering_radius,
        target_radius=target_radius,
        n_points=n_points,
        worst_distance=worst,
        passed=bool(worst <= eps),
        distances=distances,
    )
