"""Covering recursion, CNN specialization, parameter counts, entropy bounds,
and the brute-force cover validation.

The hand-unrolled recursion is the oracle for the closed forms; stored
parameter vectors are the oracle for the count formula; the cover check is
itself the constructive oracle for the recursion constants.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convrates import complexity
from convrates.cnn import forward, param_vector, params_from_vector
from convrates.complexity import (
    _HEAD_POINTS,
    CoverCheckReport,
    LayeredComplexitySpec,
    _nearest_row_distance,
    _snap_to_grid,
    cnn_complexity_spec,
    cnn_lipschitz_bound,
    cnn_param_lipschitz,
    covering_recursion,
    empirical_cover_check,
    entropy_bound_cnn,
    param_count,
)
from convrates.errors import PreconditionError
from convrates.sampling import spawn_rng, unit_cube_points

from conftest import random_cnn


class TestCoveringRecursion:
    def test_all_ones_collapse(self):
        for L in range(0, 6):
            spec = LayeredComplexitySpec(np.ones(L + 1), np.ones(L + 1), 1.0, 10)
            assert covering_recursion(spec).param_lipschitz == L + 1

    def test_two_step_hand_unroll(self):
        # C2 = M*(lam0 + lam1) + lam2 for gammas (1, 1, M)
        lam = np.array([3.0, 5.0, 2.0])
        for M in (1.0, 2.0, 7.5):
            spec = LayeredComplexitySpec(np.array([1.0, 1.0, M]), lam, M, 4)
            assert covering_recursion(spec).param_lipschitz == M * (lam[0] + lam[1]) + lam[2]

    def test_closed_form_bound_random(self, rng):
        for _ in range(1000):
            L = int(rng.integers(0, 6))
            gammas = 1.0 + rng.exponential(1.0, L + 1)
            lambdas = rng.exponential(2.0, L + 1)
            spec = LayeredComplexitySpec(gammas, lambdas, 1.0, 3)
            res = covering_recursion(spec)
            assert res.param_lipschitz <= res.product_bound * (1 + 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(1.0, 50.0), st.floats(0.0, 50.0)),
            min_size=1,
            max_size=8,
        )
    )
    def test_closed_form_bound_hypothesis(self, constants):
        gammas = np.array([g for g, _ in constants])
        lambdas = np.array([l for _, l in constants])
        res = covering_recursion(LayeredComplexitySpec(gammas, lambdas, 2.0, 5))
        assert res.param_lipschitz <= res.product_bound * (1 + 1e-12)

    def test_invalid_spec(self):
        with pytest.raises(PreconditionError):
            LayeredComplexitySpec(np.array([0.5, 1.0]), np.array([1.0, 1.0]), 1.0, 2)
        with pytest.raises(PreconditionError):
            LayeredComplexitySpec(np.array([1.0, 1.0]), np.array([-1.0, 1.0]), 1.0, 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_constants_rejected(self, bad):
        ones = np.ones(2)
        with pytest.raises(PreconditionError):
            LayeredComplexitySpec(np.array([1.0, bad]), ones, 1.0, 2)
        with pytest.raises(PreconditionError):
            LayeredComplexitySpec(ones, np.array([bad, 1.0]), 1.0, 2)
        with pytest.raises(PreconditionError):
            LayeredComplexitySpec(ones, ones, bad, 2)

    def test_overflowing_recursion_rejected(self):
        spec = LayeredComplexitySpec(np.array([1.0, 1e200, 1e200]), np.ones(3), 1.0, 2)
        with pytest.raises(PreconditionError, match="overflows"):
            covering_recursion(spec)

    def test_entropy_bound_function(self):
        spec = LayeredComplexitySpec(np.array([1.0, 2.0]), np.array([1.0, 1.0]), 3.0, 7)
        res = covering_recursion(spec)
        eps = res.param_lipschitz * res.param_bound
        assert res.entropy_bound(eps) == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(PreconditionError):
            res.entropy_bound(0.0)


class TestCnnSpecialization:
    def test_one_step_by_hand(self):
        # L=1, J=1, s=2, d=2, M=1: gammas (1,1), lambdas (3,2) -> C1 = 5
        spec = cnn_complexity_spec(2, 2, 1, 1, 1.0)
        assert np.array_equal(spec.gammas, [1.0, 1.0])
        assert np.array_equal(spec.lambdas, [3.0, 2.0])
        assert covering_recursion(spec).param_lipschitz == 5.0

    def test_recursion_matches_closed_form(self, rng):
        for _ in range(1000):
            d = int(rng.integers(2, 12))
            s = int(rng.integers(2, d + 1))
            J = int(rng.integers(1, 8))
            L = int(rng.integers(1, 12))
            M = float(1 + rng.exponential(3.0))
            res = covering_recursion(cnn_complexity_spec(d, s, J, L, M))
            exact = cnn_param_lipschitz(d, s, J, L, M)  # L*M*(sJ+1) + dJ
            assert res.param_lipschitz == pytest.approx(exact, rel=1e-14)
            # the product bound is the (dJ + sJL + L)M closed form, <= 3dJLM
            assert res.product_bound == pytest.approx(
                cnn_lipschitz_bound(d, s, J, L, M), rel=1e-14
            )
            assert res.param_lipschitz <= res.product_bound * (1 + 1e-14)
            assert res.product_bound <= 3 * d * J * L * M * (1 + 1e-14)

    def test_frozen_product_bound_example(self):
        # (dJ + sJL + L) * M at d=4, s=2, J=6, L=10, M=2
        assert cnn_lipschitz_bound(4, 2, 6, 10, 2) == 308
        # the recursion value itself is smaller: L*M*(sJ+1) + dJ
        res = covering_recursion(cnn_complexity_spec(4, 2, 6, 10, 2.0))
        assert res.param_lipschitz == 10 * 2 * 13 + 24 == 284

    def test_m_below_one_rejected(self):
        with pytest.raises(PreconditionError):
            cnn_complexity_spec(3, 2, 1, 1, 0.5)

    @pytest.mark.parametrize("M", [math.nan, math.inf])
    def test_non_finite_m_rejected(self, M):
        with pytest.raises(PreconditionError):
            cnn_complexity_spec(3, 2, 1, 1, M)


class TestParamCount:
    def test_frozen_examples(self):
        assert param_count(4, 2, 6, 10) == 744  # 780 - 36
        assert param_count(2, 2, 1, 1) == 5
        for d in range(2, 9):
            assert param_count(d, 1, 1, 1) == 2 + d

    def test_two_algebraic_forms_agree(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 12))
            s = int(rng.integers(1, d + 1))
            J = int(rng.integers(1, 8))
            L = int(rng.integers(1, 10))
            alt = s * J + J + (L - 1) * (s * J * J + J) + d * J
            assert param_count(d, s, J, L) == alt

    def test_matches_stored_parameter_enumeration(self, rng):
        for _ in range(50):
            net = random_cnn(rng)
            assert param_count(net.d, net.s, net.J, net.depth) == param_vector(net).size


class TestEntropyBoundCnn:
    def test_zero_at_matching_eps(self):
        d, s, J, L, M = 3, 2, 2, 4, 2.0
        eps = 3 * d * J * L * M * M
        assert entropy_bound_cnn(d, s, J, L, M, eps) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_example(self):
        # 3dJLM^2/eps = 28800 at these constants
        expected = 744 * math.log(28800.0)
        assert entropy_bound_cnn(4, 2, 6, 10, 2.0, 0.1) == pytest.approx(expected, rel=1e-14)

    def test_doubling_m(self):
        base = entropy_bound_cnn(4, 2, 3, 5, 2.0, 0.3)
        doubled = entropy_bound_cnn(4, 2, 3, 5, 4.0, 0.3)
        n = param_count(4, 2, 3, 5)
        assert doubled - base == pytest.approx(2 * n * math.log(2.0), rel=1e-12)

    def test_monotonicity(self):
        base = entropy_bound_cnn(4, 2, 3, 5, 2.0, 0.3)
        assert entropy_bound_cnn(4, 2, 3, 5, 2.0, 0.2) >= base
        assert entropy_bound_cnn(5, 2, 3, 5, 2.0, 0.3) >= base
        assert entropy_bound_cnn(4, 2, 4, 5, 2.0, 0.3) >= base
        assert entropy_bound_cnn(4, 2, 3, 6, 2.0, 0.3) >= base
        assert entropy_bound_cnn(4, 2, 3, 5, 2.5, 0.3) >= base

    def test_invalid_inputs(self):
        with pytest.raises(PreconditionError):
            entropy_bound_cnn(4, 2, 3, 5, 0.5, 0.3)
        with pytest.raises(PreconditionError):
            entropy_bound_cnn(4, 2, 3, 5, 2.0, 0.0)

    @pytest.mark.parametrize(
        "M, eps",
        [
            (math.nan, 0.3),
            (math.inf, 0.3),
            (2.0, math.nan),
            (2.0, math.inf),
            (1e200, 0.3),  # M^2 overflows
            (2.0, 5e-324),  # 1/eps overflows
        ],
    )
    def test_non_finite_inputs_and_overflow_rejected(self, M, eps):
        with pytest.raises(PreconditionError):
            entropy_bound_cnn(4, 2, 3, 5, M, eps)


class TestEmpiricalCoverCheck:
    def test_candidate_counting(self):
        report = empirical_cover_check(2, 2, 1, 1, 1.0, eps=0.5, grid_resolution=9, trials=3)
        assert report.n_params == 5
        assert report.candidate_count == 9**5 == 59049

    def test_snap_is_identity_on_grid(self):
        grid = np.linspace(-1, 1, 11)
        theta = grid[[0, 3, 7, 10, 5]]
        assert np.array_equal(_snap_to_grid(theta, grid), theta)

    def test_rounded_cover_at_half(self):
        report = empirical_cover_check(2, 2, 1, 1, 1.0, eps=0.5, trials=20, seed=3)
        assert report.passed
        assert report.worst_distance <= 0.5
        assert report.covering_radius <= report.target_radius

    def test_exhaustive_at_least_as_good(self):
        snap = empirical_cover_check(
            2, 2, 1, 1, 1.0, eps=1.0, grid_resolution=5, trials=5, seed=9
        )
        exh = empirical_cover_check(
            2, 2, 1, 1, 1.0, eps=1.0, grid_resolution=5, trials=5, seed=9, exhaustive=True
        )
        assert np.all(exh.distances <= snap.distances + 1e-12)

    def test_determinism_per_trial(self):
        a = empirical_cover_check(2, 2, 1, 1, 1.0, eps=0.5, trials=7, seed=5)
        b = empirical_cover_check(2, 2, 1, 1, 1.0, eps=0.5, trials=7, seed=5)
        assert np.array_equal(a.distances, b.distances)

    def test_parameter_guard(self):
        with pytest.raises(PreconditionError):
            empirical_cover_check(3, 2, 2, 2, 1.0, eps=0.5)

    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_one_forward_per_network(self, monkeypatch, exhaustive):
        # the benchmark counts one `complexity.forward` per evaluated network;
        # grid networks share one parameter view, trial networks are built
        calls = {"forward": 0, "params_from_vector": 0}

        def counting(name):
            original = getattr(complexity, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(complexity, name, counting(name))
        trials = 6
        report = empirical_cover_check(
            2, 2, 1, 1, 1.0, eps=1.0, grid_resolution=4, trials=trials, exhaustive=exhaustive
        )
        if exhaustive:
            assert report.candidate_count == 4**5
            assert calls == {"forward": 4**5 + trials, "params_from_vector": trials}
        else:
            assert calls == {"forward": 2 * trials, "params_from_vector": 2 * trials}

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trials": 0},
            {"trials": -3},
            {"eps": math.nan},
            {"eps": math.inf},
            {"M": math.inf},
            {"M": math.nan},
            {"eps": 1e-300},  # the derived grid would not fit in memory
            {"M": 1e300},
            {"eps": 5e-324},  # eps / c underflows to 0
            {"M": 1e300, "eps": 1e-30},
            {"grid_resolution": 10**12},
            {"trials": 10**12},  # trials x points past the guard, before any draw
            {"trials": 10**30},
        ],
    )
    def test_bad_numbers_rejected(self, kwargs):
        args = {"M": 1.0, "eps": 0.5, "trials": 2, **kwargs}
        with pytest.raises(PreconditionError):
            empirical_cover_check(2, 2, 1, 1, **args)


def _full_scan_distances(M, resolution, trials, seed, n_points):
    """Exhaustive distances by a scan of the whole candidates x points table,
    the reference for the pruned search; also returns, per trial, how many
    grid networks tie at the minimum."""
    arch = (2, 2, 1, 1)
    n = param_count(*arch)
    B = max(M, 1.0)
    grid = np.linspace(-B, B, resolution)
    thetas = np.stack(np.meshgrid(*([grid] * n), indexing="ij"), axis=-1).reshape(-1, n)
    X = unit_cube_points(2, n_points, seed=seed)
    grid_values_all = np.stack([forward(params_from_vector(t, *arch), X) for t in thetas])
    distances = np.empty(trials)
    ties = []
    for t in range(trials):
        theta = spawn_rng(seed, t).uniform(-B, B, size=n)
        f_trial = forward(params_from_vector(theta, *arch), X)
        per_row = np.abs(grid_values_all - f_trial).max(axis=1)
        distances[t] = per_row.min()
        ties.append(int(np.sum(per_row == distances[t])))
    return distances, ties


class TestPrunedNearestGridSearch:
    """The exhaustive cover check returns the full scan's floats bit for bit."""

    @pytest.mark.parametrize(
        "M, resolution, seed, n_points",
        [
            (1.0, 3, 0, 1000),
            (1.0, 4, 2, 1537),
            (1.5, 5, 3, 1000),
            (1.0, 5, 4, 1537),
            (1.0, 6, 6, 1537),
            (1.0, 7, 11, 1000),
        ],
    )
    def test_distances_equal_the_full_scan(self, M, resolution, seed, n_points):
        report = empirical_cover_check(
            2, 2, 1, 1, M, eps=1.0, grid_resolution=resolution, trials=8,
            seed=seed, n_points=n_points, exhaustive=True,
        )
        expected, _ = _full_scan_distances(M, resolution, 8, seed, n_points)
        assert report.distances.tobytes() == expected.tobytes()
        assert report.worst_distance == expected.max()

    def test_many_tied_rows(self):
        # at this seed 131 of the 243 grid networks tie for nearest on a
        # trial whose distance is positive, and others tie at distance 0
        report = empirical_cover_check(
            2, 2, 1, 1, 1.0, eps=1.0, grid_resolution=3, trials=6, seed=1, exhaustive=True
        )
        expected, ties = _full_scan_distances(1.0, 3, 6, 1, 1000)
        assert max(t for t, dist in zip(ties, expected) if dist > 0) >= 100
        assert min(expected) == 0.0
        assert report.distances.tobytes() == expected.tobytes()

    @staticmethod
    def _search(table, f):
        head = np.ascontiguousarray(table[:, :_HEAD_POINTS])
        return _nearest_row_distance(table, head, f)

    def test_random_tables(self, rng):
        for rows, cols in [(1, 1), (5, 10), (50, 64), (200, 65), (1000, 300)]:
            for _ in range(20):
                table = rng.standard_normal((rows, cols))
                f = rng.standard_normal(cols)
                got = self._search(table, f)
                assert got == np.abs(table - f).max(axis=1).min()

    def test_coarse_values_with_many_ties(self, rng):
        for _ in range(50):
            table = rng.integers(0, 3, size=(500, 120)).astype(np.float64)
            f = rng.integers(0, 3, size=120).astype(np.float64)
            assert self._search(table, f) == np.abs(table - f).max(axis=1).min()

    def test_row_equal_to_f_gives_exactly_zero(self, rng):
        table = rng.standard_normal((300, 200))
        f = table[137].copy()
        assert self._search(table, f) == 0.0

    def test_every_row_ties(self, rng):
        row = rng.standard_normal(150)
        table = np.tile(row, (400, 1))
        f = rng.standard_normal(150)
        assert self._search(table, f) == np.abs(row - f).max()

    def test_search_leaves_the_table_unchanged(self, rng):
        table = rng.standard_normal((100, 80))
        before = table.copy()
        self._search(table, rng.standard_normal(80))
        assert np.array_equal(table, before)

    def test_peak_memory_below_twice_the_table(self):
        tracemalloc.start()
        try:
            report = empirical_cover_check(
                2, 2, 1, 1, 1.0, eps=0.9, trials=20, seed=0, exhaustive=True
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.resolution == 7
        table_bytes = report.candidate_count * report.n_points * 8
        assert peak < 2 * table_bytes


class TestBlockStreaming:
    """The exhaustive check streams the grid networks through one reused
    block of rows: the distances stay the full scan's, and memory stays far
    below the table's."""

    @pytest.mark.parametrize(
        "block_bytes, resolution, n_points",
        [
            (None, 3, 20_000),  # 26-row blocks, 243 candidates
            (13 * 8 * 1000, 4, 1000),  # 13-row blocks, 1024 candidates
            (2 * 8 * 1000, 3, 1000),  # 2-row blocks; the last holds one row
        ],
    )
    def test_distances_equal_the_full_scan(self, monkeypatch, block_bytes, resolution, n_points):
        if block_bytes is not None:
            monkeypatch.setattr(complexity, "_BLOCK_BYTES", block_bytes)
        block_rows = max(1, complexity._BLOCK_BYTES // (8 * n_points))
        assert resolution**5 % block_rows != 0  # the last block is partial
        report = empirical_cover_check(
            2, 2, 1, 1, 1.0, eps=1.0, grid_resolution=resolution, trials=6,
            seed=7, n_points=n_points, exhaustive=True,
        )
        expected, _ = _full_scan_distances(1.0, resolution, 6, 7, n_points)
        assert report.distances.tobytes() == expected.tobytes()

    def test_peak_memory_below_an_eighth_of_the_table(self):
        unit_cube_points(2, 1000, seed=0)  # builds the Sobol direction table outside the trace
        tracemalloc.start()
        try:
            report = empirical_cover_check(
                2, 2, 1, 1, 1.0, eps=0.9, trials=20, seed=0, exhaustive=True
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        table_bytes = report.candidate_count * report.n_points * 8
        assert peak < table_bytes / 8

    def test_running_minimum_prunes_whole_blocks(self, monkeypatch):
        # 2-row blocks: once a near grid network is found, most later blocks
        # have no head bound below the running minimum and are skipped
        monkeypatch.setattr(complexity, "_BLOCK_BYTES", 2 * 8 * 1000)
        search = complexity._nearest_row_distance
        calls = []

        def spy(table, head, f, upper=math.inf):
            lower = np.abs(head - f[: head.shape[1]]).max(axis=1)
            calls.append(bool(lower.min() >= upper))
            return search(table, head, f, upper)

        monkeypatch.setattr(complexity, "_nearest_row_distance", spy)
        report = empirical_cover_check(
            2, 2, 1, 1, 1.0, eps=1.0, grid_resolution=3, trials=6, seed=7, exhaustive=True
        )
        expected, _ = _full_scan_distances(1.0, 3, 6, 7, 1000)
        assert report.distances.tobytes() == expected.tobytes()
        assert len(calls) == 6 * 122 and sum(calls) > len(calls) // 2

    def test_a_skipped_block_is_never_compared_in_full(self, rng):
        table = rng.standard_normal((4, 300))
        f = rng.standard_normal(300)
        table[:, _HEAD_POINTS:] = np.nan  # any full comparison would give nan
        head = np.ascontiguousarray(table[:, :_HEAD_POINTS])
        bound = np.abs(head - f[:_HEAD_POINTS]).max(axis=1).min()
        assert _nearest_row_distance(table, head, f, bound) == bound
        assert _nearest_row_distance(table, head, f, bound / 2) == bound / 2

    def test_upper_below_the_nearest_row_is_returned(self, rng):
        for _ in range(20):
            table = rng.standard_normal((50, 200))
            f = rng.standard_normal(200)
            head = np.ascontiguousarray(table[:, :_HEAD_POINTS])
            full = np.abs(table - f).max(axis=1).min()
            for upper in (full / 2, full, np.nextafter(full, np.inf), 2 * full, math.inf):
                assert _nearest_row_distance(table, head, f, upper) == min(upper, full)

    def test_trial_values_past_the_guard_exit_before_any_network(self, monkeypatch):
        calls = []
        monkeypatch.setattr(complexity, "forward", lambda *a: calls.append(a))
        trials = complexity._EXHAUSTIVE_GUARD // 10 + 1
        with pytest.raises(PreconditionError, match="trials"):
            empirical_cover_check(
                2, 2, 1, 1, 1.0, eps=1.0, grid_resolution=3, trials=trials,
                n_points=10_000, exhaustive=True,
            )
        assert calls == []
