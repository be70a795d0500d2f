"""Compilation tests: every compiled network is checked against direct
shallow-net arithmetic (the reference path never touches the conv code),
and every compile call is checked against its guaranteed norm bound.
"""

import hashlib
import os
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convrates import cli, compiler, links
from convrates.cnn import (
    activation_grids,
    final_grid,
    forward,
    layer_norm,
    param_vector,
    path_norm,
    rescale,
)
from convrates.compiler import (
    CompileReport,
    ScalarNet,
    ShallowNet,
    compose_with_scalar_net,
    neuron_to_cnn,
    shallow_norm,
    shallow_to_cnn,
    shallow_to_cnn_open,
    sweep_depth,
)
from convrates.errors import PreconditionError, PropertyFailure, ShapeError
from convrates.sampling import unit_cube_points


def random_shallow(rng, d, n):
    return ShallowNet(
        rng.standard_normal(n), rng.standard_normal((n, d)), rng.standard_normal(n)
    )


class TestShallowNorm:
    def test_single_neuron(self):
        net = ShallowNet([2.0], [[1.0, 0.0]], [0.0])
        assert shallow_norm(net) == 2.0

    def test_zero_coeffs(self):
        net = ShallowNet([0.0, 0.0], [[1.0, 2.0], [3.0, 4.0]], [1.0, 1.0])
        assert shallow_norm(net) == 0.0

    def test_two_neurons(self):
        net = ShallowNet([1.0, -2.0], [[1.0, 1.0], [0.0, 3.0]], [1.0, 0.0])
        assert shallow_norm(net) == 9.0  # 1*3 + 2*3


class TestSweepDepth:
    def test_ceiling(self):
        assert sweep_depth(8, 3) == 4
        assert sweep_depth(3, 2) == 2
        assert sweep_depth(5, 5) == 1

    def test_s_one_rejected(self):
        # the sweep construction is undefined for s=1
        with pytest.raises(PreconditionError):
            sweep_depth(4, 1)

    def test_s_above_d_rejected(self):
        with pytest.raises(PreconditionError):
            sweep_depth(3, 4)


class TestNeuronToCnn:
    def test_zero_neuron(self, rng):
        d = 4
        net = neuron_to_cnn(np.zeros(d), 0.0, 1.0, 2)
        X = rng.random((100, d))
        assert np.array_equal(forward(net, X), np.zeros(100))
        assert path_norm(net) <= 3.0 ** (sweep_depth(d, 2) - 1)

    def test_exactness_small(self, rng):
        for _ in range(10):
            a = rng.standard_normal(3)
            b, c = rng.standard_normal(2)
            params = neuron_to_cnn(a, b, c, 2)
            assert params.depth == 2 and params.J == 3
            X = rng.random((1000, 3))
            ref = c * np.maximum(X @ a + b, 0.0)
            assert np.max(np.abs(forward(params, X) - ref)) < 1e-12

    def test_depth_is_sweep_depth(self, rng):
        params = neuron_to_cnn(rng.standard_normal(8), 0.1, 1.0, 3)
        assert params.depth == 4  # ceil(7/2)

    def test_output_weights_single_entry(self, rng):
        params = neuron_to_cnn(rng.standard_normal(5), 0.3, -2.0, 2)
        W = params.output_weights
        mask = np.zeros_like(W, dtype=bool)
        mask[0, 0] = True
        assert np.all(W[~mask] == 0) and W[0, 0] != 0

    def test_norm_bound(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 11))
            s = int(rng.integers(2, d + 1))
            a = rng.standard_normal(d)
            b, c = rng.standard_normal(2)
            params = neuron_to_cnn(a, b, c, s)
            L0 = sweep_depth(d, s)
            bound = 3.0 ** (L0 - 1) * abs(c) * (np.abs(a).sum() + abs(b))
            assert path_norm(params) <= bound * (1 + 1e-12)

    def test_invalid_filter_size(self, rng):
        with pytest.raises(PreconditionError):
            neuron_to_cnn(rng.standard_normal(4), 0.0, 1.0, 1)
        with pytest.raises(PreconditionError):
            neuron_to_cnn(rng.standard_normal(4), 0.0, 1.0, 5)


class TestShallowToCnn:
    @pytest.mark.parametrize("args, match", [
        (([1.0], [1.0, 2.0], [0.0]), "directions must have shape \\(neurons, d\\)"),
        (([1.0], np.ones((1, 2, 1)), [0.0]), "directions must have shape \\(neurons, d\\)"),
        (([1.0, 2.0], [[1.0, 2.0]], [0.0, 0.0]), "must align"),
    ])
    def test_malformed_nets_rejected(self, args, match):
        with pytest.raises(PreconditionError, match=match):
            ShallowNet(*args)

    def test_single_neuron_matches_neuron_path(self, rng):
        a = rng.standard_normal(4)
        b, c = rng.standard_normal(2)
        net = ShallowNet([c], a[None, :], [b])
        params, report = shallow_to_cnn(net, 2)
        single = neuron_to_cnn(a, b, c, 2)
        X = rng.random((1000, 4))
        assert np.max(np.abs(forward(params, X) - forward(single, X))) < 1e-12
        assert report.channels == 6 and params.J == 6

    def test_exactness_and_bound(self, rng):
        net = random_shallow(rng, 5, 8)
        params, report = shallow_to_cnn(net, 2)
        L0 = sweep_depth(5, 2)
        assert params.depth == 8 * L0
        X = unit_cube_points(5, 10_000, seed=42)
        ref = net(X)
        assert np.max(np.abs(forward(params, X) - ref)) < 1e-10
        assert report.norm_achieved <= 3.0 ** (L0 + 1) * 8 * shallow_norm(net) * (1 + 1e-12)
        assert report.norm_achieved == pytest.approx(path_norm(params))

    def test_positive_coeffs_leave_negative_accumulator_empty(self, rng):
        net = ShallowNet(
            np.abs(rng.standard_normal(5)) + 0.1,
            rng.standard_normal((5, 3)),
            rng.standard_normal(5),
        )
        params, _ = shallow_to_cnn(net, 2)
        X = rng.random((50, 3))
        for grid in activation_grids(params, X):
            assert np.all(grid[:, :, 5] == 0.0)

    def test_post_rescale_exactness(self, rng):
        net = random_shallow(rng, 4, 6)
        params, _ = shallow_to_cnn(net, 3)
        scaled = rescale(params)
        assert all(layer_norm(l) <= 1 + 1e-12 for l in scaled.layers)
        X = rng.random((2000, 4))
        ref = net(X)
        assert np.max(np.abs(forward(scaled, X) - ref) / (1 + np.abs(ref))) < 1e-10


class TestShallowToCnnOpen:
    def test_zero_net_exposes_zeros(self, rng):
        net = ShallowNet([0.0], [[0.0, 0.0, 0.0]], [0.0])
        open_net, _ = shallow_to_cnn_open(net, 2)
        grid = final_grid(open_net, rng.random((20, 3)))
        assert np.all(grid[:, 0, :2] == 0.0)

    def test_reconstruction(self, rng):
        net = random_shallow(rng, 5, 7)
        open_net, report = shallow_to_cnn_open(net, 2)
        assert open_net.depth == 7 * sweep_depth(5, 2) + 1
        X = rng.random((1000, 5))
        grid = final_grid(open_net, X)
        rec = grid[:, 0, 0] - grid[:, 0, 1]
        ref = net(X)
        assert np.max(np.abs(rec - ref)) < 1e-10
        # row 0 of the four bookkeeping channels is clean
        assert np.all(grid[:, 0, 2:] == 0.0)
        assert report.norm_achieved <= report.norm_bound * (1 + 1e-12)

    def test_computes_relu_of_the_net(self, rng):
        for trial in range(5):
            d = int(rng.integers(2, 8))
            s = int(rng.integers(2, d + 1))
            net = random_shallow(rng, d, int(rng.integers(1, 16)))
            open_net, report = shallow_to_cnn_open(net, s)
            X = unit_cube_points(d, 2000, seed=trial)
            ref = np.maximum(net(X), 0.0)
            assert np.max(np.abs(forward(open_net, X) - ref) / (1 + ref)) < 1e-10
            assert report.norm_achieved == path_norm(open_net)

    def test_negative_branch_is_zero_where_positive(self, rng):
        net = random_shallow(rng, 4, 5)
        open_net, _ = shallow_to_cnn_open(net, 2)
        X = rng.random((500, 4))
        grid = final_grid(open_net, X)
        vals = net(X)
        assert np.all(grid[vals > 0, 0, 1] == 0.0)
        assert np.all(grid[vals < 0, 0, 0] == 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_batch_rejected(self, rng, bad):
        open_net, _ = shallow_to_cnn_open(random_shallow(rng, 3, 2), 2)
        X = rng.random((5, 3))
        X[2, 1] = bad
        with pytest.raises(PreconditionError):
            final_grid(open_net, X)

    @pytest.mark.parametrize("shape", [(4, 5), (4, 2), (5,), (2, 3, 1)])
    def test_batch_of_another_width_rejected(self, rng, shape):
        open_net, _ = shallow_to_cnn_open(random_shallow(rng, 3, 2), 2)
        with pytest.raises(ShapeError):
            final_grid(open_net, rng.random(shape))

    def test_single_point_gives_one_grid(self, rng):
        open_net, _ = shallow_to_cnn_open(random_shallow(rng, 3, 2), 2)
        x = rng.random(3)
        grid = final_grid(open_net, x)
        assert grid.shape == (1, 3, 6)
        assert grid.tobytes() == final_grid(open_net, x[None]).tobytes()


class TestComposeWithScalarNet:
    def test_identity_link_recovers_net(self, rng):
        gid = ScalarNet([1.0, -1.0], [1.0, -1.0], [0.0, 0.0])
        net = random_shallow(rng, 4, 5)
        params, report = compose_with_scalar_net(net, gid, 2)
        X = rng.random((1000, 4))
        assert np.max(np.abs(forward(params, X) - net(X))) < 1e-10
        assert params.depth == 5 * sweep_depth(4, 2) + 2 + 1

    def test_sign_link_oracle(self, rng):
        u = 0.3
        g = ScalarNet([1 / u, -1 / u, -1.0], [1.0, 1.0, 0.0], [u, -u, 1.0])
        net = random_shallow(rng, 3, 4)
        params, _ = compose_with_scalar_net(net, g, 2)
        X = rng.random((1000, 3))
        ref = np.clip(net(X) / u, -1.0, 1.0)
        assert np.max(np.abs(forward(params, X) - ref)) < 1e-10

    def test_norm_bound_on_random_pairs(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 7))
            s = int(rng.integers(2, d + 1))
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, 9))
            net = random_shallow(rng, d, n)
            g = ScalarNet(
                rng.standard_normal(k), rng.standard_normal(k), rng.standard_normal(k)
            )
            params, report = compose_with_scalar_net(net, g, s)
            L0 = sweep_depth(d, s)
            bound = 36.0 * 3.0**L0 * n * shallow_norm(net) * k * shallow_norm(g)
            assert report.norm_achieved <= bound * (1 + 1e-12)
            X = rng.random((300, d))
            ref = g(net(X))
            dev = np.max(np.abs(forward(params, X) - ref) / (1 + np.abs(ref)))
            assert dev < 1e-10

    def test_constant_neuron_in_link(self, rng):
        # a slope-zero neuron contributes a constant; compilation stays exact
        g = ScalarNet([2.0, -1.0], [1.0, 0.0], [0.5, 1.0])
        net = random_shallow(rng, 3, 3)
        params, _ = compose_with_scalar_net(net, g, 2)
        X = rng.random((500, 3))
        ref = 2 * np.maximum(net(X) + 0.5, 0) - 1.0
        assert np.max(np.abs(forward(params, X) - ref)) < 1e-10

    def test_sweep_depth_past_the_float_range_rejected(self):
        # L0 = 699: 3^L0 would raise OverflowError if computed before the guard
        net = ShallowNet([1.0], np.ones((1, 700)), [0.0])
        for compile_ in (shallow_to_cnn, shallow_to_cnn_open,
                         lambda net, s: compose_with_scalar_net(net, links.sign_link_net(0.2), s)):
            with pytest.raises(PreconditionError, match="overflows"):
                compile_(net, 2)

    def test_empty_link_rejected(self, rng):
        net = random_shallow(rng, 3, 2)
        with pytest.raises(PreconditionError):
            ScalarNet([], [], [])


class TestScalarNet:
    def test_is_the_one_dimensional_shallow_net(self, rng):
        coeffs, slopes, offsets = rng.standard_normal((3, 7))
        g = ScalarNet(coeffs, slopes, offsets)
        assert isinstance(g, ShallowNet) and g.d == 1 and g.n_neurons == 7
        assert g.slopes.tobytes() == slopes.tobytes()
        net = ShallowNet(coeffs, slopes[:, None], offsets)
        t = rng.uniform(-2.0, 2.0, 1001)
        assert g(t).tobytes() == net(t[:, None]).tobytes()
        for link in (g, links.log_link_net(50), links.sign_link_net(0.2)):
            terms = np.abs(link.coeffs) * (np.abs(link.slopes) + np.abs(link.offsets))
            assert shallow_norm(link) == float(np.sum(terms))

    @pytest.mark.parametrize("args", [
        ([[1.0]], [1.0], [0.0]),  # 2-D coefficients
        ([1.0], [[1.0]], [0.0]),  # 2-D slopes
        ([1.0, 2.0], [1.0], [0.0]),  # misaligned
        ([1.0], [1.0], [0.0, 1.0]),
        ([], [], []),  # empty
        ([1.0], [np.nan], [0.0]),  # non-finite
        ([np.inf], [1.0], [0.0]),
        ([1.0], [1.0], [-np.inf]),
    ])
    def test_malformed_nets_rejected(self, args):
        with pytest.raises(PreconditionError):
            ScalarNet(*args)


class TestCompileReport:
    def test_violated_bound_raises(self):
        with pytest.raises(PropertyFailure):
            CompileReport(depth=1, channels=6, norm_achieved=2.0, norm_bound=1.0, sweep_depth=1)

    def test_fields(self, rng):
        net = random_shallow(rng, 6, 3)
        _, report = shallow_to_cnn(net, 3)
        assert report.sweep_depth == sweep_depth(6, 3)
        assert report.depth == 3 * report.sweep_depth
        assert report.norm_achieved <= report.norm_bound


class TestCompilationExactnessSweep:
    def test_mixed_point_sets(self, rng):
        """Relative sup deviation below 1e-10 on mixed Sobol/uniform points."""
        for trial in range(5):
            d = int(rng.integers(2, 8))
            s = int(rng.integers(2, d + 1))
            n = int(rng.integers(1, 16))
            net = random_shallow(rng, d, n)
            params, _ = shallow_to_cnn(net, s)
            X = unit_cube_points(d, 10_000, seed=trial)
            ref = net(X)
            dev = np.max(np.abs(forward(params, X) - ref) / (1 + np.abs(ref)))
            assert dev < 1e-10


def _direct_shallow(net, X):
    return np.maximum(X @ net.directions.T + net.offsets, 0.0) @ net.coeffs


class TestBlockedEvaluation:
    """Shallow and scalar nets are evaluated in row blocks with a fixed-order
    neuron sum: a value is the same double whatever the block size, and only
    one block of pre-activations per worker is held."""

    @pytest.mark.parametrize("size", [1, 7, 1001, 10_001])
    @pytest.mark.parametrize("link", ["log:50", "sign:0.2"])
    def test_scalar_net_bytes_do_not_depend_on_the_block(self, monkeypatch, rng, size, link):
        net = cli._make_link(link)
        t = rng.uniform(-0.5, 1.5, size)
        full = net(t)
        monkeypatch.setattr(compiler, "_BLOCK_BYTES", 8)  # one row per block
        assert net(t).tobytes() == full.tobytes()
        assert np.array([net(v) for v in t[:50]]).tobytes() == full[:50].tobytes()

    @pytest.mark.parametrize("size", [1, 7, 1001, 10_001])
    @pytest.mark.parametrize("d, neurons", [(2, 3), (8, 32)])
    def test_shallow_net_bytes_do_not_depend_on_the_block(self, monkeypatch, rng, size, d, neurons):
        net = random_shallow(rng, d, neurons)
        X = rng.random((size, d))
        full = net(X)
        monkeypatch.setattr(compiler, "_BLOCK_BYTES", 8)
        assert net(X).tobytes() == full.tobytes()
        assert np.array([net(x) for x in X[:50]]).tobytes() == full[:50].tobytes()

    def test_values_match_the_direct_formula(self, rng):
        net = random_shallow(rng, 8, 32)
        X = rng.random((3000, 8))
        ref = _direct_shallow(net, X)
        assert np.max(np.abs(net(X) - ref) / (1 + np.abs(ref))) < 1e-13
        g = links.log_link_net(200)
        t = np.linspace(0.0, 1.0, 10_001)
        assert np.max(np.abs(g(t) - links.log_link(200, t))) < 1e-11

    def test_return_types_and_shapes(self, rng):
        g = links.log_link_net(5)
        assert isinstance(g(0.25), float)
        assert g(np.float64(0.25)) == g(0.25)
        assert g(rng.random(6)).shape == (6,)
        t = rng.random((3, 4))
        assert g(t).shape == (3, 4)
        assert g(t).tobytes() == g(t.ravel()).tobytes()
        assert g(np.empty(0)).shape == (0,)
        net = random_shallow(rng, 3, 4)
        assert isinstance(net(rng.random(3)), float)
        assert net(rng.random((5, 3))).shape == (5,)

    @pytest.mark.parametrize("x", [np.zeros(3), np.zeros((4, 3)), np.zeros((2, 2, 2)), 0.5])
    def test_points_of_another_dimension_rejected(self, rng, x):
        with pytest.raises(PreconditionError):
            random_shallow(rng, 2, 3)(x)

    def test_peak_memory_is_one_block(self, monkeypatch):
        # one block per worker: two workers, whatever the machine's core count
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        g = links.log_link_net(200)  # 400 neurons: a 32 MB table at 10 000 points
        t = np.linspace(0.0, 1.0, 10_000)
        tracemalloc.start()
        try:
            g(t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20


def _magnitudes(high, low):
    return st.one_of(st.just(0.0), st.floats(low, high), st.floats(-high, -low))


# weights down to the least subnormal, with a share near the underflow threshold
_WEIGHTS = st.one_of(_magnitudes(1e3, 5e-324), _magnitudes(1e-290, 5e-324))


@st.composite
def _scalar_nets_and_points(draw):
    """A ScalarNet of 1-8 neurons, with zero weights and repeated kinks, and
    points on, beside and between its kinks and beyond the outermost ones."""
    weight = _WEIGHTS
    neurons = []
    for _ in range(draw(st.integers(1, 8))):
        if neurons and draw(st.booleans()):  # an earlier neuron's kink, scaled exactly
            _, a, b = draw(st.sampled_from(neurons))
            scale = draw(st.sampled_from([-4.0, -1.0, 0.5, 2.0]))
            neurons.append((draw(weight), scale * a, scale * b))
        else:
            neurons.append((draw(weight), draw(weight), draw(weight)))
    kinks = [-b / a for _, a, b in neurons if a != 0 and abs(b / a) <= 1e6]
    beside = [x for k in kinks for x in (np.nextafter(k, -2e6), np.nextafter(k, 2e6))
              if x == 0 or abs(x) >= 1e-50]
    point = _magnitudes(1e6, 1e-50)
    if kinks:
        point = st.one_of(point, st.sampled_from(kinks + beside))
    t = draw(st.lists(point, min_size=1, max_size=20))
    return ScalarNet(*map(np.array, zip(*neurons))), np.array(t)


def _record_dense_rows(monkeypatch):
    rows = []
    dense = compiler._dense_relu_sum

    def recording(X, *args, **kwargs):
        rows.append(len(X))
        return dense(X, *args, **kwargs)

    monkeypatch.setattr(compiler, "_dense_relu_sum", recording)
    return rows


class TestKinkEvaluation:
    """A one-dimensional net is summed densely at its kinks only and
    interpolated between them; d >= 2 nets are summed densely at every point."""

    @settings(max_examples=300)  # fewer miss a point that cancels against a far kink
    @given(_scalar_nets_and_points())
    @example((ScalarNet([5e-324], [1.5], [0.0]), np.array([9.0, 1e6])))  # a subnormal end slope
    def test_within_the_rounding_bound_of_the_exact_value(self, case):
        net, t = case
        u, eta = Fraction(2) ** -53, Fraction(2) ** -1074  # eta: the least subnormal
        K = net.n_neurons
        terms = [tuple(map(Fraction, w)) for w in zip(net.coeffs, net.slopes, net.offsets)]
        # an underflow errs by at most eta / 2, in a * t, in the kink -b / a (an
        # error a times larger in a * t + b) and in c * relu(.); the kink path
        # adds one product to a value from two such dense sums
        underflow = eta * (1 + 2 * sum(1 + abs(c) * (1 + abs(a)) for c, a, _ in terms))
        for x, value in zip(t, net(t)):
            x = Fraction(x)
            exact = sum(c * max(a * x + b, 0) for c, a, b in terms)
            scale = sum(abs(c) * (abs(a * x) + abs(b)) for c, a, b in terms)
            assert abs(Fraction(value) - exact) <= 4 * K * u * scale + u * abs(exact) + underflow

    def test_kink_values_start_no_thread(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda t: (started.append(t), start(t))[1])
        g = links.log_link_net(200)
        kinks = np.unique(-g.offsets[g.slopes != 0] / g.slopes[g.slopes != 0])
        assert kinks.size > compiler._BLOCK_BYTES // (8 * g.n_neurons)  # more than one block
        g(np.linspace(-2.0, 2.0, 10_000))
        assert started == []
        # nor does a call with more points than a `_BLOCK_BYTES` buffer holds
        t = np.linspace(-2.0, 2.0, 40_000)
        values = g(t)
        assert started == []
        sample = np.arange(0, t.size, 997)
        assert values[sample].tobytes() == np.array([g(v) for v in t[sample]]).tobytes()

    def test_one_dense_row_per_distinct_kink(self, monkeypatch, rng):
        rows = _record_dense_rows(monkeypatch)
        t = rng.uniform(-2.0, 2.0, 10_000)
        for net in (links.log_link_net(200), links.sign_link_net(0.2),
                    ScalarNet([1.0, 2.0, 3.0], [1.0, -2.0, 0.0], [-1.0, 2.0, 5.0])):
            rows.clear()
            net(t)
            kinks = np.unique(-net.offsets[net.slopes != 0] / net.slopes[net.slopes != 0])
            assert sum(rows) <= len(kinks)
        rows.clear()
        constant = ScalarNet([1.0, -2.0], [0.0, 0.0], [3.0, 1.0])
        assert np.all(constant(t) == 1.0)
        assert rows == [1]

    def test_one_dense_row_per_point_in_two_dimensions(self, monkeypatch, rng):
        rows = _record_dense_rows(monkeypatch)
        random_shallow(rng, 2, 5)(rng.random((1000, 2)))
        assert rows == [1000]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_points_rejected(self, rng, bad):
        g = links.log_link_net(5)
        with pytest.raises(PreconditionError, match="points must be finite"):
            g(bad)
        with pytest.raises(PreconditionError, match="points must be finite"):
            g(np.array([0.5, bad]))
        for d in (1, 2):
            x = np.zeros((3, d))
            x[1, 0] = bad
            with pytest.raises(PreconditionError, match="points must be finite"):
                random_shallow(rng, d, 3)(x)

    def test_a_kink_past_the_float_range_is_never_crossed(self):
        # the second neuron's kink, 1e310, overflows: for every finite t it
        # is off, and adds nothing to the right end slope
        net = ScalarNet([1.0, 1e290], [1.0, 1e-300], [0.0, -1e10])
        t = np.array([-1e20, -1.0, 0.0, 1.0, 1e20])
        assert net(t).tobytes() == compiler._dense_relu_sum(
            t[:, None], net.directions, net.offsets, net.coeffs).tobytes()

    def test_overflow_at_a_kink_falls_back_to_the_dense_sum(self):
        # the second neuron's kink sits at 1e303, where the first overflows
        net = ScalarNet([1e3, 1.0], [1e3, 1e-300], [0.0, -1e3])
        t = np.linspace(-5.0, 5.0, 101)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = net(t)
        assert values.tobytes() == compiler._dense_relu_sum(
            t[:, None], net.directions, net.offsets, net.coeffs).tobytes()


def _golden_nets(d, s):
    """A random net, the same net with a zero coefficient and a zero-mass
    neuron, and an all-zero-coefficient net, on a seed fixed by (d, s)."""
    rng = np.random.default_rng(100 * d + s)
    n = 1 + (d + s) % 4
    net = random_shallow(rng, d, n)
    yield net
    coeffs, directions, offsets = net.coeffs.copy(), net.directions.copy(), net.offsets.copy()
    coeffs[0] = 0.0
    directions[-1] = 0.0
    offsets[-1] = 0.0
    yield ShallowNet(np.append(coeffs, 1.5), np.vstack([directions, -directions[:1]]),
                     np.append(offsets, 0.25))
    yield ShallowNet(np.zeros(n), directions, offsets)


class TestGoldenCompile:
    def test_compiled_bytes(self):
        # sha256 of every compiled parameter vector, open layer and report repr
        # on d = 2..8 and every s, recorded before the three constructions
        # shared one assembly
        link_nets = [links.log_link_net(7), links.sign_link_net(0.2)]
        digest = hashlib.sha256()
        for d in range(2, 9):
            for s in range(2, d + 1):
                for net in _golden_nets(d, s):
                    params, report = shallow_to_cnn(net, s)
                    digest.update(param_vector(params).tobytes() + repr(report).encode())
                    open_net, report = shallow_to_cnn_open(net, s)
                    for layer in open_net.layers:
                        digest.update(layer.weights.tobytes() + layer.bias.tobytes())
                    digest.update(repr(report).encode())
                    for g in link_nets:
                        params, report = compose_with_scalar_net(net, g, s)
                        digest.update(param_vector(params).tobytes() + repr(report).encode())
        assert digest.hexdigest() == (
            "216552cd1dda2b683321a272c64efc1f3a64ab1721f69cf908afa4056155d46a"
        )
