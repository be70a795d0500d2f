"""Tests for the convolution calculus: forward/backward, norms, rescaling.

Derived expectations are computed by independent oracles: the dense
matrix-vector product for convolutions, and central finite differences for
gradients.
"""

import hashlib
import math
import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from convrates import compiler
from convrates.cnn import (
    _BLOCK_FLOATS,
    CnnParams,
    ConvLayer,
    activation_grids,
    backward,
    conv_apply,
    conv_matrix,
    embed,
    final_grid,
    forward,
    layer_norm,
    load_cnn,
    param_vector,
    params_from_vector,
    params_view,
    path_norm,
    rescale,
    run_row_blocks,
    save_cnn,
    truncate,
)
from convrates.complexity import empirical_cover_check
from convrates.compiler import ShallowNet, compose_with_scalar_net, shallow_to_cnn
from convrates.errors import PreconditionError, ShapeError
from convrates.learnlab import TrainConfig, make_eta_tsybakov, sample_dataset, train_erm
from convrates.links import log_link_net, sign_link_net
from convrates.sampling import spawn_rng, unit_cube_points

from conftest import random_cnn


def dense_conv_oracle(w, x):
    """Direct definition: out[i] = sum over taps k with i+k < d of w[k]*x[i+k]."""
    d = len(x)
    out = np.zeros(d)
    for i in range(d):
        for k in range(len(w)):
            if i + k < d:
                out[i] += w[k] * x[i + k]
    return out


class TestConvMatrix:
    def test_identity_filter(self):
        assert np.array_equal(conv_matrix([1.0, 0.0], 3), np.eye(3))

    def test_left_translation(self):
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(conv_matrix([0.0, 1.0], 3) @ x, [2.0, 3.0, 0.0])

    def test_matches_dense_oracle(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 12))
            s = int(rng.integers(1, d + 1))
            w = rng.standard_normal(s)
            x = rng.standard_normal(d)
            assert np.allclose(conv_matrix(w, d) @ x, dense_conv_oracle(w, x), atol=1e-14)

    def test_frozen_example(self):
        # oracle value for w=(1,1), x=(1,2,3)
        assert np.array_equal(conv_matrix([1.0, 1.0], 3) @ [1.0, 2.0, 3.0], [3.0, 5.0, 3.0])

    def test_invalid_filter_size(self):
        with pytest.raises(PreconditionError):
            conv_matrix([1.0, 2.0, 3.0], 2)
        with pytest.raises((PreconditionError, ShapeError)):
            conv_matrix([], 3)

    @pytest.mark.parametrize("w, d, error, match", [
        ([[1.0, 2.0]], 3, ShapeError, "one-dimensional"),
        ([1.0, math.nan], 3, PreconditionError, "filter must be finite"),
    ])
    def test_refusals(self, w, d, error, match):
        with pytest.raises(error, match=match):
            conv_matrix(w, d)

    @given(
        st.lists(st.floats(-10, 10), min_size=2, max_size=4),
        st.lists(st.floats(-10, 10), min_size=2, max_size=4),
        st.floats(-5, 5),
    )
    def test_linearity_in_the_filter(self, w1, w2, scale):
        if len(w1) != len(w2):
            w2 = (w2 * 4)[: len(w1)]
        d = 5
        lhs = conv_matrix(np.add(w1, np.multiply(scale, w2)), d)
        rhs = conv_matrix(w1, d) + scale * conv_matrix(w2, d)
        assert np.allclose(lhs, rhs, atol=1e-9)


class TestConvApply:
    def test_identity_layer(self):
        layer = ConvLayer(np.array([[[1.0]], [[0.0]]]), np.zeros(1))
        x = np.array([[0.3], [0.7], [0.1]])
        assert np.array_equal(conv_apply(layer, x), x)

    def test_bias_shift(self):
        # frozen from conv_matrix oracle plus bias
        layer = ConvLayer(np.array([[[1.0]], [[1.0]]]), np.array([0.5]))
        out = conv_apply(layer, np.array([[1.0], [2.0], [3.0]]))
        assert np.array_equal(out.ravel(), [3.5, 5.5, 3.5])

    def test_zero_input_isolates_bias(self, rng):
        layer = ConvLayer(rng.standard_normal((2, 3, 2)), rng.standard_normal(3))
        out = conv_apply(layer, np.zeros((5, 2)))
        assert np.allclose(out, np.tile(layer.bias, (5, 1)))

    def test_multichannel_matches_matrix_sum(self, rng):
        d, J_in, J_out, s = 6, 3, 2, 3
        layer = ConvLayer(rng.standard_normal((s, J_out, J_in)), rng.standard_normal(J_out))
        x = rng.standard_normal((d, J_in))
        out = conv_apply(layer, x)
        for jp in range(J_out):
            ref = layer.bias[jp] * np.ones(d)
            for j in range(J_in):
                ref += conv_matrix(layer.weights[:, jp, j], d) @ x[:, j]
            assert np.allclose(out[:, jp], ref, atol=1e-13)

    def test_shape_mismatch(self, rng):
        layer = ConvLayer(rng.standard_normal((2, 2, 2)), np.zeros(2))
        with pytest.raises(ShapeError):
            conv_apply(layer, np.zeros((4, 3)))

    @pytest.mark.parametrize("x, error, match", [
        (np.zeros(4), ShapeError, r"shape \(d, channels\)"),
        (np.zeros((1, 2)), PreconditionError, "shorter than the filter"),
        (np.full((4, 2), math.nan), PreconditionError, "signal must be finite"),
    ])
    def test_refusals(self, x, error, match):
        with pytest.raises(error, match=match):
            conv_apply(ConvLayer(np.ones((2, 2, 2)), np.zeros(2)), x)

    @pytest.mark.parametrize("weights, bias, error, match", [
        (np.ones((2, 2)), np.zeros(2), ShapeError, "filter must have shape"),
        (np.ones((2, 2, 1)), np.zeros(3), ShapeError, "bias length"),
        (np.ones((2, 2, 1)), np.zeros((2, 1)), ShapeError, "bias length"),
        (np.full((2, 2, 1), math.inf), np.zeros(2), PreconditionError, "filter must be finite"),
        (np.ones((2, 2, 1)), [0.0, math.nan], PreconditionError, "bias must be finite"),
    ])
    def test_layer_refusals(self, weights, bias, error, match):
        with pytest.raises(error, match=match):
            ConvLayer(weights, bias)


class TestConvNormProperties:
    def test_boundedness_10k_pairs(self, rng):
        """||layer(x)||_inf <= layer_norm * max(||x||_inf, 1) on 10^4 pairs."""
        from convrates.cnn import _conv_forward

        for _ in range(100):
            d = int(rng.integers(2, 8))
            s = int(rng.integers(1, d + 1))
            J_in, J_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            layer = ConvLayer(
                rng.standard_normal((s, J_out, J_in)), rng.standard_normal(J_out)
            )
            X = rng.uniform(-3, 3, (100, d, J_in))
            out = _conv_forward(layer.weights, layer.bias, X.transpose(2, 1, 0)).transpose(2, 1, 0)
            lhs = np.abs(out).max(axis=(1, 2))
            rhs = layer_norm(layer) * np.maximum(np.abs(X).max(axis=(1, 2)), 1.0)
            assert np.all(lhs <= rhs + 1e-12)

    def test_lipschitz_10k_pairs(self, rng):
        from convrates.cnn import _conv_forward

        for _ in range(100):
            d = int(rng.integers(2, 8))
            s = int(rng.integers(1, d + 1))
            J = int(rng.integers(1, 4))
            layer = ConvLayer(rng.standard_normal((s, J, J)), rng.standard_normal(J))
            X = rng.uniform(-3, 3, (100, d, J))
            Y = rng.uniform(-3, 3, (100, d, J))
            diff = _conv_forward(layer.weights, layer.bias, X.transpose(2, 1, 0)) - _conv_forward(
                layer.weights, layer.bias, Y.transpose(2, 1, 0)
            )
            diff = diff.transpose(2, 1, 0)
            lhs = np.abs(diff).max(axis=(1, 2))
            rhs = layer_norm(layer) * np.abs(X - Y).max(axis=(1, 2))
            assert np.all(lhs <= rhs + 1e-12)


class TestLayerNorm:
    def test_single_channel(self):
        layer = ConvLayer(np.array([[[1.0]], [[-2.0]]]), np.array([0.5]))
        assert layer_norm(layer) == 3.5

    def test_zero_layer(self):
        assert layer_norm(ConvLayer(np.zeros((2, 2, 1)), np.zeros(2))) == 0.0

    def test_max_over_channels(self):
        w = np.zeros((1, 2, 1))
        w[0, 0, 0] = 1.0
        w[0, 1, 0] = 2.0
        assert layer_norm(ConvLayer(w, np.array([0.0, 0.5]))) == 2.5


class TestPathNorm:
    def test_clamp_at_one(self):
        layer = ConvLayer(np.array([[[0.25]], [[0.25]]]), np.zeros(1))
        params = CnnParams(3, 2, [layer], np.array([[2.0], [0.0], [0.0]]))
        assert path_norm(params) == 2.0  # 2 * max(0.5, 1)

    def test_product_formula(self):
        l1 = ConvLayer(np.array([[[2.0]], [[0.0]]]), np.zeros(1))
        l2 = ConvLayer(np.array([[[3.0]], [[0.0]]]), np.zeros(1))
        params = CnnParams(3, 2, [l1, l2], np.array([[1.0], [0.0], [0.0]]))
        assert path_norm(params) == 6.0


class TestForward:
    def test_zero_network(self, rng):
        params = random_cnn(rng, scale=0.0)
        X = rng.random((20, params.d))
        assert np.array_equal(forward(params, X), np.zeros(20))

    def test_single_relu_layer(self):
        # J=1, s=1, filter (1), bias 0, output e_1: f(x) = x_1
        layer = ConvLayer(np.array([[[1.0]]]), np.zeros(1))
        W = np.zeros((3, 1))
        W[0, 0] = 1.0
        params = CnnParams(3, 1, [layer], W)
        x = np.array([0.3, 0.9, 0.2])
        assert forward(params, x) == pytest.approx(0.3, abs=1e-15)

    def test_scalar_and_batch_agree(self, rng):
        params = random_cnn(rng)
        X = rng.random((7, params.d))
        batch = forward(params, X)
        singles = [forward(params, xi) for xi in X]
        assert np.allclose(batch, singles, atol=1e-14)

    @pytest.mark.parametrize("d, s, shapes, out_shape, fill, error, match", [
        (1, 1, [(1, 2, 1)], (1, 2), 1.0, PreconditionError, "d must be at least 2"),
        (2, 3, [(3, 2, 1)], (2, 2), 1.0, PreconditionError, "filter size s=3 outside"),
        (2, 2, [], (2, 2), 1.0, PreconditionError, "at least one layer"),
        (2, 2, [(2, 2, 2)], (2, 2), 1.0, ShapeError, "single input channel"),
        (3, 2, [(2, 2, 1), (3, 2, 2)], (3, 2), 1.0, ShapeError, "layer 1 filter size 3"),
        (3, 2, [(2, 2, 1), (2, 3, 2)], (3, 2), 1.0, ShapeError, "layer 1 output channels 3"),
        (3, 2, [(2, 2, 1), (2, 2, 3)], (3, 2), 1.0, ShapeError, "layer 1 input channels 3"),
        (3, 2, [(2, 2, 1)], (2, 2), 1.0, ShapeError, "output weights shape"),
        (2, 2, [(2, 2, 1)], (2, 2), math.nan, PreconditionError, "output weights must be finite"),
    ])
    def test_params_refusals(self, d, s, shapes, out_shape, fill, error, match):
        layers = [ConvLayer(np.ones(shape), np.zeros(shape[1])) for shape in shapes]
        with pytest.raises(error, match=match):
            CnnParams(d, s, layers, np.full(out_shape, fill))

    def test_memory_does_not_grow_with_depth(self, monkeypatch, rng):
        # forward keeps only the grid it is about to read, not one per layer:
        # a layer's input, its output and the tap buffer with the bias row,
        # then the last grid and its (n, d, J) copy; at s = 1 no tap reads
        # the buffer, so only the bias row (1/d of a grid) comes on top.
        # Each worker holds its row block's grids: two workers, on any machine
        usable_cores(monkeypatch, 2)
        d, J, n = 8, 6, 10_000
        X = rng.random((n, d))
        for s, grids in ((3, 3.0), (1, 2.2)):
            for L in (4, 40):
                params = random_cnn(rng, d=d, s=s, J=J, L=L, scale=0.3)
                tracemalloc.start()
                try:
                    forward(params, X)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak <= grids * n * d * J * 8 + n * 8  # (n, d, J) grids plus the output


class TestPurity:
    """The forward core writes ReLU into each fresh grid in place; that must
    leave the arguments alone and give every returned grid its own storage."""

    @staticmethod
    def snapshot(params, X):
        arrays = [X, params.output_weights]
        arrays += [a for layer in params.layers for a in (layer.weights, layer.bias)]
        return [a.tobytes() for a in arrays]

    @pytest.mark.parametrize("J, L", [(1, 1), (1, 3), (4, 2)])
    def test_arguments_unchanged(self, rng, J, L):
        params = random_cnn(rng, d=4, s=2, J=J, L=L)
        X = rng.random((16, 4)) - 0.5  # negative inputs reach the first ReLU
        before = self.snapshot(params, X)
        forward(params, X)
        forward(params, X[0])
        activation_grids(params, X)
        backward(params, X, rng.standard_normal(16))
        assert self.snapshot(params, X) == before

    @pytest.mark.parametrize("J, L", [(1, 3), (4, 3)])
    def test_grids_share_no_memory(self, rng, J, L):
        params = random_cnn(rng, d=4, s=2, J=J, L=L)
        X = rng.random((16, 4))
        grids = activation_grids(params, X)
        for i, grid in enumerate(grids):
            assert not np.shares_memory(grid, X)
            assert not any(np.shares_memory(grid, other) for other in grids[i + 1:])


class TestBackward:
    def test_output_layer_gradient_is_final_grid(self, rng):
        params = random_cnn(rng)
        x = rng.random(params.d)
        grad = params_view(backward(params, x), params.d, params.s, params.J, params.depth)
        final = activation_grids(params, x)[-1][0]
        assert np.allclose(grad.output_weights, final, atol=1e-14)

    @pytest.mark.parametrize("d, s, J, L", [(3, 2, 4, 2), (4, 4, 6, 3), (2, 1, 1, 1), (8, 3, 6, 2)])
    def test_empty_batch_gives_the_zero_gradient(self, rng, d, s, J, L):
        # the gradient of a sum over no samples, as forward gives no values
        params = random_cnn(rng, d=d, s=s, J=J, L=L)
        X = np.zeros((0, d))
        assert forward(params, X).shape == (0,)
        for dout in (None, np.zeros(0), lambda f: 2.0 * f):
            vec = backward(params, X, dout)
            assert vec.shape == param_vector(params).shape and not vec.any()

    def test_zero_network_output_gradient(self, rng):
        params = random_cnn(rng, scale=0.0)
        x = rng.random(params.d)
        grad = params_view(backward(params, x), params.d, params.s, params.J, params.depth)
        assert np.array_equal(grad.output_weights, np.zeros_like(params.output_weights))

    def test_zero_filters_bias_driven_gradient(self, rng):
        # zero filters, nonzero biases: grad wrt output weights is the
        # bias-driven final grid
        layers = [
            ConvLayer(np.zeros((2, 2, 1)), np.array([0.5, -1.0])),
            ConvLayer(np.zeros((2, 2, 2)), np.array([0.2, 0.7])),
        ]
        params = CnnParams(3, 2, layers, rng.standard_normal((3, 2)))
        grad = params_view(backward(params, rng.random(3)), 3, 2, 2, 2)
        expected = np.tile([0.2, 0.7], (3, 1))
        assert np.allclose(grad.output_weights, expected, atol=1e-15)

    def test_matches_central_differences(self, rng):
        """Backprop vs the finite-difference oracle, away from ReLU kinks."""
        def min_preactivation(params, x):
            a = x[:, None]  # the (d, 1) input grid
            worst = np.inf
            for layer in params.layers:
                z = conv_apply(layer, a)
                worst = min(worst, np.abs(z).min())
                a = np.maximum(z, 0.0)
            return worst

        step = 1e-6
        for trial in range(20):
            params = random_cnn(rng)
            x = rng.random(params.d)
            ok = False
            for _ in range(50):
                if min_preactivation(params, x) > 1e-4:
                    ok = True
                    break
                x = rng.random(params.d)
            if not ok:
                continue
            vec = param_vector(params)
            g = backward(params, x)
            fd = np.empty_like(vec)
            for i in range(len(vec)):
                vp, vm = vec.copy(), vec.copy()
                vp[i] += step
                vm[i] -= step
                arch = (params.d, params.s, params.J, params.depth)
                fp = forward(params_from_vector(vp, *arch), x)
                fm = forward(params_from_vector(vm, *arch), x)
                fd[i] = (fp - fm) / (2 * step)
            scale = np.maximum(np.abs(fd), 1.0)
            assert np.max(np.abs(g - fd) / scale) < 1e-5

    def test_secant_slope_in_linear_region(self, rng):
        """f is locally linear in a single weight; the secant equals backprop."""
        params = random_cnn(rng, L=1)
        x = rng.random(params.d) + 0.5
        vec = param_vector(params)
        arch = (params.d, params.s, params.J, params.depth)
        g = backward(params, x)
        i = len(vec) - 1  # an output weight: f is globally linear in it
        for h in (1e-3, 1e-1, 1.0):
            vp, vm = vec.copy(), vec.copy()
            vp[i] += h
            vm[i] -= h
            secant = (
                forward(params_from_vector(vp, *arch), x)
                - forward(params_from_vector(vm, *arch), x)
            ) / (2 * h)
            assert secant == pytest.approx(g[i], rel=1e-10, abs=1e-12)


    def test_callable_dout_equals_array_dout_bitwise(self, rng):
        for _ in range(10):
            params = random_cnn(rng)
            X = rng.random((9, params.d))
            weights = rng.standard_normal(9)
            seen = []

            def fn(f_vals):
                seen.append(f_vals)
                return weights * np.tanh(f_vals)

            g_fn = backward(params, X, fn)
            g_arr = backward(params, X, fn(forward(params, X)))
            assert np.array_equal(seen[0], forward(params, X))
            assert g_fn.tobytes() == g_arr.tobytes()

    def test_callable_dout_errors_propagate(self, rng):
        params = random_cnn(rng)

        def fn(f_vals):
            raise ValueError("from dout")

        with pytest.raises(ValueError, match="from dout"):
            backward(params, rng.random((3, params.d)), fn)
        with pytest.raises(ShapeError):
            backward(params, rng.random((3, params.d)), lambda f: f[:2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_dout_is_refused(self, rng, bad):
        params = random_cnn(rng)
        X = rng.random((3, params.d))
        dout = np.array([bad, 1.0, 1.0])
        with pytest.raises(PreconditionError, match="dout must be finite"):
            backward(params, X, dout)
        with pytest.raises(PreconditionError, match="dout must be finite"):
            backward(params, X, lambda f: dout)

    def test_gradient_is_one_flat_vector(self, rng):
        for _ in range(10):
            params = random_cnn(rng)
            grad = backward(params, rng.random((4, params.d)), rng.standard_normal(4))
            assert isinstance(grad, np.ndarray) and grad.dtype == np.float64
            assert grad.ndim == 1 and grad.flags.c_contiguous
            assert grad.size == param_vector(params).size


def stacked_conv_forward(weights, bias, x):
    """Reference layer map on an (n, d, K) batch: each tap as one row-major 2-D
    product over the whole grid, x.reshape(-1, K) @ w[k].T, whose rows k..
    are added onto out[:, :d-k] in tap order after the bias.

    The product has n d rows, so numpy runs it as a GEMM whenever d >= 2.
    Over x[:, k:] alone a one-row tap at n = 1 would be a one-row product,
    which numpy runs as gemv, and gemv's sums are not the GEMM's.
    """
    s, J, K = weights.shape
    n, d, _ = x.shape
    out = np.empty((n, d, J))
    out[...] = bias
    rows = np.ascontiguousarray(x).reshape(-1, K)
    for k in range(s):
        out[:, : d - k, :] += (rows @ weights[k].T).reshape(n, d, J)[:, k:]
    return out


def stacked_grids(params, X):
    """Reference forward values and activated grids over `stacked_conv_forward`."""
    grids, a = [], X[:, :, None]
    for layer in params.layers:
        a = np.maximum(stacked_conv_forward(layer.weights, layer.bias, a), 0.0)
        grids.append(a)
    return np.einsum("ndj,dj->n", a, params.output_weights), grids


def stacked_reference(params, X, dout):
    """Reference forward values and grids over `stacked_conv_forward`, and the
    backward vector with einsum sums.

    The backward vector comes with two more vectors in `param_vector` order:
    each entry's sum of |products| (the same einsums on absolute values) and
    its number of products m.  The input gradients are the same row-major
    GEMMs over the whole grid as the forward taps.
    """
    n, d = X.shape
    values, grids = stacked_grids(params, X)
    a = grids[-1]
    inputs = [X[:, :, None]] + grids[:-1]
    parts = [np.einsum("n,ndj->dj", dout, a).ravel()]
    mags = [np.einsum("n,ndj->dj", np.abs(dout), a).ravel()]
    lengths = [np.full(a[0].size, n)]
    ga = dout[:, None, None] * params.output_weights[None, :, :]
    for i in range(params.depth - 1, -1, -1):
        gz = ga * (grids[i] > 0.0)
        w = params.layers[i].weights
        gw, mag = np.empty_like(w), np.empty_like(w)
        for k in range(params.s):
            gw[k] = np.einsum("nio,nij->oj", gz[:, : d - k, :], inputs[i][:, k:, :])
            mag[k] = np.einsum("nio,nij->oj", np.abs(gz[:, : d - k, :]),
                               np.abs(inputs[i][:, k:, :]))
        parts[:0] = [gw.ravel(), gz.sum(axis=(0, 1))]
        mags[:0] = [mag.ravel(), np.abs(gz).sum(axis=(0, 1))]
        taps = np.repeat(n * (d - np.arange(params.s)), w[0].size)
        lengths[:0] = [taps, np.full(w.shape[1], n * d)]
        if i > 0:
            ga = np.zeros_like(inputs[i])
            rows = gz.reshape(-1, gz.shape[2])
            for k in range(params.s):
                ga[:, k:, :] += (rows @ w[k]).reshape(n, d, -1)[:, : d - k]
    return values, grids, np.concatenate(parts), np.concatenate(mags), np.concatenate(lengths)


def assert_within_dot_product_bound(got, ref, mag, m):
    """|got - ref| <= 2 gamma_m S / (1 - gamma_m) for each gradient entry.

    Each entry is a sum of m products x_i y_i.  Evaluated in float64 in any
    order, with or without fused multiply-adds, the computed sum is
    sum x_i y_i (1 + t_i) with |t_i| <= gamma_m = m u / (1 - m u), u = 2^-53
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.1):
    it is within gamma_m S of the exact sum, S = sum |x_i y_i|.  `backward`'s
    GEMMs and the reference's einsums sum the same products in two orders, so
    they are within 2 gamma_m S of each other.  `mag`, the computed S, is a
    sum of nonnegative terms, so mag >= (1 - gamma_m) S.  The factors are
    bitwise equal on both sides: the grids are pinned bit for bit, and the
    input gradients are the same GEMMs.
    """
    u = np.finfo(np.float64).eps / 2
    gamma = m * u / (1 - m * u)
    assert np.all(np.abs(got - ref) <= 2 * gamma * mag / (1 - gamma))


class TestTapLowering:
    """The one-GEMM-per-tap layer map reproduces the row-major reference bit
    for bit; `backward`'s GEMM sums stay within the dot-product rounding bound
    of the einsum reference."""

    SHAPES = [  # (n, d, J, L); every filter size s = 1..d is swept
        (n, d, J, L)
        for n in (1, 7, 128)
        for d in (2, 3, 8)
        for J in (1, 2, 6)
        for L in (1, 3)
    ] + [(10_000, 8, 6, 2)]

    @staticmethod
    def assert_matches(params, X, dout):
        values, grids, vec, mag, m = stacked_reference(params, X, dout)
        assert forward(params, X).tobytes() == values.tobytes()
        got = activation_grids(params, X)
        assert [g.tobytes() for g in got] == [g.tobytes() for g in grids]
        assert_within_dot_product_bound(backward(params, X, dout), vec, mag, m)

    @pytest.mark.parametrize("n, d, J, L", SHAPES)
    def test_network_matches_stacked_reference(self, rng, n, d, J, L):
        # s = d gives one-row taps; J = 1 gives J_in = 1
        for s in ([3] if n == 10_000 else range(1, d + 1)):
            params = random_cnn(rng, d=d, s=s, J=J, L=L)
            self.assert_matches(params, rng.random((n, d)), rng.standard_normal(n))

    def test_layer_map_matches_stacked_reference(self, rng):
        # mixed channel counts, J_out = 1 included, through the raw layer map
        from convrates.cnn import _conv_forward

        for n, d, j_in, j_out in [(1, 2, 6, 5), (5, 3, 2, 1), (300, 8, 6, 2), (4, 4, 1, 3)]:
            for s in range(1, d + 1):
                w = rng.standard_normal((s, j_out, j_in))
                b = rng.standard_normal(j_out)
                x = rng.standard_normal((n, d, j_in))
                expected = stacked_conv_forward(w, b, x)
                got = _conv_forward(w, b, x.transpose(2, 1, 0)).transpose(2, 1, 0)
                assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [1, 10_000])
    def test_one_row_taps(self, rng, n):
        # s = d: the last tap reads one grid row, a GEMM over two rows at n = 1 too
        params = random_cnn(rng, d=4, s=4, J=6, L=2)
        self.assert_matches(params, rng.random((n, 4)), rng.standard_normal(n))

    @pytest.mark.parametrize("n", [1, 2, 127, 128, 2048, 5461])
    def test_one_row_products_match_row_major_ones(self, rng, n):
        # the one-row tap's premise at the batch, full-sample and row-block
        # sizes: the product over the last two rows of a channel-major grid, a
        # strided (K, 2n) view, has in its last n columns the bits of the
        # row-major GEMM over the whole grid, for a contiguous filter and for
        # the adjoint's transposed view.  Over the one row alone the product
        # would be one column at n = 1, which numpy runs as gemv
        for d in (2, 3):
            for K, J in ((6, 6), (2, 5), (8, 3)):
                x = rng.standard_normal((K, d, n))
                rows = np.ascontiguousarray(x.transpose(2, 1, 0)).reshape(-1, K)
                W = rng.standard_normal((J, K))
                for w in (W, np.ascontiguousarray(W.T).T):
                    expected = (rows @ w.T).reshape(n, d, J)[:, d - 1].T
                    got = (w @ x[:, d - 2 :].reshape(K, -1))[:, n:]
                    assert got.tobytes() == np.ascontiguousarray(expected).tobytes()

    def test_conv_apply_matches_stacked_reference(self, rng):
        # d = s = 1 with J_in > 1 makes tap 0 itself a one-row product, numpy's gemv
        for d, j_in, j_out in [(1, 3, 2), (2, 1, 4), (5, 6, 6), (8, 2, 1)]:
            for s in range(1, d + 1):
                w, b = rng.standard_normal((s, j_out, j_in)), rng.standard_normal(j_out)
                layer = ConvLayer(w, b)
                x = rng.standard_normal((d, j_in))
                expected = stacked_conv_forward(w, b, x[None])[0]
                assert conv_apply(layer, x).tobytes() == expected.tobytes()

    def test_one_channel_taps_differ_only_in_the_sign_of_zero(self):
        # a J_in = 1 tap is a broadcast product, while the stacked matmul sums
        # from +0: here 1.0 * -0.0 + (-0.0) is -0.0 in conv_apply's last entry
        # and +0.0 in the reference.  The values are equal, and ReLU maps
        # both zeros to +0, so a network's bytes still match
        w, b = np.array([[[-0.0]], [[0.0]]]), np.array([-0.0])
        x = np.array([[0.5], [0.25], [1.0]])
        expected = stacked_conv_forward(w, b, x[None])[0]
        assert np.array_equal(conv_apply(ConvLayer(w, b), x), expected)
        params = CnnParams(3, 2, [ConvLayer(w, b)], np.array([[1.0], [-2.0], [0.5]]))
        self.assert_matches(params, x.T, np.ones(1))

    def test_benchmark_net_bytes(self):
        # sha256 of forward and final_grid on the verify benchmark's net (32
        # neurons, d = 8, s = 3, link log:50: 229 layers, 6 channels; seed 0) at
        # 10 000 points, recorded before the grids became channel-major
        rng = spawn_rng(0, 0)
        net = ShallowNet(rng.standard_normal(32), rng.standard_normal((32, 8)),
                         rng.standard_normal(32))
        params, report = compose_with_scalar_net(net, log_link_net(50), 3)
        X = unit_cube_points(8, 10_000, seed=0)
        assert (report.depth, params.J) == (229, 6)
        assert hashlib.sha256(forward(params, X).tobytes()).hexdigest() == (
            "68a5e72e5d4798f97ed7600ea2626c0be50a1b521bc524f65457fec3f30e68d2"
        )
        assert hashlib.sha256(final_grid(params, X).tobytes()).hexdigest() == (
            "7e1c11794c555325d1686eebd2f1e74cedac4d317cf95bd1c45054a8ffdcbe03"
        )

    def test_open_final_grid_matches_stacked_reference(self, rng):
        # the verify benchmark's kind of net: a shallow net composed with the log:50 link
        net = ShallowNet(
            rng.standard_normal(3), rng.standard_normal((3, 8)), rng.standard_normal(3)
        )
        params, _ = compose_with_scalar_net(net, log_link_net(50), 3)
        X = rng.random((200, 8))
        _, grids, *_ = stacked_reference(params, X, np.ones(200))
        got = final_grid(params, X)
        assert got.flags.c_contiguous
        assert got.tobytes() == grids[-1].tobytes()


class TestZeroTaps:
    """A tap k > 0 on several input channels whose filter block is all +-0 is
    skipped; the results keep every bit of summing it."""

    @pytest.mark.parametrize("rows", [1, 2, 7, 682, 5456])
    def test_blas_products_are_never_negative_zero(self, rng, rows):
        # the skip's premise: BLAS sums each entry from +0, so a zero filter
        # block gives +0 even against negative or -0.0 inputs (J = 1 is gemv)
        for K, J in ((2, 1), (6, 6), (3, 5)):
            x = -rng.random((rows, K))
            x[::3] = -0.0
            w = np.zeros((J, K))
            w[:, ::2] = -0.0
            product = np.empty((rows, J))
            np.matmul(x, w.T, out=product)
            assert not np.signbit(product).any(), (
                "BLAS made a -0.0, so skipping zero taps is not exact")

    @pytest.mark.parametrize("M", [2, 3, 7, 16, 17, 18, 100, 682, 1365, 5456, 10_000])
    def test_channel_major_products_match_row_major_ones(self, rng, M):
        # the channel-major layout's premise: a tap's W @ X^T, with X^T a
        # strided view (row stride above M), has the bits of the row-major
        # X @ W^T, for a contiguous filter and for the adjoint's transposed view
        for K in range(2, 9):
            Xt = rng.standard_normal((K, M + 5))[:, :M]
            X = np.ascontiguousarray(Xt.T)
            for J in range(2, 9):
                W = rng.standard_normal((J, K))
                for w in (W, np.ascontiguousarray(W.T).T):
                    assert (w @ Xt).tobytes() == (X @ w.T).T.tobytes()

    @staticmethod
    def zero_tap_nets(rng):
        # identity layers at s = d (the last tap reads one grid row) and at s < d
        yield embed(random_cnn(rng, d=4, s=4, J=3, L=2), channels=5, depth=4)
        yield embed(random_cnn(rng, d=6, s=3, J=4, L=1), depth=4)
        net = ShallowNet(
            rng.standard_normal(3), rng.standard_normal((3, 5)), rng.standard_normal(3)
        )
        yield compose_with_scalar_net(net, log_link_net(7), 2)[0]
        signed = random_cnn(rng, d=5, s=3, J=4, L=3)  # -0.0 taps, entries and biases
        signed.layers[1].weights[1:] = -0.0
        signed.layers[1].bias[::2] = -0.0
        signed.layers[2].weights[0] = -0.0
        signed.layers[2].weights[2, ::2] = -0.0
        signed.layers[2].weights[2, 1::2] = 0.0
        signed.layers[2].weights[1, :, 1] = -0.0
        signed.layers[2].bias[:] = -0.0
        yield signed

    @pytest.mark.parametrize("n", [1, 300])
    def test_network_matches_stacked_reference(self, rng, n):
        for params in self.zero_tap_nets(rng):
            assert any(not w[k].any() for w in (l.weights for l in params.layers[1:])
                       for k in range(1, params.s))
            X = rng.random((n, params.d))
            TestTapLowering.assert_matches(params, X, rng.standard_normal(n))

    def test_conv_apply_matches_stacked_reference(self, rng):
        for d, s in ((3, 3), (6, 3)):
            w = rng.standard_normal((s, 4, 5))
            w[1] = 0.0
            w[-1] = -0.0
            b = rng.standard_normal(4)
            b[::2] = -0.0
            x = rng.standard_normal((d, 5))
            x[::2, 1:] = -0.0
            expected = stacked_conv_forward(w, b, x[None])[0]
            assert conv_apply(ConvLayer(w, b), x).tobytes() == expected.tobytes()

    def test_a_zero_tap_runs_no_matmul(self, rng):
        from convrates.cnn import _conv_forward

        calls = []

        class Counted(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
                calls.append(ufunc.__name__)
                if out is not None:
                    kwargs["out"] = tuple(np.asarray(a) for a in out)
                return getattr(ufunc, method)(*(np.asarray(a) for a in inputs), **kwargs)

        w = rng.standard_normal((3, 4, 5))
        w[1] = 0.0  # a GEMM tap
        w[2, :, ::2] = -0.0
        w[2, :, 1::2] = 0.0  # the one-row tap at d = 3
        x, b = rng.random((5, 3, 7)), rng.standard_normal(4)  # channel-major (J_in, d, n)
        _conv_forward(w.view(Counted), b, x)
        assert calls.count("matmul") == 1
        calls.clear()
        w[1, 2, 3] = 5e-324  # one nonzero entry and the tap runs, as a broadcast product
        _conv_forward(w.view(Counted), b, x)
        assert calls.count("matmul") == 1 and calls.count("multiply") == 1
        calls.clear()
        w[1, 0, 1] = -2.0  # a second input column and the tap is a matmul
        _conv_forward(w.view(Counted), b, x)
        assert calls.count("matmul") == 2 and calls.count("multiply") == 0

    def test_overflow_still_raises(self, rng):
        # past a float64 overflow a skipped tap adds no 0 * inf = NaN, so the
        # NaN/inf pattern may differ from summing every tap, but an overflow
        # still raises under np.errstate and still leaves non-finite values
        params = embed(random_cnn(rng, d=4, s=2, J=3, L=2, scale=1e200), depth=4)
        X = rng.random((20, 4))
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            forward(params, X)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(forward(params, X)).all()


def usable_cores(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _forward_case(rng):
    params = random_cnn(rng, d=2, s=2, J=6, L=3)
    return (lambda X: forward(params, X)), (2,), _BLOCK_FLOATS // 12


def _open_case(rng):
    net = ShallowNet(rng.standard_normal(2), rng.standard_normal((2, 8)), rng.standard_normal(2))
    params, _ = compose_with_scalar_net(net, log_link_net(3), 3)
    return (lambda X: final_grid(params, X)), (8,), _BLOCK_FLOATS // 48


def _shallow_case(rng):
    net = ShallowNet(rng.standard_normal(32), rng.standard_normal((32, 8)), rng.standard_normal(32))
    return net, (8,), compiler._BLOCK_BYTES // (8 * 32)


def _scalar_case(rng):
    net = log_link_net(50)
    return net, (), compiler._BLOCK_BYTES // (8 * net.n_neurons)


class TestRowBlocks:
    """A batch of more than one row block runs as contiguous runs of whole
    blocks, one per usable core; no byte depends on the worker count or on
    the rows that come with a row."""

    @pytest.mark.parametrize("case", [_forward_case, _open_case, _shallow_case, _scalar_case])
    def test_bytes_do_not_depend_on_workers_or_batch(self, monkeypatch, rng, case):
        evaluate, point_shape, rows = case(rng)
        # empty, one row, exactly one block, one block plus a row, a ragged last block
        sizes = [0, 1, rows, rows + 1, 4 * rows + rows // 3]
        inputs = rng.uniform(-0.5, 1.5, (max(sizes), *point_shape))
        usable_cores(monkeypatch, 1)
        full = evaluate(inputs)
        for workers in (1, 2, 3):
            usable_cores(monkeypatch, workers)
            for n in sizes:
                assert evaluate(inputs[:n]).tobytes() == full[:n].tobytes()

    @pytest.mark.parametrize("n, rows, workers", [(10, 2, 3), (10, 3, 2), (7, 2, 8), (5, 5, 4)])
    def test_runs_are_contiguous_whole_blocks(self, monkeypatch, n, rows, workers):
        usable_cores(monkeypatch, workers)
        runs = []
        run_row_blocks(n, rows, lambda lo, hi: runs.append((lo, hi)))
        runs.sort()
        blocks = -(-n // rows)
        assert len(runs) == min(workers, blocks)
        assert [lo for lo, _ in runs] == [0] + [hi for _, hi in runs[:-1]]
        assert runs[-1][1] == n and all(lo % rows == 0 for lo, _ in runs)
        sizes = [-(-(hi - lo) // rows) for lo, hi in runs]
        assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("count, workers", [(3, 3), (None, 1)])
    def test_without_affinity_the_cpu_count_sets_the_runs(self, monkeypatch, count, workers):
        # platforms other than Linux have no os.sched_getaffinity
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        runs = []
        run_row_blocks(10, 2, lambda lo, hi: runs.append((lo, hi)))
        assert len(runs) == workers and max(runs)[1] == 10

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch, rng):
        params = random_cnn(rng, d=2, s=2, J=6, L=2)
        X = rng.random((9 * (_BLOCK_FLOATS // 12) + 5, 2))  # ten blocks
        usable_cores(monkeypatch, 1)
        expected = forward(params, X).tobytes()
        usable_cores(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert all(forward(params, X).tobytes() == expected for _ in range(5))
        finally:
            sys.setswitchinterval(interval)

    def test_a_worker_exception_reaches_the_caller(self, monkeypatch):
        usable_cores(monkeypatch, 3)
        before = threading.active_count()

        def run(lo, hi):
            if lo > 0:
                raise ValueError(f"rows {lo}..{hi}")

        with pytest.raises(ValueError, match="rows"):
            run_row_blocks(10, 2, run)
        assert threading.active_count() == before

    def test_workers_run_under_the_callers_errstate(self, monkeypatch, rng):
        usable_cores(monkeypatch, 2)
        params = random_cnn(rng, d=2, s=2, J=6, L=3)
        rows = _BLOCK_FLOATS // 12
        X = rng.random((2 * rows, 2))
        X[rows:] *= 1e308  # only the second block, on the worker thread, overflows
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            forward(params, X)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore", invalid="ignore"):
                values = forward(params, X)
        assert np.isfinite(values[:rows]).all() and not np.isfinite(values[rows:]).all()

    def test_one_block_starts_no_thread(self, monkeypatch, rng):
        usable_cores(monkeypatch, 2)
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda t: (started.append(t), start(t))[1])
        before = threading.active_count()
        empirical_cover_check(2, 2, 1, 1, 1.0, 1.0, trials=2, n_points=1000, exhaustive=True)
        data = sample_dataset(make_eta_tsybakov(4.0), 1024, seed=0)
        train_erm(data, TrainConfig(s=2, J=6, L=2, M=8.0, loss="hinge", epochs=1,
                                    batch_size=128, restarts=1, seed=0))
        assert started == [] and threading.active_count() == before
        forward(random_cnn(rng, d=2, s=2, J=6, L=1), rng.random((_BLOCK_FLOATS // 12 + 1, 2)))
        assert len(started) == 1 and threading.active_count() == before


def planted_net(rng, d, s, J=4):
    """A random net whose later layers carry the tap kinds of compiled ones:
    one-channel taps of negative and +-0 weights (entry [0, 0] -0.0, so the
    plan scans them), an all-+-0 tap, a two-channel tap and +-0 biases."""
    params = random_cnn(rng, d=d, s=s, J=J, L=4)
    w1, w2, w3 = (layer.weights for layer in params.layers[1:])
    w1[1:] = -0.0
    w1[1:, 1:, 0] = -rng.random((s - 1, J - 1))  # channel 0, rows 1..J-1
    w1[1:, 2, 0] = -0.0  # a +-0 inside the rows the product writes
    w2[1:] = 0.0
    w2[1:, J - 1, J - 1] = -1.5  # the last row only
    w2[s - 1] = -0.0  # all +-0
    params.layers[2].bias[:] = -0.0
    params.layers[3].bias[::2] = 0.0
    w3[1:, 0, 0] = 0.0
    w3[1:, :, 2:] = 0.0  # two channels, with a zero entry [0, 0]
    return params


def compiled_nets(rng):
    """Compiled and planted nets over d in {2, 3, 8} and s in {2, 3}."""
    for d, s in ((2, 2), (3, 2), (3, 3), (8, 2), (8, 3)):
        net = ShallowNet(rng.standard_normal(2), rng.standard_normal((2, d)),
                         rng.standard_normal(2))
        yield shallow_to_cnn(net, s)[0]
        for link in (log_link_net(3), log_link_net(7), log_link_net(50), sign_link_net(0.25)):
            yield compose_with_scalar_net(net, link, s)[0]
        yield planted_net(rng, d, s)


def scan_watch(scans):
    """An ndarray subclass that appends to `scans` each `any` call and each
    numpy function called on it."""

    class Watched(np.ndarray):
        def any(self, *args, **kwargs):
            scans.append("any")
            return super().any(*args, **kwargs)

        def __array_function__(self, func, types, args, kwargs):
            scans.append(func.__name__)
            return super().__array_function__(func, types, args, kwargs)

    return Watched


class TestTapPlan:
    """The plan of each layer's taps (skip, one-channel broadcast product, or
    GEMM) and bias keeps every byte of the row-major reference, is made once
    per forward pass, and costs a trained net no filter scan."""

    def test_plan_kinds(self, rng):
        from convrates.cnn import _tap_plan

        J = 4
        layers = planted_net(rng, 3, 3, J).layers
        assert _tap_plan(layers[1].weights, layers[1].bias) == (
            [(1, 0, 1, J), (2, 0, 1, J)], layers[1].bias)
        assert _tap_plan(layers[2].weights, layers[2].bias) == ([(1, J - 1, J - 1, J)], None)
        taps, bias = _tap_plan(layers[3].weights, layers[3].bias)
        assert taps == [(1, None, 0, J), (2, None, 0, J)] and bias is layers[3].bias
        assert _tap_plan(layers[0].weights, np.zeros(J))[0] == []  # one input channel: no plan

    def test_one_input_channel_always_adds_the_bias(self):
        # `backward`'s adjoint passes no bias; on one input channel its -0.0
        # products still become the +0 that summing from +0 gives
        from convrates.cnn import _conv_forward

        w = np.array([[[-1.0]], [[2.0]]])
        x = np.array([[[0.0, 1.0], [-0.0, 0.0]]])  # (1, d, n)
        out = _conv_forward(w, None, x)
        assert out.tobytes() == _conv_forward(w, np.zeros(1), x).tobytes()
        assert np.array_equal(out, [[[0.0, -1.0], [0.0, 0.0]]])
        assert not np.signbit(out[out == 0]).any()
        # and a +0 bias on one input channel still makes its pass: conv_apply
        # returns the pre-activation, which would otherwise keep the -0.0
        pre = conv_apply(ConvLayer(w, np.zeros(1)), x[0, :, :1])
        assert np.array_equal(pre, [[0.0], [0.0]]) and not np.signbit(pre).any()

    @pytest.mark.parametrize("n", [1, 7, 150])
    def test_outputs_match_stacked_reference(self, rng, n):
        for params in compiled_nets(rng):
            X = rng.random((n, params.d))
            X[::3] = 0.0  # zero inputs: +-0 products on the one-channel taps
            X[:, 0] = 0.0
            values, grids = stacked_grids(params, X)
            assert forward(params, X).tobytes() == values.tobytes()
            assert final_grid(params, X).tobytes() == grids[-1].tobytes()
            assert [g.tobytes() for g in activation_grids(params, X)] == [
                g.tobytes() for g in grids]
            for layer, grid in zip(params.layers[1:], grids):
                expected = stacked_conv_forward(layer.weights, layer.bias, grid[-1:])[0]
                assert conv_apply(layer, grid[-1]).tobytes() == expected.tobytes()

    def test_conv_apply_on_signed_zero_inputs(self, rng):
        # negative and -0.0 entries, which no activated grid holds
        for params in [planted_net(rng, d, s) for d, s in ((3, 2), (3, 3), (8, 3))]:
            for layer in params.layers[1:]:
                x = rng.standard_normal((params.d, 4))
                x[::2, :2] = -0.0
                x[1::2, 2:] = 0.0
                expected = stacked_conv_forward(layer.weights, layer.bias, x[None])[0]
                assert conv_apply(layer, x).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("case", ["log:50", "shallow", "planted"])
    def test_row_blocks_match_stacked_reference(self, monkeypatch, rng, case):
        net = ShallowNet(rng.standard_normal(2), rng.standard_normal((2, 8)),
                         rng.standard_normal(2))
        params = {"log:50": lambda: compose_with_scalar_net(net, log_link_net(50), 3)[0],
                  "shallow": lambda: shallow_to_cnn(net, 2)[0],
                  "planted": lambda: planted_net(rng, 8, 3, J=6)}[case]()
        rows = _BLOCK_FLOATS // (params.d * params.J)
        # one row, exactly one block, one block plus a row, a ragged last block
        for n in (1, rows, rows + 1, 2 * rows + rows // 3):
            X = rng.random((n, params.d))
            values, grids = stacked_grids(params, X)
            for workers in (1, 2, 3):
                usable_cores(monkeypatch, workers)
                assert forward(params, X).tobytes() == values.tobytes()
                assert final_grid(params, X).tobytes() == grids[-1].tobytes()

    def test_a_forward_plans_each_layer_once(self, monkeypatch, rng):
        import convrates.cnn as cnn

        plans = []
        plan = cnn._tap_plan
        monkeypatch.setattr(cnn, "_tap_plan", lambda *args: plans.append(args) or plan(*args))
        planted = planted_net(rng, 8, 3, J=6)
        net = ShallowNet(rng.standard_normal(2), rng.standard_normal((2, 8)),
                         rng.standard_normal(2))
        compiled = compose_with_scalar_net(net, log_link_net(7), 3)[0]
        rows = _BLOCK_FLOATS // (8 * 6)
        usable_cores(monkeypatch, 2)
        # the readout's rows are planned first, once.  The planted net's W_out
        # reaches every row, so in one block each layer on several channels
        # plans itself, and over two or five blocks `_last_grid` plans every
        # layer before the blocks.  The compiled net's readout reaches rows
        # :2, so every layer is planned before its rows are known
        for params, one_block in ((planted, planted.depth), (compiled, compiled.depth + 1)):
            for n in (1, rows + 1, 5 * rows):
                plans.clear()
                forward(params, rng.random((n, 8)))
                assert len(plans) == (one_block if n == 1 else params.depth + 1)
                assert np.shares_memory(plans[0][0], params.output_weights)
                layers = [id(args[0]) for args in plans[1:]]
                assert len(set(layers)) == len(layers)  # no layer is planned twice

    def test_a_trained_nets_plan_scans_no_filter(self):
        from convrates.cnn import _tap_plan

        scans = []
        Watched = scan_watch(scans)
        data = sample_dataset(make_eta_tsybakov(4.0), 256, seed=0)
        params, _ = train_erm(data, TrainConfig(s=2, J=6, L=3, M=8.0, loss="hinge", epochs=1,
                                                batch_size=128, restarts=1, seed=0))
        for layer in params.layers[1:]:
            taps, bias = _tap_plan(layer.weights.view(Watched), layer.bias.view(Watched))
            assert taps == [(1, None, 0, 6)] and bias is not None
        assert scans == []
        w = params.layers[1].weights.copy()
        w[1, 0, 0] = 0.0  # the watch sees a scan
        _tap_plan(w.view(Watched), None)
        assert "any" in scans and "flatnonzero" in scans


def readout_nets(rng):
    """Compiled nets with no link, a sign link and log links over d in {2, 4, 8}
    and s in {2, 3}, then hand-built nets whose W_out has trailing zero rows
    (+0 and -0.0, identity layers between), is all zero, or is zero except its
    last row."""
    for d, s in ((2, 2), (4, 2), (4, 3), (8, 2), (8, 3)):
        net = ShallowNet(rng.standard_normal(2), rng.standard_normal((2, d)),
                         rng.standard_normal(2))
        yield shallow_to_cnn(net, s)[0]
        for link in (sign_link_net(0.25), log_link_net(3), log_link_net(7)):
            yield compose_with_scalar_net(net, link, s)[0]
    for d, s, J in ((3, 2, 2), (6, 3, 4), (8, 3, 6)):
        base = random_cnn(rng, d=d, s=s, J=J, L=2)
        for zeros in (d - 1, d - 2, 1, d):  # W_out's zero rows, counted from the last
            params = embed(base, depth=4)
            params.output_weights[d - zeros :] = 0.0
            params.output_weights[d - zeros :, ::2] = -0.0
            yield params
        params = random_cnn(rng, d=d, s=s, J=J, L=3)
        params.output_weights[:-1] = 0.0
        yield params


class TestReadoutRows:
    """`forward` computes only the grid rows the readout reaches and keeps the
    bits of the full contraction over `final_grid`."""

    @pytest.mark.parametrize("size", [0, 1, 2, 7, "rows", "rows + 1", 10_000])
    def test_forward_matches_the_full_contraction(self, monkeypatch, rng, size):
        from convrates.cnn import _readout_plan

        pruned = 0
        for params in readout_nets(rng):
            rows = _BLOCK_FLOATS // (params.d * params.J)
            n = {"rows": rows, "rows + 1": rows + 1}.get(size, size)
            X = rng.random((n, params.d))
            X[::3] = 0.0
            values, _ = stacked_grids(params, X)
            pruned += _readout_plan(params)[1] is not None
            for workers in (1, 2, 3):
                usable_cores(monkeypatch, workers)
                full = np.einsum("ndj,dj->n", final_grid(params, X), params.output_weights)
                got = forward(params, X)
                assert got.tobytes() == full.tobytes() == values.tobytes()
        assert pruned == 28  # all but the d = 2 compiles and the last-row nets

    def test_the_rows_of_a_hand_built_net(self, rng):
        from convrates.cnn import _activations, _readout_plan

        params = random_cnn(rng, d=6, s=3, J=2, L=3)
        params.layers[1].weights[2] = 0.0  # largest live tap 1
        params.layers[2].weights[1:] = -0.0  # tap 0 only
        W = params.output_weights
        W[2:] = 0.0
        # p = 2; layer 2 adds no row, layer 1 one and layer 0 (one channel) s - 1
        assert _readout_plan(params)[1] == [5, 3, 2, 2]
        W[1] = 0.0
        assert _readout_plan(params)[1] == [5, 3, 2, 2]  # at least two rows
        W[3] = -1.0
        plans, rows = _readout_plan(params)
        assert rows == [6, 5, 4, 4]  # capped at d
        grids = _activations(params.layers, rng.random((7, 6)), plans, rows)
        assert [g.shape for g in grids] == [(2, 6, 7), (2, 5, 7), (2, 4, 7)]
        W[-1, 1] = 2.0  # the readout reaches every row
        assert _readout_plan(params) == (None, None)
        for d, J in ((2, 3), (5, 1)):  # a floor of d rows; no plan on one channel
            params = random_cnn(rng, d=d, s=2, J=J, L=2)
            params.output_weights[1:] = 0.0
            assert _readout_plan(params) == (None, None)

    def test_an_overflow_in_an_unread_row_stays_out(self, rng):
        # row 3 of the input reaches only grid rows the readout does not read:
        # the full contraction makes 0 * inf = NaN there, forward stays finite
        params = random_cnn(rng, d=4, s=2, J=2, L=2)
        params.layers[0].weights[0] = 1e10
        params.layers[1].weights[1] = 0.0
        params.output_weights[2:] = 0.0
        X = rng.random((5, 4))
        X[:, 3] = 1e300
        with np.errstate(over="ignore", invalid="ignore"):
            full = np.einsum("ndj,dj->n", final_grid(params, X), params.output_weights)
        assert np.isnan(full).all()
        with np.errstate(over="raise"):
            got = forward(params, X)
        X[:, 3] = 0.5
        assert got.tobytes() == forward(params, X).tobytes()

    def test_a_d2_or_trained_nets_readout_scans_nothing(self):
        from convrates.cnn import _readout_plan

        scans = []
        Watched = scan_watch(scans)
        config = TrainConfig(s=2, J=6, L=3, M=8.0, loss="hinge", epochs=1,
                             batch_size=128, restarts=1, seed=0)
        for d in (2, 3, 8):
            data = sample_dataset(make_eta_tsybakov(4.0, d=d), 256, seed=0)
            params, _ = train_erm(data, config)
            params.output_weights = params.output_weights.view(Watched)
            assert _readout_plan(params) == (None, None)
        d2 = random_cnn(np.random.default_rng(0), d=2, s=2, J=6, L=2)
        d2.output_weights = np.zeros((2, 6)).view(Watched)
        assert _readout_plan(d2) == (None, None)
        assert scans == []
        params.output_weights[-1, 0] = 0.0  # the watch sees a scan
        _readout_plan(params)
        assert "any" in scans


class TestParamsFromVector:
    def test_round_trip_shares_no_memory(self, rng):
        params = random_cnn(rng)
        vec = param_vector(params)
        out = params_from_vector(vec, params.d, params.s, params.J, params.depth)
        assert np.array_equal(param_vector(out), vec)
        arrays = [out.output_weights] + [a for l in out.layers for a in (l.weights, l.bias)]
        assert not any(np.shares_memory(vec, a) for a in arrays)

    def test_view_writes_show_through(self, rng):
        params = random_cnn(rng)
        vec = param_vector(params)
        view = params_view(vec, params.d, params.s, params.J, params.depth)
        assert np.shares_memory(vec, view.output_weights)
        vec[-1] += 1.0
        assert view.output_weights[-1, -1] == vec[-1]
        view.layers[0].weights[0, 0, 0] = 7.0
        assert vec[0] == 7.0

    def test_view_rejects_arrays_it_cannot_view(self, rng):
        params = random_cnn(rng)
        arch = (params.d, params.s, params.J, params.depth)
        vec = param_vector(params)
        with pytest.raises(ShapeError):
            params_view(np.repeat(vec, 2)[::2], *arch)
        with pytest.raises(ShapeError):
            params_view(list(vec), *arch)
        with pytest.raises(ShapeError):
            params_from_vector(vec[:-1], *arch)


class TestRescale:
    def test_already_normalized_unchanged(self, rng):
        params = random_cnn(rng, scale=0.05)
        assert all(layer_norm(l) <= 1 for l in params.layers)
        out = rescale(params)
        for l_old, l_new in zip(params.layers, out.layers):
            assert np.allclose(l_old.weights, l_new.weights, atol=1e-15)
            assert np.allclose(l_old.bias, l_new.bias, atol=1e-15)
        assert np.allclose(out.output_weights, params.output_weights, atol=1e-15)

    def test_halve_and_double(self, rng):
        w = np.zeros((2, 1, 1))
        w[0, 0, 0] = 2.0
        params = CnnParams(3, 2, [ConvLayer(w, np.zeros(1))], np.array([[1.0], [2.0], [0.0]]))
        out = rescale(params)
        assert out.layers[0].weights[0, 0, 0] == 1.0
        assert np.array_equal(out.output_weights, params.output_weights * 2)
        X = np.random.default_rng(0).random((1000, 3))
        assert np.max(np.abs(forward(params, X) - forward(out, X))) < 1e-12

    def test_function_invariance_and_norms(self, rng):
        for _ in range(20):
            params = random_cnn(rng, scale=2.0)
            out = rescale(params)
            assert all(layer_norm(l) <= 1 + 1e-12 for l in out.layers)
            assert path_norm(out) <= path_norm(params) * (1 + 1e-12)
            X = rng.random((1000, params.d))
            fa, fb = forward(params, X), forward(out, X)
            assert np.max(np.abs(fa - fb) / (1 + np.abs(fa))) < 1e-10


class TestEmbed:
    def test_noop(self, rng):
        params = random_cnn(rng)
        out = embed(params)
        assert out.J == params.J and out.depth == params.depth
        X = rng.random((100, params.d))
        assert np.array_equal(forward(params, X), forward(out, X))

    def test_depth_padding(self, rng):
        params = random_cnn(rng)
        out = embed(params, depth=params.depth + 3)
        assert out.depth == params.depth + 3
        X = rng.random((1000, params.d))
        assert np.max(np.abs(forward(params, X) - forward(out, X))) < 1e-12
        assert path_norm(out) <= path_norm(params) + 1e-12

    def test_channel_padding_preserves_path_norm(self, rng):
        params = random_cnn(rng)
        out = embed(params, channels=params.J + 2)
        assert out.J == params.J + 2
        assert path_norm(out) == pytest.approx(path_norm(params), rel=1e-15)
        X = rng.random((200, params.d))
        assert np.max(np.abs(forward(params, X) - forward(out, X))) < 1e-13

    def test_invalid_targets(self, rng):
        params = random_cnn(rng, J=3, L=2)
        with pytest.raises(PreconditionError):
            embed(params, channels=2)
        with pytest.raises(PreconditionError):
            embed(params, depth=1)


class TestPositiveHomogeneity:
    def test_scale_layer_and_compensate(self, rng):
        """Scaling a hidden layer by t and the next weights by 1/t is a no-op."""
        for t in (0.5, 2.0, 7.3):
            params = random_cnn(rng, L=3)
            layers = [ConvLayer(l.weights.copy(), l.bias.copy()) for l in params.layers]
            # layer 1 scaled by t doubles its activations; layer 2's filter
            # divided by t undoes that (its bias sees unscaled values)
            layers[1] = ConvLayer(layers[1].weights * t, layers[1].bias * t)
            layers[2] = ConvLayer(layers[2].weights / t, layers[2].bias)
            scaled = CnnParams(params.d, params.s, layers, params.output_weights)
            X = rng.random((200, params.d))
            ref = forward(params, X)
            assert np.max(np.abs(forward(scaled, X) - ref)) < 1e-10


class TestTruncate:
    @pytest.mark.parametrize("v,expected", [(3.0, 2.0), (-5.0, -2.0), (1.5, 1.5)])
    def test_clamp(self, v, expected):
        assert truncate(2.0, v) == expected

    def test_invalid_level(self):
        with pytest.raises(PreconditionError):
            truncate(0.0, 1.0)
        with pytest.raises(PreconditionError):
            truncate(-1.0, 1.0)

    @given(st.floats(-1e6, 1e6), st.floats(1e-6, 1e6))
    def test_idempotent_and_bounded(self, v, level):
        out = truncate(level, v)
        assert abs(out) <= level
        assert truncate(level, out) == out


class TestSerialization:
    def test_round_trip_exact(self, rng, tmp_path):
        for _ in range(5):
            params = random_cnn(rng, scale=3.7)
            path = tmp_path / "net.txt"
            save_cnn(params, path)
            loaded = load_cnn(path)
            assert np.array_equal(param_vector(params), param_vector(loaded))
            assert (loaded.d, loaded.s, loaded.J, loaded.depth) == (
                params.d,
                params.s,
                params.J,
                params.depth,
            )

    def test_round_trip_awkward_values(self, tmp_path):
        vals = np.array([1e-300, -1e300, 0.1 + 0.2, np.pi, -0.0, 5e-324])
        w = np.zeros((2, 1, 1))
        w[0, 0, 0] = vals[0]
        w[1, 0, 0] = vals[1]
        params = CnnParams(
            3, 2, [ConvLayer(w, np.array([vals[2]]))], vals[3:6].reshape(3, 1)
        )
        path = tmp_path / "net.txt"
        save_cnn(params, path)
        assert np.array_equal(param_vector(load_cnn(path)), param_vector(params))


    def test_truncated_file_is_a_precondition_error(self, rng, tmp_path):
        path = tmp_path / "net.txt"
        save_cnn(random_cnn(rng), path)
        lines = path.read_text().splitlines()
        after_s = next(i for i, line in enumerate(lines) if line.startswith("s ")) + 1
        after_filter = lines.index("filter") + 1
        for cut in (after_s, after_filter, len(lines) - 2, len(lines) - 1):
            path.write_text("\n".join(lines[:cut]) + "\n")
            with pytest.raises(PreconditionError, match="unexpected end of file"):
                load_cnn(path)

    @pytest.mark.parametrize("old, new", [
        ("cnn v1", "cnn v2"), ("bias", "weights"), ("output", "input"), ("end", "more"),
        ("filter", "filters"), ("bias", "biases"), ("output", "outputs"), ("end", "ending"),
    ])
    def test_unexpected_line_is_a_precondition_error(self, rng, tmp_path, old, new):
        path = tmp_path / "net.txt"
        save_cnn(random_cnn(rng), path)
        lines = path.read_text().splitlines()
        lines[lines.index(old)] = new
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PreconditionError, match=f"expected '{old}', got '{new}'"):
            load_cnn(path)

    @pytest.mark.parametrize("section", ["d", "filter", "bias", "output"])
    def test_non_numeric_token_is_a_precondition_error(self, rng, tmp_path, section):
        path = tmp_path / "net.txt"
        save_cnn(random_cnn(rng), path)
        lines = path.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.split()[0] == section)
        row += section != "d"  # the header holds its value; the others, the next line
        lines[row] = " ".join(lines[row].split()[:-1] + ["abc"])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PreconditionError, match="malformed cnn file: .*'abc'"):
            load_cnn(path)

    def test_line_after_end_is_a_precondition_error(self, rng, tmp_path):
        path = tmp_path / "net.txt"
        save_cnn(random_cnn(rng), path)
        path.write_text(path.read_text() + "end\n")
        with pytest.raises(PreconditionError, match="expected nothing after 'end', got 'end'"):
            load_cnn(path)

    @pytest.mark.parametrize("section", ["filter", "bias", "output"])
    @pytest.mark.parametrize("change", [1, -1])
    def test_number_line_of_another_length_is_a_precondition_error(
            self, rng, tmp_path, section, change):
        path = tmp_path / "net.txt"
        save_cnn(random_cnn(rng, d=4, s=2, J=3, L=2), path)
        lines = path.read_text().splitlines()
        row = lines.index(section) + 1
        values = lines[row].split()
        lines[row] = " ".join(values + ["0.5"] if change > 0 else values[:-1])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PreconditionError, match=(
                f"malformed cnn file: expected {len(values)} numbers on a line, "
                f"got {len(values) + change}$")):
            load_cnn(path)

    @pytest.mark.parametrize(
        "line, refusal",
        [("d 100000000000", "cnn file d must be between"),
         ("s 100000000000", "cnn file s must be between"),
         ("J 0", "cnn file J must be between"),
         ("L 100000000000", "cnn file L must be between"),
         ("J 5000000", "cnn file d \\* J must be between"),
         # the header fixes every layer line, so a layer line's counts are never read
         ("layer 0 out 100000000000 in 1", "expected 'layer 0 out 3 in 1'"),
         ("layer 0 out 3 in -1", "expected 'layer 0 out 3 in 1'"),
         ("layer 1 out 4000 in 4000", "expected 'layer 1 out 3 in 3'")],
    )
    def test_counts_the_file_cannot_hold_are_refused(self, rng, tmp_path, line, refusal):
        path = tmp_path / "net.txt"
        save_cnn(random_cnn(rng, d=4, s=2, J=3, L=2), path)
        lines = path.read_text().splitlines()
        head = line.split()[: 2 if line.startswith("layer") else 1]
        row = next(i for i, old in enumerate(lines) if old.split()[: len(head)] == head)
        lines[row] = line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PreconditionError, match=refusal):
            load_cnn(path)


class TestValidation:
    def test_l_zero_rejected(self):
        with pytest.raises(PreconditionError):
            CnnParams(3, 2, [], np.zeros((3, 1)))

    def test_nonfinite_rejected(self):
        w = np.full((2, 1, 1), np.nan)
        with pytest.raises(PreconditionError):
            ConvLayer(w, np.zeros(1))
