"""Tests for the convolution calculus: forward/backward, norms, rescaling.

Derived expectations are computed by independent oracles: the dense
matrix-vector product for convolutions, and central finite differences for
gradients.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from convrates.cnn import (
    CnnParams,
    ConvLayer,
    activation_grids,
    backward,
    conv_apply,
    conv_matrix,
    embed,
    forward,
    layer_norm,
    load_cnn,
    param_vector,
    params_from_vector,
    params_view,
    path_norm,
    rescale,
    save_cnn,
    truncate,
)
from convrates.errors import PreconditionError, ShapeError

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
            out = _conv_forward(layer.weights, layer.bias, X)
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
            diff = _conv_forward(layer.weights, layer.bias, X) - _conv_forward(
                layer.weights, layer.bias, Y
            )
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


class TestBackward:
    def test_output_layer_gradient_is_final_grid(self, rng):
        params = random_cnn(rng)
        x = rng.random(params.d)
        grad = backward(params, x)
        final = activation_grids(params, x)[-1][0]
        assert np.allclose(grad.output_weights, final, atol=1e-14)

    def test_zero_network_output_gradient(self, rng):
        params = random_cnn(rng, scale=0.0)
        x = rng.random(params.d)
        grad = backward(params, x)
        assert np.array_equal(grad.output_weights, np.zeros_like(params.output_weights))

    def test_zero_filters_bias_driven_gradient(self, rng):
        # zero filters, nonzero biases: grad wrt output weights is the
        # bias-driven final grid
        layers = [
            ConvLayer(np.zeros((2, 2, 1)), np.array([0.5, -1.0])),
            ConvLayer(np.zeros((2, 2, 2)), np.array([0.2, 0.7])),
        ]
        params = CnnParams(3, 2, layers, rng.standard_normal((3, 2)))
        grad = backward(params, rng.random(3))
        expected = np.tile([0.2, 0.7], (3, 1))
        assert np.allclose(grad.output_weights, expected, atol=1e-15)

    def test_matches_central_differences(self, rng):
        """Backprop vs the finite-difference oracle, away from ReLU kinks."""
        from convrates.cnn import _conv_forward

        def min_preactivation(params, x):
            a = x[None, :, None]
            worst = np.inf
            for layer in params.layers:
                z = _conv_forward(layer.weights, layer.bias, a)
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
            g = backward(params, x).as_vector()
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
        g = backward(params, x).as_vector()
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

            g_fn = backward(params, X, fn).as_vector()
            g_arr = backward(params, X, fn(forward(params, X))).as_vector()
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

    def test_as_vector_follows_param_vector_layout(self, rng):
        for _ in range(10):
            params = random_cnn(rng)
            grad = backward(params, rng.random((4, params.d)), rng.standard_normal(4))
            mirror = CnnParams(
                params.d,
                params.s,
                [ConvLayer(w, b) for w, b in zip(grad.layer_weights, grad.layer_biases)],
                grad.output_weights,
            )
            assert np.array_equal(grad.as_vector(), param_vector(mirror))
            assert grad.as_vector().size == param_vector(params).size


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


class TestValidation:
    def test_l_zero_rejected(self):
        with pytest.raises(PreconditionError):
            CnnParams(3, 2, [], np.zeros((3, 1)))

    def test_nonfinite_rejected(self):
        w = np.full((2, 1, 1), np.nan)
        with pytest.raises(PreconditionError):
            ConvLayer(w, np.zeros(1))
