"""One-dimensional convolutional network calculus.

Architecture conventions used throughout the package:

* A signal grid is a float64 array of shape (d, J): spatial index times
  channel index.  Network inputs are grids with J = 1 and values in [0, 1].
* A convolutional layer holds a filter tensor of shape (s, J_out, J_in)
  (tap index, output channel, input channel) and a bias of shape (J_out,).
  It realizes the map  out[:, j'] = sum_j T(w[:, j', j]) @ x[:, j] + b[j'],
  where T(w) is the upper-banded matrix of `conv_matrix` (one-sided zero
  padding, stride one).
* The one forward loop (`_activations`, one `_conv_forward` per layer)
  holds a batch of grids channel-major, shape (J, d, n), and runs each tap
  as one product whose long dimension is the points; `_conv_forward` states
  its paths and why each keeps the bits of the row-major x @ w[k]^T.  Those
  bits, and so every byte-identical output of the package, are checked on
  OpenBLAS's SkylakeX kernel set (the name `scipy_openblas_get_corename64_`
  returns in numpy's bundled library); another kernel set rounds some
  products differently.  `final_grid` takes a large batch through all
  layers in row blocks, split into runs of at least two blocks, at most
  one per usable core (`run_row_blocks`); a row's value depends neither on
  the worker count nor on the BLAS thread count; `forward` computes only
  the rows its readout reaches (`_readout_plan`).  `backward` reads these
  grids: a tap's filter gradient is one GEMM, and its input gradient is the
  same core on the adjoint, T(w)^T = P T(w^T) P, with P the spatial
  reversal and w^T each tap's channel block transposed.  Every other
  function takes and returns (n, d, J) batches, and einsums read them
  C-contiguous: their summation order follows the layout.  A `# kept:`
  comment gives the time a call took with that path removed, over the
  time with it: the median of 10 interleaved runs on 2 cores, at the
  `perfbench` workloads' shapes.
* A network is L such layers followed by ReLU activations and a final inner
  product with a (d, J) output-weight matrix:
      f(x) = <W_out, relu(conv_{L-1}(... relu(conv_0(x)) ...))>.
* A network file lists d, s, J, L and then the parameters in `param_vector`
  order under keyword lines.  `_layout` defines its lines once, for
  `save_cnn` and `load_cnn`: a file loads only if each line is what
  `save_cnn` writes for the architecture in its header.

All values are float64; "exact" claims are meant up to round-off.  Every
function here is pure: inputs are never mutated and the returned objects
share no storage with the arguments.  The single exception is
`params_view`, whose parameters are views of the flat vector it is given:
`learnlab.train_erm` updates a network in place through it, and
`complexity.empirical_cover_check`'s exhaustive search overwrites one view's
vector with each grid network.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, ShapeError, check_finite, check_size


@dataclass
class ConvLayer:
    """A convolutional layer: filter (s, J_out, J_in) plus bias (J_out,)."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weights = check_finite(self.weights, "filter")
        self.bias = check_finite(self.bias, "bias")
        if self.weights.ndim != 3:
            raise ShapeError("filter must have shape (s, out_channels, in_channels)")
        if self.bias.ndim != 1 or self.bias.shape[0] != self.weights.shape[1]:
            raise ShapeError("bias length must equal the filter's output channel count")

    @property
    def filter_size(self):
        return self.weights.shape[0]

    @property
    def out_channels(self):
        return self.weights.shape[1]

    @property
    def in_channels(self):
        return self.weights.shape[2]


@dataclass
class CnnParams:
    """Full parameter set of a network on [0,1]^d.

    layers[0] maps the single input channel to J channels; every later layer
    maps J to J channels; output_weights has shape (d, J).
    """

    d: int
    s: int
    layers: list
    output_weights: np.ndarray

    def __post_init__(self):
        self.output_weights = check_finite(self.output_weights, "output weights")
        if self.d < 2:
            raise PreconditionError("input dimension d must be at least 2")
        if not 1 <= self.s <= self.d:
            raise PreconditionError(f"filter size s={self.s} outside [1, d={self.d}]")
        if len(self.layers) < 1:
            raise PreconditionError("network must have at least one layer")
        J = self.layers[0].out_channels
        if self.layers[0].in_channels != 1:
            raise ShapeError("first layer must read the single input channel")
        for i, layer in enumerate(self.layers):
            if layer.filter_size != self.s:
                raise ShapeError(f"layer {i} filter size {layer.filter_size} != s={self.s}")
            if layer.out_channels != J:
                raise ShapeError(f"layer {i} output channels {layer.out_channels} != J={J}")
            if i > 0 and layer.in_channels != J:
                raise ShapeError(f"layer {i} input channels {layer.in_channels} != J={J}")
        if self.output_weights.shape != (self.d, J):
            raise ShapeError(
                f"output weights shape {self.output_weights.shape} != ({self.d}, {J})"
            )

    @property
    def J(self):
        return self.layers[0].out_channels

    @property
    def depth(self):
        return len(self.layers)


def conv_matrix(w, d):
    """Dense d x d matrix of the one-sided-padded stride-one convolution.

    Entry (i, i+k) is w[k]; everything below the diagonal and beyond the
    band is zero, so (T w x)_i = sum_{k : i+k < d} w[k] * x[i+k] in
    0-based indexing.
    """
    w = check_finite(w, "filter")
    if w.ndim != 1:
        raise ShapeError("filter must be one-dimensional")
    s = w.shape[0]
    if s < 1 or s > d:
        raise PreconditionError(f"filter size {s} outside [1, d={d}]")
    T = np.zeros((d, d))
    for k in range(s):
        idx = np.arange(d - k)
        T[idx, idx + k] = w[k]
    return T


def _tap_plan(weights, bias):
    """How `_conv_forward` runs the taps k > 0 and the bias of a layer on
    J_in > 1 channels; the one place in this module that tests filter
    entries for zero (`_readout_plan` passes W_out as the readout's filter).

    Returns (taps, bias).  taps lists each live tap, k rising, as (k, c, r0,
    r1): c is None for a GEMM over all channels, else the tap reads only input
    channel c and writes only output rows r0:r1, one broadcast product.  bias
    is None where it is all +-0.  A tap whose entry [0, 0] is nonzero (every
    tap of a trained net) is a GEMM without a scan.
    """
    s, J, K = weights.shape
    if K == 1:
        return [], bias
    taps = []
    for k in range(1, s):
        if weights[k, 0, 0]:
            taps.append((k, None, 0, J))
            continue
        channels = np.flatnonzero(weights[k].any(axis=0))
        if channels.size == 1:  # kept: as GEMMs, the verify forward took 1.43x
            c = int(channels[0])
            rows = np.flatnonzero(weights[k, :, c])
            taps.append((k, c, int(rows[0]), int(rows[-1]) + 1))
        elif channels.size:  # kept: running all-+-0 taps, the verify forward took 1.62x
            taps.append((k, None, 0, J))
    if bias is not None and not bias[0] and not bias.any():  # kept: with its pass, 1.11x
        bias = None
    return taps, bias


def _conv_forward(weights, bias, x, last=False, taps=None):
    """Channel-major layer map: x (J_in, d, n) -> (J_out, d, n), pre-activation.

    `bias` and `taps` are a `_tap_plan`, made here when `taps` is None.  Tap
    k adds w[k] @ x[:, k:] onto out[:, :d-k] after tap 0 and the bias.  Each
    path keeps the bits of the row-major x @ w[k]^T while x is finite:
    - one input channel: each tap is one broadcast product, the GEMM's one
      rounded product; +0 is added where there is no bias, so a -0.0 product
      becomes the +0 that a BLAS sum from +0 gives.  A net's last layer there
      writes (n, d, J_out) storage, which spares the caller a transposed copy;
    - a one-row tap (k = d - 1) multiplies the row before it too: numpy runs
      a one-column product as gemv, whose sums a GEMM does not repeat;
    - one output channel on J_in > 1 channels (only in `conv_apply`) keeps
      the row-major product on a C-contiguous copy, which numpy runs as gemv;
    - the plan's skipped taps and bias: BLAS sums each entry from +0, so out
      holds no -0.0 after tap 0, and adding +-0 to it changes no entry;
    - the plan's one-channel taps: every other term of the GEMM's sum is a
      +-0 weight times a finite entry, so the sum is the one product w * x,
      up to the sign of a zero, which adding onto out cannot show.
    Where x holds +-inf (only after an overflow) a left-out product adds no
    0 * inf = NaN, so which entries are NaN and which are inf may differ.
    `forward` computes no row its readout cannot reach, so an overflow there
    leaves its value finite where contracting `final_grid` makes 0 * inf = NaN.
    """
    s, J, K = weights.shape
    d, n = x.shape[1:]
    n_major = last and K == 1  # kept: as (J, d, n), the cover forward took 1.19x
    out = np.empty((n, d, J)).transpose(2, 1, 0) if n_major else np.empty((J, d, n))
    if K == 1:  # kept: as GEMMs, the cover forward took 1.89x and training's 1.20x
        x, w = x[0], weights[..., None]
        np.multiply(x, w[0], out=out)
        out += 0.0 if bias is None else bias[:, None, None]
        for k in range(1, s):
            out[:, : d - k] += x[k:] * w[k]
        return out
    if taps is None:
        taps, bias = _tap_plan(weights, bias)

    def gemm(k, lo, t):  # t = w[k] @ x[:, lo:]
        if J == 1:  # one output channel: numpy's matrix-vector gemv, on C-contiguous rows
            np.matmul(np.ascontiguousarray(x[:, lo:].reshape(K, -1).T), weights[k].T,
                      out=t.reshape(-1, 1))
        else:  # the rows x[:, lo:] are a (K, (d-lo)*n) view with row stride d*n
            np.matmul(weights[k], x[:, lo:].reshape(K, -1), out=t.reshape(J, -1))

    gemm(0, 0, out)
    if bias is not None:  # t0 + b is the same double as b + t0
        out += bias[:, None, None]
    buf = np.empty((J, max(d - 1, 2), n)) if taps else None  # the shifted taps' products
    for k, c, r0, r1 in taps:
        if c is None:  # a one-row tap also multiplies the row before it
            lo = min(k, d - 2)
            gemm(k, lo, buf[:, : d - lo])
            out[:, : d - k] += buf[:, k - lo : d - lo]
        else:
            t = np.multiply(x[c, k:], weights[k, r0:r1, c, None, None], out=buf[r0:r1, : d - k])
            out[r0:r1, : d - k] += t
    return out


def conv_apply(layer, x):
    """Apply one convolutional layer to a (d, J_in) signal grid; the result is
    the pre-activation, equal in value to the stacked matmul (module docstring)."""
    x = check_finite(x, "signal")
    if x.ndim != 2:
        raise ShapeError("signal grid must have shape (d, channels)")
    if x.shape[1] != layer.in_channels:
        raise ShapeError(
            f"signal has {x.shape[1]} channels, layer expects {layer.in_channels}"
        )
    if x.shape[0] < layer.filter_size:
        raise PreconditionError("signal length shorter than the filter")
    return _conv_forward(layer.weights, layer.bias, x.T[:, :, None])[:, :, 0].T


def _check_input(params, x):
    x = check_finite(x, "input")
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != params.d:
        raise ShapeError(f"input must have {params.d} coordinates")
    return x


def _activations(layers, X, plans=None, rows=None):
    """Yield the activated channel-major (J, d, n) grid after each layer for an
    (n, d) batch X.

    The package's one forward loop.  `plans` holds each layer's `_tap_plan`;
    without it `_conv_forward` makes each.  With `rows` (`_readout_plan`'s)
    layer i reads its input's rows :rows[i].  A caller that keeps only the last
    grid holds a few grids at a time, whatever the depth.
    """
    a, last = X.T[None], len(layers) - 1
    for i, layer in enumerate(layers):
        taps, bias = (None, layer.bias) if plans is None else plans[i]
        x = a if rows is None else a[:, : rows[i]]  # a (J, rows[i], n) view, as row blocks are
        a = _conv_forward(layer.weights, bias, x, i == last, taps)
        np.maximum(a, 0.0, out=a)  # the grid is fresh, so ReLU can overwrite it
        yield a


def activation_grids(params, x):
    """Activated grids after each layer for a batch of inputs.

    Returns a list of L arrays of shape (n, d, J); the last one is the grid
    the output weights contract against.
    """
    return [np.ascontiguousarray(a.transpose(2, 1, 0))
            for a in _activations(params.layers, _check_input(params, x))]


# one (J, d, rows) row block of `final_grid`, 1 MiB.  Skipped and one-channel taps
# leave less BLAS work per block, so the per-layer Python work weighs more: on
# 2 cores (2 MiB L2 each) the verify benchmark's 10 000-point forward took 122 ms
# at 512 KiB, 95 ms at 1 MiB and 249 ms at 1.5 MiB; on 1 core, 143 ms at 512 KiB
# and 172 ms at 1 MiB
_BLOCK_FLOATS = 128 << 10


def run_row_blocks(n, rows, run):
    """Call run(lo, hi) on contiguous runs of whole `rows`-row blocks covering 0..n.

    With n <= rows this is run(0, n).  Otherwise the blocks are split, to
    within one block, into min(cores, blocks // 2) runs, cores the usable
    core count (`os.sched_getaffinity`; where the platform lacks it,
    `os.cpu_count()`): every run gets two whole blocks or more, so a batch
    of two or three blocks runs on the caller's thread alone.
    The first run goes on the caller's thread, each other on a thread
    started and joined here under a copy of the caller's context, so its
    `np.errstate` holds.  Runs must write disjoint outputs; the first
    exception a run raises is re-raised once every thread has joined.
    """
    if n <= rows:
        return run(0, n)
    blocks = -(-n // rows)
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    runs = min(cores or 1, blocks // 2)  # n > rows, so blocks // 2 >= 1
    cuts = [rows * (blocks * i // runs) for i in range(runs)] + [n]
    errors = []

    def guarded(lo, hi):
        try:
            run(lo, hi)
        except BaseException as exc:  # re-raised below, once every thread has joined
            errors.append(exc)

    # kept: on one thread the verify forward (4 blocks) took 1.46x; a thread for a
    # 2-block run cost about 2.4 MB of `rates` peak RSS and gained nothing end to end
    threads = [threading.Thread(target=contextvars.copy_context().run, args=(guarded, *cut))
               for cut in zip(cuts[1:-1], cuts[2:])]
    for t in threads:
        t.start()
    guarded(*cuts[:2])
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def _readout_plan(params):
    """Each layer's `_tap_plan` and the rows :rows[i] of its input that the
    readout reaches, rows[L] the last grid's; (None, None) where it reaches
    every row.

    The readout is row 0 of a d-tap convolution onto one channel with filter
    W_out: it reads up to W_out's last live row, and each layer adds its
    largest live tap (s - 1 on one channel), up to d.  At least 2 rows: a
    one-column product runs as gemv, whose sums a GEMM does not repeat.  At
    d = 2 or J = 1 nothing is tested; a W_out with no zero in column 0 (a
    trained net's) costs d - 1 scalar tests.
    """
    d = params.d
    if d <= 2 or params.J == 1:
        return None, None
    taps, _ = _tap_plan(params.output_weights[:, None], None)
    rows = [max(2, taps[-1][0] + 1 if taps else 1)]
    if rows[0] == d:
        return None, None
    plans = [_tap_plan(layer.weights, layer.bias) for layer in params.layers]
    for layer, (taps, _) in zip(params.layers[::-1], plans[::-1]):
        k = params.s - 1 if layer.in_channels == 1 else taps[-1][0] if taps else 0
        rows.append(min(d, rows[-1] + k))
    return plans, rows[::-1]


def _last_grid(params, X, plans=None, rows=None):
    """The activated last grid of a checked batch X, (n, d, J) C-contiguous, in
    row blocks; with `_readout_plan`'s plans and rows it is +0 past rows[-1]."""
    (n, d), J = X.shape, params.J
    # kept: blocked, the cover forward took 1.10x, training's 1.05x
    if rows is None and n * d * J <= _BLOCK_FLOATS:
        for a in _activations(params.layers, X):
            pass
        return np.ascontiguousarray(a.transpose(2, 1, 0))
    block, p = max(1, _BLOCK_FLOATS // (d * J)), d if rows is None else rows[-1]
    out = np.empty((n, d, J)) if rows is None else np.zeros((n, d, J))
    if plans is None:
        plans = [_tap_plan(layer.weights, layer.bias) for layer in params.layers]

    def run(lo, hi):
        for start in range(lo, hi, block):
            for a in _activations(params.layers, X[start : start + block], plans, rows):
                pass
            out[start : start + block, :p] = a[:, :p].transpose(2, 1, 0)

    run_row_blocks(n, block, run)
    return out


def final_grid(params, x):
    """Activated grid after the last layer of `params`, C-contiguous, shape (n, d, J).

    x is checked as `forward` checks it, and a single d-vector gives n = 1.
    Unlike in `forward`, every row is computed.
    """
    return _last_grid(params, _check_input(params, x))


def forward(params, x):
    """Evaluate the network. x may be a single d-vector or an (n, d) batch.

    Only the rows the readout reaches are computed (`_readout_plan`); the grid
    is +0 in the others, where W_out is +-0.  A +-0 product changes no sum
    from +0, and the (n, d, J) layout fixes einsum's order (the rows :p alone
    would sum in another), so `final_grid`'s finite contraction has its bits.
    """
    X = _check_input(params, x)
    # kept: with every row computed, the verify forward took 1.25x (1.20x at 1 000 points)
    grid = _last_grid(params, X, *_readout_plan(params))
    vals = np.einsum("ndj,dj->n", grid, params.output_weights)
    if np.ndim(x) == 1:
        return float(vals[0])
    return vals


def backward(params, x, dout=None):
    """Reverse-mode gradient of the network output w.r.t. all parameters, as
    one flat float64 vector in `param_vector` order (`params_view` splits it
    into per-layer arrays).

    For a batch X of shape (n, d), `dout` (shape (n,)) weights each sample's
    contribution and the per-sample gradients are summed: the result is the
    gradient of sum_i dout[i] * f(X[i]).  `dout` may also be a callable: it
    receives the (n,) array of outputs f(X) from this function's own forward
    pass and returns the weights, so a loss gradient needs no separate
    `forward` call; whatever it raises propagates.  With a single d-vector
    input and no `dout` the result is the gradient of f(x) itself.  ReLU
    uses subgradient 0 at 0.  A callable `dout` receives `forward`'s bits:
    the same contraction, of a C-contiguous copy of the last grid.
    """
    X = _check_input(params, x)
    n, d = X.shape
    grids = list(_activations(params.layers, X))
    inputs = [np.ascontiguousarray(X.T)[None]] + grids[:-1]
    a = np.ascontiguousarray(grids[-1].transpose(2, 1, 0))

    if callable(dout):
        dout = dout(np.einsum("ndj,dj->n", a, params.output_weights))
    dout = np.ones(n) if dout is None else check_finite(dout, "dout")
    if dout.shape != (n,):
        raise ShapeError("dout must have one entry per sample")

    L, s, J = params.depth, params.s, params.J
    vec = np.empty(param_count(d, s, J, L))
    grad_w, grad_b, g_out = _split(vec, d, s, J, L)
    np.matmul(dout, a.reshape(n, d * J), out=g_out.reshape(-1))
    ga = params.output_weights.T[:, :, None] * dout
    for i in range(L - 1, -1, -1):
        # relu(z) > 0 exactly where z > 0; gz is fresh and C-contiguous, so its
        # rows gz[:, :d-k] are one (J, (d-k) n) view, as a_in's rows are
        gz = np.multiply(ga, grids[i] > 0.0, out=np.empty((J, d, n)))
        a_in = inputs[i]
        for k in range(s):
            np.matmul(gz[:, : d - k].reshape(J, -1), a_in[:, k:].reshape(len(a_in), -1).T,
                      out=grad_w[i][k])
        np.add.reduce(gz.reshape(J, -1), axis=1, out=grad_b[i])
        if i > 0:  # the input gradient of layer 0 is not needed
            # T(w)^T = P T(w^T) P: the forward core on the reversed grid
            w = params.layers[i].weights.transpose(0, 2, 1)
            ga = _conv_forward(w, None, gz[:, ::-1])[:, ::-1]
    return vec


def layer_norm(layer):
    """Max over output channels of (1-norm of incoming filter + |bias|).

    This is the l_inf -> l_inf operator norm of the layer's affine map on
    grids with sup-norm at most one.
    """
    per_channel = np.abs(layer.weights).sum(axis=(0, 2)) + np.abs(layer.bias)
    return float(per_channel.max())


def path_norm(params):
    """Weight-constraint functional: ||W_out||_1 * prod_l max(layer_norm_l, 1),
    multiplied in from the left in layer order."""
    value = float(np.abs(params.output_weights).sum())
    for layer in params.layers:
        value *= max(layer_norm(layer), 1.0)
    return value


def rescale(params):
    """Renormalize so every hidden layer norm is at most one.

    Divides each layer by m_l = max(layer_norm, 1), pushes the accumulated
    product into the output weights, and corrects biases for the scale of the
    incoming activations.  By positive homogeneity of ReLU the realized
    function is unchanged, and the path norm cannot increase.
    """
    new_layers = []
    prod = 1.0
    for layer in params.layers:
        m = max(layer_norm(layer), 1.0)
        new_layers.append(
            ConvLayer(layer.weights / m, layer.bias / (prod * m))
        )
        prod *= m
    return CnnParams(params.d, params.s, new_layers, params.output_weights * prod)


def embed(params, channels=None, depth=None):
    """Re-express the network with more channels and/or more layers.

    Extra channels are wired with zero filters and biases; extra depth is
    appended as identity layers (filter (1, 0, ..., 0) on each channel
    diagonal, zero bias), which fix nonnegative grids.  The realized function
    is unchanged and the path norm does not increase.
    """
    J = params.J
    L = params.depth
    channels = J if channels is None else int(channels)
    depth_new = L if depth is None else int(depth)
    if channels < J:
        raise PreconditionError(f"target channels {channels} < current {J}")
    if depth_new < L:
        raise PreconditionError(f"target depth {depth_new} < current {L}")

    layers = []
    for i, layer in enumerate(params.layers):
        in_c = 1 if i == 0 else channels
        w = np.zeros((params.s, channels, in_c))
        w[:, :J, : layer.in_channels] = layer.weights
        b = np.zeros(channels)
        b[:J] = layer.bias
        layers.append(ConvLayer(w, b))
    for _ in range(depth_new - L):
        w = np.zeros((params.s, channels, channels))
        w[0] = np.eye(channels)
        layers.append(ConvLayer(w, np.zeros(channels)))
    W = np.zeros((params.d, channels))
    W[:, :J] = params.output_weights
    return CnnParams(params.d, params.s, layers, W)


def truncate(level, values):
    """Clamp values to [-level, level]; level must be positive."""
    if not level > 0:
        raise PreconditionError(f"truncation level must be positive, got {level}")
    return np.clip(values, -level, level) if np.ndim(values) else float(
        np.clip(values, -level, level)
    )


# -- flat parameter vector ------------------------------------------------
#
# Order: layer 0 filter entries in index order (tap, out channel, in channel),
# layer 0 bias, layer 1 filter, layer 1 bias, ..., output weights row-major.
# This order also defines the serialization layout below.


def param_vector(params):
    """Flatten all parameters into one float64 vector."""
    parts = []
    for layer in params.layers:
        parts.append(layer.weights.ravel())
        parts.append(layer.bias.ravel())
    parts.append(params.output_weights.ravel())
    return np.concatenate(parts)


def param_count(d, s, J, L):
    """Number of stored parameters, the length of `param_vector`.

    It is (sJ+1)JL + (d+s-sJ)J: sJ+J for the first layer, (sJ^2+J)(L-1) for
    the other conv layers, and dJ output weights.
    """
    if not 1 <= s <= d:
        raise PreconditionError(f"filter size s={s} outside [1, d={d}]")
    if J < 1 or L < 1:
        raise PreconditionError("channel count and depth must be at least 1")
    return (s * J + 1) * J * L + (d + s - s * J) * J


def _split(vec, d, s, J, L):
    """Views of vec's filters, biases and output weights, in vector order."""
    size = param_count(d, s, J, L)
    if vec.shape[0] != size:
        raise ShapeError(f"vector length {vec.shape[0]} != expected {size}")
    weights, biases = [], []
    pos = 0
    for i in range(L):
        in_c = 1 if i == 0 else J
        nw = s * J * in_c
        weights.append(vec[pos : pos + nw].reshape(s, J, in_c))
        pos += nw
        biases.append(vec[pos : pos + J])
        pos += J
    return weights, biases, vec[pos:].reshape(d, J)


def params_view(vec, d, s, J, L):
    """CnnParams for the (d, s, J, L) architecture whose arrays are views of vec.

    vec must be a contiguous one-dimensional float64 array; writing to it
    changes the returned network, and vice versa.  This is the one function
    here whose result shares storage with its argument.
    """
    if not (
        isinstance(vec, np.ndarray)
        and vec.dtype == np.float64
        and vec.ndim == 1
        and vec.flags.c_contiguous
    ):
        raise ShapeError("parameter vector must be a contiguous 1-D float64 array")
    weights, biases, W = _split(vec, d, s, J, L)
    return CnnParams(d, s, [ConvLayer(w, b) for w, b in zip(weights, biases)], W)


def params_from_vector(vec, d, s, J, L):
    """Inverse of param_vector for the (d, s, J, L) architecture."""
    return params_view(np.array(vec, dtype=np.float64), d, s, J, L)


# -- serialization ---------------------------------------------------------


def _layout(d, s, J, L):
    """The lines of a (d, s, J, L) network file in `param_vector` order: each
    keyword line as its string, each number line as the count of its floats."""
    yield "cnn v1"
    yield from (f"{key} {count}" for key, count in zip("dsJL", (d, s, J, L)))
    for i in range(L):
        in_c = 1 if i == 0 else J
        yield f"layer {i} out {J} in {in_c}"
        yield "filter"
        yield from [J * in_c] * s  # one line per tap
        yield "bias"
        yield J
    yield "output"
    yield from [J] * d  # one line per row
    yield "end"


def save_cnn(params, path):
    """Write parameters as self-describing text; round-trip is value-exact.

    Floats are written with repr, whose shortest decimal form recovers the
    identical IEEE double on load.
    """
    values = iter(param_vector(params).tolist())
    lines = [" ".join(repr(next(values)) for _ in range(line)) if isinstance(line, int) else line
             for line in _layout(params.d, params.s, params.J, params.depth)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_cnn(path):
    """Read a network written by save_cnn.  The header's d, s, J and L fix
    every later line: each keyword line must be the one save_cnn writes, each
    number line must hold as many floats, and nothing may follow `end`."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    vec = []
    try:
        if len(lines) < 5:
            raise ValueError("unexpected end of file")
        d, s, J, L = (int(line.split()[1]) for line in lines[1:5])
        # a count the lab could not hold is refused by name, before any later line is read
        for key, count in (("d", d), ("s", s), ("J", J), ("L", L), ("d * J", d * J)):
            check_size(f"cnn file {key}", count)
        for want, line in itertools.zip_longest(_layout(d, s, J, L), lines):
            if line is None:
                raise ValueError("unexpected end of file")
            if want is None:
                raise ValueError(f"expected nothing after 'end', got {line!r}")
            if isinstance(want, int):
                vals = [float(v) for v in line.split()]
                if len(vals) != want:
                    raise ValueError(f"expected {want} numbers on a line, got {len(vals)}")
                vec += vals
            elif line != want:
                raise ValueError(f"expected {want!r}, got {line!r}")
    except PreconditionError:  # a size guard, whose message names the count
        raise
    except (IndexError, ValueError) as exc:  # a missing, extra or non-numeric token or line
        raise PreconditionError(f"malformed cnn file: {exc}") from exc
    return params_from_vector(vec, d, s, J, L)
