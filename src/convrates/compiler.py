"""Exact compilation of shallow ReLU networks into constrained CNNs.

A shallow network sum_i c_i * relu(a_i . x + b_i) is realized exactly on
[0,1]^d by a convolutional network whose depth, channel count and path norm
are controlled:

* a single neuron needs 3 channels and depth L0 = ceil((d-1)/(s-1)): the
  first channel sweeps the inner product a . x across the signal s-1
  coordinates per layer, the second carries its negation (so the running
  value survives ReLU via t = relu(t) - relu(-t)), and the third translates
  the raw input leftward to feed the sweep;
* a sum of N neurons needs 6 channels and depth N*L0, and one assembly
  (`_sum_layers`) builds it for every construction: neurons are evaluated
  sequentially while channel 4 stores the input and channels 5/6 accumulate
  the positive and negative parts of the partial sums (both nonnegative, so
  they pass through ReLU unchanged);
* the assembly's readout, a 6-vector on row 0 of the last grid, gives the
  sum's value.  `shallow_to_cnn` makes it the output weights;
  `shallow_to_cnn_open` writes it into one layer exposing relu(f) and
  relu(-f), and reads out relu(f); `compose_with_scalar_net` follows that
  layer with K layers that accumulate the neurons of a scalar ReLU net g the
  same way.

Every construction returns a `CnnParams` and a `CompileReport`, which carries
the achieved path norm and its explicit guaranteed bound; the guarantee is
asserted on every call.

`ShallowNet` (the reference the compiled networks are checked against) and
`ScalarNet`, the one-dimensional `ShallowNet` behind the surrogate links,
refuse non-finite points.  With d >= 2 they evaluate every point by the dense
sum: in row blocks through one reused pre-activation buffer of about
`_BLOCK_BYTES` per run of `cnn.run_row_blocks`, with inner products and the
neuron sum formed in a fixed order without BLAS.  With d = 1 the net is
piecewise linear, so the dense sum runs on its distinct kinks only, and each
point is interpolated linearly between the two kinks around it, or extended
with the end slope beyond the outermost kink.  Either way a value does not
depend on the block size, the number of points, the worker count or the BLAS
thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cnn import CnnParams, ConvLayer, path_norm, rescale, run_row_blocks
from .errors import PreconditionError, PropertyFailure, check_finite, check_size

# channel roles in 6-channel assemblies (0-based)
_POS, _NEG, _SHIFT = 0, 1, 2
_STORE, _ACC_P, _ACC_N = 3, 4, 5
_READOUT = [_POS, _ACC_P, _ACC_N]  # the channels a sum's readout weighs


def _as_1d(x, name):
    arr = check_finite(x, name)
    if arr.ndim != 1:
        raise PreconditionError(f"{name} must be one-dimensional")
    return arr


_BLOCK_BYTES = 256 << 10  # one block of pre-activations in `_dense_relu_sum`


def _dense_relu_sum(X, directions, offsets, coeffs, threads=True):
    """sum_k coeffs[k] * relu(directions[k] . X[i] + offsets[k]) for each row i of X.

    The rows are taken in blocks whose pre-activations fill a buffer of about
    `_BLOCK_BYTES` (at least one row), one per run of `run_row_blocks`, or all
    on the calling thread when `threads` is false.  Each
    inner product adds its d products in coordinate order and each row's
    neuron sum is one einsum over that row, neither through BLAS: a row's value
    is the same double whatever the block size, the number of rows, the worker
    count or the BLAS thread count.
    """
    n, d = X.shape
    cols = np.ascontiguousarray(directions.T)
    out = np.empty(n)
    rows = max(1, _BLOCK_BYTES // (8 * coeffs.shape[0]))

    def run(lo, hi):
        pre = np.empty((min(rows, hi - lo), coeffs.shape[0]))
        term = np.empty_like(pre)
        for start in range(lo, hi, rows):
            x = X[start : start + rows]
            p, q = pre[: len(x)], term[: len(x)]
            np.multiply(x[:, :1], cols[0], out=p)
            for j in range(1, d):
                p += np.multiply(x[:, j : j + 1], cols[j], out=q)
            p += offsets
            np.maximum(p, 0.0, out=p)
            np.einsum("ij,j->i", p, coeffs, out=out[start : start + rows])

    run_row_blocks(n, rows, run) if threads else run(0, n)
    return out


def _relu_sum(X, directions, offsets, coeffs):
    """`_dense_relu_sum` for d >= 2; for d = 1, the same net evaluated at its kinks.

    A one-dimensional net is piecewise linear with kinks at t = -b_k/a_k.  Its
    values at the distinct finite kinks come from `_dense_relu_sum`, one row
    per kink, on the calling thread: they are too few rows to pay for starting
    another.  Between two kinks the net is affine: a point there takes the
    value at the nearer of the two plus its signed distance times the slope
    through both, so a small value never comes from cancelling larger ones.
    Beyond the outermost kinks the slope is sum_k c_k a_k over the neurons on
    there.  A neuron without a finite kink (a_k = 0, or -b_k/a_k past the
    float range) is on for every finite t when b_k > 0 and off otherwise.
    Each point is interpolated on its own, in one elementwise pass on the
    calling thread, so its value does not depend on the number of points.
    A net that overflows float64 at a kink, between two kinks or in a slope
    is summed densely at every point instead, since the interpolant would
    spread the overflow over a whole segment.  So is a net with a product
    c_k a_k or a slope that underflows to a subnormal or to zero: its
    absolute error, up to half the least subnormal, would grow with the
    distance to the kink.
    """
    if X.shape[1] > 1:
        return _dense_relu_sum(X, directions, offsets, coeffs)
    a = directions[:, 0]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # checked below
        kinks = -offsets / a
        finite = np.isfinite(kinks)
        nodes = np.unique(kinks[finite])  # sorted
        if nodes.size == 0:  # a constant net
            nodes = np.zeros(1)
        values = _dense_relu_sum(nodes[:, None], directions, offsets, coeffs, threads=False)
        always_on = ~finite & (offsets > 0)
        ca = coeffs * a
        left = np.sum(ca[(finite & (a < 0)) | always_on])
        right = np.sum(ca[(finite & (a > 0)) | always_on])
        # slope[k] on segment k: left of every kink, between kinks k-1 and k,
        # right of every kink
        width = np.concatenate([[1.0], np.diff(nodes), [1.0]])
        rise = np.concatenate([[left], np.diff(values), [right]])
        slope = rise / width
    tiny = np.finfo(np.float64).tiny
    if (
        np.any((np.abs(ca) < tiny) & (coeffs != 0) & (a != 0))
        or np.any((np.abs(slope) < tiny) & (rise != 0))
        or not (np.isfinite(values).all() and np.isfinite(width).all()
                and np.isfinite(slope).all())
    ):
        return _dense_relu_sum(X, directions, offsets, coeffs)
    # each segment halved at its midpoint: half h (past breaks[h - 1]) is
    # anchored at its segment's end nearer to it
    breaks = np.empty(2 * nodes.size - 1)
    breaks[0::2] = nodes
    breaks[1::2] = nodes[:-1] + width[1:-1] / 2
    anchor, anchor_value = np.repeat(nodes, 2), np.repeat(values, 2)
    half_slope = np.repeat(slope, 2)[1:-1]

    t = X[:, 0]
    h = np.searchsorted(breaks, t, side="right")
    return anchor_value[h] + (t - anchor[h]) * half_slope[h]


@dataclass
class ShallowNet:
    """sum_i coeffs[i] * relu(directions[i] . x + offsets[i]) on R^d."""

    coeffs: np.ndarray
    directions: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        self.coeffs = _as_1d(self.coeffs, "coeffs")
        self.offsets = _as_1d(self.offsets, "offsets")
        self.directions = check_finite(self.directions, "directions")
        if self.directions.ndim != 2:
            raise PreconditionError("directions must have shape (neurons, d)")
        n = self.coeffs.shape[0]
        if n < 1:
            raise PreconditionError("a shallow net needs at least one neuron")
        if self.directions.shape[0] != n or self.offsets.shape[0] != n:
            raise PreconditionError("coeffs, directions, offsets must align")

    @property
    def n_neurons(self):
        return self.coeffs.shape[0]

    @property
    def d(self):
        return self.directions.shape[1]

    def __call__(self, x):
        """The net's value at one point x of shape (d,), as a float, or at each
        row of X of shape (n, d), as an array of shape (n,).

        Non-finite entries are refused.  With d >= 2 each row goes through the
        fixed-order dense sum; with d = 1 the dense sum runs on the net's
        kinks and each row is interpolated between them (see `_relu_sum`).
        Neither goes through BLAS, so a row's value does not depend on how
        many rows come with it, on the worker count or on the BLAS thread
        count.
        """
        x = check_finite(x, "points")
        if x.ndim not in (1, 2) or x.shape[-1] != self.d:
            raise PreconditionError(f"points must have shape (d,) or (n, d) with d={self.d}")
        out = _relu_sum(x.reshape(-1, self.d), self.directions, self.offsets, self.coeffs)
        return float(out[0]) if x.ndim == 1 else out


class ScalarNet(ShallowNet):
    """One-dimensional ReLU net t -> sum_k coeffs[k] * relu(slopes[k]*t + offsets[k]):
    the `ShallowNet` with d = 1, called on scalars and arrays of any shape."""

    def __init__(self, coeffs, slopes, offsets):
        super().__init__(coeffs, _as_1d(slopes, "slopes")[:, None], offsets)

    @property
    def slopes(self):
        return self.directions[:, 0]

    def __call__(self, t):
        """The net's value at each entry of t: a float for a scalar t, else an
        array of t's shape.

        Non-finite entries are refused.  Evaluated by `_relu_sum` as a
        one-dimensional shallow net: the fixed-order dense sum gives the
        values at the net's kinks, and each entry is interpolated linearly
        between them or extended with the end slope beyond them, so an
        entry's value does not depend on t's size, on the worker count or on
        the BLAS thread count.
        """
        t = check_finite(t, "points")
        out = _relu_sum(t.reshape(-1, 1), self.directions, self.offsets, self.coeffs)
        return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)


def shallow_norm(net):
    """Constraint value sum_i |c_i| (||a_i||_1 + |b_i|); inf when it overflows float64."""
    with np.errstate(over="ignore"):
        return float(
            np.sum(np.abs(net.coeffs) * (np.abs(net.directions).sum(axis=1) + np.abs(net.offsets)))
        )


def sweep_depth(d, s):
    """Layers needed to sweep one inner product across d coordinates: ceil((d-1)/(s-1))."""
    if not 2 <= s <= d:
        raise PreconditionError(f"filter size s={s} outside [2, d={d}]")
    return math.ceil((d - 1) / (s - 1))


@dataclass
class CompileReport:
    """Architecture and norm accounting for one compilation."""

    depth: int
    channels: int
    norm_achieved: float
    norm_bound: float
    sweep_depth: int

    def __post_init__(self):
        if self.norm_achieved > self.norm_bound * (1 + 1e-12) + 1e-300:
            raise PropertyFailure(
                f"compiled path norm {self.norm_achieved} exceeds bound {self.norm_bound}"
            )


def _neuron_layers(direction, offset, s):
    """3-channel layer stack computing relu(direction . x + offset) at grid (0, 0).

    direction/offset must already be normalized to ||a||_1 + |b| <= 1 (or be
    identically zero).  The first returned layer has one input channel.
    """
    d = direction.shape[0]
    L0 = sweep_depth(d, s)
    layers = []
    for ell in range(L0):
        last = ell == L0 - 1
        # layer 0 reads the single input channel; later layers read the raw
        # input from _SHIFT and carry the running value as _POS - _NEG at tap 0
        src = _SHIFT if ell else 0
        w = np.zeros((s, 3, 3 if ell else 1))
        if ell:
            w[0, _POS, _POS] = 1.0
            w[0, _POS, _NEG] = -1.0
        for k in range(1 if ell else 0, s):
            idx = ell * (s - 1) + k
            if idx < d:
                w[k, _POS, src] = direction[idx]
        if not last:
            w[:, _NEG, :] = -w[:, _POS, :]
            w[s - 1, _SHIFT, src] = 1.0  # move the raw input s-1 places
        layers.append(ConvLayer(w, np.array([offset, 0.0, 0.0]) if last else np.zeros(3)))
    return layers


def neuron_to_cnn(direction, offset, coeff, s):
    """Compile coeff * relu(direction . x + offset) into a 3-channel network.

    Exact on [0,1]^d; depth ceil((d-1)/(s-1)); output weights vanish except
    at entry (0, 0); path norm at most 3^(depth-1) * |coeff| * (||direction||_1
    + |offset|).
    """
    direction = _as_1d(direction, "direction")
    offset = float(offset)
    coeff = float(coeff)
    d = direction.shape[0]
    L0 = sweep_depth(d, s)

    mass = np.abs(direction).sum() + abs(offset)
    if mass == 0.0 or coeff == 0.0:
        layers = [ConvLayer(np.zeros((s, 3, 1)), np.zeros(3))]
        layers += [ConvLayer(np.zeros((s, 3, 3)), np.zeros(3)) for _ in range(L0 - 1)]
        return CnnParams(d, s, layers, np.zeros((d, 3)))

    layers = _neuron_layers(direction / mass, offset / mass, s)
    W = np.zeros((d, 3))
    W[0, 0] = coeff * mass
    return CnnParams(d, s, layers, W)


def _sum_layers(net, s, extra_layers):
    """The N*L0 six-channel layers computing the sum `net`, and their readout.

    Each neuron is compiled with its coefficient scaled by R/M (R = 3^(1-L0)/N,
    M = shallow_norm(net)) and rescaled; its output joins _ACC_P or _ACC_N as
    the next neuron starts.  The readout is the 6-vector whose inner product
    with row 0 of the last grid is net(x).  Both guards run, for N*L0 +
    extra_layers layers, before any layer is built.  Returns (layers,
    readout, N, M, L0).
    """
    L0 = sweep_depth(net.d, s)
    N = net.n_neurons
    M = shallow_norm(net)
    # 3.0 ** k raises OverflowError past k = 646, where the bound is inf anyway
    _require_finite_bound(3.0 ** (L0 + 1) * N * M if L0 < 646 else math.inf)
    # 36 s weights per six-channel layer; past the guard, memory would run out
    check_size("a compiled net's weights", 36 * s * (N * L0 + extra_layers))
    R = 3.0 ** (1 - L0) / N
    coeff_scale = R / M if M > 0 else 0.0
    layers = []
    for i in range(N):
        coeff = net.coeffs[i] * coeff_scale
        sub = rescale(neuron_to_cnn(net.directions[i], net.offsets[i], coeff, s))
        for j, block in enumerate(sub.layers):
            w = np.zeros((s, 6, 1 if i == j == 0 else 6))
            b = np.zeros(6)
            b[:3] = block.bias
            if i == j == 0:
                w[:, :3, 0] = block.weights[:, :, 0]
                w[0, _STORE, 0] = 1.0
            else:
                if j == 0:  # the next neuron reads the stored input; the last output is banked
                    w[:, :3, _STORE] = block.weights[:, :, 0]
                    if v_last > 0:
                        w[0, _ACC_P, _POS] = v_last
                    elif v_last < 0:
                        w[0, _ACC_N, _POS] = -v_last
                else:
                    w[:, :3, :3] = block.weights
                w[0, _STORE, _STORE] = w[0, _ACC_P, _ACC_P] = w[0, _ACC_N, _ACC_N] = 1.0
            layers.append(ConvLayer(w, b))
        v_last = float(sub.output_weights[0, 0])
    prefactor = M / R if M > 0 else 0.0  # scales the sum back
    readout = np.zeros(6)
    readout[_READOUT] = prefactor * v_last, prefactor, -prefactor
    return layers, readout, N, M, L0


def _require_finite_bound(bound):
    # below a finite bound no weight, path norm or output of the compiled
    # network overflows; above it the report's guarantee would read inf <= inf
    if not math.isfinite(bound):
        raise PreconditionError(
            "the compile bound overflows float64: the net's norm or depth is too large"
        )


def shallow_to_cnn(net, s):
    """Compile a shallow net into a 6-channel CNN, exactly, with norm control.

    Returns (params, report).  Depth is N*L0; the path norm is guaranteed to
    be at most 3^(L0+1) * N * shallow_norm(net).
    """
    layers, readout, N, M, L0 = _sum_layers(net, s, 0)
    W = np.zeros((net.d, 6))
    W[0] = readout
    params = CnnParams(net.d, s, layers, W)
    report = CompileReport(N * L0, 6, path_norm(params), 3.0 ** (L0 + 1) * N * M, L0)
    return params, report


def _expose_layer(s, readout, pos_channel, neg_channel):
    """Layer writing relu(f) / relu(-f) of the assembled sum into two channels."""
    w = np.zeros((s, 6, 6))
    w[0, pos_channel] = readout
    w[0, neg_channel, _READOUT] = -readout[_READOUT]  # -readout would write -0.0 elsewhere
    return ConvLayer(w, np.zeros(6))


def shallow_to_cnn_open(net, s):
    """Compile into a 6-channel CNN computing relu(f(x)) that also exposes relu(-f(x)).

    Returns (params, report).  The final activated grid holds relu(net(x)) at
    (row 0, channel 0) and relu(-net(x)) at (row 0, channel 1); channels 2-5
    of row 0 are zero, and f(x) is the difference of the two entries.  The
    output weights are 1 at (0, 0) and 0 elsewhere.
    """
    layers, readout, N, M, L0 = _sum_layers(net, s, 1)
    layers.append(_expose_layer(s, readout, 0, 1))
    W = np.zeros((net.d, 6))
    W[0, 0] = 1.0
    params = CnnParams(net.d, s, layers, W)

    # the layer norms' max(., 1) floors keep the path norm >= 1 even for a zero
    # net, so the guarantee is the construction bound or 3, whichever is larger
    bound = max(3.0 ** (L0 + 1) * N * M, 3.0)
    report = CompileReport(N * L0 + 1, 6, path_norm(params), bound, L0)
    return params, report


def compose_with_scalar_net(net, g, s):
    """Compile x -> g(net(x)) exactly into a 6-channel CNN.

    Depth is N*L0 + K + 1 and the path norm is at most
    36 * 3^L0 * N * shallow_norm(net) * K * shallow_norm(g).
    """
    K = g.n_neurons
    layers, readout, N, M, L0 = _sum_layers(net, s, K + 1)
    M0 = shallow_norm(g)
    # after the sum's guard, so L0 < 646 and 3.0**L0 cannot raise OverflowError
    bound = 36.0 * 3.0**L0 * N * M * K * M0
    if 2 * 3.0 ** (L0 - 1) * N * M < 1.0:
        # degenerate sum net: the layer-norm floors dominate the M factor
        bound = max(bound, 18.0 * K * M0 * max(3.0 ** (L0 + 1) * N * M, 3.0))
    _require_finite_bound(bound)
    # expose relu(f) / relu(-f) in channels 1 and 2; channel 0 hosts g's neurons
    layers.append(_expose_layer(s, readout, 1, 2))

    R2 = 1.0 / K
    g_scale = R2 / M0 if M0 > 0 else 0.0
    masses = np.abs(g.slopes) + np.abs(g.offsets)
    cc = g.coeffs * masses * g_scale  # normalized coefficients, sum |cc| <= R2
    for k in range(K):
        w = np.zeros((s, 6, 6))
        b = np.zeros(6)
        if masses[k] > 0:
            slope = g.slopes[k] / (2 * masses[k])
            w[0, 0, 1] = slope
            w[0, 0, 2] = -slope
            b[0] = g.offsets[k] / (2 * masses[k])
        w[0, [1, 2, 3, 4], [1, 2, 3, 4]] = 1.0
        if k > 0:
            if cc[k - 1] > 0:
                w[0, 3, 0] = cc[k - 1]
            elif cc[k - 1] < 0:
                w[0, 4, 0] = -cc[k - 1]
        layers.append(ConvLayer(w, b))

    out_scale = 2 * M0 / R2 if M0 > 0 else 0.0
    W = np.zeros((net.d, 6))
    W[0, [0, 3, 4]] = out_scale * cc[K - 1], out_scale, -out_scale
    params = CnnParams(net.d, s, layers, W)
    report = CompileReport(N * L0 + K + 1, 6, path_norm(params), bound, L0)
    return params, report
