"""Spans around the package's public functions, recorded from outside it.

`Tracer.install` replaces each public function at the names its callers
bind (for example `learnlab.forward` as well as `cnn.forward`, since
`learnlab` imports the function by name) with a wrapper that records a span:
name, start, end, parent span and operation id; a span without a parent
starts a new operation.  Spans stay in memory and are written as JSONL at the
end.  `remove` puts the original functions back.

A span's self time is its duration minus the part of its interval that its
child spans cover.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

import numpy as np

from convrates import cli, cnn, compiler, complexity, learnlab, links


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _band_flops(params, x):
    """Computed band FLOPs of one forward pass: 2 n d s J_in J_out per layer."""
    n = 1 if np.ndim(x) == 1 else np.shape(x)[0]
    return sum(2 * n * params.d * layer.filter_size * layer.in_channels * layer.out_channels
               for layer in params.layers)


def _forward_counts(args, kwargs, result):
    return {"flops": _band_flops(args[0], args[1])}


def _backward_counts(args, kwargs, result):
    # the forward pass again, then the filter and the input gradients
    return {"flops": 3 * _band_flops(args[0], args[1])}


def _cover_counts(args, kwargs, result):
    return {"candidates": result.candidate_count}


# (owner, attribute, span name, counts) for every binding a caller uses
BINDINGS = [
    (cnn, "forward", "cnn.forward", _forward_counts),
    (learnlab, "forward", "cnn.forward", _forward_counts),
    (complexity, "forward", "cnn.forward", _forward_counts),
    (learnlab, "backward", "cnn.backward", _backward_counts),
    (learnlab, "params_from_vector", "cnn.params_from_vector", None),
    (complexity, "params_from_vector", "cnn.params_from_vector", None),
    (learnlab, "param_vector", "cnn.param_vector", None),
    (learnlab, "path_norm", "cnn.path_norm", None),
    (compiler, "path_norm", "cnn.path_norm", None),
    (learnlab, "run_rate_experiment", "learnlab.run_rate_experiment", None),
    (learnlab, "train_erm", "learnlab.train_erm", None),
    (learnlab, "empirical_risk", "learnlab.empirical_risk", None),
    (learnlab, "measure_excess", "learnlab.measure_excess", None),
    (learnlab, "sample_dataset", "learnlab.sample_dataset", None),
    (links, "hinge_excess_risk", "links.excess_risk", None),
    (links, "logistic_excess_risk", "links.excess_risk", None),
    (links, "log_link_net", "links.log_link_net", None),
    (compiler, "shallow_to_cnn", "compiler.compile", None),
    (compiler, "compose_with_scalar_net", "compiler.compile", None),
    (compiler.ScalarNet, "__call__", "compiler.scalar_net", None),
    (compiler.ShallowNet, "__call__", "compiler.shallow_net", None),
    (complexity, "empirical_cover_check", "complexity.cover_check", _cover_counts),
    (complexity, "unit_cube_points", "sampling.unit_cube_points", None),
    (cli, "unit_cube_points", "sampling.unit_cube_points", None),
    (cli, "load_config", "cli.load_config", None),
    (cli, "run", "cli.run", None),
]


class Tracer:
    """Records spans for every call through the wrapped bindings."""

    def __init__(self):
        self.spans = []
        self.op = 0
        self._stack = []
        self._originals = []

    def wrap(self, owner, attr, name, counts=None):
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not stack:
                self.op += 1
            span = Span(len(spans), stack[-1].id if stack else None, self.op, name, 0.0)
            spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        self._originals.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self, bindings=BINDINGS):
        for owner, attr, name, counts in bindings:
            self.wrap(owner, attr, name, counts)
        return self

    def remove(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for span, self_s in zip(self.spans, self_times(self.spans)):
                fh.write(json.dumps(dict(asdict(span), self_s=self_s)) + "\n")


def self_times(spans):
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for span in spans:
        covered = 0.0
        lo = hi = None
        for c_lo, c_hi in sorted(children[span.id]):
            c_lo, c_hi = max(c_lo, span.start), min(c_hi, span.end)
            if c_hi <= c_lo:
                continue
            if hi is None or c_lo > hi:
                covered += 0.0 if hi is None else hi - lo
                lo, hi = c_lo, c_hi
            else:
                hi = max(hi, c_hi)
        covered += 0.0 if hi is None else hi - lo
        out.append((span.end - span.start) - covered)
    return out


# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = [
    ("cnn.forward.calls", "count"),
    ("cnn.forward.self_s", "s"),
    ("cnn.forward.p50_us", "us"),
    ("cnn.forward.p90_us", "us"),
    ("cnn.backward.calls", "count"),
    ("cnn.backward.self_s", "s"),
    ("cnn.backward.p50_us", "us"),
    ("cnn.backward.p90_us", "us"),
    ("cnn.params_from_vector.calls", "count"),
    ("cnn.params_from_vector.self_s", "s"),
    ("cnn.param_vector.calls", "count"),
    ("cnn.path_norm.calls", "count"),
    ("cnn.path_norm.self_s", "s"),
    ("cnn.useful_gflop_per_s", "GFLOP/s"),
    ("cnn.forward.train_shape_us", "us"),
    ("cnn.backward.train_shape_us", "us"),
    ("learnlab.steps", "count"),
    ("learnlab.train_erm.calls", "count"),
    ("learnlab.train_erm.self_s", "s"),
    ("learnlab.self_us_per_step", "us"),
    ("learnlab.params_from_vector_per_step", "calls/step"),
    ("learnlab.empirical_risk.calls", "count"),
    ("learnlab.empirical_risk.self_s", "s"),
    ("learnlab.measure_excess.self_s", "s"),
    ("learnlab.sample_dataset.self_s", "s"),
    ("links.excess_risk.calls", "count"),
    ("links.excess_risk.self_s", "s"),
    ("links.log_link_net.self_s", "s"),
    ("compiler.compile.calls", "count"),
    ("compiler.compile.self_s", "s"),
    ("compiler.scalar_net.calls", "count"),
    ("compiler.scalar_net.self_s", "s"),
    ("compiler.shallow_net.self_s", "s"),
    ("complexity.candidates", "count"),
    ("complexity.cover_check.self_s", "s"),
    ("sampling.unit_cube_points.self_s", "s"),
    ("cli.load_config.self_s", "s"),
    ("cli.run.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


def layer_metrics(spans, train_shape_us, overhead_frac):
    """Per-layer metrics from the spans of one traced pass.

    `train_shape_us` is the (forward, backward) micro-sweep result and
    `overhead_frac` the traced pass's wall time over the untraced one's,
    minus one.  A layer the pass never called reads zero.
    """
    self_s = self_times(spans)
    calls = defaultdict(int)
    total_self = defaultdict(float)
    durations = defaultdict(list)
    for span, own in zip(spans, self_s):
        calls[span.name] += 1
        total_self[span.name] += own
        durations[span.name].append(span.end - span.start)
    by_id = {span.id: span for span in spans}

    def under_train_erm(name):
        return sum(1 for span in spans if span.name == name and span.parent is not None
                   and by_id[span.parent].name == "learnlab.train_erm")

    def pct_us(name, q):
        values = durations[name]
        return float(np.percentile(values, q)) * 1e6 if values else 0.0

    steps = under_train_erm("cnn.backward")
    flops = sum(span.counts.get("flops", 0) for span in spans)
    kernel_s = total_self["cnn.forward"] + total_self["cnn.backward"]
    values = {
        "cnn.useful_gflop_per_s": flops / kernel_s / 1e9 if kernel_s else 0.0,
        "cnn.forward.train_shape_us": train_shape_us[0],
        "cnn.backward.train_shape_us": train_shape_us[1],
        "learnlab.steps": steps,
        "learnlab.self_us_per_step":
            total_self["learnlab.train_erm"] / steps * 1e6 if steps else 0.0,
        "learnlab.params_from_vector_per_step":
            under_train_erm("cnn.params_from_vector") / steps if steps else 0.0,
        "complexity.candidates": sum(span.counts.get("candidates", 0) for span in spans),
        "trace.overhead_frac": overhead_frac,
    }
    for name, _ in LAYER_METRICS:
        if name in values:
            continue
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = calls[layer]
        elif stat == "self_s":
            values[name] = total_self[layer]
        else:
            values[name] = pct_us(layer, int(stat[1:3]))
    return values


def train_shape_us(seed, calls=200, repeats=7):
    """Median per-call time of `cnn.forward` and `cnn.backward` at the shape
    training uses: d=2, s=2, J=6, L=3, batch 128."""
    rng = np.random.default_rng(seed)
    d, s, J, L, n = 2, 2, 6, 3, 128
    layers = [cnn.ConvLayer(rng.normal(0.0, 0.5, (s, J, 1 if i == 0 else J)),
                            rng.normal(0.0, 0.01, J)) for i in range(L)]
    params = cnn.CnnParams(d, s, layers, rng.normal(0.0, 0.3, (d, J)))
    X = rng.random((n, d))
    dout = rng.standard_normal(n) / n

    def per_call_us(fn, *args):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn(*args)
            times.append((time.perf_counter() - t0) / calls)
        return statistics.median(times) * 1e6

    return per_call_us(cnn.forward, params, X), per_call_us(cnn.backward, params, X, dout)
