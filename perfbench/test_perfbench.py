"""Tests of the benchmark itself, on tiny versions of its workloads.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads
from convrates import cnn, complexity
from speed import Clock
from tracer import Span, Tracer, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"[A-Za-z0-9_.-]+")

TINY = {
    "rates": dict(ns=(100, 150, 200, 300), repeats=2, epochs=1, mc_samples=1000),
    "cover": dict(eps=(2.0, 1.5), trials=3),
    "verify": dict(neurons=3, d=3, s=2, link="log:4", points=1000, pieces="3:6"),
}


def traced_pass(name, tmp_path, seed=7):
    tmp_path.mkdir(parents=True, exist_ok=True)
    spans = Tracer().install()
    try:
        result = workloads.WORKLOADS[name](seed, str(tmp_path), **TINY[name]).run_pass(Clock())
    finally:
        spans.remove()
    return result, tracer.layer_metrics(spans.spans, (1.0, 1.0), 0.0)


def test_metric_names_are_well_formed_and_match_the_benchmark_file():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    assert all(NAME.fullmatch(name) for name in end_to_end + per_layer)
    assert end_to_end == list(run.END_TO_END_UNITS)
    assert per_layer == [name for name, _ in tracer.LAYER_METRICS]
    assert {m["unit"] for m in bench["end_to_end"]} == set(run.END_TO_END_UNITS.values())


def test_learnlab_steps_equal_the_schedule_count(tmp_path):
    result, metrics = traced_pass("rates", tmp_path)
    assert result.failed == 0
    expected = sum(
        TINY["rates"]["repeats"] * opts["restarts"] * TINY["rates"]["epochs"]
        * math.ceil(n / min(opts["batch_size"], n))
        for _, _, opts, _ in workloads.rate_studies()
        for n in TINY["rates"]["ns"]
    )
    assert metrics["learnlab.steps"] == expected == result.work
    assert metrics["cnn.backward.calls"] == expected
    assert metrics["learnlab.train_erm.calls"] == 3 * len(TINY["rates"]["ns"]) * TINY["rates"]["repeats"]
    assert metrics["complexity.candidates"] == metrics["compiler.compile.calls"] == 0


def test_cover_nets_equal_grid_size_plus_trials(tmp_path):
    result, metrics = traced_pass("cover", tmp_path)
    assert result.failed == 0
    c = complexity.cnn_param_lipschitz(2, 2, 1, 1, 1.0)
    grids = [(math.ceil(1.0 / (eps / c)) + 1) ** 5 for eps in TINY["cover"]["eps"]]
    expected = sum(g + TINY["cover"]["trials"] for g in grids)
    assert result.work == expected == metrics["cnn.forward.calls"]
    assert metrics["complexity.candidates"] == sum(grids)
    assert metrics["learnlab.steps"] == metrics["learnlab.train_erm.calls"] == 0


def test_exact_counts_repeat_across_runs(tmp_path):
    for name in ("rates", "cover", "verify"):
        first, a = traced_pass(name, tmp_path / f"{name}-a")
        second, b = traced_pass(name, tmp_path / f"{name}-b")
        counts = [n for n, unit in tracer.LAYER_METRICS if unit == "count"]
        assert {n: a[n] for n in counts} == {n: b[n] for n in counts}
        assert first.outputs == second.outputs


def test_traced_outputs_equal_untraced_outputs(tmp_path):
    untraced = workloads.VerifyWorkload(3, str(tmp_path), **TINY["verify"]).run_pass(Clock())
    traced, metrics = traced_pass("verify", tmp_path, seed=3)
    assert traced.outputs == untraced.outputs
    assert metrics["compiler.compile.calls"] == 1
    assert cnn.forward.__name__ == "forward" and not hasattr(cnn.forward, "__wrapped__")


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span(0, None, 1, "root", 0.0, 10.0),
        Span(1, 0, 1, "a", 1.0, 4.0),
        Span(2, 0, 1, "b", 3.0, 6.0),  # overlaps a: the root's children cover 1..6
        Span(3, 1, 1, "a.child", 2.0, 3.0),
        Span(4, 2, 1, "b.child", 5.0, 7.0),  # clipped to its parent's end at 6
        Span(5, None, 2, "other", 20.0, 21.0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 2.0, 1.0, 2.0, 1.0])


def test_without_the_package_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"),
                    dirs_exist_ok=True)
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rates", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
