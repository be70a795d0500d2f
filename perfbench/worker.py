"""Run one workload in this process and print its result as one JSON line.

`run.py` starts this script in a fresh process per workload (and per set-up
probe), so imports, peak memory and set-up time belong to one workload.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

Set-up is everything from process start to a constructed workload: imports,
configs written and parsed, targets built.  Untraced, the worker then repeats
passes for about `--seconds` (at least three) and reports, for each time,
the sum over operations of the operation's median over passes.  Traced,
it runs two untraced passes and one traced pass over the same inputs and a
micro-sweep of the training-shape kernels, and reports the per-layer metrics.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference_rates.json")


def environment(workload, seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
    }


def failures(result, reference):
    """Failed operations of a pass: its own failures plus outputs that differ
    from the reference pass's, at most one per operation attempted."""
    a, b = result.outputs, reference.outputs
    differ = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
    return min(result.attempted, result.failed + differ)


def diagnostics(name, seed, first):
    out = dict(first.diagnostics)
    if name == "rates":
        with open(REFERENCE) as fh:
            reference = json.load(fh).get(str(seed))
        out["excess_risk_max_rel_dev"] = (
            None if reference is None
            else workloads.excess_risk_max_rel_dev(first.outputs, reference)
        )
    return out


def op_median_sum(passes, field):
    """Sum over operations of each operation's median time over passes, so a
    machine-state switch spoils one operation's sample, not a whole pass."""
    columns = zip(*([getattr(t, field) for t in p.times] for p in passes))
    return sum(statistics.median(column) for column in columns)


def timed_run(name, seed, workload, seconds):
    clock = speed.Clock()
    passes = []
    t_start = time.perf_counter()
    # at least three passes, so the median passes over one outlier; after that,
    # no pass that would likely end after `seconds`
    while len(passes) < 3 or (time.perf_counter() - t_start
                              + op_median_sum(passes, "wall_s")) <= seconds:
        passes.append(workload.run_pass(clock))
    first = passes[0]
    return {
        "passes": len(passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(failures(p, first) for p in passes),
        "work": first.work,
        "raw_wall_s": op_median_sum(passes, "wall_s"),
        "wall_s": op_median_sum(passes, "norm_wall_s"),
        "raw_work_per_s": first.work / (op_median_sum(passes, "work_s") or math.inf),
        "work_per_s": first.work / (op_median_sum(passes, "norm_work_s") or math.inf),
        "diagnostics": diagnostics(name, seed, first),
    }


def traced_run(name, seed, workload, workdir, trace_path):
    # the first pass in a process pays for first-touch memory; compare the
    # traced pass with a second, warm untraced pass
    clock = speed.Clock()
    warm = workload.run_pass(clock)
    untraced = workload.run_pass(clock)
    spans = tracer.Tracer().install()
    try:
        traced = workloads.WORKLOADS[name](seed, workdir).run_pass(clock)
    finally:
        spans.remove()
    spans.write_jsonl(trace_path)
    overhead = op_median_sum([traced], "norm_wall_s") / op_median_sum([untraced], "norm_wall_s") - 1
    values = tracer.layer_metrics(spans.spans, tracer.train_shape_us(seed), overhead)
    layers = {m: {"value": values[m], "unit": unit} for m, unit in tracer.LAYER_METRICS}
    return {
        "passes": 3,
        "attempted": warm.attempted + untraced.attempted + traced.attempted,
        "failed": sum(failures(p, warm) for p in (warm, untraced, traced)),
        "work": warm.work,
        "layers": layers,
        "trace_file": os.path.relpath(trace_path),
        "diagnostics": diagnostics(name, seed, warm),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", default=os.path.join(HERE, "out"))
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        raw_setup_s = time.perf_counter() - T0
        result = {"raw_setup_s": raw_setup_s,
                  "setup_s": raw_setup_s * speed.REFERENCE_PROBE_S / speed.probe_s()}
        if args.trace:
            trace_path = os.path.join(args.out, f"trace-{args.workload}-seed{args.seed}.jsonl")
            result.update(traced_run(args.workload, args.seed, workload, workdir, trace_path))
        elif not args.setup_only:
            result.update(timed_run(args.workload, args.seed, workload, args.seconds))
    finally:
        shutil.rmtree(workdir)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["env"] = environment(args.workload, args.seed)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
