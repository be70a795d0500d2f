"""Benchmark of the convrates lab: rate studies, exhaustive cover checks and
compile verification, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py [--workload rates|cover|verify|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Each workload runs in fresh single-process subprocesses (`worker.py`) with
BLAS threads capped at the number of usable cores.  Untraced (`--trace 0`),
several set-up-only probes run first, then one worker repeats the workload's
pass for `--seconds`; the end-to-end metrics are printed, with times at a
reference machine speed (`speed.py`) and the raw times beside them.  Traced
(`--trace 1`), one worker runs an untraced and a traced pass and the
per-layer metrics are printed.  Every metric line names its unit; the last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  The full result, with the environment, is also
written to `perfbench/out/`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("rates", "cover", "verify")
SETUP_PROBES = 4
WORKLOAD_BUDGET_S = 170

# the unit of work behind work_per_s, by workload
WORK_NAMES = {
    "rates": "train_steps_per_s",
    "cover": "cover_nets_per_s",
    "verify": "verify_layer_points_per_s",
}
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}


class WorkerError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(name, seed, deadline, *extra):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError(f"{name}: out of time")
    cmd = [sys.executable, WORKER, "--workload", name, "--seed", str(seed), "--out", OUT, *extra]
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{name}: worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{name}: worker exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace):
    """Run one workload; return (result, metrics) where metrics maps a name
    to {"value", "unit"}."""
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    if trace:
        result = run_worker(name, seed, deadline, "--trace", "1")
        return result, result["layers"]
    setups = [run_worker(name, seed, deadline, "--setup-only") for _ in range(SETUP_PROBES)]
    result = run_worker(name, seed, deadline, "--seconds", str(seconds))
    setups.append(result)
    result["setup_probes"] = [{k: r[k] for k in ("raw_setup_s", "setup_s")} for r in setups]
    result["raw_setup_s"] = statistics.median(r["raw_setup_s"] for r in setups)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "wall_s": result["wall_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "work_per_s": result["work_per_s"],
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return result, metrics


def report(name, result, metrics, trace):
    print(f"[{name}] env {json.dumps(result['env'])}")
    for key, m in metrics.items():
        print(f"[{name}] {key} = {m['value']:.6g} {m['unit']}")
    if not trace:
        print(f"[{name}] {WORK_NAMES[name]} = {metrics['work_per_s']['value']:.6g} 1/s"
              f" (work_per_s on this workload; {result['work']} per pass,"
              f" {result['passes']} passes)")
        for key in ("raw_setup_s", "raw_wall_s", "raw_work_per_s"):
            print(f"[{name}] {key} = {result[key]:.6g} {END_TO_END_UNITS[key[4:]]}"
                  " (as measured, not normalized to the reference speed)")
    print(f"[{name}] fail_frac = {result['failed'] / result['attempted']:.6g}"
          f" ({result['failed']} of {result['attempted']} operations)")
    diag = result["diagnostics"]
    for loss, trend in diag.get("trend", {}).items():
        print(f"[{name}] diagnostic {loss}: {trend['inversions']} inversion(s),"
              f" slope {trend['slope']:+.3f} vs theory {trend['theory_slope']:+.3f}")
    if "excess_risk_max_rel_dev" in diag:
        dev = diag["excess_risk_max_rel_dev"]
        shown = "no reference for this seed" if dev is None else f"{dev:.3g}"
        print(f"[{name}] diagnostic rates.excess_risk_max_rel_dev = {shown}")
    if trace:
        print(f"[{name}] spans written to {result['trace_file']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "convrates", "__init__.py")):
        print(f"error: no convrates package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result, metrics = run_workload(name, args.seed, args.seconds, args.trace)
        except WorkerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report(name, result, metrics, args.trace)
        result["metrics"] = metrics
        path = os.path.join(OUT, f"result-{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(result, fh, indent=1)
        summary["correct"] &= result["failed"] == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
