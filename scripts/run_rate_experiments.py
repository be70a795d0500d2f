#!/usr/bin/env python3
"""Run the three convergence-rate experiments and write results + fits.

Reproduces the trend study at desk scale: for each loss, train constrained
CNNs across the sample-size schedule n = 2^8 .. 2^13 (5 seeds per cell),
measure the excess risk by Monte Carlo, and fit the log-log slope.  The
theoretical exponent is printed next to each fit for comparison; at this
scale it is a reference line, not a target the fit is expected to hit.

Usage: python scripts/run_rate_experiments.py [outdir] [--quick]
"""

import argparse
import pathlib
import sys

import numpy as np

from convrates.cli import write_results
from convrates.learnlab import (
    NoiseSpec,
    default_constants,
    make_eta_svb,
    make_eta_tsybakov,
    make_regression_target,
    run_rate_experiment,
)

EXPERIMENTS = {
    "squared": dict(
        spec=lambda: make_regression_target(
            "trig-mixture",
            {"amps": [1.5, 1.0], "freqs": [1, 3], "coords": [0, 1],
             "phases": [0.3, 1.1], "d": 2},
        ),
        noise=NoiseSpec("gaussian", 0.25),
        opts=dict(epochs=60, batch_size=128, learning_rate=0.02,
                  final_learning_rate=0.002, restarts=2),
    ),
    "hinge": dict(
        spec=lambda: make_eta_tsybakov(4.0),
        noise=None,
        opts=dict(epochs=60, batch_size=128, learning_rate=0.03,
                  final_learning_rate=0.003, restarts=2),
    ),
    "logistic": dict(
        spec=lambda: make_eta_svb(1.0),
        noise=None,
        opts=dict(epochs=60, batch_size=128, learning_rate=0.03,
                  final_learning_rate=0.003, restarts=2),
    ),
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("outdir", nargs="?", default="results")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--quick", action="store_true",
        help="small schedule and budgets, for a fast end-to-end check",
    )
    args = parser.parse_args(argv)

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    ns = [2**k for k in range(8, 14)]
    if args.quick:
        ns = [64, 128, 256, 512]

    for loss, setup in EXPERIMENTS.items():
        opts = dict(setup["opts"])
        if args.quick:
            opts.update(epochs=10, restarts=1)
        fit, rows = run_rate_experiment(
            setup["spec"](),
            loss,
            ns,
            repeats=args.repeats if not args.quick else 2,
            base_seed=args.seed,
            noise=setup["noise"],
            consts=default_constants(loss),
            train_options=opts,
            mc_samples=20_000 if not args.quick else 4_000,
        )
        path = outdir / f"rates_{loss}.csv"
        write_results(path, rows, fit)
        errs = np.array2string(fit.mean_errors, precision=5)
        print(
            f"{loss:>8}: slope {fit.slope:+.3f} (theory {fit.theory_slope:+.3f}) "
            f"means {errs} -> {path}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
