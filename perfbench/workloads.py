"""The benchmark's workloads: inputs made from a seed, one pass of work, and
the checks that decide whether each operation in the pass succeeded.

Every workload drives the package through the entry points a user has: the
rate studies call `learnlab.run_rate_experiment` exactly as the acceptance
suite's criterion 10 does, and the other workloads hand generated INI configs
to `cli.load_config` and `cli.run`.  Constructing a workload is its set-up
(configs written and parsed, targets built); `run_pass` is the timed work and
repeats the same inputs every time it is called, so every pass must produce
the same outputs.

An operation is one verb invocation or one rate cell.  It fails on a
non-zero exit, a raised package error, a failed property check, a
`TrainingFailure`, or a non-finite or negative excess risk.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from convrates import cli, learnlab
from convrates.errors import ConfigError, PreconditionError, PropertyFailure, TrainingFailure

VERB_ERRORS = (ConfigError, PreconditionError, PropertyFailure, TrainingFailure)


class OpTimes(NamedTuple):
    """One operation's time and the part of it spent on counted work, raw and
    at the reference machine speed (see `speed`)."""

    wall_s: float
    norm_wall_s: float
    work_s: float
    norm_work_s: float


@dataclass
class PassResult:
    """What one pass did, how long it took, and what it produced.

    `work` counts the workload's unit of work (Adam steps, networks evaluated
    or layer-points); `times` holds an OpTimes per operation, in the same
    order every pass.  `outputs` must be equal between passes over the same
    inputs, traced or not.
    """

    work: int
    times: list
    attempted: int
    failed: int
    outputs: object = field(repr=False)
    diagnostics: dict = field(default_factory=dict)


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class VerbWorkload:
    """A workload made of CLI verb invocations on generated configs."""

    def __init__(self, seed, workdir, configs):
        self.seed = seed
        self.configs = []
        for name, verb, params in configs:
            path = os.path.join(workdir, f"{name}.ini")
            lines = ["[run]", f"verb = {verb}", f"seed = {seed}",
                     f"output = {os.path.join(workdir, name + '.csv')}", f"[{verb}]"]
            lines += [f"{key} = {value}" for key, value in params.items()]
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
            self.configs.append(cli.load_config(path))

    def run_pass(self, clock):
        work = failed = 0
        times, outputs = [], []
        for cfg in self.configs:
            with clock.op() as op:
                try:
                    ok = cli.run(cfg) == cli.EXIT_OK
                except VERB_ERRORS:
                    ok = False
            rows = _read_csv(cfg.output) if ok else []
            ok = ok and self.check(cfg, rows)
            failed += not ok
            op_work = self.work_of(cfg, rows) if ok else 0
            work += op_work
            counted = 1.0 if op_work else 0.0
            times.append(OpTimes(op.raw_s, op.norm_s, op.raw_s * counted, op.norm_s * counted))
            outputs.append(_read_bytes(cfg.output) if ok else None)
        return PassResult(work, times, len(self.configs), failed, outputs)

    def check(self, cfg, rows):
        return bool(rows) and all(row["passed"] == "true" for row in rows)

    def work_of(self, cfg, rows):
        return 0


class CoverWorkload(VerbWorkload):
    """Exhaustive `cover-check` on the tiny class (d=2, s=2, J=1, L=1, M=1).

    Each trial network is compared with every grid network, so a pass
    evaluates resolution^5 + trials networks per eps, one `cnn.forward` call
    each; the unit of work is one network evaluated.
    """

    def __init__(self, seed, workdir, eps=(1.0, 0.9), trials=20):
        self.trials = trials
        super().__init__(seed, workdir, [
            (f"cover-{i}", "cover-check",
             {"eps": e, "trials": trials, "exhaustive": "true"})
            for i, e in enumerate(eps)
        ])

    def check(self, cfg, rows):
        return super().check(cfg, rows) and all(
            int(row["candidates"]) == int(row["resolution"]) ** int(row["n_params"])
            and float(row["worst_distance"]) <= float(row["eps"])
            for row in rows
        )

    def work_of(self, cfg, rows):
        return sum(int(row["candidates"]) + self.trials for row in rows)


class VerifyWorkload(VerbWorkload):
    """`verify-compile` on a deep compiled net plus `approx-log` over many
    piece counts.

    The unit of work is one point pushed through one layer of the compiled
    CNN: points x depth per `verify-compile`; `approx-log` adds wall time only.
    """

    def __init__(self, seed, workdir, neurons=32, d=8, s=3, link="log:50",
                 points=10_000, pieces="3:200"):
        super().__init__(seed, workdir, [
            ("verify", "verify-compile",
             {"neurons": neurons, "d": d, "s": s, "link": link, "points": points}),
            ("approx-log", "approx-log", {"pieces": pieces}),
        ])

    def check(self, cfg, rows):
        if cfg.verb != "verify-compile":
            return super().check(cfg, rows)
        return super().check(cfg, rows) and all(
            float(row["max_rel_deviation"]) <= float(row["tolerance"])
            and float(row["norm_achieved"]) <= float(row["norm_bound"])
            for row in rows
        )

    def work_of(self, cfg, rows):
        if cfg.verb != "verify-compile":
            return 0
        return sum(cfg.params["points"] * int(row["depth"]) for row in rows)


def rate_studies():
    """The acceptance suite's three criterion-10 studies:
    (loss, target, training options, schedule constants)."""
    opts = dict(epochs=60, batch_size=128, restarts=2)
    return [
        ("squared",
         learnlab.make_regression_target(
             "trig-mixture",
             {"amps": [1.5, 1.0], "freqs": [1, 3], "coords": [0, 1],
              "phases": [0.3, 1.1], "d": 2}),
         dict(opts, learning_rate=0.02, final_learning_rate=0.002),
         learnlab.ScheduleConstants(1.0, 5.0, 2.0)),
        ("hinge", learnlab.make_eta_tsybakov(4.0),
         dict(opts, learning_rate=0.03, final_learning_rate=0.003),
         learnlab.ScheduleConstants(0.5, 3.0, 2.0)),
        ("logistic", learnlab.make_eta_svb(1.0),
         dict(opts, learning_rate=0.03, final_learning_rate=0.003),
         learnlab.ScheduleConstants(0.15, 2.0, 2.0)),
    ]


def train_steps(n, options):
    """Adam steps one cell takes: restarts * epochs * ceil(n / batch)."""
    batch = min(options["batch_size"], n)
    return options["restarts"] * options["epochs"] * math.ceil(n / batch)


class RatesWorkload:
    """The three criterion-10 rate studies on a shortened schedule.

    The schedule n = 256..2048 with one repeat per n still reaches depth L = 2
    for every loss; the base seed of every study is the workload seed.  The
    unit of work is one Adam minibatch step.
    """

    def __init__(self, seed, workdir=None, ns=(256, 512, 1024, 2048), repeats=1,
                 epochs=None, mc_samples=20_000):
        self.seed = seed
        self.ns = list(ns)
        self.repeats = repeats
        self.mc_samples = mc_samples
        self.studies = rate_studies()
        if epochs is not None:
            for _, _, opts, _ in self.studies:
                opts["epochs"] = epochs

    def run_pass(self, clock):
        cells = len(self.ns) * self.repeats
        work = failed = 0
        times, outputs, fits = [], [], {}
        for loss, spec, opts, consts in self.studies:
            noise = learnlab.NoiseSpec("gaussian", 0.25) if spec.kind == "regression" else None
            with clock.op() as op:
                try:
                    fit, rows = learnlab.run_rate_experiment(
                        spec, loss, self.ns, repeats=self.repeats, base_seed=self.seed,
                        noise=noise, consts=consts, train_options=dict(opts),
                        mc_samples=self.mc_samples,
                    )
                except TrainingFailure as exc:
                    fit, rows = None, getattr(exc, "partial_rows", [])
            failed += cells - len(rows)
            work_s = 0.0
            for row in rows:
                ok = math.isfinite(row.excess_risk) and row.excess_risk >= 0
                failed += not ok
                if ok:
                    work += train_steps(row.n, opts)
                    # cell time as the program reports it: sampling, training, measurement
                    work_s += row.wall_time
            times.append(OpTimes(op.raw_s, op.norm_s, work_s, work_s * op.factor))
            outputs += [(r.loss, r.n, r.L, r.M, r.B, r.seed, r.excess_risk, r.stderr)
                        for r in rows]
            if fit is not None:
                fits[loss] = {"inversions": fit.inversions(), "slope": fit.slope,
                              "theory_slope": fit.theory_slope}
        return PassResult(work, times, cells * len(self.studies), failed, outputs,
                          {"trend": fits})


WORKLOADS = {"rates": RatesWorkload, "cover": CoverWorkload, "verify": VerifyWorkload}


def excess_risk_max_rel_dev(outputs, reference):
    """Largest |risk - reference| / |reference| over the rate cells, or None
    when the reference does not cover these cells."""
    risks = np.array([row[6] for row in outputs])
    ref = np.asarray(reference, dtype=np.float64)
    if risks.shape != ref.shape:
        return None
    return float(np.max(np.abs(risks - ref) / np.abs(ref)))
