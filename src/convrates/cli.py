"""Config-driven command line front end.

Usage: convrates CONFIG_FILE

The config is an INI-style text file.  A [run] section names the verb, the
global seed and the output path; a section named after the verb holds its
parameters.  Unknown sections or keys are errors.  Example:

    [run]
    verb = entropy
    seed = 0
    output = entropy.csv

    [entropy]
    d = 4
    s = 2
    J = 6
    L = 1:20
    M = 1,4,9,16, ...
    eps = 0.1

Verbs: compile, verify-compile, entropy, cover-check, approx-log,
check-ineq, experiment, fit-rate.  All CSV output is written with a fixed
header and 17-significant-digit floats, so identical configs and seeds
reproduce byte-identical files (the wall_time column of experiment results
is the one documented exception).  Relative output paths resolve against
$CONVRATES_OUTDIR when it is set; the output's directory must exist.

Exit codes: 0 success, 2 config error, 3 precondition violation, 4 property
check failed.  Failures emit a one-line JSON error record on stderr.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import os
import sys
import warnings
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import cnn, compiler, complexity, learnlab, links
from .errors import ConfigError, PreconditionError, PropertyFailure, TrainingFailure
from .sampling import unit_cube_points

VERBS = (
    "compile",
    "verify-compile",
    "entropy",
    "cover-check",
    "approx-log",
    "check-ineq",
    "experiment",
    "fit-rate",
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_PROPERTY = 4


# -- config parsing ---------------------------------------------------------


@dataclass
class CliConfig:
    verb: str
    seed: int
    output: str
    params: dict


def _parse_bool(text):
    t = text.strip().lower()
    if t in ("true", "yes", "1"):
        return True
    if t in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int_list(text):
    """Comma list of integers; 'a:b' expands to the inclusive range."""
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if ":" in piece:
            lo, hi = piece.split(":")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(piece))
    if not out:
        raise ValueError("empty integer list")
    return out


def _parse_float_list(text):
    out = [float(p) for p in text.split(",") if p.strip()]
    if not out:
        raise ValueError("empty float list")
    return out


def _parse_seed(text):
    seed = int(text)
    if seed < 0:
        raise ValueError(f"seed {seed} is negative")
    return seed


def _parse_str(text):
    return text.strip()


# field name -> (parser, default); _REQUIRED means the key must be present
_REQUIRED = object()

_SCHEMAS = {
    "entropy": {
        "d": (int, _REQUIRED),
        "s": (int, _REQUIRED),
        "J": (int, _REQUIRED),
        "L": (_parse_int_list, _REQUIRED),
        "M": (_parse_float_list, _REQUIRED),
        "eps": (_parse_float_list, _REQUIRED),
    },
    "cover-check": {
        "d": (int, 2),
        "s": (int, 2),
        "J": (int, 1),
        "L": (int, 1),
        "M": (float, 1.0),
        "eps": (_parse_float_list, _REQUIRED),
        "trials": (int, 100),
        "resolution": (int, 0),  # 0 -> derived from eps and the recursion
        "points": (int, 1000),
        "exhaustive": (_parse_bool, False),
    },
    "approx-log": {
        "pieces": (_parse_int_list, _REQUIRED),
        "grid": (int, 10_000),
    },
    "check-ineq": {
        "resolution": (int, 500),
        "u": (_parse_float_list, None),
    },
    "compile": {
        "s": (int, 2),
        "net_file": (_parse_str, None),
        "neurons": (int, 8),
        "d": (int, 2),
        "net_seed": (_parse_seed, 0),
        "link": (_parse_str, "none"),
        "report": (_parse_str, None),
    },
    "verify-compile": {
        "s": (int, 2),
        "net_file": (_parse_str, None),
        "neurons": (int, 8),
        "d": (int, 2),
        "net_seed": (_parse_seed, 0),
        "link": (_parse_str, "none"),
        "points": (int, 10_000),
        "tolerance": (float, 1e-10),
    },
    "experiment": {
        "loss": (_parse_str, _REQUIRED),
        "target": (_parse_str, _REQUIRED),
        "d": (int, 2),
        "target_seed": (_parse_seed, 0),
        "steepness": (float, 4.0),  # eta-ramp
        "beta": (float, 1.0),  # eta-svb
        "slope": (float, 4.0),  # coordinate-clamp
        "n_terms": (int, 2),  # mixtures
        "amps": (_parse_float_list, None),  # trig-mixture terms; None -> seeded draw
        "freqs": (_parse_float_list, None),
        "coords": (_parse_int_list, None),
        "phases": (_parse_float_list, None),
        "noise_kind": (_parse_str, "gaussian"),
        "noise_scale": (float, 0.25),
        "n_schedule": (_parse_int_list, _REQUIRED),
        "repeats": (int, 5),
        "l_const": (float, 0.0),  # 0 -> per-loss default
        "m_const": (float, 0.0),
        "b_const": (float, 0.0),
        "s": (int, 2),
        "J": (int, 6),
        "epochs": (int, 60),
        "batch_size": (int, 128),
        "learning_rate": (float, 0.02),
        "final_learning_rate": (float, 0.002),
        "restarts": (int, 2),
        "init_scale": (float, 1.0),
        "mc_samples": (int, 20_000),
    },
    "fit-rate": {
        "input": (_parse_str, _REQUIRED),
        "loss": (_parse_str, _REQUIRED),
        "alpha": (float, 1.0),
        "d": (int, 2),
        "q": (float, 1.0),
        "beta": (float, 1.0),
    },
}


def load_config(path):
    """Parse and validate a config file into a CliConfig."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (J, L, M)
    try:
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    if "run" not in parser:
        raise ConfigError("missing [run] section")
    run = dict(parser["run"])
    try:
        verb = run.pop("verb")
    except KeyError:
        raise ConfigError("[run] must set verb") from None
    if verb not in VERBS:
        raise ConfigError(f"unknown verb {verb!r}; valid: {', '.join(VERBS)}")
    try:
        seed = _parse_seed(run.pop("seed", "0"))
    except ValueError as exc:
        raise ConfigError(f"[run] seed: {exc}") from exc
    output = run.pop("output", None)
    if output is None:
        raise ConfigError("[run] must set output")
    if run:
        raise ConfigError(f"unknown [run] keys: {sorted(run)}")

    for section in parser.sections():
        if section not in ("run", verb):
            raise ConfigError(f"unexpected section [{section}] for verb {verb!r}")

    schema = _SCHEMAS[verb]
    raw = dict(parser[verb]) if verb in parser else {}
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown [{verb}] keys: {sorted(unknown)}")
    params = {}
    for key, (parse, default) in schema.items():
        if key in raw:
            try:
                params[key] = parse(raw[key])
            except ValueError as exc:
                raise ConfigError(f"[{verb}] {key}: {exc}") from exc
        elif default is _REQUIRED:
            raise ConfigError(f"[{verb}] missing required key {key!r}")
        else:
            params[key] = default
    return CliConfig(verb=verb, seed=seed, output=output, params=params)


def _require_directory(path):
    outdir = os.path.dirname(path)
    if outdir and not os.path.isdir(outdir):
        raise ConfigError(f"output directory {outdir!r} does not exist")


def _resolve_output(path):
    outdir = os.environ.get("CONVRATES_OUTDIR")
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


# -- CSV helpers ------------------------------------------------------------


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


# -- verb implementations ---------------------------------------------------


def _run_entropy(p, seed, output):
    Ls, Ms, eps_list = p["L"], p["M"], p["eps"]
    if len(Ms) == 1:
        Ms = Ms * len(Ls)
    if len(Ms) != len(Ls):
        raise ConfigError("M must be a scalar or match the length of L")
    rows = []
    for L, M in zip(Ls, Ms):
        spec = complexity.cnn_complexity_spec(p["d"], p["s"], p["J"], L, M)
        res = complexity.covering_recursion(spec)
        for eps in eps_list:
            bound = complexity.entropy_bound_cnn(p["d"], p["s"], p["J"], L, M, eps)
            rows.append(
                (p["d"], p["s"], p["J"], L, M, eps, res.n_params, res.param_lipschitz, bound)
            )
    _write_csv(
        output,
        ["d", "s", "J", "L", "M", "eps", "n_params", "param_lipschitz", "entropy_bound"],
        rows,
    )
    return EXIT_OK


def _run_cover_check(p, seed, output):
    rows = []
    all_passed = True
    for eps in p["eps"]:
        report = complexity.empirical_cover_check(
            p["d"],
            p["s"],
            p["J"],
            p["L"],
            p["M"],
            eps,
            grid_resolution=p["resolution"] or None,
            trials=p["trials"],
            seed=seed,
            n_points=p["points"],
            exhaustive=p["exhaustive"],
        )
        all_passed &= report.passed
        rows.append(
            (
                p["d"], p["s"], p["J"], p["L"], p["M"], eps,
                report.n_params, report.resolution, report.candidate_count,
                report.covering_radius, report.target_radius,
                report.worst_distance, report.passed,
            )
        )
    _write_csv(
        output,
        [
            "d", "s", "J", "L", "M", "eps", "n_params", "resolution",
            "candidates", "covering_radius", "target_radius",
            "worst_distance", "passed",
        ],
        rows,
    )
    if not all_passed:
        raise PropertyFailure("a cover-check trial exceeded eps")
    return EXIT_OK


def _run_approx_log(p, seed, output):
    if p["grid"] < 1:
        raise ConfigError(f"[approx-log] grid must be at least 1, not {p['grid']}")
    t = np.linspace(0.0, 1.0, p["grid"])
    rows = []
    ok = True
    for n in p["pieces"]:
        link = links.log_link_net(n)
        dev = float(np.max(np.abs(links.logistic(link(t)) - t)))
        bound = 3.0 / n
        norm = link.constraint_norm
        passed = dev <= bound and norm <= 6 * n
        ok &= passed
        rows.append((n, dev, bound, norm, 6 * n, passed))
    _write_csv(
        output,
        ["pieces", "max_deviation", "bound", "constraint_norm", "norm_limit", "passed"],
        rows,
    )
    if not ok:
        raise PropertyFailure("log-link guarantee violated")
    return EXIT_OK


def _run_check_ineq(p, seed, output):
    u_values = p["u"] if p["u"] is not None else np.geomspace(1e-6, math.exp(-2.0), 5)
    rows = []
    ok = True
    for u in u_values:
        report = links.check_log2_inequality(p["resolution"], u_values=[u])
        ok &= report.passed
        rows.append(
            (p["resolution"], u, report.min_slack, report.worst_point[0],
             report.worst_point[1], report.passed)
        )
    _write_csv(
        output,
        ["resolution", "u", "min_slack", "worst_p", "worst_q", "passed"],
        rows,
    )
    if not ok:
        raise PropertyFailure("squared-log inequality violated on the grid")
    return EXIT_OK


def _load_shallow_net(path):
    try:
        with warnings.catch_warnings():
            # loadtxt only warns on a file without data rows; make that an error
            warnings.simplefilter("error", UserWarning)
            rows = np.loadtxt(path, ndmin=2)
    except (OSError, ValueError, UserWarning) as exc:
        raise ConfigError(f"cannot read net file {path!r}: {exc}") from exc
    if rows.shape[1] < 3:
        raise ConfigError("net file rows must be: coeff a_1 ... a_d offset")
    return compiler.ShallowNet(rows[:, 0], rows[:, 1:-1], rows[:, -1])


def _make_net(p, seed):
    if p["net_file"]:
        return _load_shallow_net(p["net_file"])
    n, d = p["neurons"], p["d"]
    if n < 1 or d < 1:
        raise PreconditionError(f"a random net needs neurons >= 1 and d >= 1, not {n} and {d}")
    rng = np.random.default_rng([seed, p["net_seed"]])
    return compiler.ShallowNet(
        rng.standard_normal(n), rng.standard_normal((n, d)), rng.standard_normal(n)
    )


def _make_link(spec_text):
    if spec_text == "none":
        return None
    usage = f"link spec {spec_text!r} (use none, sign:<u>, log:<n>)"
    kind, _, arg = spec_text.partition(":")
    if kind not in ("sign", "log"):
        raise ConfigError(f"unknown {usage}")
    try:
        arg = float(arg) if kind == "sign" else int(arg)
    except ValueError:
        raise ConfigError(f"malformed {usage}") from None
    build = links.sign_link_net if kind == "sign" else links.log_link_net
    return build(arg).net


def _compile_net(p, seed):
    net = _make_net(p, seed)
    link = _make_link(p["link"])
    if link is None:
        params, report = compiler.shallow_to_cnn(net, p["s"])
        reference = net
    else:
        params, report = compiler.compose_with_scalar_net(net, link, p["s"])
        reference = lambda X: link(net(X))
    return net, params, report, reference


def _run_compile(p, seed, output):
    report_path = _resolve_output(p["report"]) if p["report"] else output + ".report"
    _require_directory(report_path)
    _, params, report, _ = _compile_net(p, seed)
    cnn.save_cnn(params, output)
    with open(report_path, "w") as fh:
        fh.write(
            "\n".join(
                [
                    f"depth {report.depth}",
                    f"channels {report.channels}",
                    f"sweep_depth {report.sweep_depth}",
                    f"norm_achieved {report.norm_achieved:.17g}",
                    f"norm_bound {report.norm_bound:.17g}",
                ]
            )
            + "\n"
        )
    return EXIT_OK


def _run_verify_compile(p, seed, output):
    if not 0 <= p["tolerance"] < math.inf:
        raise ConfigError(
            f"[verify-compile] tolerance must be finite and nonnegative, not {p['tolerance']}"
        )
    net, params, report, reference = _compile_net(p, seed)
    X = unit_cube_points(net.d, p["points"], seed=seed)
    ref = reference(X)
    dev = float(np.max(np.abs(cnn.forward(params, X) - ref) / (1.0 + np.abs(ref))))
    passed = dev <= p["tolerance"] and report.norm_achieved <= report.norm_bound
    _write_csv(
        output,
        ["neurons", "d", "s", "depth", "max_rel_deviation", "tolerance",
         "norm_achieved", "norm_bound", "passed"],
        [(net.n_neurons, net.d, p["s"], report.depth, dev, p["tolerance"],
          report.norm_achieved, report.norm_bound, passed)],
    )
    print(
        f"max relative deviation {dev:.3e} (tolerance {p['tolerance']:.1e}); "
        f"path norm {report.norm_achieved:.6g} <= bound {report.norm_bound:.6g}"
    )
    if not passed:
        raise PropertyFailure("compiled network failed verification")
    return EXIT_OK


_TRIG_TERMS = ("amps", "freqs", "coords", "phases")


def _make_target(p):
    kind = p["target"]
    if p["d"] < 2 or p["n_terms"] < 1:  # the networks need d >= 2
        raise ConfigError(f"[experiment] needs d >= 2 and n_terms >= 1: {p['d']}, {p['n_terms']}")
    terms = {key: p[key] for key in _TRIG_TERMS if p[key] is not None}
    if terms and kind != "trig-mixture":
        raise ConfigError(f"{', '.join(terms)} set the terms of a trig-mixture, not {kind!r}")
    if kind in ("trig-mixture", "gaussian-bump-mixture"):
        return learnlab.make_regression_target(
            kind, {"n_terms": p["n_terms"], "d": p["d"], **terms}, seed=p["target_seed"]
        )
    if kind == "coordinate-clamp":
        return learnlab.make_regression_target(
            kind, {"slope": p["slope"], "d": p["d"]}, seed=p["target_seed"]
        )
    if kind == "eta-ramp":
        return learnlab.make_eta_tsybakov(p["steepness"], d=p["d"])
    if kind == "eta-step":
        return learnlab.make_eta_tsybakov(float("inf"), d=p["d"])
    if kind == "eta-svb":
        return learnlab.make_eta_svb(p["beta"], d=p["d"])
    raise ConfigError(f"unknown target {kind!r}")


_RESULT_HEADER = [f.name for f in fields(learnlab.ExperimentRow)]


def write_results(path, rows, fit=None):
    """Write rate-experiment rows as a results CSV, plus a summary row for `fit`.

    The columns are the fields of `learnlab.ExperimentRow`.  The summary row
    is labelled "ratefit" and carries the slope, intercept and theory slope
    in the M, B and excess_risk columns.
    """
    if fit is not None:
        summary = ("ratefit", 0, 0, fit.slope, fit.intercept, 0, fit.theory_slope, 0.0, 0.0)
        rows = [*rows, learnlab.ExperimentRow(*summary)]
    _write_csv(path, _RESULT_HEADER, map(astuple, rows))


_TRAIN_KEYS = ("s", "J", "epochs", "batch_size", "learning_rate", "restarts", "init_scale")


def _run_experiment(p, seed, output):
    spec = _make_target(p)
    loss = p["loss"]
    if loss not in learnlab.LOSSES:
        raise ConfigError(f"unknown loss {loss!r}")
    consts = learnlab.default_constants(loss)
    for key in ("l_const", "m_const", "b_const"):  # 0 keeps the per-loss default
        if p[key]:
            setattr(consts, key, p[key])
    regression = spec.kind == "regression"
    noise = learnlab.NoiseSpec(p["noise_kind"], p["noise_scale"]) if regression else None
    train_options = {key: p[key] for key in _TRAIN_KEYS}
    train_options["final_learning_rate"] = p["final_learning_rate"] or None
    try:
        fit, rows = learnlab.run_rate_experiment(
            spec, loss, p["n_schedule"], repeats=p["repeats"], base_seed=seed, noise=noise,
            consts=consts, train_options=train_options, mc_samples=p["mc_samples"],
        )
    except TrainingFailure as exc:
        write_results(output, exc.partial_rows)
        raise
    write_results(output, rows, fit)
    print(
        f"{loss}: fitted slope {fit.slope:+.3f} (theory {fit.theory_slope:+.3f}), "
        f"mean errors {np.array2string(fit.mean_errors, precision=5)}"
    )
    return EXIT_OK


def _run_fit_rate(p, seed, output):
    try:
        fh = open(p["input"], newline="")
    except OSError as exc:
        raise ConfigError(f"cannot read results file {p['input']!r}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != _RESULT_HEADER:
            raise ConfigError(f"unexpected results header in {p['input']!r}")
        cells = []
        for row in reader:
            if row["loss"] == "ratefit":
                continue
            try:
                n, risk = float(int(row["n"])), float(row["excess_risk"])
                if not math.isfinite(risk):
                    raise ValueError(f"non-finite excess_risk {row['excess_risk']!r}")
            except (TypeError, ValueError, OverflowError) as exc:  # overflow: n beyond float64
                raise ConfigError(
                    f"malformed results row {reader.line_num} in {p['input']!r}: {exc}"
                ) from exc
            cells.append((n, risk))
    if not cells:
        raise ConfigError("no data rows in results file")
    theory = learnlab.theory_slope(p["loss"], p["alpha"], p["d"], q=p["q"], beta=p["beta"])
    fit = learnlab.fit_rate(cells, theory)
    _write_csv(
        output,
        ["slope", "intercept", "theory_slope"],
        [(fit.slope, fit.intercept, fit.theory_slope)],
    )
    print(f"fitted slope {fit.slope:+.4f}, intercept {fit.intercept:+.4f}, "
          f"theory {fit.theory_slope:+.4f}")
    return EXIT_OK


_HANDLERS = {
    "entropy": _run_entropy,
    "cover-check": _run_cover_check,
    "approx-log": _run_approx_log,
    "check-ineq": _run_check_ineq,
    "compile": _run_compile,
    "verify-compile": _run_verify_compile,
    "experiment": _run_experiment,
    "fit-rate": _run_fit_rate,
}


def run(config):
    """Dispatch a validated CliConfig; returns the process exit code."""
    output = _resolve_output(config.output)
    _require_directory(output)
    return _HANDLERS[config.verb](config.params, config.seed, output)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="convrates",
        description="norm-constrained CNN calculus: compilation, entropy, links, rates",
    )
    parser.add_argument("config", help="path to an INI-style run configuration")
    args = parser.parse_args(argv)
    try:
        return run(load_config(args.config))
    except ConfigError as exc:
        _emit_error("config", EXIT_CONFIG, exc)
        return EXIT_CONFIG
    except TrainingFailure as exc:
        # partial results were already written by the experiment handler
        _emit_error("training", EXIT_PRECONDITION, exc)
        return EXIT_PRECONDITION
    except PreconditionError as exc:
        _emit_error("precondition", EXIT_PRECONDITION, exc)
        return EXIT_PRECONDITION
    except PropertyFailure as exc:
        _emit_error("property", EXIT_PROPERTY, exc)
        return EXIT_PROPERTY


def _emit_error(kind, code, exc):
    record = {"error": kind, "exit_code": code, "detail": str(exc)}
    print(json.dumps(record), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
