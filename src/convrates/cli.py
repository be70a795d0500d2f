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
check-ineq, experiment, fit-rate.  A verb is one entry of the `_VERBS`
table: its handler, registered with `@_verb` together with the keys of its
section.  A handler builds its rows as dicts, so its columns are its rows'
keys.  Every file a verb writes but `compile`'s network file is a CSV
written by `_write_rows` with a fixed header and 17-significant-digit
floats, so identical configs and seeds reproduce byte-identical files (the
wall_time column of experiment results is the one documented exception).
`experiment` writes its cells to the output and its rate fit to
`<output>.fit`, the one-row `slope,intercept,theory_slope` record that
`fit-rate` writes.  Relative output paths resolve against $CONVRATES_OUTDIR
when it is set; the output's directory must exist.

Exit codes: 0 success, 2 config error, 3 precondition violation, 4 property
check failed.  Failures emit a one-line JSON error record on stderr.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import cnn, compiler, complexity, learnlab, links
from .errors import ConfigError, PreconditionError, PropertyFailure, TrainingFailure, check_size
from .sampling import spawn_rng, unit_cube_points

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


# entries in one 'a:b' range; the longest shipped range has 198
_MAX_RANGE = 1_000_000


def _parse_int_list(text):
    """Comma list of integers; 'a:b' with a <= b expands to the inclusive range."""
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if ":" in piece:
            lo, hi = map(int, piece.split(":"))
            check_size(f"the length of range {piece!r}", hi - lo + 1, limit=_MAX_RANGE,
                       error=ConfigError)
            out.extend(range(lo, hi + 1))
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


# a schema maps each key of a section to (parser, default); _REQUIRED means
# the key must be present
_REQUIRED = object()

_RUN_SCHEMA = {
    "verb": (_parse_str, _REQUIRED),
    "seed": (_parse_seed, 0),
    "output": (_parse_str, _REQUIRED),
}

_VERBS = {}  # verb -> (schema, handler), in the order of `VERBS`


def _verb(name, **schema):
    """Register the decorated handler(params, seed, output) as verb `name`."""

    def register(handler):
        _VERBS[name] = (schema, handler)
        return handler

    return register


def _parse_section(parser, section, schema):
    raw = dict(parser[section]) if section in parser else {}
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown [{section}] keys: {sorted(unknown)}")
    params = {}
    for key, (parse, default) in schema.items():
        if key in raw:
            try:
                params[key] = parse(raw[key])
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc
        elif default is _REQUIRED:
            raise ConfigError(f"[{section}] missing required key {key!r}")
        else:
            params[key] = default
    return params


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

    run = _parse_section(parser, "run", _RUN_SCHEMA)
    verb = run["verb"]
    if verb not in VERBS:
        raise ConfigError(f"unknown verb {verb!r}; valid: {', '.join(VERBS)}")
    for section in parser.sections():
        if section not in ("run", verb):
            raise ConfigError(f"unexpected section [{section}] for verb {verb!r}")
    params = _parse_section(parser, verb, _VERBS[verb][0])
    return CliConfig(verb=verb, seed=run["seed"], output=run["output"], params=params)


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


def _write_rows(path, rows, failure=None, header=None):
    """Write a list of dict rows as CSV under `header` (default: the first
    row's keys), then raise PropertyFailure(failure) if a row did not pass."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header or list(rows[0]))
        writer.writerows([_fmt(v) for v in row.values()] for row in rows)
    if not all(row.get("passed", True) for row in rows):
        raise PropertyFailure(failure)


# -- verb implementations ---------------------------------------------------


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
    check_size("a random net's neurons * d", n * d)
    rng = spawn_rng(seed, p["net_seed"])
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
    return build(arg)


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


_NET_KEYS = {
    "s": (int, 2),
    "net_file": (_parse_str, None),
    "neurons": (int, 8),
    "d": (int, 2),
    "net_seed": (_parse_seed, 0),
    "link": (_parse_str, "none"),
}


@_verb("compile", **_NET_KEYS, report=(_parse_str, None))
def _run_compile(p, seed, output):
    report_path = _resolve_output(p["report"]) if p["report"] else output + ".report"
    _require_directory(report_path)
    _, params, report, _ = _compile_net(p, seed)
    cnn.save_cnn(params, output)
    keys = ("depth", "channels", "sweep_depth", "norm_achieved", "norm_bound")
    _write_rows(report_path, [{key: getattr(report, key) for key in keys}])


@_verb("verify-compile", **_NET_KEYS, points=(int, 10_000), tolerance=(float, 1e-10))
def _run_verify_compile(p, seed, output):
    tolerance = p["tolerance"]
    if not 0 <= tolerance < math.inf:
        raise ConfigError(
            f"[verify-compile] tolerance must be finite and nonnegative, not {tolerance}"
        )
    net, params, report, reference = _compile_net(p, seed)
    # the forward pass holds (points, d, J) grids
    check_size("[verify-compile] points * d * J", p["points"] * net.d * params.J)
    X = unit_cube_points(net.d, p["points"], seed=seed)
    ref = reference(X)
    dev = float(np.max(np.abs(cnn.forward(params, X) - ref) / (1.0 + np.abs(ref))))
    print(
        f"max relative deviation {dev:.3e} (tolerance {tolerance:.1e}); "
        f"path norm {report.norm_achieved:.6g} <= bound {report.norm_bound:.6g}"
    )
    row = {
        "neurons": net.n_neurons, "d": net.d, "s": p["s"], "depth": report.depth,
        "max_rel_deviation": dev, "tolerance": tolerance,
        "norm_achieved": report.norm_achieved, "norm_bound": report.norm_bound,
        "passed": dev <= tolerance and report.norm_achieved <= report.norm_bound,
    }
    _write_rows(output, [row], "compiled network failed verification")


@_verb(
    "entropy",
    d=(int, _REQUIRED),
    s=(int, _REQUIRED),
    J=(int, _REQUIRED),
    L=(_parse_int_list, _REQUIRED),
    M=(_parse_float_list, _REQUIRED),
    eps=(_parse_float_list, _REQUIRED),
)
def _run_entropy(p, seed, output):
    d, s, J, Ls, Ms = p["d"], p["s"], p["J"], p["L"], p["M"]
    if len(Ms) == 1:
        Ms = Ms * len(Ls)
    if len(Ms) != len(Ls):
        raise ConfigError("M must be a scalar or match the length of L")
    rows = []
    for L, M in zip(Ls, Ms):
        res = complexity.covering_recursion(complexity.cnn_complexity_spec(d, s, J, L, M))
        for eps in p["eps"]:
            rows.append({
                "d": d, "s": s, "J": J, "L": L, "M": M, "eps": eps,
                "n_params": res.n_params, "param_lipschitz": res.param_lipschitz,
                "entropy_bound": complexity.entropy_bound_cnn(d, s, J, L, M, eps),
            })
    _write_rows(output, rows)


@_verb(
    "cover-check",
    d=(int, 2),
    s=(int, 2),
    J=(int, 1),
    L=(int, 1),
    M=(float, 1.0),
    eps=(_parse_float_list, _REQUIRED),
    trials=(int, 100),
    resolution=(int, 0),  # 0 -> derived from eps and the recursion
    points=(int, 1000),
    exhaustive=(_parse_bool, False),
)
def _run_cover_check(p, seed, output):
    arch = {key: p[key] for key in ("d", "s", "J", "L", "M")}
    rows = []
    for eps in p["eps"]:
        report = complexity.empirical_cover_check(
            **arch,
            eps=eps,
            grid_resolution=p["resolution"] or None,
            trials=p["trials"],
            seed=seed,
            n_points=p["points"],
            exhaustive=p["exhaustive"],
        )
        rows.append({
            **arch, "eps": eps, "n_params": report.n_params, "resolution": report.resolution,
            "candidates": report.candidate_count, "covering_radius": report.covering_radius,
            "target_radius": report.target_radius, "worst_distance": report.worst_distance,
            "passed": report.passed,
        })
    _write_rows(output, rows, "a cover-check trial exceeded eps")


@_verb("approx-log", pieces=(_parse_int_list, _REQUIRED), grid=(int, 10_000))
def _run_approx_log(p, seed, output):
    check_size("[approx-log] grid", p["grid"], error=ConfigError)
    t = np.linspace(0.0, 1.0, p["grid"])
    rows = []
    for n in p["pieces"]:
        link = links.log_link_net(n)
        dev = float(np.max(np.abs(links.logistic(link(t)) - t)))
        bound, norm = 3.0 / n, compiler.shallow_norm(link)
        rows.append({
            "pieces": n, "max_deviation": dev, "bound": bound, "constraint_norm": norm,
            "norm_limit": 6 * n, "passed": dev <= bound and norm <= 6 * n,
        })
    _write_rows(output, rows, "log-link guarantee violated")


@_verb("check-ineq", resolution=(int, 500), u=(_parse_float_list, None))
def _run_check_ineq(p, seed, output):
    rows = []
    for u in p["u"] or links.log2_u_values():
        report = links.check_log2_inequality(p["resolution"], u_values=[u])
        rows.append({
            "resolution": p["resolution"], "u": u, "min_slack": report.min_slack,
            "worst_p": report.worst_point[0], "worst_q": report.worst_point[1],
            "passed": report.passed,
        })
    _write_rows(output, rows, "squared-log inequality violated on the grid")


_TRIG_TERMS = ("amps", "freqs", "coords", "phases")
_MIXTURES = ("trig-mixture", "gaussian-bump-mixture")
_REGRESSION_TARGETS = (*_MIXTURES, "coordinate-clamp")
_TARGETS = (*_REGRESSION_TARGETS, "eta-ramp", "eta-step", "eta-svb")

# [experiment] keys that only some targets read: key -> (parser, the targets
# that read it, the value it takes unset); setting one for another target is
# a config error
_TARGET_KEYS = {
    "target_seed": (_parse_seed, _MIXTURES, 0),
    "steepness": (float, ("eta-ramp",), 4.0),
    "beta": (float, ("eta-svb",), 1.0),
    "slope": (float, ("coordinate-clamp",), 4.0),
    "n_terms": (int, _MIXTURES, 2),
    # the trig-mixture terms; unset, they are drawn from target_seed
    "amps": (_parse_float_list, ("trig-mixture",), None),
    "freqs": (_parse_float_list, ("trig-mixture",), None),
    "coords": (_parse_int_list, ("trig-mixture",), None),
    "phases": (_parse_float_list, ("trig-mixture",), None),
    "noise_kind": (_parse_str, _REGRESSION_TARGETS, "gaussian"),
    "noise_scale": (float, _REGRESSION_TARGETS, 0.25),
}


def _target_options(p):
    """`p` with each `_TARGET_KEYS` key its target reads, unset ones at their
    defaults; a key set for a target that does not read it is a ConfigError."""
    kind = p["target"]
    if kind not in _TARGETS:
        raise ConfigError(f"unknown target {kind!r}")
    unread = [key for key, (_, readers, _) in _TARGET_KEYS.items()
              if p[key] is not None and kind not in readers]
    if unread:
        raise ConfigError(f"[experiment] target {kind!r} does not read {', '.join(unread)}")
    return {**p, **{key: default for key, (_, _, default) in _TARGET_KEYS.items()
                    if p[key] is None}}


def make_target(p):
    """The `TargetSpec` an `[experiment]` section's options `p` name, as
    `_target_options` returns them."""
    kind, d = p["target"], p["d"]
    check_size("[experiment] d", d, low=2, error=ConfigError)  # the networks need d >= 2
    if kind in _MIXTURES:
        check_size("[experiment] n_terms", p["n_terms"], error=ConfigError)
        terms = {key: p[key] for key in _TRIG_TERMS if p[key] is not None}
        return learnlab.make_regression_target(
            kind, {"n_terms": p["n_terms"], "d": d, **terms}, seed=p["target_seed"]
        )
    if kind == "coordinate-clamp":
        return learnlab.make_regression_target(kind, {"slope": p["slope"], "d": d})
    if kind == "eta-ramp":
        return learnlab.make_eta_tsybakov(p["steepness"], d=d)
    if kind == "eta-step":
        return learnlab.make_eta_tsybakov(float("inf"), d=d)
    return learnlab.make_eta_svb(p["beta"], d=d)


_RESULT_HEADER = [f.name for f in fields(learnlab.ExperimentRow)]


def _write_fit(path, fit):
    """Write a `learnlab.RateFit` as the one-row fit record."""
    keys = ("slope", "intercept", "theory_slope")
    _write_rows(path, [{key: getattr(fit, key) for key in keys}])


_TRAIN_KEYS = ("s", "J", "epochs", "batch_size", "learning_rate", "restarts", "init_scale")


@_verb(
    "experiment",
    loss=(_parse_str, _REQUIRED),
    target=(_parse_str, _REQUIRED),
    d=(int, 2),
    **{key: (parse, None) for key, (parse, _, _) in _TARGET_KEYS.items()},
    n_schedule=(_parse_int_list, _REQUIRED),
    repeats=(int, 5),
    l_const=(float, 0.0),  # 0 -> per-loss default
    m_const=(float, 0.0),
    b_const=(float, None),  # None: unset; the hinge loss refuses a set one
    s=(int, 2),
    J=(int, 6),
    epochs=(int, 60),
    batch_size=(int, 128),
    learning_rate=(float, 0.02),
    final_learning_rate=(float, 0.002),
    restarts=(int, 2),
    init_scale=(float, 1.0),
    mc_samples=(int, 20_000),
)
def _run_experiment(p, seed, output):
    p = _target_options(p)
    spec = make_target(p)
    loss = p["loss"]
    if loss not in learnlab.LOSSES:
        raise ConfigError(f"unknown loss {loss!r}")
    if loss == "hinge" and p["b_const"] is not None:
        raise ConfigError("[experiment] loss 'hinge' does not read b_const: its B is fixed at 1")
    consts = learnlab.default_constants(loss)
    for key in ("l_const", "m_const", "b_const"):  # unset or 0 keeps the per-loss default
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
        _write_rows(output, [asdict(row) for row in exc.partial_rows], header=_RESULT_HEADER)
        with contextlib.suppress(FileNotFoundError):  # an earlier run's fit of other cells
            os.remove(output + ".fit")
        raise
    _write_rows(output, [asdict(row) for row in rows], header=_RESULT_HEADER)
    _write_fit(output + ".fit", fit)
    print(
        f"{loss}: fitted slope {fit.slope:+.3f} (theory {fit.theory_slope:+.3f}), "
        f"mean errors {np.array2string(fit.mean_errors, precision=5)}"
    )


@_verb(
    "fit-rate",
    input=(_parse_str, _REQUIRED),
    loss=(_parse_str, _REQUIRED),
    alpha=(float, 1.0),
    d=(int, 2),
    q=(float, 1.0),
    beta=(float, 1.0),
)
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
            where = f"results row {reader.line_num} in {p['input']!r}"
            if row["loss"] != p["loss"]:
                raise ConfigError(f"{where} has loss {row['loss']!r}, not {p['loss']!r}")
            try:
                n, risk = float(int(row["n"])), float(row["excess_risk"])
                if not math.isfinite(risk):
                    raise ValueError(f"non-finite excess_risk {row['excess_risk']!r}")
            except (TypeError, ValueError, OverflowError) as exc:  # overflow: n beyond float64
                raise ConfigError(f"malformed {where}: {exc}") from exc
            cells.append((n, risk))
    if not cells:
        raise ConfigError("no data rows in results file")
    theory = learnlab.theory_slope(p["loss"], p["alpha"], p["d"], q=p["q"], beta=p["beta"])
    fit = learnlab.fit_rate(cells, theory)
    _write_fit(output, fit)
    print(f"fitted slope {fit.slope:+.4f}, intercept {fit.intercept:+.4f}, "
          f"theory {fit.theory_slope:+.4f}")


VERBS = tuple(_VERBS)


def run(config):
    """Dispatch a validated CliConfig; returns the process exit code."""
    output = _resolve_output(config.output)
    _require_directory(output)
    _VERBS[config.verb][1](config.params, config.seed, output)
    return EXIT_OK


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
