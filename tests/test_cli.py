"""CLI: config validation, verb outputs, exit codes, determinism."""

import contextlib
import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convrates import cli, cnn, complexity, learnlab
from convrates.compiler import ShallowNet
from convrates.errors import ConfigError

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_empty_file(self, tmp_path):
        cfg = write_config(tmp_path, "")
        assert cli.main([cfg]) == cli.EXIT_CONFIG

    def test_missing_verb(self, tmp_path):
        cfg = write_config(tmp_path, "[run]\nseed = 0\noutput = x.csv\n")
        with pytest.raises(ConfigError):
            cli.load_config(cfg)

    def test_unknown_verb(self, tmp_path):
        cfg = write_config(tmp_path, "[run]\nverb = dance\nseed = 0\noutput = x\n")
        with pytest.raises(ConfigError, match="unknown verb"):
            cli.load_config(cfg)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[run]\nverb = approx-log\nseed = 0\noutput = x\n"
            "[approx-log]\npieces = 3\nextra = 1\n",
        )
        with pytest.raises(ConfigError, match="unknown \\[approx-log\\] keys"):
            cli.load_config(cfg)

    def test_unexpected_section_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[run]\nverb = approx-log\nseed = 0\noutput = x\n"
            "[approx-log]\npieces = 3\n[entropy]\nd = 2\n",
        )
        with pytest.raises(ConfigError, match="unexpected section"):
            cli.load_config(cfg)

    def test_bad_value_reports_field(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[run]\nverb = approx-log\nseed = 0\noutput = x\n"
            "[approx-log]\npieces = three\n",
        )
        with pytest.raises(ConfigError, match="pieces"):
            cli.load_config(cfg)

    def test_missing_required_key(self, tmp_path):
        cfg = write_config(
            tmp_path, "[run]\nverb = entropy\nseed = 0\noutput = x\n[entropy]\nd = 2\n"
        )
        with pytest.raises(ConfigError, match="missing required"):
            cli.load_config(cfg)

    @pytest.mark.parametrize("text, value", [
        ("true", True), (" Yes ", True), ("1", True),
        ("false", False), ("NO", False), ("0", False), ("maybe", None), ("", None),
    ])
    def test_parse_bool(self, text, value):
        if value is None:
            with pytest.raises(ValueError, match="not a boolean"):
                cli._parse_bool(text)
        else:
            assert cli._parse_bool(text) is value

    @pytest.mark.parametrize("parse, text, match", [
        (cli._parse_int_list, "", "empty integer list"),
        (cli._parse_int_list, " , ,", "empty integer list"),
        (cli._parse_float_list, "", "empty float list"),
        (cli._parse_float_list, ",", "empty float list"),
    ])
    def test_empty_lists_refused(self, parse, text, match):
        with pytest.raises(ValueError, match=match):
            parse(text)

    @pytest.mark.parametrize("text, match", [
        (None, "cannot read config"),  # no such file
        ("verb = entropy\n", "config parse error"),  # a key before any section
        ("[run]\n[run]\n", "config parse error"),  # a duplicate section
    ])
    def test_unreadable_or_unparseable_config(self, tmp_path, capsys, text, match):
        path = tmp_path / "run.ini"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigError, match=match):
            cli.load_config(str(path))
        assert cli.main([str(path)]) == cli.EXIT_CONFIG
        assert match in json.loads(capsys.readouterr().err)["detail"]

    def test_range_syntax(self):
        assert cli._parse_int_list("1:4, 9") == [1, 2, 3, 4, 9]
        assert cli._parse_int_list("3:3") == [3]
        assert len(cli._parse_int_list(f"1:{cli._MAX_RANGE}")) == cli._MAX_RANGE
        for text in ("1, 5:2", f"1:{cli._MAX_RANGE + 1}", f"1:{10**15}"):
            with pytest.raises(ValueError, match="range"):
                cli._parse_int_list(text)


class TestEntropyVerb:
    def test_sweep_matches_direct_computation(self, tmp_path):
        out = tmp_path / "entropy.csv"
        Ls = list(range(1, 21))
        Ms = ",".join(str(l * l) for l in Ls)
        cfg = write_config(
            tmp_path,
            f"[run]\nverb = entropy\nseed = 0\noutput = {out}\n"
            f"[entropy]\nd = 4\ns = 2\nJ = 6\nL = 1:20\nM = {Ms}\neps = 0.1\n",
        )
        assert cli.main([cfg]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 20
        for row, L in zip(rows, Ls):
            expected = complexity.entropy_bound_cnn(4, 2, 6, L, float(L * L), 0.1)
            assert float(row["entropy_bound"]) == pytest.approx(expected, rel=1e-15)
            assert int(row["n_params"]) == complexity.param_count(4, 2, 6, L)

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            cfg = write_config(
                tmp_path,
                f"[run]\nverb = entropy\nseed = 3\noutput = {out}\n"
                "[entropy]\nd = 3\ns = 2\nJ = 2\nL = 1:6\nM = 2\neps = 0.5,0.1\n",
                name=name + ".ini",
            )
            assert cli.main([cfg]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestCompileVerbs:
    def test_compile_writes_net_and_report(self, tmp_path):
        out = tmp_path / "net.txt"
        cfg = write_config(
            tmp_path,
            f"[run]\nverb = compile\nseed = 9\noutput = {out}\n"
            "[compile]\nneurons = 5\nd = 3\ns = 2\n",
        )
        assert cli.main([cfg]) == 0
        loaded = cnn.load_cnn(out)
        assert loaded.J == 6 and loaded.d == 3
        with open(tmp_path / "net.txt.report", newline="") as fh:
            (report,) = csv.DictReader(fh)
        assert list(report) == ["depth", "channels", "sweep_depth", "norm_achieved", "norm_bound"]
        assert int(report["channels"]) == 6
        assert float(report["norm_achieved"]) <= float(report["norm_bound"])

    def test_compile_from_net_file(self, tmp_path):
        net_file = tmp_path / "shallow.txt"
        np.savetxt(net_file, [[1.0, 0.5, -0.5, 0.1], [-2.0, 0.0, 1.0, 0.0]])
        out = tmp_path / "net.txt"
        cfg = write_config(
            tmp_path,
            f"[run]\nverb = compile\nseed = 0\noutput = {out}\n"
            f"[compile]\nnet_file = {net_file}\ns = 2\n",
        )
        assert cli.main([cfg]) == 0
        params = cnn.load_cnn(out)
        net = ShallowNet([1.0, -2.0], [[0.5, -0.5], [0.0, 1.0]], [0.1, 0.0])
        X = np.random.default_rng(1).random((200, 2))
        assert np.max(np.abs(cnn.forward(params, X) - net(X))) < 1e-10

    def test_verify_compile_bundled_example(self, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        cfg = write_config(
            tmp_path,
            f"[run]\nverb = verify-compile\nseed = 4\noutput = {out}\n"
            "[verify-compile]\nneurons = 8\nd = 3\ns = 2\n",
        )
        assert cli.main([cfg]) == 0
        printed = capsys.readouterr().out
        assert "max relative deviation" in printed
        with open(out, newline="") as fh:
            row = next(csv.DictReader(fh))
        assert float(row["max_rel_deviation"]) <= 1e-10
        assert row["passed"] == "true"

    def test_verify_compile_with_links(self, tmp_path):
        for link in ("sign:0.3", "log:7"):
            out = tmp_path / "v.csv"
            cfg = write_config(
                tmp_path,
                f"[run]\nverb = verify-compile\nseed = 4\noutput = {out}\n"
                f"[verify-compile]\nneurons = 4\nd = 3\ns = 2\nlink = {link}\n",
                name=f"{link.replace(':', '_')}.ini",
            )
            assert cli.main([cfg]) == 0


class TestCoverCheckVerb:
    def test_pass_and_exit_codes(self, tmp_path):
        out = tmp_path / "cover.csv"
        cfg = write_config(
            tmp_path,
            f"[run]\nverb = cover-check\nseed = 5\noutput = {out}\n"
            "[cover-check]\neps = 0.5\ntrials = 5\n",
        )
        assert cli.main([cfg]) == 0
        with open(out, newline="") as fh:
            row = next(csv.DictReader(fh))
        assert row["passed"] == "true"
        assert int(row["n_params"]) == 5

    def test_too_coarse_grid_fails_property(self, tmp_path):
        out = tmp_path / "cover.csv"
        cfg = write_config(
            tmp_path,
            f"[run]\nverb = cover-check\nseed = 5\noutput = {out}\n"
            "[cover-check]\neps = 0.05\ntrials = 5\nresolution = 2\n",
        )
        assert cli.main([cfg]) == cli.EXIT_PROPERTY

    def test_guard_maps_to_precondition_exit(self, tmp_path):
        out = tmp_path / "cover.csv"
        cfg = write_config(
            tmp_path,
            f"[run]\nverb = cover-check\nseed = 5\noutput = {out}\n"
            "[cover-check]\neps = 0.5\nJ = 3\nL = 2\nd = 4\n",
        )
        assert cli.main([cfg]) == cli.EXIT_PRECONDITION


class TestBadNumbersExitThree:
    @pytest.mark.parametrize(
        "body",
        [
            "[cover-check]\neps = 0.5\ntrials = 0\n",
            "[cover-check]\neps = 0.5\ntrials = -3\n",
            "[cover-check]\neps = nan\ntrials = 2\n",
            "[cover-check]\neps = 0.5\nM = inf\ntrials = 2\n",
            "[entropy]\nd = 4\ns = 2\nJ = 2\nL = 1\nM = 1\neps = inf\n",
            "[entropy]\nd = 4\ns = 2\nJ = 2\nL = 1\nM = 1\neps = nan\n",
            "[entropy]\nd = 4\ns = 2\nJ = 2\nL = 1\nM = nan\neps = 0.1\n",
            "[entropy]\nd = 4\ns = 2\nJ = 2\nL = 1\nM = 1e308\neps = 0.1\n",
        ],
    )
    def test_precondition_record(self, tmp_path, capsys, body):
        verb = body[1:body.index("]")]
        out = tmp_path / "out.csv"
        cfg = write_config(tmp_path, f"[run]\nverb = {verb}\nseed = 0\noutput = {out}\n" + body)
        assert cli.main([cfg]) == cli.EXIT_PRECONDITION
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "precondition" and record["exit_code"] == 3
        assert not out.exists()

    @pytest.mark.parametrize(
        "body",
        [
            "[run]\nverb = cover-check\nseed = -1\noutput = x.csv\n[cover-check]\neps = 0.5\n",
            "[run]\nverb = compile\nseed = 0\noutput = x.txt\n[compile]\nnet_seed = -1\n",
            "[run]\nverb = experiment\nseed = 0\noutput = x.csv\n[experiment]\n"
            "loss = hinge\ntarget = eta-ramp\nn_schedule = 64\ntarget_seed = -2\n",
        ],
    )
    def test_negative_seed_is_a_config_error(self, tmp_path, body):
        with pytest.raises(ConfigError, match="seed"):
            cli.load_config(write_config(tmp_path, body))


_TINY_EXPERIMENT = (
    "[experiment]\nloss = squared\ntarget = coordinate-clamp\nn_schedule = 8,12,16,20\n"
    "repeats = 1\nepochs = 1\nrestarts = 1\nmc_samples = 200\n"
)
_TINY_TRIG = _TINY_EXPERIMENT.replace("coordinate-clamp", "trig-mixture")
_BIG = 10**15  # a size numpy refuses to allocate at once


class TestNonFiniteAndEmptyInputs:
    """NaN settings and empty grids end in one JSON record, not a traceback,
    a silent default or a property failure."""

    @pytest.mark.parametrize(
        "verb, body, code",
        [
            ("experiment", _TINY_EXPERIMENT + "l_const = nan\n", cli.EXIT_PRECONDITION),
            ("experiment", _TINY_EXPERIMENT + "m_const = nan\n", cli.EXIT_PRECONDITION),
            ("experiment", _TINY_EXPERIMENT + "b_const = inf\n", cli.EXIT_PRECONDITION),
            ("experiment", _TINY_EXPERIMENT + "noise_scale = nan\n", cli.EXIT_PRECONDITION),
            ("experiment", _TINY_EXPERIMENT + "learning_rate = nan\n", cli.EXIT_PRECONDITION),
            ("experiment", _TINY_EXPERIMENT + "final_learning_rate = inf\n",
             cli.EXIT_PRECONDITION),
            ("experiment", _TINY_EXPERIMENT + "init_scale = nan\n", cli.EXIT_PRECONDITION),
            ("experiment", _TINY_EXPERIMENT.replace("= 200", "= 0"), cli.EXIT_PRECONDITION),
            ("verify-compile", "[verify-compile]\npoints = 0\n", cli.EXIT_PRECONDITION),
            ("verify-compile", "[verify-compile]\ntolerance = nan\n", cli.EXIT_CONFIG),
            ("compile", "[compile]\nneurons = -1\n", cli.EXIT_PRECONDITION),
            ("approx-log", "[approx-log]\npieces = 3\ngrid = 0\n", cli.EXIT_CONFIG),
            ("check-ineq", "[check-ineq]\nresolution = 0\n", cli.EXIT_PRECONDITION),
            ("check-ineq", "[check-ineq]\nu = nan\n", cli.EXIT_PRECONDITION),
            ("check-ineq", "[check-ineq]\nu = 1e-200\n", cli.EXIT_PRECONDITION),
            ("experiment", _TINY_TRIG + "amps = 1, 2\nfreqs = 1\n", cli.EXIT_PRECONDITION),
            ("experiment", _TINY_TRIG + "amps = nan, 1\n", cli.EXIT_PRECONDITION),
            ("experiment", _TINY_TRIG + "coords = 0, 2\n", cli.EXIT_PRECONDITION),
            ("experiment", _TINY_TRIG + "freqs = 0, 1\n", cli.EXIT_PRECONDITION),
            ("experiment", _TINY_TRIG + "coords = 0.5, 1\n", cli.EXIT_CONFIG),
            ("experiment", _TINY_EXPERIMENT + "phases = 0.1, 0.2\n", cli.EXIT_CONFIG),
            ("fit-rate", "[fit-rate]\ninput = {res}\nloss = squared\n", cli.EXIT_PRECONDITION),
            ("experiment", _TINY_TRIG + "n_terms = -1\n", cli.EXIT_CONFIG),
            ("experiment", _TINY_EXPERIMENT + "d = 1\n", cli.EXIT_CONFIG),
            ("experiment", _TINY_EXPERIMENT + "noise_kind = uniform\nnoise_scale = 1e308\n",
             cli.EXIT_PRECONDITION),
            ("experiment", _TINY_EXPERIMENT.replace(",20", f",{10**12}"), cli.EXIT_PRECONDITION),
            ("experiment", _TINY_EXPERIMENT.replace(",20", f",{10**400}"), cli.EXIT_PRECONDITION),
            ("cover-check", f"[cover-check]\neps = 1.0\npoints = {10**9}\n", cli.EXIT_PRECONDITION),
            ("cover-check", f"[cover-check]\neps = 1.0\npoints = {10**30}\n", cli.EXIT_PRECONDITION),
            ("verify-compile", f"[verify-compile]\npoints = {10**9}\n", cli.EXIT_PRECONDITION),
            ("verify-compile", f"[verify-compile]\npoints = {10**30}\n", cli.EXIT_PRECONDITION),
            ("cover-check", f"[cover-check]\neps = 1.0\ntrials = {10**12}\n",
             cli.EXIT_PRECONDITION),
            ("cover-check", f"[cover-check]\neps = 1.0\ntrials = {10**30}\n",
             cli.EXIT_PRECONDITION),
            ("verify-compile", "[verify-compile]\nneurons = 1\nd = 21202\ns = 21202\n"
             "points = 1000\n", cli.EXIT_PRECONDITION),
            ("entropy", f"[entropy]\nd = 4\ns = 2\nJ = 2\nL = {_BIG}\nM = 1\neps = 0.1\n",
             cli.EXIT_PRECONDITION),
            ("entropy", "[entropy]\nd = 4\ns = 2\nJ = 2\nL = 1, 5:2\nM = 1\neps = 0.1\n",
             cli.EXIT_CONFIG),
            ("entropy", f"[entropy]\nd = 4\ns = 2\nJ = 2\nL = 1:{_BIG}\nM = 1\neps = 0.1\n",
             cli.EXIT_CONFIG),
            ("approx-log", f"[approx-log]\npieces = 3\ngrid = {_BIG}\n", cli.EXIT_CONFIG),
            ("approx-log", f"[approx-log]\npieces = {_BIG}\ngrid = 10\n", cli.EXIT_PRECONDITION),
            ("check-ineq", f"[check-ineq]\nresolution = {_BIG}\n", cli.EXIT_PRECONDITION),
            ("compile", f"[compile]\nneurons = {_BIG}\n", cli.EXIT_PRECONDITION),
            ("compile", f"[compile]\nd = {_BIG}\n", cli.EXIT_PRECONDITION),
            ("compile", f"[compile]\nlink = log:{_BIG}\n", cli.EXIT_PRECONDITION),
            ("compile", "[compile]\nneurons = 200000\n", cli.EXIT_PRECONDITION),
            ("compile", "[compile]\nd = 1000\n", cli.EXIT_PRECONDITION),
            ("compile", "[compile]\nlink = log:100000\n", cli.EXIT_PRECONDITION),
            ("verify-compile", f"[verify-compile]\nneurons = {_BIG}\n", cli.EXIT_PRECONDITION),
            ("verify-compile", f"[verify-compile]\nd = {_BIG}\n", cli.EXIT_PRECONDITION),
            ("verify-compile", f"[verify-compile]\nlink = log:{_BIG}\n", cli.EXIT_PRECONDITION),
            ("experiment", _TINY_EXPERIMENT + f"J = {_BIG}\n", cli.EXIT_PRECONDITION),
            ("experiment", _TINY_EXPERIMENT + f"s = {_BIG}\n", cli.EXIT_PRECONDITION),
            ("experiment", _TINY_EXPERIMENT + f"d = {_BIG}\n", cli.EXIT_CONFIG),
            ("experiment", _TINY_TRIG + f"n_terms = {_BIG}\n", cli.EXIT_CONFIG),
            ("experiment", _TINY_EXPERIMENT.replace("= 200", f"= {_BIG}"),
             cli.EXIT_PRECONDITION),
            ("experiment", _TINY_EXPERIMENT.replace("epochs = 1", f"epochs = {_BIG}"),
             cli.EXIT_PRECONDITION),
            ("experiment", _TINY_EXPERIMENT.replace("restarts = 1", f"restarts = {_BIG}"),
             cli.EXIT_PRECONDITION),
            ("experiment", _TINY_EXPERIMENT.replace("repeats = 1", f"repeats = {_BIG}"),
             cli.EXIT_PRECONDITION),
            ("experiment", _TINY_EXPERIMENT + "slope = nan\n", cli.EXIT_PRECONDITION),
            ("experiment", _TINY_EXPERIMENT + "slope = inf\n", cli.EXIT_PRECONDITION),
            ("verify-compile", "[verify-compile]\npoints = 10000000\nd = 8\n",
             cli.EXIT_PRECONDITION),
        ],
        ids=[
            "nan-l_const", "nan-m_const", "inf-b_const", "nan-noise_scale",
            "nan-learning_rate", "inf-final_learning_rate", "nan-init_scale",
            "zero-mc_samples", "zero-points", "nan-tolerance", "negative-neurons",
            "zero-grid", "zero-resolution", "nan-u", "u-squared-overflows",
            "ragged-trig-terms", "nan-amp", "coord-out-of-range", "zero-freq",
            "non-integer-coord", "trig-terms-for-another-target", "non-positive-n",
            "negative-n_terms", "d-below-2", "overflowing-uniform-noise",
            "n-past-sample-guard", "n-past-float64", "cover-points-past-sample-guard",
            "cover-points-past-int64", "verify-points-past-sample-guard",
            "verify-points-past-int64", "cover-trials-past-guard", "cover-trials-past-int64",
            "verify-d-past-sobol-table", "entropy-L-past-guard", "descending-range",
            "range-past-guard", "alog-grid-past-guard", "alog-pieces-past-guard",
            "ineq-resolution-past-guard", "compile-neurons-past-guard", "compile-d-past-guard",
            "compile-log-link-past-guard", "compile-depth-past-guard", "compile-3^L0-overflows",
            "compile-link-depth-past-guard", "verify-neurons-past-guard",
            "verify-d-past-guard", "verify-log-link-past-guard", "experiment-J-past-guard",
            "experiment-s-past-guard", "experiment-d-past-guard",
            "experiment-n_terms-past-guard", "experiment-mc_samples-past-guard",
            "experiment-epochs-past-guard", "experiment-restarts-past-guard",
            "experiment-repeats-past-guard", "nan-clamp-slope", "inf-clamp-slope",
            "verify-grid-past-guard",
        ],
    )
    def test_one_record(self, tmp_path, capsys, verb, body, code):
        out, res = tmp_path / "out.csv", tmp_path / "res.csv"  # res: a results file with n <= 0
        rows = [["squared", n, 1, 1, 1, 0, 0.5, 0, 0] for n in (0, -5, 9, 99)]
        res.write_text("".join(",".join(map(str, r)) + "\n" for r in [cli._RESULT_HEADER, *rows]))
        cfg = write_config(
            tmp_path, f"[run]\nverb = {verb}\nseed = 0\noutput = {out}\n" + body.format(res=res)
        )
        assert cli.main([cfg]) == code
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["exit_code"] == code
        assert not out.exists()

    @pytest.mark.parametrize(
        "verb, body, code, match",
        [
            ("compile", "[compile]\nlink = tanh:3\n", cli.EXIT_CONFIG,
             "unknown link spec 'tanh:3'"),
            ("experiment", _TINY_EXPERIMENT.replace("squared", "cubic"), cli.EXIT_CONFIG,
             "unknown loss 'cubic'"),
            ("experiment", _TINY_EXPERIMENT.replace("coordinate-clamp", "ramp"), cli.EXIT_CONFIG,
             "unknown target 'ramp'"),
            ("experiment", _TINY_EXPERIMENT.replace("coordinate-clamp", "eta-step"),
             cli.EXIT_PRECONDITION, "squared loss expects a regression target"),
            ("experiment", _TINY_EXPERIMENT.replace("coordinate-clamp", "eta-svb"),
             cli.EXIT_PRECONDITION, "squared loss expects a regression target"),
            ("fit-rate", "[fit-rate]\ninput = {empty}\nloss = squared\n", cli.EXIT_CONFIG,
             "no data rows in results file"),
        ],
        ids=["unknown-link-kind", "unknown-loss", "unknown-target", "eta-step-for-squared",
             "eta-svb-for-squared", "results-without-data-rows"],
    )
    def test_record_names_the_cause(self, tmp_path, capsys, verb, body, code, match):
        out, empty = tmp_path / "out.csv", tmp_path / "empty.csv"  # empty: a header only
        empty.write_text(",".join(cli._RESULT_HEADER) + "\n")
        run = f"[run]\nverb = {verb}\nseed = 0\noutput = {out}\n"
        cfg = write_config(tmp_path, run + body.format(empty=empty))
        assert cli.main([cfg]) == code
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["exit_code"] == code and match in record["detail"]
        assert not out.exists()


class TestUnreadInputs:
    """A key that the experiment's target or loss does not read, and a results
    row of another loss than fit-rate's, end in one config record that names
    the key or the row, before anything is written."""

    @pytest.mark.parametrize(
        "loss, target, extra, named",
        [
            ("hinge", "eta-ramp", "beta = 0.5\nslope = 9\nnoise_scale = 3\ntarget_seed = 7\n",
             "target_seed, beta, slope, noise_scale"),
            ("logistic", "eta-svb", "steepness = 4\n", "steepness"),
            ("hinge", "eta-ramp", "beta = 1\n", "beta"),
            ("squared", "trig-mixture", "slope = 2\n", "slope"),
            ("squared", "coordinate-clamp", "n_terms = 2\n", "n_terms"),
            ("squared", "coordinate-clamp", "target_seed = 1\n", "target_seed"),
            ("squared", "gaussian-bump-mixture", "freqs = 1, 2\n", "freqs"),
            ("hinge", "eta-step", "noise_kind = gaussian\n", "noise_kind"),
            ("logistic", "eta-svb", "noise_scale = 0.25\n", "noise_scale"),
            ("hinge", "eta-ramp", "b_const = 2\n", "b_const"),
        ],
        ids=["four-keys-for-eta-ramp", "steepness-for-eta-svb", "beta-for-eta-ramp",
             "slope-for-trig-mixture", "n_terms-for-clamp", "target_seed-for-clamp",
             "trig-term-for-bumps", "noise_kind-for-eta-step", "noise_scale-for-eta-svb",
             "b_const-for-hinge"],
    )
    def test_unread_experiment_key(self, tmp_path, capsys, loss, target, extra, named):
        body = (
            f"[run]\nverb = experiment\nseed = 0\noutput = {tmp_path / 'out.csv'}\n"
            f"[experiment]\nloss = {loss}\ntarget = {target}\nn_schedule = 8,12,16,20\n" + extra
        )
        assert cli.main([write_config(tmp_path, body)]) == cli.EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)
        assert record["exit_code"] == cli.EXIT_CONFIG and named in record["detail"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]

    @pytest.mark.parametrize(
        "losses, named",
        [
            (["hinge", "hinge", "squared", "logistic"], "results row 2 in {res!r} has loss 'hinge'"),
            (["squared"] * 4 + ["ratefit"], "results row 6 in {res!r} has loss 'ratefit'"),
        ],
        ids=["other-losses", "summary-row-of-an-old-file"],
    )
    def test_results_row_of_another_loss(self, tmp_path, capsys, losses, named):
        out, res = tmp_path / "fit.csv", tmp_path / "res.csv"
        rows = [[loss, 64 << i, 1, 1, 1, 0, 0.5 / (i + 1), 0, 0] for i, loss in enumerate(losses)]
        res.write_text("".join(",".join(map(str, r)) + "\n" for r in [cli._RESULT_HEADER, *rows]))
        cfg = write_config(
            tmp_path,
            f"[run]\nverb = fit-rate\nseed = 0\noutput = {out}\n"
            f"[fit-rate]\ninput = {res}\nloss = squared\n",
        )
        assert cli.main([cfg]) == cli.EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)
        assert record["exit_code"] == cli.EXIT_CONFIG
        assert named.format(res=str(res)) in record["detail"]
        assert not out.exists()


class TestValidationBeforeSampling:
    @pytest.mark.parametrize(
        "extra", ["batch_size = 0\n", "l_const = 1e308\n", "slope = nan\n", "slope = inf\n"]
    )
    def test_bad_training_setting_draws_no_data(self, tmp_path, capsys, monkeypatch, extra):
        calls = []
        draw = learnlab.sample_dataset
        monkeypatch.setattr(
            learnlab, "sample_dataset", lambda *a, **k: calls.append(a) or draw(*a, **k)
        )
        cfg = write_config(
            tmp_path,
            f"[run]\nverb = experiment\nseed = 0\noutput = {tmp_path / 'out.csv'}\n"
            + _TINY_EXPERIMENT + extra,
        )
        assert cli.main([cfg]) == cli.EXIT_PRECONDITION
        assert calls == []
        assert json.loads(capsys.readouterr().err)["error"] == "precondition"


# floats that may be NaN, +-inf, zero, negative, tiny or huge
_ANY_FLOAT = st.one_of(
    st.sampled_from([0.5, 1.0, 2.0]),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0]),
    st.floats(allow_nan=True, allow_infinity=True),
).map(repr)
# small ints, and a size no key may allocate (numpy refuses it at once)
_SMALL_INT = st.one_of(st.integers(-3, 8), st.just(_BIG)).map(str)


def _listed(values):
    return st.lists(values, min_size=1, max_size=3).map(", ".join)


# verb -> key -> (a valid value, strategy for an arbitrary one)
_FUZZ_KEYS = {
    "entropy": {
        "d": ("4", _SMALL_INT),
        "s": ("2", _SMALL_INT),
        "J": ("2", _SMALL_INT),
        "L": ("1, 2", _listed(_SMALL_INT)),
        "M": ("1.0, 4.0", _listed(_ANY_FLOAT)),
        "eps": ("0.1", _listed(_ANY_FLOAT)),
    },
    "cover-check": {
        "d": ("2", _SMALL_INT),
        "s": ("2", _SMALL_INT),
        "J": ("1", _SMALL_INT),
        "L": ("1", _SMALL_INT),
        "M": ("1.0", _ANY_FLOAT),
        "eps": ("0.5", _listed(_ANY_FLOAT)),
        "trials": ("2", st.integers(-3, 3).map(str)),
        "resolution": ("0", _SMALL_INT),
        "points": ("1000", _SMALL_INT),
    },
    "approx-log": {
        "pieces": ("3, 5", _listed(_SMALL_INT)),
        "grid": ("100", _SMALL_INT),
    },
    "check-ineq": {
        "resolution": ("50", _SMALL_INT),
        "u": ("0.01", _listed(_ANY_FLOAT)),
    },
}
_NET_KEYS = {
    "d": ("2", _SMALL_INT),
    "s": ("2", _SMALL_INT),
    "neurons": ("3", _SMALL_INT),
    "net_seed": ("0", st.integers(-1, 3).map(str)),
    "link": ("none", st.one_of(_SMALL_INT.map("log:{}".format), _ANY_FLOAT.map("sign:{}".format))),
}
# None leaves net_file unset, so the net is drawn from net_seed; {aux} is a drawn net file
_NET_KEYS["net_file"] = (None, st.just("{aux}"))
_FUZZ_KEYS["compile"] = _NET_KEYS
_FUZZ_KEYS["verify-compile"] = {
    **_NET_KEYS,
    "points": ("200", _SMALL_INT),
    "tolerance": ("1e-10", _ANY_FLOAT),
}
# a tiny schedule: four sizes, one repeat, one epoch, one restart
_FUZZ_KEYS["experiment"] = {
    "loss": ("squared", st.sampled_from(["squared", "hinge", "logistic"])),
    "target": ("trig-mixture", st.sampled_from(["coordinate-clamp", "eta-ramp", "trig-mixture"])),
    "d": ("2", _SMALL_INT),
    "n_terms": ("2", _SMALL_INT),
    # None leaves a key unset: the trig-mixture terms are then drawn from target_seed
    "amps": (None, _listed(_ANY_FLOAT)),
    "freqs": (None, _listed(_ANY_FLOAT)),
    "coords": (None, _listed(_SMALL_INT)),
    "phases": (None, _listed(_ANY_FLOAT)),
    # rarely a valid schedule whose last size is past the sample-size guard
    "n_schedule": ("8, 12, 16, 20", st.one_of(
        _listed(st.integers(-3, 24).map(str)),
        st.sampled_from([10**12, 10**400]).map("8, 12, 16, {}".format),
    )),
    "repeats": ("1", _SMALL_INT),
    "epochs": ("1", _SMALL_INT),
    "restarts": ("1", _SMALL_INT),
    "batch_size": ("8", _SMALL_INT),
    "J": ("2", _SMALL_INT),
    "s": ("2", _SMALL_INT),
    "mc_samples": ("200", _SMALL_INT),
    "noise_scale": ("0.25", _ANY_FLOAT),
    "slope": ("2.0", _ANY_FLOAT),
    "steepness": ("4.0", _ANY_FLOAT),
    "learning_rate": ("0.02", _ANY_FLOAT),
    "final_learning_rate": ("0.002", _ANY_FLOAT),
    "init_scale": ("1.0", _ANY_FLOAT),
    "l_const": ("0", _ANY_FLOAT),
    "m_const": ("0", _ANY_FLOAT),
    "b_const": (None, _ANY_FLOAT),  # unset: the hinge loss refuses it
}


_FUZZ_KEYS["fit-rate"] = {
    "input": ("{aux}", st.just("{aux}")),
    "loss": ("squared", st.sampled_from(["squared", "hinge", "logistic", "ratefit"])),
    "alpha": ("1.0", _ANY_FLOAT),
    "d": ("2", _SMALL_INT),
    "q": ("1.0", _ANY_FLOAT),
    "beta": ("1.0", _ANY_FLOAT),
}
_CSV_TOKEN = st.one_of(
    _ANY_FLOAT,
    st.integers(-5, 2**1100).map(str),
    st.sampled_from(["", "nan", "inf", "-inf", "abc", "ratefit", "squared"]),
)
_NET_TOKEN = st.one_of(
    _ANY_FLOAT,
    st.sampled_from(["", "nan", "inf", "-inf", "abc", "1e308", "-1e308", "1e309", "#"]),
)


@st.composite
def _corrupted(draw, rows, token, sep, header=""):
    """`header` and then `rows` joined by `sep`, with up to four cells replaced
    by drawn tokens, rows made ragged, or the text truncated."""
    rows = [list(row) for row in rows]
    for _ in range(draw(st.integers(0, 4))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        col = draw(st.integers(0, len(row)))
        if col == len(row):  # ragged: one cell more or one less
            row.append(draw(token)) if draw(st.booleans()) else row.pop()
        else:
            row[col] = draw(token)
    text = header + "".join(sep.join(row) + "\n" for row in rows)
    return text[:draw(st.one_of(st.just(len(text)), st.integers(0, len(text))))]


# a results CSV of four cells
_fuzzed_results = _corrupted(
    [["squared", str(n), "1", "1", "1", "0", repr(0.5 / n), "0", "0"] for n in (64, 128, 256, 512)],
    _CSV_TOKEN, ",", header=",".join(cli._RESULT_HEADER) + "\n",
)
# a shallow net file of two neurons in d = 2; rows are: coeff a_1 a_2 offset
_fuzzed_net_file = _corrupted(
    [["1.0", "0.5", "-0.5", "0.1"], ["-2.0", "0.0", "1.0", "0.0"]], _NET_TOKEN, " "
)


# verbs drawn twice as often, each with a key it draws in about half its
# cases on top of the three: the net file the compile verbs read, and the
# l_const that scales a rate schedule
_FOCUS_KEYS = {"compile": "net_file", "verify-compile": "net_file", "experiment": "l_const"}


@st.composite
def _fuzzed_configs(draw):
    """A valid config of one verb (non-exhaustive cover-check, a tiny
    experiment, fit-rate over a drawn results CSV, compile from a drawn net
    file) with up to three of its keys, possibly its focus key, and possibly
    the seed replaced by arbitrary values; returns the config text and the
    drawn file's text."""
    verb = draw(st.sampled_from(sorted(_FUZZ_KEYS) + sorted(_FOCUS_KEYS)))
    keys = _FUZZ_KEYS[verb]
    values = {key: valid for key, (valid, _) in keys.items()}
    drawn = set(draw(st.sets(st.sampled_from(sorted(keys)), max_size=3)))
    if verb in _FOCUS_KEYS and draw(st.booleans()):
        drawn.add(_FOCUS_KEYS[verb])
    # sorted: a set's order follows PYTHONHASHSEED, which would make the draws
    # that follow differ between processes
    for key in sorted(drawn):
        values[key] = draw(keys[key][1])
    if verb == "experiment":  # keep only the baseline keys the drawn target reads
        for key, (_, readers, _) in cli._TARGET_KEYS.items():
            if key not in drawn and values["target"] not in readers:
                values[key] = None
    seed = draw(st.integers(-1, 3))
    body = "".join(f"{key} = {value}\n" for key, value in values.items() if value is not None)
    aux = ""
    if verb == "fit-rate":
        aux = draw(_fuzzed_results)
    elif "net_file" in keys:
        aux = draw(_fuzzed_net_file)
    return f"[run]\nverb = {verb}\nseed = {seed}\noutput = {{out}}\n[{verb}]\n{body}", aux


def _exit_code_of(text, aux):
    """Run a config whose `{out}` and `{aux}` name files in a fresh directory,
    `aux` holding the given text.  Asserts the exit-code contract: exit
    0/2/3/4, no warning, nothing on stderr on success and exactly one JSON
    record on failure.  Returns the exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = pathlib.Path(tmp) / "run.ini"
        cfg.write_text(text.format(out=f"{tmp}/out.csv", aux=f"{tmp}/aux.txt"))
        (pathlib.Path(tmp) / "aux.txt").write_text(aux)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main([str(cfg)])
    assert [f"{w.category.__name__}: {w.message}" for w in caught] == []
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_PRECONDITION, cli.EXIT_PROPERTY)
    lines = err.getvalue().splitlines()
    if code == cli.EXIT_OK:
        assert lines == []
    else:
        assert len(lines) == 1, lines
        assert json.loads(lines[0])["exit_code"] == code
    return code


_DRAW_PROBE = """
import hashlib, sys
from hypothesis import given, settings
sys.path.insert(0, sys.argv[1])
from test_cli import _fuzzed_configs
digest = hashlib.sha256()

@settings(max_examples=300, derandomize=True, database=None)
@given(_fuzzed_configs())
def draw(case):
    digest.update(repr(case).encode())

draw()
print(digest.hexdigest())
"""


class TestExitCodeFuzz:
    """Any numbers in a config of any verb, and any corruption of the results
    CSV that fit-rate reads or the net file that compile reads, end in exit
    0/2/3/4 without a warning, and a failure writes exactly one JSON record,
    never a traceback."""

    @settings(max_examples=500)
    @given(_fuzzed_configs())
    def test_exit_code_contract(self, case):
        _exit_code_of(*case)

    def test_draws_do_not_depend_on_the_hash_seed(self):
        # a derandomized fuzz failure must reproduce in every process
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        digests = set()
        for hash_seed in ("0", "1"):
            done = subprocess.run(
                [sys.executable, "-c", _DRAW_PROBE, str(ROOT / "tests")],
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed},
                capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            digests.add(done.stdout.split()[-1])
        assert len(digests) == 1

    @pytest.mark.parametrize("verb", ["compile", "verify-compile"])
    @pytest.mark.parametrize(
        "net, code",
        [
            ("", cli.EXIT_CONFIG),
            ("# no rows\n", cli.EXIT_CONFIG),
            ("1 0.5 abc 0.1\n", cli.EXIT_CONFIG),
            ("1 0.5 nan 0.1\n", cli.EXIT_PRECONDITION),
            ("1 0.5 -0.5 inf\n", cli.EXIT_PRECONDITION),
            ("1e308 1e308 1e308 1e308\n", cli.EXIT_PRECONDITION),
            ("1 1e308 -0.5 0.1\n-2 1.0 0.0 0.0\n", cli.EXIT_PRECONDITION),
        ],
        ids=["empty", "comment-only", "junk-token", "nan", "inf", "all-1e308", "one-1e308"],
    )
    def test_malformed_net_file(self, verb, net, code):
        text = f"[run]\nverb = {verb}\nseed = 0\noutput = {{out}}\n[{verb}]\nnet_file = {{aux}}\n"
        assert _exit_code_of(text, net) == code


class TestApproxLogVerb:
    def test_rows_match_direct(self, tmp_path):
        out = tmp_path / "alog.csv"
        cfg = write_config(
            tmp_path,
            f"[run]\nverb = approx-log\nseed = 0\noutput = {out}\n"
            "[approx-log]\npieces = 3,10\ngrid = 1000\n",
        )
        assert cli.main([cfg]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["pieces"]) for r in rows] == [3, 10]
        for r in rows:
            assert float(r["max_deviation"]) <= float(r["bound"])
            assert float(r["constraint_norm"]) <= float(r["norm_limit"])


_THREAD_COUNT_CONFIGS = {
    "approx-log": "[approx-log]\npieces = 3:200\ngrid = 10001\n",
    "cover-check": "[cover-check]\neps = 1.0\ntrials = 2\nexhaustive = true\n",
    # full-sample risks at n = 1024 and the Monte Carlo risk at 20 000 points run threaded GEMMs
    "experiment": _TINY_EXPERIMENT.replace("8,12,16,20", "128,256,512,1024").replace(
        "mc_samples = 200", "mc_samples = 20000"
    ),
    "verify-compile": "[verify-compile]\nneurons = 32\nd = 8\ns = 3\nlink = log:50\n",
}


def _cells_without_wall_time(path):
    """The CSV's cells, with the one timing column blanked."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    timed = [i for i, name in enumerate(rows[0]) if name == "wall_time"]
    return [[("" if i in timed else cell) for i, cell in enumerate(row)] for row in rows]


@pytest.mark.parametrize("verb", sorted(_THREAD_COUNT_CONFIGS))
def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, verb):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"out-{threads}.csv"
        cfg = write_config(
            tmp_path,
            f"[run]\nverb = {verb}\nseed = 0\noutput = {out}\n" + _THREAD_COUNT_CONFIGS[verb],
        )
        done = subprocess.run(
            [sys.executable, "-m", "convrates.cli", cfg],
            env={**os.environ, "PYTHONPATH": path,
                 "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads},
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(_cells_without_wall_time(out))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("verb", ["approx-log", "experiment", "verify-compile"])
def test_outputs_do_not_depend_on_the_usable_cores(tmp_path, verb):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    one_cpu = min(os.sched_getaffinity(0))
    outputs = []
    for pin in (True, False):
        out = tmp_path / f"out-{pin}.csv"
        cfg = write_config(
            tmp_path,
            f"[run]\nverb = {verb}\nseed = 0\noutput = {out}\n" + _THREAD_COUNT_CONFIGS[verb],
        )
        done = subprocess.run(
            [sys.executable, "-m", "convrates.cli", cfg],
            env={**os.environ, "PYTHONPATH": path},
            preexec_fn=(lambda: os.sched_setaffinity(0, {one_cpu})) if pin else None,
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(_cells_without_wall_time(out))
    assert outputs[0] == outputs[1]


class TestExperimentVerb:
    def _config(self, out):
        return (
            f"[run]\nverb = experiment\nseed = 42\noutput = {out}\n"
            "[experiment]\nloss = squared\ntarget = coordinate-clamp\nslope = 2.0\n"
            "n_schedule = 32,64,128,256\nrepeats = 1\nepochs = 2\nbatch_size = 32\n"
            "restarts = 1\nmc_samples = 1000\n"
        )

    def test_csv_layout_and_fit_record(self, tmp_path):
        out = tmp_path / "exp.csv"
        cfg = write_config(tmp_path, self._config(out))
        assert cli.main([cfg]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == cli._RESULT_HEADER
        assert len(rows) == 1 + 4
        assert {row[0] for row in rows[1:]} == {"squared"}
        with open(f"{out}.fit", newline="") as fh:
            (fit,) = csv.DictReader(fh)
        assert list(fit) == ["slope", "intercept", "theory_slope"]
        assert float(fit["theory_slope"]) == -0.5

    def test_deterministic_up_to_wall_time(self, tmp_path):
        frames = []
        for name in ("e1.csv", "e2.csv"):
            out = tmp_path / name
            cfg = write_config(tmp_path, self._config(out), name=name + ".ini")
            assert cli.main([cfg]) == 0
            with open(out, newline="") as fh:
                rows = list(csv.reader(fh))
            wall_col = rows[0].index("wall_time")
            for row in rows[1:]:
                row[wall_col] = "0"
            frames.append(rows)
        assert frames[0] == frames[1]

    def test_fit_rate_roundtrip(self, tmp_path):
        out = tmp_path / "exp.csv"
        cfg = write_config(tmp_path, self._config(out))
        assert cli.main([cfg]) == 0
        fit_out = tmp_path / "fit.csv"
        fit_cfg = write_config(
            tmp_path,
            f"[run]\nverb = fit-rate\nseed = 0\noutput = {fit_out}\n"
            f"[fit-rate]\ninput = {out}\nloss = squared\n",
            name="fit.ini",
        )
        assert cli.main([fit_cfg]) == 0
        # the experiment's fit record is fit-rate's, byte for byte
        assert fit_out.read_bytes() == pathlib.Path(f"{out}.fit").read_bytes()
        # and it is the log-log fit of the cells' mean excess risks
        with open(out, newline="") as fh:
            data = list(csv.DictReader(fh))
        ns = sorted({int(r["n"]) for r in data})
        means = [
            np.mean([float(r["excess_risk"]) for r in data if int(r["n"]) == n])
            for n in ns
        ]
        slope, intercept, _ = learnlab.fit_loglog(ns, means)
        with open(fit_out, newline="") as fh:
            row = next(csv.DictReader(fh))
        assert (float(row["slope"]), float(row["intercept"])) == (slope, intercept)


class TestOutputHygiene:
    def test_writes_only_declared_paths(self, tmp_path):
        workdir = tmp_path / "work"
        workdir.mkdir()
        out = workdir / "alog.csv"
        cfg = write_config(
            tmp_path,
            f"[run]\nverb = approx-log\nseed = 0\noutput = {out}\n"
            "[approx-log]\npieces = 3\n",
        )
        assert cli.main([cfg]) == 0
        assert sorted(p.name for p in workdir.iterdir()) == ["alog.csv"]

    def test_outdir_environment_variable(self, tmp_path, monkeypatch):
        outdir = tmp_path / "results"
        outdir.mkdir()
        monkeypatch.setenv("CONVRATES_OUTDIR", str(outdir))
        cfg = write_config(
            tmp_path,
            "[run]\nverb = approx-log\nseed = 0\noutput = rel.csv\n"
            "[approx-log]\npieces = 3\n",
        )
        assert cli.main([cfg]) == 0
        assert (outdir / "rel.csv").exists()
        cfg = write_config(
            tmp_path,
            "[run]\nverb = compile\nseed = 0\noutput = net.txt\n"
            "[compile]\nreport = rel.report\n",
        )
        assert cli.main([cfg]) == 0
        assert (outdir / "net.txt").exists() and (outdir / "rel.report").exists()

    def test_error_record_is_json(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[run]\nverb = nope\nseed = 0\noutput = x\n")
        assert cli.main([cfg]) == cli.EXIT_CONFIG
        record = json.loads(capsys.readouterr().err.strip())
        assert record["exit_code"] == 2 and record["error"] == "config"

    @pytest.mark.parametrize(
        "body",
        [
            "[run]\nverb = approx-log\nseed = 0\noutput = {tmp}/missing/alog.csv\n"
            "[approx-log]\npieces = 3:200\n",
            "[run]\nverb = compile\nseed = 0\noutput = {tmp}/net.txt\n"
            "[compile]\nreport = {tmp}/missing/net.report\n",
        ],
    )
    def test_missing_output_directory_is_a_config_error(self, tmp_path, capsys, body):
        cfg = write_config(tmp_path, body.format(tmp=tmp_path))
        assert cli.main([cfg]) == cli.EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "config" and record["exit_code"] == 2
        assert "missing" in record["detail"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]  # no work done

    @pytest.mark.parametrize(
        "files, body",
        [
            (
                {"net.txt": "1 0.5 -0.5 0.1\n-2 1.0 0.0\n"},
                "[run]\nverb = compile\nseed = 0\noutput = {tmp}/out.txt\n"
                "[compile]\nnet_file = {tmp}/net.txt\n",
            ),
            (
                {},
                "[run]\nverb = compile\nseed = 0\noutput = {tmp}/out.txt\n"
                "[compile]\nnet_file = {tmp}/missing.txt\n",
            ),
            (
                {},
                "[run]\nverb = compile\nseed = 0\noutput = {tmp}/out.txt\n"
                "[compile]\nlink = log:x\n",
            ),
            (
                {"res.csv": ",".join(cli._RESULT_HEADER) + "\nsquared,64,1,1,1,0,abc,0,0\n"},
                "[run]\nverb = fit-rate\nseed = 0\noutput = {tmp}/fit.csv\n"
                "[fit-rate]\ninput = {tmp}/res.csv\nloss = squared\n",
            ),
            (
                {
                    "res.csv": ",".join(cli._RESULT_HEADER)
                    + "".join(f"\nsquared,{n},1,1,1,0,{r},0,0" for n, r in
                              [(64, 0.5), (128, "nan"), (256, 0.2), (512, 0.1)])
                    + "\n"
                },
                "[run]\nverb = fit-rate\nseed = 0\noutput = {tmp}/fit.csv\n"
                "[fit-rate]\ninput = {tmp}/res.csv\nloss = squared\n",
            ),
            (
                {},
                "[run]\nverb = fit-rate\nseed = 0\noutput = {tmp}/fit.csv\n"
                "[fit-rate]\ninput = {tmp}/nope.csv\nloss = squared\n",
            ),
        ],
        ids=[
            "ragged-net-file",
            "missing-net-file",
            "bad-link-argument",
            "non-numeric-risk",
            "nan-risk",
            "missing-results-file",
        ],
    )
    def test_malformed_input_is_a_config_error(self, tmp_path, capsys, files, body):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        cfg = write_config(tmp_path, body.format(tmp=tmp_path))
        assert cli.main([cfg]) == cli.EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "config" and record["exit_code"] == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["run.ini", *files])

    def test_training_failure_writes_partial_results(self, tmp_path, capsys):
        out = tmp_path / "exp.csv"
        cfg = write_config(
            tmp_path,
            f"[run]\nverb = experiment\nseed = 0\noutput = {out}\n"
            "[experiment]\nloss = squared\ntarget = coordinate-clamp\n"
            "n_schedule = 32,64,128,256\nrepeats = 1\nepochs = 2\nbatch_size = 32\n"
            "restarts = 1\nmc_samples = 500\nlearning_rate = 1e200\n"
            "final_learning_rate = 0\n",
        )
        assert cli.main([cfg]) == cli.EXIT_PRECONDITION
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "training"
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == cli._RESULT_HEADER  # partial results file exists
        assert not (tmp_path / "exp.csv.fit").exists()

    def test_training_failure_removes_an_earlier_fit(self, tmp_path, capsys):
        out = tmp_path / "exp.csv"
        run = f"[run]\nverb = experiment\nseed = 0\noutput = {out}\n" + _TINY_EXPERIMENT
        assert cli.main([write_config(tmp_path, run)]) == 0
        assert (tmp_path / "exp.csv.fit").exists()
        diverging = run + "learning_rate = 1e200\nfinal_learning_rate = 0\n"
        assert cli.main([write_config(tmp_path, diverging)]) == cli.EXIT_PRECONDITION
        assert json.loads(capsys.readouterr().err.strip())["error"] == "training"
        assert out.exists() and not (tmp_path / "exp.csv.fit").exists()


_HEADER_CASES = {
    "entropy": (
        "[entropy]\nd = 3\ns = 2\nJ = 2\nL = 1\nM = 2\neps = 0.5\n",
        "d,s,J,L,M,eps,n_params,param_lipschitz,entropy_bound",
    ),
    "cover-check": (
        "[cover-check]\neps = 0.5\ntrials = 2\n",
        "d,s,J,L,M,eps,n_params,resolution,candidates,covering_radius,target_radius,"
        "worst_distance,passed",
    ),
    "approx-log": (
        "[approx-log]\npieces = 3\ngrid = 10\n",
        "pieces,max_deviation,bound,constraint_norm,norm_limit,passed",
    ),
    "check-ineq": (
        "[check-ineq]\nresolution = 20\nu = 0.01\n",
        "resolution,u,min_slack,worst_p,worst_q,passed",
    ),
    "verify-compile": (
        "[verify-compile]\nneurons = 2\npoints = 100\n",
        "neurons,d,s,depth,max_rel_deviation,tolerance,norm_achieved,norm_bound,passed",
    ),
    "experiment": (_TINY_EXPERIMENT, "loss,n,L,M,B,seed,excess_risk,stderr,wall_time"),
    "fit-rate": ("[fit-rate]\ninput = {res}\nloss = squared\n", "slope,intercept,theory_slope"),
}


@pytest.mark.parametrize("verb", sorted(_HEADER_CASES))
def test_csv_header_line(tmp_path, verb):
    body, header = _HEADER_CASES[verb]
    out, res = tmp_path / "out.csv", tmp_path / "res.csv"  # res: a results file for fit-rate
    rows = [["squared", n, 1, 1, 1, 0, 1 / n, 0, 0] for n in (64, 128, 256, 512)]
    res.write_text("".join(",".join(map(str, r)) + "\n" for r in [cli._RESULT_HEADER, *rows]))
    cfg = write_config(
        tmp_path, f"[run]\nverb = {verb}\nseed = 0\noutput = {out}\n" + body.format(res=res)
    )
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([cfg]) == cli.EXIT_OK
    assert out.read_text().splitlines()[0] == header


class TestScripts:
    def test_entropy_sweep_config(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CONVRATES_OUTDIR", str(tmp_path))
        assert cli.main([str(SCRIPTS / "entropy_sweep.ini")]) == 0
        with open(tmp_path / "entropy_sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "d", "s", "J", "L", "M", "eps", "n_params", "param_lipschitz", "entropy_bound"
        ]
        assert len(rows) == 1 + 20 * 3

    def test_quick_rate_experiments_read_back_by_fit_rate(self, tmp_path):
        for loss in ("squared", "hinge", "logistic"):
            config = cli.load_config(SCRIPTS / f"rates_{loss}.ini")
            config.output = str(tmp_path / f"rates_{loss}.csv")
            config.params.update(  # the quick check: small schedule and budgets
                n_schedule=[64, 128, 256, 512], repeats=2, epochs=10, restarts=1,
                mc_samples=4000,
            )
            assert cli.run(config) == 0
            fit_out = tmp_path / f"fit_{loss}.csv"
            cfg = write_config(
                tmp_path,
                f"[run]\nverb = fit-rate\nseed = 0\noutput = {fit_out}\n"
                f"[fit-rate]\ninput = {config.output}\nloss = {loss}\n",
                name=f"fit_{loss}.ini",
            )
            assert cli.main([cfg]) == 0
            assert fit_out.read_bytes() == pathlib.Path(f"{config.output}.fit").read_bytes()


_IMPORT_PROBE = """
import json, sys
stages = []
import convrates, convrates.cli, convrates.learnlab
stages.append("scipy.stats" in sys.modules)
for config in sys.argv[1:]:
    code = convrates.cli.main([config])
    stages.append(("scipy.stats" in sys.modules, code))
print(json.dumps(stages))
"""


class TestImportBoundary:
    """scipy.stats costs about 0.5 s and 60 MB to import, and no verb needs
    it: Sobol points are drawn in numpy, so importing the package, an entropy
    sweep, a rate experiment, an exhaustive cover-check and a verify-compile
    all leave it unloaded."""

    def test_scipy_stats_never_loads(self, tmp_path):
        configs = []
        for verb, body in [
            ("entropy", "[entropy]\nd = 3\ns = 2\nJ = 2\nL = 1:3\nM = 2\neps = 0.5\n"),
            ("experiment", _TINY_EXPERIMENT),
            ("cover-check", "[cover-check]\neps = 2.0\ntrials = 2\nexhaustive = true\n"),
            ("verify-compile", "[verify-compile]\nneurons = 4\nd = 3\npoints = 1000\n"),
        ]:
            configs.append(write_config(
                tmp_path,
                f"[run]\nverb = {verb}\nseed = 0\noutput = {tmp_path / verb}.csv\n" + body,
                name=f"{verb}.ini",
            ))
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, *configs],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        stages = json.loads(done.stdout.splitlines()[-1])
        assert stages == [False, [False, 0], [False, 0], [False, 0], [False, 0]]
