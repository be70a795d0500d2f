"""CLI: config validation, verb outputs, exit codes, determinism."""

import csv
import json

import numpy as np
import pytest

from convrates import cli, cnn, complexity, learnlab
from convrates.compiler import ShallowNet
from convrates.errors import ConfigError


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

    def test_range_syntax(self):
        assert cli._parse_int_list("1:4, 9") == [1, 2, 3, 4, 9]


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
        report = (tmp_path / "net.txt.report").read_text()
        assert "norm_bound" in report and "depth" in report

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


class TestExperimentVerb:
    def _config(self, out):
        return (
            f"[run]\nverb = experiment\nseed = 42\noutput = {out}\n"
            "[experiment]\nloss = squared\ntarget = coordinate-clamp\nslope = 2.0\n"
            "n_schedule = 32,64,128,256\nrepeats = 1\nepochs = 2\nbatch_size = 32\n"
            "restarts = 1\nmc_samples = 1000\n"
        )

    def test_csv_layout_and_summary_row(self, tmp_path):
        out = tmp_path / "exp.csv"
        cfg = write_config(tmp_path, self._config(out))
        assert cli.main([cfg]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == cli._RESULT_HEADER
        assert len(rows) == 1 + 4 + 1
        assert rows[-1][0] == "ratefit"

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
            f"[fit-rate]\ninput = {out}\nloss = squared\nalpha = 1\nd = 2\n",
            name="fit.ini",
        )
        assert cli.main([fit_cfg]) == 0
        with open(fit_out, newline="") as fh:
            row = next(csv.DictReader(fh))
        # recompute from the data rows
        with open(out, newline="") as fh:
            data = [r for r in csv.DictReader(fh) if r["loss"] != "ratefit"]
        ns = sorted({int(r["n"]) for r in data})
        means = [
            np.mean([float(r["excess_risk"]) for r in data if int(r["n"]) == n])
            for n in ns
        ]
        slope, intercept, _ = learnlab.fit_loglog(ns, means)
        assert float(row["slope"]) == pytest.approx(slope, rel=1e-12)
        assert float(row["theory_slope"]) == pytest.approx(-0.5)


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
