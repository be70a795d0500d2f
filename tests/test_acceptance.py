"""Acceptance suite: one test per acceptance criterion, in order.

Each test prints a single PASS line with its headline numbers once its
assertions hold (run with `pytest -s` to see them).  Tolerances are fixed
here, not configurable.  Criterion 10 trains networks and takes a few
minutes; everything else completes in seconds.
"""

import csv
import math
import pathlib
import time

import numpy as np
import pytest

from convrates import cli
from convrates.cnn import (
    backward,
    forward,
    layer_norm,
    param_vector,
    params_from_vector,
    path_norm,
    rescale,
)
from convrates.compiler import (
    ScalarNet,
    ShallowNet,
    compose_with_scalar_net,
    neuron_to_cnn,
    shallow_norm,
    shallow_to_cnn,
    sweep_depth,
)
from convrates.complexity import (
    LayeredComplexitySpec,
    cnn_complexity_spec,
    covering_recursion,
    empirical_cover_check,
)
from convrates.learnlab import make_eta_svb, make_eta_tsybakov
from convrates.links import (
    check_kl_bound,
    check_log2_inequality,
    check_logistic_variance_bound,
    classification_excess_risk,
    hinge_excess_risk,
    kl_divergence,
    log_link_net,
    logistic,
    logistic_excess_risk,
)
from convrates.sampling import unit_cube_points

from conftest import random_cnn

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def report(criterion, detail):
    print(f"\n[{criterion}] PASS  {detail}", flush=True)


def random_shallow(rng, d, n):
    return ShallowNet(
        rng.standard_normal(n), rng.standard_normal((n, d)), rng.standard_normal(n)
    )


class TestCriterion01CompilerExactness:
    TOL = 1e-10

    def test_compiler_exactness(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(101)
        worst = 0.0

        for trial in range(40):  # single neurons
            d = int(rng.integers(2, 11))
            s = int(rng.integers(2, d + 1))
            a = rng.standard_normal(d)
            b, c = rng.standard_normal(2)
            params = neuron_to_cnn(a, b, c, s)
            L0 = sweep_depth(d, s)
            bound = 3.0 ** (L0 - 1) * abs(c) * (np.abs(a).sum() + abs(b))
            assert path_norm(params) <= bound * (1 + 1e-12)
            X = unit_cube_points(d, 10_000, seed=trial)
            ref = c * np.maximum(X @ a + b, 0.0)
            worst = max(worst, np.max(np.abs(forward(params, X) - ref) / (1 + np.abs(ref))))

        for trial in range(40):  # shallow sums
            d = int(rng.integers(2, 11))
            s = int(rng.integers(2, d + 1))
            n = int(rng.integers(1, 33))
            net = random_shallow(rng, d, n)
            params, rep = shallow_to_cnn(net, s)
            bound = 3.0 ** (rep.sweep_depth + 1) * n * shallow_norm(net)
            assert rep.norm_achieved <= bound * (1 + 1e-12)
            X = unit_cube_points(d, 10_000, seed=1000 + trial)
            ref = net(X)
            worst = max(worst, np.max(np.abs(forward(params, X) - ref) / (1 + np.abs(ref))))

        for trial in range(20):  # scalar-link compositions
            d = int(rng.integers(2, 11))
            s = int(rng.integers(2, d + 1))
            n = int(rng.integers(1, 33))
            k = int(rng.integers(1, 12))
            net = random_shallow(rng, d, n)
            g = ScalarNet(
                rng.standard_normal(k), rng.standard_normal(k), rng.standard_normal(k)
            )
            params, rep = compose_with_scalar_net(net, g, s)
            bound = 36.0 * 3.0**rep.sweep_depth * n * shallow_norm(net) * k * shallow_norm(g)
            assert rep.norm_achieved <= bound * (1 + 1e-12)
            X = unit_cube_points(d, 10_000, seed=2000 + trial)
            ref = g(net(X))
            worst = max(worst, np.max(np.abs(forward(params, X) - ref) / (1 + np.abs(ref))))

        assert worst <= self.TOL
        report(
            "criterion 1: compiler exactness",
            f"100 nets, worst relative deviation {worst:.2e} <= 1e-10, "
            f"all norm bounds hold ({time.perf_counter() - t0:.1f}s)",
        )


class TestCriterion02Rescaling:
    def test_rescaling(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(202)
        worst = 0.0
        for _ in range(100):
            params = random_cnn(rng, scale=float(rng.uniform(0.2, 3.0)))
            out = rescale(params)
            assert all(layer_norm(l) <= 1 + 1e-12 for l in out.layers)
            assert path_norm(out) <= path_norm(params) * (1 + 1e-12)
            X = rng.random((1000, params.d))
            fa, fb = forward(params, X), forward(out, X)
            worst = max(worst, np.max(np.abs(fa - fb) / (1 + np.abs(fa))))
        assert worst <= 1e-10
        report(
            "criterion 2: rescaling",
            f"100 nets, hidden norms <= 1, worst deviation {worst:.2e}, "
            f"path norm never increased ({time.perf_counter() - t0:.1f}s)",
        )


class TestCriterion03CoveringRecursion:
    def test_recursion_and_specialization(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(303)
        for _ in range(1000):
            d = int(rng.integers(2, 12))
            s = int(rng.integers(2, d + 1))
            J = int(rng.integers(1, 8))
            L = int(rng.integers(1, 12))
            M = float(1 + rng.exponential(3.0))
            res = covering_recursion(cnn_complexity_spec(d, s, J, L, M))
            # the recursion collapses to L*M*(sJ+1) + dJ for these constants;
            # the displayed closed form (dJ+sJL+L)M upper-bounds it (equality
            # at M = 1) and is itself at most 3dJLM
            exact = L * M * (s * J + 1) + d * J
            displayed = (d * J + s * J * L + L) * M
            assert res.param_lipschitz == pytest.approx(exact, rel=1e-13)
            assert res.param_lipschitz <= displayed * (1 + 1e-13)
            assert displayed <= 3 * d * J * L * M * (1 + 1e-13)
            assert res.product_bound == pytest.approx(displayed, rel=1e-13)
        for _ in range(1000):
            L = int(rng.integers(0, 7))
            spec = LayeredComplexitySpec(
                1.0 + rng.exponential(1.0, L + 1), rng.exponential(2.0, L + 1), 1.0, 3
            )
            res = covering_recursion(spec)
            assert res.param_lipschitz <= res.product_bound * (1 + 1e-12)
        report(
            "criterion 3: covering recursion",
            "1000 CNN specs match the closed form exactly and respect the "
            f"(dJ+sJL+L)M <= 3dJLM chain; 1000 random specs respect the "
            f"product bound ({time.perf_counter() - t0:.1f}s)",
        )


class TestCriterion04EmpiricalCover:
    def test_tiny_network_cover(self):
        t0 = time.perf_counter()
        worsts = {}
        for eps in (0.25, 0.5):
            rep = empirical_cover_check(
                2, 2, 1, 1, 1.0, eps=eps, trials=100, seed=404, n_points=1000
            )
            assert rep.passed, f"cover check failed at eps={eps}: worst {rep.worst_distance}"
            assert rep.covering_radius <= rep.target_radius * (1 + 1e-12)
            worsts[eps] = rep.worst_distance
        report(
            "criterion 4: empirical cover",
            f"100 trials each; worst sampled distance {worsts[0.25]:.3f} <= 0.25 "
            f"and {worsts[0.5]:.3f} <= 0.5 ({time.perf_counter() - t0:.1f}s)",
        )


class TestCriterion05LogLink:
    def test_all_piece_counts(self):
        t0 = time.perf_counter()
        t = np.linspace(0.0, 1.0, 10_000)
        for n in range(3, 201):
            link = log_link_net(n)
            g = link(t)
            assert np.max(np.abs(logistic(g) - t)) <= 3.0 / n
            assert np.max(np.abs(g)) <= math.log(n) * (1 + 1e-12)
            assert abs(link(0.0) + math.log(n)) <= 1e-12 * math.log(n)
            assert abs(link(1.0) - math.log(n)) <= 1e-12 * math.log(n)
            assert shallow_norm(link) <= 6.0 * n
        report(
            "criterion 5: log link",
            "N = 3..200: psi(g) within 3/N, |g| <= log N, boundary values "
            f"+-log N, constraint <= 6N ({time.perf_counter() - t0:.1f}s)",
        )


class TestCriterion06Log2Inequality:
    def test_grid(self):
        t0 = time.perf_counter()
        rep = check_log2_inequality(500)
        assert rep.passed and rep.min_slack >= 0.0
        report(
            "criterion 6: squared-log inequality",
            f"500x500x5 grid, min slack {rep.min_slack:.3e} >= 0 at "
            f"{rep.worst_point} ({time.perf_counter() - t0:.1f}s)",
        )


class TestCriterion07VarianceAndKlBounds:
    M = 100_000

    def test_logistic_variance_bound(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(707)
        # closed-form constant-integrand case first
        rep = check_logistic_variance_bound(
            lambda X: np.full(len(X), 2.0),
            lambda X: np.full(len(X), 0.5),
            2.0,
            2,
            self.M,
            0,
        )
        e2 = math.exp(2.0)
        lhs_exact = 0.5 * math.log((1 + 1 / e2) / 2) ** 2 + 0.5 * math.log((1 + e2) / 2) ** 2
        assert rep.lhs == pytest.approx(lhs_exact, rel=1e-12)
        assert rep.rhs == pytest.approx(6 * kl_divergence(0.5, logistic(2.0)), rel=1e-12)
        assert rep.passed
        for trial in range(50):
            B = float(rng.uniform(2.0, 6.0))
            w = rng.standard_normal(2)
            b = rng.standard_normal()
            a = rng.uniform(0.5, 5.0)
            f = lambda X, w=w, b=b, B=B: np.clip(2 * (X @ w) + b, -B, B)
            eta = lambda X, a=a: logistic(a * (X[:, 1] - 0.3))
            rep = check_logistic_variance_bound(f, eta, B, 2, self.M, trial)
            assert rep.passed
        report(
            "criterion 7a: logistic variance bound",
            f"closed-form case exact; 50 random instances within 3 SE at m={self.M} "
            f"({time.perf_counter() - t0:.1f}s)",
        )

    def test_kl_small_value_bound(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(708)
        # quadrature-verified beta = 1 case
        u = 0.01
        rep = check_kl_bound(
            lambda X: X[:, 0],
            lambda X: np.clip(X[:, 0], u, 1 - u),
            u,
            1.0,
            1.0,
            1.0,
            2,
            self.M,
            1,
        )
        assert rep.passed
        assert rep.rhs == pytest.approx(2 * 8 * u * u * math.log(1 / u), rel=1e-12)
        for trial in range(50):
            beta = float(rng.uniform(0.0, 1.0))
            u = float(rng.uniform(0.002, 0.05))
            spec = make_eta_svb(beta)
            h = lambda X, spec=spec, u=u: np.clip(spec(X), u, 1 - u)
            rep = check_kl_bound(
                spec, h, u, 1.0, beta, spec.svb_constant, 2, self.M, trial
            )
            assert rep.passed
        report(
            "criterion 7b: KL small-value bound",
            f"quadrature case and 50 random (beta, u) instances within 3 SE at "
            f"m={self.M} ({time.perf_counter() - t0:.1f}s)",
        )


class TestCriterion08Calibrations:
    def test_hinge_calibration(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(808)
        for trial in range(20):
            w = rng.standard_normal(2)
            b = rng.standard_normal()
            c = rng.uniform(0.5, 6.0)
            f = lambda X, w=w, b=b: np.clip(X @ w + b, -1, 1)
            eta = make_eta_tsybakov(c)
            cls = classification_excess_risk(f, eta, 2, 40_000, trial)
            hin = hinge_excess_risk(f, eta, 2, 40_000, trial)
            joint = math.hypot(cls.standard_error, hin.standard_error)
            assert cls.value <= hin.value + 3 * joint
        report(
            "criterion 8a: hinge calibration",
            f"0-1 excess <= hinge excess on 20 instances ({time.perf_counter() - t0:.1f}s)",
        )

    def test_logistic_calibration(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(809)
        q = 1.0
        for trial in range(20):
            c = rng.uniform(1.0, 6.0)
            eta = make_eta_tsybakov(c)
            c_q = eta.noise_constant
            w = rng.standard_normal(2)
            b = 0.3 * rng.standard_normal()
            f = lambda X, w=w, b=b: np.clip(X @ w + b, -3, 3)
            cls = classification_excess_risk(f, eta, 2, 40_000, trial)
            log_est = logistic_excess_risk(f, eta, 2, 40_000, trial)
            rhs = 4 * c_q ** (1 / (q + 2)) * (
                log_est.value + 3 * log_est.standard_error
            ) ** ((q + 1) / (q + 2))
            assert cls.value - 3 * cls.standard_error <= rhs
        report(
            "criterion 8b: logistic calibration",
            "0-1 excess <= 4 c_q^(1/3) (logistic excess)^(2/3) on 20 certified "
            f"instances ({time.perf_counter() - t0:.1f}s)",
        )


class TestCriterion09GradientCheck:
    def test_backprop_vs_central_differences(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(909)
        step = 1e-6
        checked = 0
        worst = 0.0
        while checked < 50:
            params = random_cnn(rng)
            x = rng.random(params.d)
            from convrates.cnn import _conv_forward

            def min_pre(p, x):
                a = x[:, None, None]  # spatial-major: (d, n = 1, 1)
                m = np.inf
                for layer in p.layers:
                    z = _conv_forward(layer.weights, layer.bias, a)
                    m = min(m, float(np.abs(z).min()))
                    a = np.maximum(z, 0.0)
                return m

            tries = 0
            while min_pre(params, x) < 1e-4 and tries < 50:
                x = rng.random(params.d)
                tries += 1
            if tries >= 50:
                continue
            vec = param_vector(params)
            arch = (params.d, params.s, params.J, params.depth)
            g = backward(params, x)
            fd = np.empty_like(vec)
            for i in range(len(vec)):
                vp, vm = vec.copy(), vec.copy()
                vp[i] += step
                vm[i] -= step
                fd[i] = (
                    forward(params_from_vector(vp, *arch), x)
                    - forward(params_from_vector(vm, *arch), x)
                ) / (2 * step)
            rel = np.max(np.abs(g - fd) / np.maximum(np.abs(fd), 1.0))
            worst = max(worst, float(rel))
            assert rel <= 1e-5
            checked += 1
        report(
            "criterion 9: gradient check",
            f"50 networks, worst relative error {worst:.2e} <= 1e-5 "
            f"({time.perf_counter() - t0:.1f}s)",
        )


@pytest.mark.slow
class TestCriterion10RateExperiments:
    """Schedule trend checks: strictly decreasing mean excess risk up to one
    inversion, negative fitted slope, predicted slope printed alongside.

    Each study is the shipped config `scripts/rates_<loss>.ini` (seed 42,
    n = 2^8 .. 2^13, five repeats), run through the CLI.  The asymptotic
    exponents themselves concern exact minimizers and n -> inf constants and
    are not reproducible at this scale, so the exponent is reported for
    comparison and not asserted.
    """

    def _check_study(self, tmp_path, loss, name):
        t0 = time.perf_counter()
        config = cli.load_config(SCRIPTS / f"rates_{loss}.ini")
        config.output = str(tmp_path / f"rates_{loss}.csv")
        assert cli.run(config) == 0
        with open(config.output, newline="") as fh:
            *rows, fit = csv.DictReader(fh)
        assert fit["loss"] == "ratefit"
        ns = sorted({int(r["n"]) for r in rows})
        means = [np.mean([float(r["excess_risk"]) for r in rows if int(r["n"]) == n]) for n in ns]
        slope, theory = float(fit["M"]), float(fit["excess_risk"])
        errs = " ".join(f"{e:.4f}" for e in means)
        inversions = int(np.sum(np.diff(means) > 0))
        assert inversions <= 1, f"{name}: means not decreasing: {errs}"
        assert slope < 0, f"{name}: fitted slope {slope} not negative"
        report(
            f"criterion 10: rate experiment ({name})",
            f"means [{errs}] decreasing with {inversions} inversion(s); "
            f"fitted slope {slope:+.3f} vs theory {theory:+.3f} "
            f"({time.perf_counter() - t0:.0f}s)",
        )

    def test_regression_rate(self, tmp_path):
        self._check_study(tmp_path, "squared", "regression, alpha=1, d=2")

    def test_hinge_rate(self, tmp_path):
        self._check_study(tmp_path, "hinge", "hinge, q=1, alpha=1, d=2")

    def test_logistic_rate(self, tmp_path):
        self._check_study(tmp_path, "logistic", "logistic, beta=1, alpha=1, d=2")


class TestCriterion11Determinism:
    def _run_cli(self, tmp_path, name, text):
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(text)
        assert cli.main([str(cfg)]) == 0

    def test_byte_identical_outputs(self, tmp_path):
        t0 = time.perf_counter()
        outputs = {}
        for tag in ("first", "second"):
            base = tmp_path / tag
            base.mkdir()
            self._run_cli(
                tmp_path,
                f"entropy-{tag}",
                f"[run]\nverb = entropy\nseed = 5\noutput = {base}/entropy.csv\n"
                "[entropy]\nd = 4\ns = 2\nJ = 6\nL = 1:8\nM = 3\neps = 0.25\n",
            )
            self._run_cli(
                tmp_path,
                f"cover-{tag}",
                f"[run]\nverb = cover-check\nseed = 5\noutput = {base}/cover.csv\n"
                "[cover-check]\neps = 0.5\ntrials = 20\n",
            )
            self._run_cli(
                tmp_path,
                f"alog-{tag}",
                f"[run]\nverb = approx-log\nseed = 5\noutput = {base}/alog.csv\n"
                "[approx-log]\npieces = 3,20,100\n",
            )
            self._run_cli(
                tmp_path,
                f"compile-{tag}",
                f"[run]\nverb = compile\nseed = 5\noutput = {base}/net.txt\n"
                "[compile]\nneurons = 6\nd = 3\ns = 2\nlink = sign:0.2\n",
            )
            outputs[tag] = base
        for fname in ("entropy.csv", "cover.csv", "alog.csv", "net.txt", "net.txt.report"):
            a = (outputs["first"] / fname).read_bytes()
            b = (outputs["second"] / fname).read_bytes()
            assert a == b, f"{fname} not byte-identical"

        # experiment output is byte-identical except the wall_time column
        frames = []
        for tag in ("first", "second"):
            out = outputs[tag] / "exp.csv"
            self._run_cli(
                tmp_path,
                f"exp-{tag}",
                f"[run]\nverb = experiment\nseed = 11\noutput = {out}\n"
                "[experiment]\nloss = hinge\ntarget = eta-ramp\nsteepness = 4\n"
                "n_schedule = 32,64,128,256\nrepeats = 1\nepochs = 2\n"
                "batch_size = 32\nrestarts = 1\nmc_samples = 1000\n",
            )
            with open(out, newline="") as fh:
                rows = list(csv.reader(fh))
            wall = rows[0].index("wall_time")
            for row in rows[1:]:
                row[wall] = "-"
            frames.append(rows)
        assert frames[0] == frames[1]
        report(
            "criterion 11: determinism",
            "entropy/cover/approx-log/compile outputs byte-identical across "
            f"reruns; experiment identical up to wall_time ({time.perf_counter() - t0:.1f}s)",
        )
