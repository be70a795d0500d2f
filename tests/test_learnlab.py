"""Targets, datasets, ERM training, excess measurement, and rate fitting.

Certified constants are validated against the closed-form marginal laws and
against sampled difference quotients; training is validated on realizable
instances where a compiled network certifies that zero risk is attainable.
"""

import hashlib
import math

import numpy as np
import pytest
from scipy.integrate import quad

from convrates import learnlab
from convrates.cnn import param_vector, path_norm
from convrates.compiler import ScalarNet, ShallowNet, compose_with_scalar_net, shallow_to_cnn
from convrates.errors import PreconditionError, TrainingFailure
from convrates.learnlab import (
    Dataset,
    NoiseSpec,
    ScheduleConstants,
    TargetSpec,
    TrainConfig,
    architecture_schedule,
    empirical_risk,
    fit_loglog,
    make_eta_svb,
    make_eta_tsybakov,
    make_regression_target,
    measure_excess,
    run_rate_experiment,
    sample_dataset,
    theory_slope,
    train_erm,
)


def sampled_lipschitz(fn, d, rng, n=4000):
    """Largest observed difference quotient along random directions."""
    X = rng.random((n, d))
    step = 1e-4 * rng.standard_normal((n, d))
    Y = np.clip(X + step, 0, 1)
    num = np.abs(fn(Y) - fn(X))
    den = np.linalg.norm(Y - X, axis=1)
    ok = den > 0
    return float(np.max(num[ok] / den[ok]))


class TestRegressionTargets:
    def test_trig_certificate(self, rng):
        spec = make_regression_target(
            "trig-mixture",
            {"amps": [1.0], "freqs": [1], "coords": [0], "phases": [0.0], "d": 2},
        )
        # h = sin(2 pi x1) / (2 pi): sup 1/(2 pi), Lipschitz 1
        assert spec.sup_bound == pytest.approx(1 / (2 * np.pi))
        assert spec.lipschitz == 1.0
        assert spec.smoothness == 1.0
        assert spec.holder_radius <= 2.0
        assert sampled_lipschitz(spec, 2, rng) <= spec.lipschitz * (1 + 1e-6)

    def test_constant_target(self):
        spec = make_regression_target(
            "coordinate-clamp", {"slope": 0.0, "offset": 0.3, "level": 0.0, "d": 2}
        )
        X = np.random.default_rng(0).random((50, 2))
        assert np.array_equal(spec(X), np.full(50, 0.3))
        assert spec.holder_radius == pytest.approx(0.3)

    def test_clamp_certificate(self, rng):
        spec = make_regression_target("coordinate-clamp", {"slope": 4.0, "d": 2})
        assert spec.lipschitz == 4.0 and spec.smoothness == 1.0
        assert sampled_lipschitz(spec, 2, rng) <= 4.0 * (1 + 1e-9)

    def test_bump_certificate(self, rng):
        spec = make_regression_target("gaussian-bump-mixture", {"n_terms": 2, "d": 3}, seed=4)
        assert sampled_lipschitz(spec, 3, rng) <= spec.lipschitz * (1 + 1e-6)
        X = rng.random((1000, 3))
        assert np.max(np.abs(spec(X))) <= spec.sup_bound + 1e-12

    def test_unknown_family(self):
        with pytest.raises(PreconditionError):
            make_regression_target("splines")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(PreconditionError):
            make_regression_target("coordinate-clamp", {"slop": 4.0})


class TestEtaTsybakov:
    def test_margin_law_matches_samples(self, rng):
        spec = make_eta_tsybakov(4.0)
        X = rng.random((200_000, 2))
        margins = np.abs(2 * spec(X) - 1)
        for t in np.linspace(0.05, 1.5, 20):
            emp = float(np.mean(margins <= t))
            assert emp == pytest.approx(float(spec.margin_cdf(t)), abs=0.01)

    def test_certified_constant_covers_all_t(self):
        # the ramp concentrates mass at margin 1, so c_q must be >= 1
        for c in (0.5, 1.0, 4.0, 10.0):
            spec = make_eta_tsybakov(c)
            assert spec.noise_exponent == 1.0
            assert spec.noise_constant == max(1.0, 2.0 / c)
            t = np.linspace(1e-6, 2.0, 20)
            assert np.all(spec.margin_cdf(t) <= spec.noise_constant * t + 1e-12)

    def test_ramp_law_closed_form(self):
        spec = make_eta_tsybakov(4.0)
        assert float(spec.margin_cdf(0.5)) == pytest.approx(0.25)  # 2t/c = t/2
        assert float(spec.margin_cdf(0.0)) == 0.0
        assert float(spec.margin_cdf(1.0)) == 1.0

    def test_step_limit(self, rng):
        spec = make_eta_tsybakov(float("inf"))
        X = rng.random((1000, 2))
        assert np.all(np.abs(2 * spec(X) - 1) == 1.0)
        assert spec.noise_exponent == math.inf

    def test_invalid_steepness(self):
        with pytest.raises(PreconditionError):
            make_eta_tsybakov(0.0)


class TestEtaSvb:
    def test_beta_one_uniform_marginal(self, rng):
        spec = make_eta_svb(1.0)
        X = rng.random((100_000, 2))
        vals = spec(X)
        for t in np.linspace(0.05, 0.95, 10):
            assert np.mean(vals <= t) == pytest.approx(t, abs=0.01)
            low, high = spec.small_value_cdf(t)
            assert low == pytest.approx(t) and high == pytest.approx(t)
        assert spec.svb_constant == 1.0

    def test_beta_half_certificate(self, rng):
        beta = 0.5
        spec = make_eta_svb(beta)
        X = rng.random((200_000, 2))
        vals = spec(X)
        t_grid = np.linspace(0.01, 1.0, 20)
        for t in t_grid:
            low, high = spec.small_value_cdf(t)
            assert np.mean(vals <= t) == pytest.approx(float(low), abs=0.01)
            assert np.mean(1 - vals <= t) == pytest.approx(float(high), abs=0.01)
            assert low <= spec.svb_constant * t**beta + 1e-12
            assert high <= spec.svb_constant * t**beta + 1e-12

    def test_beta_zero_bounded(self, rng):
        spec = make_eta_svb(0.0)
        X = rng.random((1000, 2))
        vals = spec(X)
        assert np.all((vals >= 0.25) & (vals <= 0.75))
        low, high = spec.small_value_cdf(0.2)
        assert low == 0.0 and high == 0.0

    def test_invalid_exponent(self):
        with pytest.raises(PreconditionError):
            make_eta_svb(1.5)


class TestSampleDataset:
    def test_noiseless_regression(self):
        spec = make_regression_target("coordinate-clamp", {"d": 2})
        data = sample_dataset(spec, 100, NoiseSpec("gaussian", 0.0), seed=1)
        assert np.array_equal(data.y, spec(data.X))

    def test_eta_one_gives_all_positive_labels(self):
        ones = TargetSpec(
            kind="class-probability", fn=lambda X: np.ones(len(X)), d=2, name="const1"
        )
        data = sample_dataset(ones, 500, seed=0)
        assert np.all(data.y == 1.0)

    def test_binned_means_track_regression_function(self):
        spec = make_regression_target("coordinate-clamp", {"slope": 2.0, "d": 2})
        sigma = 0.3
        data = sample_dataset(spec, 200_000, NoiseSpec("gaussian", sigma), seed=3)
        bins = np.linspace(0, 1, 11)
        which = np.digitize(data.X[:, 0], bins) - 1
        for b in range(10):
            mask = which == b
            count = mask.sum()
            mids = data.X[mask]
            assert abs(data.y[mask].mean() - spec(mids).mean()) <= 4 * sigma / math.sqrt(count)

    def test_reproducible(self):
        spec = make_eta_svb(1.0)
        a = sample_dataset(spec, 64, seed=9)
        b = sample_dataset(spec, 64, seed=9)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    def test_noise_admissibility_recorded(self):
        assert NoiseSpec("gaussian", 0.5).admissible_moment_exponent(1.0) < math.inf
        assert NoiseSpec("uniform", 0.5).admissible_moment_exponent(1.0) == math.inf
        with pytest.raises(PreconditionError):
            NoiseSpec("cauchy", 1.0)


class TestTrainErm:
    def test_realizable_linear_target(self):
        spec = make_regression_target(
            "coordinate-clamp", {"slope": 1.0, "level": 2.0, "d": 2}
        )
        data = sample_dataset(spec, 200, NoiseSpec("gaussian", 0.0), seed=1)
        cfg = TrainConfig(
            s=2, J=6, L=1, M=10.0, loss="squared", trunc_level=4.0,
            epochs=80, batch_size=32, learning_rate=0.02, restarts=2, seed=0,
        )
        params, trace = train_erm(data, cfg)
        assert trace.best_risk <= 1e-3

    def test_separable_hinge_reaches_zero(self):
        """A compiled clamp network certifies zero hinge risk is attainable."""
        spec = make_eta_tsybakov(float("inf"))
        raw = sample_dataset(spec, 400, seed=2)
        keep = np.abs(raw.X[:, 0] - 0.5) > 0.1
        data = Dataset(raw.X[keep], raw.y[keep], spec, None, 2)

        # certificate: clamp((x1 - 1/2) / 0.1) has hinge risk exactly 0
        half_space = ShallowNet([1.0, -1.0], [[1.0, 0.0], [-1.0, 0.0]], [-0.5, 0.5])
        link = ScalarNet([10.0, -10.0, -1.0], [1.0, 1.0, 0.0], [0.1, -0.1, 1.0])
        cert, report = compose_with_scalar_net(half_space, link, 2)
        cert_risk = empirical_risk(cert, data.X, data.y, "hinge", 1.0)
        assert cert_risk <= 1e-12  # zero up to evaluation round-off

        cfg = TrainConfig(
            s=2, J=6, L=2, M=max(100.0, report.norm_achieved), loss="hinge",
            trunc_level=1.0, epochs=100, batch_size=64, learning_rate=0.1,
            restarts=2, seed=0,
        )
        params, trace = train_erm(data, cfg)
        assert trace.best_risk <= 1e-12

    def test_never_worse_than_init(self, rng):
        spec = make_regression_target("trig-mixture", {"d": 2}, seed=1)
        data = sample_dataset(spec, 128, NoiseSpec("gaussian", 0.3), seed=5)
        cfg = TrainConfig(s=2, J=4, L=2, M=5.0, loss="squared", trunc_level=3.0,
                          epochs=3, batch_size=32, restarts=2, seed=1)
        params, trace = train_erm(data, cfg)
        init_risks = [r[0] for r in trace.risks]
        assert trace.best_risk <= min(init_risks)

    def test_constraint_hard_assertion(self):
        spec = make_eta_svb(1.0)
        data = sample_dataset(spec, 128, seed=0)
        cfg = TrainConfig(s=2, J=4, L=2, M=1.5, loss="logistic", trunc_level=3.0,
                          epochs=5, batch_size=32, restarts=1, seed=0)
        params, _ = train_erm(data, cfg)
        assert path_norm(params) <= 1.5 * (1 + 1e-9)

    def test_bit_identical_reruns(self):
        spec = make_eta_tsybakov(4.0)
        data = sample_dataset(spec, 128, seed=4)
        cfg = TrainConfig(s=2, J=4, L=2, M=8.0, loss="hinge", trunc_level=1.0,
                          epochs=4, batch_size=32, restarts=2, seed=7)
        p1, t1 = train_erm(data, cfg)
        p2, t2 = train_erm(data, cfg)
        assert np.array_equal(param_vector(p1), param_vector(p2))
        for a, b in zip(t1.risks, t2.risks):
            assert np.array_equal(a, b)

    def test_golden_hinge_run(self):
        # sha256 of the selected parameters and every per-epoch risk, recorded
        # before training moved to in-place updates of a flat vector; the
        # projection binds on most steps of this run
        spec = make_eta_tsybakov(4.0)
        data = sample_dataset(spec, 200, seed=11)
        cfg = TrainConfig(s=2, J=4, L=2, M=3.0, loss="hinge", trunc_level=1.0, epochs=6,
                          batch_size=32, learning_rate=0.05, restarts=2, seed=3)
        params, trace = train_erm(data, cfg)
        digest = hashlib.sha256(param_vector(params).tobytes())
        for risks in trace.risks:
            digest.update(np.asarray(risks).tobytes())
        assert (trace.best_restart, trace.best_epoch) == (0, 6)
        assert digest.hexdigest() == (
            "d45159949c48ccb5d924b9bc1149061034cbdfee183081182ce21e1b86603f60"
        )

    def test_nonfinite_loss_gradient_raises(self, monkeypatch):
        monkeypatch.setattr(learnlab, "_loss_grad", lambda loss, f, y, level: f * np.nan)
        data = sample_dataset(make_eta_tsybakov(4.0), 64, seed=0)
        cfg = TrainConfig(s=2, J=4, L=2, M=8.0, loss="hinge", epochs=2, batch_size=32,
                          restarts=1, seed=0)
        with pytest.raises(TrainingFailure, match="non-finite loss gradient") as info:
            train_erm(data, cfg)
        assert len(info.value.trace.risks) == 1 and len(info.value.trace.risks[0]) == 1

    def test_divergence_raises(self):
        spec = make_regression_target("coordinate-clamp", {"d": 2})
        data = sample_dataset(spec, 64, NoiseSpec("gaussian", 0.1), seed=0)
        cfg = TrainConfig(s=2, J=4, L=2, M=1e6, loss="squared", trunc_level=1e5,
                          epochs=3, batch_size=32, learning_rate=1e200, restarts=1, seed=0)
        with pytest.raises(TrainingFailure):
            train_erm(data, cfg)


class TestMeasureExcess:
    def test_exact_compiled_copy(self):
        net = ShallowNet([0.7, -0.4], [[1.0, 0.5], [0.2, -1.0]], [0.1, 0.3])
        params, _ = shallow_to_cnn(net, 2)
        spec = TargetSpec(kind="regression", fn=net, d=2, name="shallow")
        est = measure_excess(params, spec, "squared", 5000, 0, trunc_level=100.0)
        assert est.value <= 1e-10

    def test_zero_estimator_constant_target(self):
        spec = make_regression_target(
            "coordinate-clamp", {"slope": 0.0, "offset": 1.0, "level": 0.0, "d": 2}
        )
        zero = ShallowNet([0.0], [[0.0, 0.0]], [0.0])
        params, _ = shallow_to_cnn(zero, 2)
        est = measure_excess(params, spec, "squared", 2000, 0, trunc_level=5.0)
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_zero_estimator_clamp_target_quadrature(self):
        spec = make_regression_target("coordinate-clamp", {"slope": 4.0, "d": 2})
        zero = ShallowNet([0.0], [[0.0, 0.0]], [0.0])
        params, _ = shallow_to_cnn(zero, 2)
        est = measure_excess(params, spec, "squared", 400_000, 3, trunc_level=5.0)
        exact = quad(lambda x: np.clip(4 * (x - 0.5), -1, 1) ** 2, 0, 1)[0]
        assert exact == pytest.approx(2.0 / 3.0, rel=1e-9)
        assert est.value == pytest.approx(exact, abs=5 * est.standard_error)

    def test_classification_excess(self):
        # sign of the zero network is +1 everywhere; eta = x1 makes the
        # 0-1 excess the mass of |2x1 - 1| over the wrong half
        spec = make_eta_svb(1.0)
        zero = ShallowNet([0.0], [[0.0, 0.0]], [0.0])
        params, _ = shallow_to_cnn(zero, 2)
        est = measure_excess(params, spec, "classification", 400_000, 1, trunc_level=1.0)
        exact = quad(lambda x: abs(2 * x - 1), 0, 0.5)[0]  # = 1/4
        assert est.value == pytest.approx(exact, abs=5 * est.standard_error)

    def test_loss_target_mismatch(self):
        spec = make_eta_svb(1.0)
        zero = ShallowNet([0.0], [[0.0, 0.0]], [0.0])
        params, _ = shallow_to_cnn(zero, 2)
        with pytest.raises(PreconditionError):
            measure_excess(params, spec, "squared", 100, 0, trunc_level=1.0)


class TestSchedules:
    def test_growth_in_n(self):
        for loss in ("squared", "hinge", "logistic"):
            archs = [architecture_schedule(loss, n, 2, 1.0) for n in (256, 2048, 16384)]
            L, M, B = zip(*archs)
            assert L[0] <= L[1] <= L[2]
            assert M[0] < M[1] < M[2]
            if loss == "hinge":
                assert all(b == 1.0 for b in B)
            else:
                assert B[0] < B[1] < B[2]

    def test_theory_slopes(self):
        assert theory_slope("squared", 1.0, 2) == pytest.approx(-0.5)
        assert theory_slope("hinge", 1.0, 2, q=1.0) == pytest.approx(-0.4)
        assert theory_slope("logistic", 1.0, 2, beta=1.0) == pytest.approx(-0.5)
        assert theory_slope("hinge", 1.0, 2, q=math.inf) == -1.0


class TestFitLoglog:
    def test_exact_power_law(self):
        ns = np.array([2**k for k in range(8, 14)], dtype=float)
        slope, intercept, residuals = fit_loglog(ns, ns**-0.5)
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert np.max(np.abs(residuals)) < 1e-12

    def test_constant_errors(self):
        ns = np.array([10.0, 20.0, 40.0, 80.0])
        slope, _, _ = fit_loglog(ns, np.full(4, 0.25))
        assert slope == pytest.approx(0.0, abs=1e-14)

    def test_too_few_points(self):
        with pytest.raises(PreconditionError):
            fit_loglog([1.0, 2.0, 4.0], [1.0, 0.5, 0.25])


class TestRunRateExperiment:
    def test_smoke_and_determinism(self):
        spec = make_regression_target("coordinate-clamp", {"slope": 2.0, "d": 2})
        kwargs = dict(
            n_schedule=[32, 64, 128, 256],
            repeats=1,
            base_seed=11,
            noise=NoiseSpec("gaussian", 0.2),
            consts=ScheduleConstants(1.0, 5.0, 2.0),
            train_options=dict(epochs=3, batch_size=32, restarts=1),
            mc_samples=2000,
        )
        fit1, rows1 = run_rate_experiment(spec, "squared", **kwargs)
        fit2, rows2 = run_rate_experiment(spec, "squared", **kwargs)
        assert np.array_equal(fit1.mean_errors, fit2.mean_errors)
        assert fit1.slope == fit2.slope
        assert len(rows1) == 4
        assert [r.excess_risk for r in rows1] == [r.excess_risk for r in rows2]
        assert fit1.theory_slope == pytest.approx(-0.5)

    def test_schedule_validation(self):
        spec = make_regression_target("coordinate-clamp", {"d": 2})
        with pytest.raises(PreconditionError):
            run_rate_experiment(spec, "squared", [64, 32, 128, 256])

    def test_training_failure_carries_partial_rows(self):
        from convrates.errors import TrainingFailure

        spec = make_regression_target("coordinate-clamp", {"d": 2})
        with pytest.raises(TrainingFailure) as err:
            run_rate_experiment(
                spec,
                "squared",
                [32, 64, 128, 256],
                repeats=1,
                base_seed=0,
                noise=NoiseSpec("gaussian", 0.1),
                train_options=dict(epochs=2, batch_size=32, restarts=1,
                                   learning_rate=1e200),
                mc_samples=500,
            )
        assert hasattr(err.value, "partial_rows")
