"""Targets, datasets, ERM training, excess measurement, and rate fitting.

Certified constants are validated against the closed-form marginal laws and
against sampled difference quotients; training is validated on realizable
instances where a compiled network certifies that zero risk is attainable.
"""

import hashlib
import math
import os
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from convrates import learnlab
from convrates.cnn import CnnParams, ConvLayer, param_vector, path_norm
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
        terms = {"amps": [1.0], "freqs": [-1], "coords": [0], "phases": [0.0], "d": 2}
        assert make_regression_target("trig-mixture", terms).sup_bound == spec.sup_bound

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

    @pytest.mark.parametrize(
        "params",
        [{"slope": math.nan}, {"slope": math.inf}, {"level": -1.0}, {"level": math.nan},
         {"level": math.inf}, {"center": math.nan}, {"offset": math.inf}, {"coord": 7},
         {"coord": -1}, {"coord": 0.5}, {"coord": "abc"}, {"slope": "abc"},
         {"slope": [1.0, 2.0]}, {"center": [0.5]}, {"d": "x"}],
    )
    def test_clamp_refuses_what_it_cannot_certify(self, params):
        with pytest.raises(PreconditionError):
            make_regression_target("coordinate-clamp", {"d": 2, **params})

    def test_certificates_are_finite_and_nonnegative(self):
        with pytest.raises(PreconditionError, match="Lipschitz constant inf"):
            make_regression_target("gaussian-bump-mixture", {"n_terms": 1, "widths": [1e-310]})
        with pytest.raises(PreconditionError, match="sup bound inf"):
            make_regression_target("gaussian-bump-mixture", {"n_terms": 2, "amps": [1e308] * 2})

    @pytest.mark.parametrize(
        "params, match",
        [({"amps": [math.nan]}, "finite"), ({"amps": [math.inf]}, "finite"),
         ({"centers": [[math.nan, 0.5]]}, "finite"), ({"widths": [math.inf]}, "finite"),
         ({"widths": [-0.3]}, "widths > 0"), ({"widths": [0.0]}, "widths > 0"),
         ({"amps": [0.0], "widths": [-0.3]}, "widths > 0"),
         ({"amps": [1.0] * 3, "widths": [0.3] * 3}, "shapes"),
         ({"widths": [0.3, 0.3]}, "shapes"), ({"centers": [[0.5]]}, "shapes"),
         ({"centers": [[0.5, 0.5, 0.5]]}, "shapes"), ({"amps": 1.0, "widths": 0.3}, "shapes")],
    )
    def test_bump_refuses_what_it_cannot_certify(self, params, match):
        # n_terms = 1 draws one center of shape (1, 2) unless centers are given
        with pytest.raises(PreconditionError, match=match):
            make_regression_target("gaussian-bump-mixture", {"d": 2, "n_terms": 1, **params})

    @pytest.mark.parametrize(
        "family, params, match",
        [("trig-mixture", {"amps": [[1.0], [1.0, 2.0]]}, "amps must be a rectangular array"),
         ("trig-mixture", {"amps": "abc"}, "amps must be a rectangular array"),
         ("trig-mixture", {"phases": {}}, "phases must be a rectangular array"),
         ("trig-mixture", {"coords": [0.7, 1.2, 0.0]}, "integer coords"),
         ("trig-mixture", {"coords": [0, 1, 2]}, "integer coords"),
         ("gaussian-bump-mixture", {"centers": [[0.1, 0.2], [0.3]]}, "centers must be a"),
         ("gaussian-bump-mixture", {"widths": ["x"] * 3}, "widths must be a"),
         ("trig-mixture", {"n_terms": -1}, "integer n_terms must be between 1"),
         ("gaussian-bump-mixture", {"n_terms": -1}, "integer n_terms must be between 1"),
         ("trig-mixture", {"n_terms": 2.7}, "integer n_terms must be whole"),
         ("trig-mixture", {"n_terms": "abc"}, "n_terms must be a rectangular array"),
         ("trig-mixture", {"n_terms": math.nan}, "n_terms must be finite"),
         ("trig-mixture", {"n_terms": 10**12}, "integer n_terms must be between 1"),
         ("gaussian-bump-mixture", {"n_terms": 10**12}, "integer n_terms must be between 1"),
         ("gaussian-bump-mixture", {"n_terms": 10**4, "d": 10**4}, r"n_terms \* d"),
         ("trig-mixture", {"n_terms": 10**400}, "n_terms must be a rectangular array"),
         ("gaussian-bump-mixture", {"d": -1}, "integer d must be between 1"),
         ("trig-mixture", {"d": 0}, "integer d must be between 1"),
         ("gaussian-bump-mixture", {"d": "x"}, "d must be a rectangular array"),
         ("trig-mixture", {"phases": [0.0, math.inf, 1.0]}, "phases must be finite")],
    )
    def test_term_arrays_are_rectangular_numbers(self, family, params, match, monkeypatch):
        # every key is read before any default term is drawn: a draw from
        # this rng would fail with an AttributeError
        monkeypatch.setattr(learnlab, "spawn_rng", lambda *path: None)
        with pytest.raises(PreconditionError, match=match):
            make_regression_target(family, {"d": 2, "n_terms": 3, **params})


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

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 3.0, 4.0, 50.0])
    def test_small_value_law_matches_samples_and_its_bound(self, rng, c):
        # eta and 1 - eta share the law; the clamp binds only for c > 2, and
        # its atom 1/2 - 1/c at eta = 0 leaves beta = 0
        spec = make_eta_tsybakov(c)
        assert (spec.svb_exponent, spec.svb_constant) == ((1.0, 2 / c) if c <= 2 else (0.0, 1.0))
        vals = spec(rng.random((200_000, 2)))
        for t in np.linspace(0.0, 1.5, 31):
            low, high = spec.small_value_cdf(t)
            assert np.mean(vals <= t) == pytest.approx(float(low), abs=0.01)
            assert np.mean(1 - vals <= t) == pytest.approx(float(high), abs=0.01)
            assert max(low, high) <= spec.svb_constant * t**spec.svb_exponent + 1e-12
        assert spec.small_value_cdf(-0.5)[0] == 0.0

    def test_step_margin_law(self):
        # |2 eta - 1| = 1 almost surely: the law is 0 below t = 1 and 1 from it
        spec = make_eta_tsybakov(math.inf)
        t = np.array([-1.0, 0.0, 0.5, np.nextafter(1.0, 0.0), 1.0, 2.0, math.inf])
        assert spec.margin_cdf(t).tolist() == [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0]

    def test_step_limit(self, rng):
        spec = make_eta_tsybakov(float("inf"))
        X = rng.random((1000, 2))
        assert np.all(np.abs(2 * spec(X) - 1) == 1.0)
        assert spec.noise_exponent == math.inf

    def test_invalid_steepness(self):
        with pytest.raises(PreconditionError):
            make_eta_tsybakov(0.0)
        # c and d are refused when the target is built, before any draw
        for c, d, match in [
            ("abc", 2, "steepness c"), (math.nan, 2, "steepness c"), (-math.inf, 2, "steepness c"),
            (4.0, -1, "integer d must be between 1"), (4.0, 2.5, "integer d must be whole"),
            (4.0, 10**12, "integer d must be between 1"), (math.inf, 0, "integer d must be"),
            (4.0, "x", "d must be a rectangular array"),
            # 2/c overflows, c/2 underflows: a certified constant must be finite and > 0
            (1e-320, 2, r"c=1e-320 certifies noise_constant = inf"),
            (5e-324, 2, r"c=5e-324 certifies lipschitz = 0\.0"),
        ]:
            with pytest.raises(PreconditionError, match=match):
                make_eta_tsybakov(c, d=d)


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
        for beta, d, match in [
            ("x", 2, "exponent beta"), (math.nan, 2, "exponent beta"), (-0.5, 2, "exponent beta"),
            (1.0, 0, "integer d must be between 1"), (0.0, 2.5, "integer d must be whole"),
            (0.5, 10**12, "integer d must be between 1"), (1.0, [2, 3], "d must be one number"),
            (1e-320, 2, "beta=1e-320 certifies lipschitz = inf"),  # 1/beta overflows
        ]:
            with pytest.raises(PreconditionError, match=match):
                make_eta_svb(beta, d=d)


class TestGoldenTargets:
    def test_target_reprs(self):
        # sha256 of the repr, which carries every certificate, of each shipped
        # target: the regression families at their defaults and the squared
        # study's trig terms, the ramp and step class probabilities, and the
        # small-value family at beta = 0, 1/2 and 1
        study_terms = {"amps": [1.5, 1.0], "freqs": [1, 3], "coords": [0, 1], "phases": [0.3, 1.1]}
        families = ("trig-mixture", "gaussian-bump-mixture", "coordinate-clamp")
        specs = [make_regression_target(family) for family in families]
        specs += [make_regression_target("trig-mixture", study_terms)]
        specs += [make_eta_tsybakov(4.0), make_eta_tsybakov(math.inf)]
        specs += [make_eta_svb(beta) for beta in (0.0, 0.5, 1.0)]
        digest = hashlib.sha256("\n".join(map(repr, specs)).encode()).hexdigest()
        assert digest == "b052177b3da9b2ab6f491b98d70a86b296bf105bc3feaa2e1a380d7d7f88b291"


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

    def test_uniform_noise_labels_lie_within_the_scale(self):
        spec = make_regression_target("coordinate-clamp", {"d": 2})
        noise = NoiseSpec("uniform", 0.3)
        data = sample_dataset(spec, 2000, noise, seed=4)
        offsets = data.y - spec(data.X)
        assert np.max(np.abs(offsets)) <= 0.3 + 1e-12
        assert np.min(offsets) < -0.25 and np.max(offsets) > 0.25  # the band is filled
        again = sample_dataset(spec, 2000, noise, seed=4)
        assert data.X.tobytes() == again.X.tobytes() and data.y.tobytes() == again.y.tobytes()

    @pytest.mark.parametrize("n, kind, match", [
        (0, "regression", "need at least one sample"),
        (-3, "regression", "need at least one sample"),
        (4, "density", "unknown target kind: 'density'"),
    ])
    def test_refusals(self, n, kind, match):
        spec = TargetSpec(kind=kind, fn=lambda X: X[:, 0], d=2, name="first coordinate")
        with pytest.raises(PreconditionError, match=match):
            sample_dataset(spec, n, seed=0)

    def test_noise_admissibility_recorded(self):
        assert NoiseSpec("gaussian", 0.5).admissible_moment_exponent() < math.inf
        assert NoiseSpec("uniform", 0.5).admissible_moment_exponent() == math.inf
        with pytest.raises(PreconditionError):
            NoiseSpec("cauchy", 1.0)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -0.1])
    def test_noise_scale_must_be_finite_and_nonnegative(self, scale):
        with pytest.raises(PreconditionError, match="noise scale"):
            NoiseSpec("gaussian", scale)

    def test_overflowing_labels_are_a_precondition_error(self):
        spec = make_regression_target("coordinate-clamp", {"d": 2})
        with pytest.raises(PreconditionError, match="non-finite"):
            sample_dataset(spec, 1000, NoiseSpec("gaussian", 6.5e307), seed=0)
        with pytest.raises(PreconditionError, match="overflows"):
            NoiseSpec("uniform", 1e308)


class TestTrainConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("M", math.nan), ("M", math.inf), ("trunc_level", math.nan),
            ("trunc_level", math.inf), ("learning_rate", math.nan),
            ("final_learning_rate", math.inf), ("s", 0), ("J", -2), ("learning_rate", 0.0),
            ("learning_rate", -0.1), ("final_learning_rate", -0.001),
        ],
    )
    def test_rejects(self, field, value):
        with pytest.raises(PreconditionError):
            TrainConfig(**{field: value})

    def test_init_scale_is_not_a_field(self):
        with pytest.raises(TypeError, match="init_scale"):
            TrainConfig(init_scale=1.0)

    @pytest.mark.parametrize("field, value, match", [
        ("loss", "cubic", "unknown loss: 'cubic'"),
        ("learning_rate", 0.0, "learning rates must be finite, the first > 0"),
    ])
    def test_refusal_messages(self, field, value, match):
        with pytest.raises(PreconditionError, match=match):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field", ["l_const", "m_const", "b_const"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_schedule_constants_must_be_finite(self, field, value):
        consts = ScheduleConstants(**{field: value})
        with pytest.raises(PreconditionError, match="finite"):
            architecture_schedule("squared", 256, 2, 1.0, consts=consts)


class TestInitCnn:
    def test_he_scale_then_projection(self):
        # the weights are drawn at the He fan-in scale, with no extra factor,
        # and only the output layer is scaled down to meet the budget M
        d, s, J, L = 4, 2, 3, 2
        free = learnlab._init_cnn(d, s, J, L, 1e12, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        for i, layer in enumerate(free.layers):
            in_c = 1 if i == 0 else J
            w = rng.normal(0.0, math.sqrt(2.0 / (s * in_c)), (s, J, in_c))
            assert layer.weights.tobytes() == w.tobytes()
            assert layer.bias.tobytes() == rng.normal(0.0, 0.01, J).tobytes()
        W = rng.normal(0.0, 1.0 / math.sqrt(d * J), (d, J))
        assert free.output_weights.tobytes() == W.tobytes()
        M = path_norm(free) / 4
        tight = learnlab._init_cnn(d, s, J, L, M, np.random.default_rng(5))
        for a, b in zip(tight.layers, free.layers):
            assert a.weights.tobytes() == b.weights.tobytes()
        assert path_norm(tight) == pytest.approx(M, rel=1e-12)


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
        data = Dataset(raw.X[keep], raw.y[keep])

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
        # when backward's filter gradients became GEMMs over channel-major
        # grids and every one-row tap a GEMM; the projection binds on most
        # steps of this run
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
            "396acaadac06fa336187f4a8fde53aace79ef3bd9415e0e7d3a33138b9298776"
        )

    def test_nonfinite_loss_gradient_raises(self, monkeypatch):
        monkeypatch.setattr(learnlab, "_loss_grad", lambda loss, f, y, level: f * np.nan)
        data = sample_dataset(make_eta_tsybakov(4.0), 64, seed=0)
        cfg = TrainConfig(s=2, J=4, L=2, M=8.0, loss="hinge", epochs=2, batch_size=32,
                          restarts=1, seed=0)
        with pytest.raises(TrainingFailure, match="non-finite loss gradient") as info:
            train_erm(data, cfg)
        assert len(info.value.trace.risks) == 1 and len(info.value.trace.risks[0]) == 1

    def test_nonfinite_initial_risk_raises_before_any_step(self, monkeypatch):
        steps, backward = [], learnlab.backward
        monkeypatch.setattr(learnlab, "backward", lambda *a: steps.append(a) or backward(*a))
        X = np.random.default_rng(0).random((50, 2))
        cfg = TrainConfig(epochs=2, batch_size=10, restarts=1)
        with pytest.raises(TrainingFailure, match="non-finite empirical risk") as info:
            train_erm(Dataset(X, np.full(50, 1e200)), cfg)
        assert steps == []
        assert [list(risks) for risks in info.value.trace.risks] == [[math.inf]]

    def test_errstate_covers_the_blocked_full_sample_risk(self, monkeypatch):
        # n = 8192 at d = 2, J = 6 is several row blocks, so the full-sample risk's
        # forward overflows on a worker thread too, where train_erm's errstate must hold
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        weights = np.random.default_rng(0).standard_normal

        def huge_init(d, s, J, L, M, rng):
            layers = [ConvLayer(1e200 * weights((s, J, 1 if i == 0 else J)), np.zeros(J))
                      for i in range(L)]
            return CnnParams(d, s, layers, np.full((d, J), 1e-300))

        monkeypatch.setattr(learnlab, "_init_cnn", huge_init)
        data = sample_dataset(make_eta_tsybakov(4.0), 8192, seed=0)
        cfg = TrainConfig(s=2, J=6, L=3, M=8.0, loss="hinge", epochs=1, batch_size=128,
                          restarts=1, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingFailure):
                train_erm(data, cfg)

    def test_divergence_raises(self):
        spec = make_regression_target("coordinate-clamp", {"d": 2})
        data = sample_dataset(spec, 64, NoiseSpec("gaussian", 0.1), seed=0)
        cfg = TrainConfig(s=2, J=4, L=2, M=1e6, loss="squared", trunc_level=1e5,
                          epochs=3, batch_size=32, learning_rate=1e200, restarts=1, seed=0)
        with pytest.raises(TrainingFailure):
            train_erm(data, cfg)
        # one step at 6e307 leaves finite weights whose path norm overflows float64
        cfg = TrainConfig(s=2, J=2, L=2, M=5.0, loss="squared", trunc_level=2.0, epochs=1,
                          batch_size=8, learning_rate=6e307, final_learning_rate=0.5, restarts=1)
        with pytest.raises(TrainingFailure, match="path norm"):
            train_erm(sample_dataset(spec, 8, NoiseSpec("gaussian", 0.25), seed=0), cfg)


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

    def test_unknown_loss(self):
        zero = ShallowNet([0.0], [[0.0, 0.0]], [0.0])
        params, _ = shallow_to_cnn(zero, 2)
        with pytest.raises(PreconditionError, match="unknown loss: 'cubic'"):
            measure_excess(params, make_eta_svb(1.0), "cubic", 100, 0, trunc_level=1.0)

    def test_loss_target_mismatch(self):
        spec = make_eta_svb(1.0)
        zero = ShallowNet([0.0], [[0.0, 0.0]], [0.0])
        params, _ = shallow_to_cnn(zero, 2)
        with pytest.raises(PreconditionError):
            measure_excess(params, spec, "squared", 100, 0, trunc_level=1.0)

    def test_estimator_looked_up_on_links_per_call(self, monkeypatch):
        # a rebinding of links.<loss>_excess_risk after import is the one used
        calls = []
        monkeypatch.setattr(
            learnlab.links, "hinge_excess_risk", lambda *args: calls.append(args) or "est"
        )
        zero = ShallowNet([0.0], [[0.0, 0.0]], [0.0])
        params, _ = shallow_to_cnn(zero, 2)
        assert measure_excess(params, make_eta_svb(1.0), "hinge", 100, 7, 1.0) == "est"
        (f, eta, d, m, seed), = calls
        assert (d, m, seed) == (2, 100, 7)


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

    @pytest.mark.parametrize("l_const", [1e308, 1e5])
    def test_depth_guard(self, l_const):
        with pytest.raises(PreconditionError, match="guard"):
            architecture_schedule("squared", 256, 2, 1.0, consts=ScheduleConstants(l_const=l_const))

    @pytest.mark.parametrize("n_max", [10**12, 10**400])
    def test_sample_guard(self, monkeypatch, n_max):
        calls = []
        monkeypatch.setattr(learnlab, "sample_dataset", lambda *a, **k: calls.append(a))
        spec = make_regression_target("coordinate-clamp", {"d": 2})
        with pytest.raises(PreconditionError, match="guard"):
            run_rate_experiment(spec, "squared", [64, 128, 256, n_max])
        assert calls == []

    @pytest.mark.parametrize("n", [10**7 + 1, 10**12, 10**400], ids=["1e7+1", "1e12", "1e400"])
    def test_schedule_sample_guard(self, n):
        for loss in learnlab.LOSSES:
            with pytest.raises(PreconditionError, match="guard"):
                architecture_schedule(loss, n, 2, 1.0)

    def test_default_schedules_stay_far_below_the_depth_guard(self):
        for loss in ("squared", "hinge", "logistic"):
            L, _, _ = architecture_schedule(loss, 2**20, 2, 1.0)
            assert L <= learnlab._DEPTH_GUARD // 100

    @pytest.mark.parametrize("call", [
        lambda: learnlab.default_constants("cubic"),
        lambda: theory_slope("cubic", 1.0, 2),
    ], ids=["default_constants", "theory_slope"])
    def test_unknown_loss(self, call):
        with pytest.raises(PreconditionError, match="unknown loss: 'cubic'"):
            call()

    def test_theory_slopes(self):
        assert theory_slope("squared", 1.0, 2) == pytest.approx(-0.5)
        assert theory_slope("hinge", 1.0, 2, q=1.0) == pytest.approx(-0.4)
        assert theory_slope("logistic", 1.0, 2, beta=1.0) == pytest.approx(-0.5)
        assert theory_slope("hinge", 1.0, 2, q=math.inf) == -1.0
        assert architecture_schedule("hinge", 8192, 2, 1.0, q=math.inf) == (1, 3.0, 1.0)

    @pytest.mark.parametrize("loss", ["squared", "hinge", "logistic"])
    @pytest.mark.parametrize("alpha, d, q, beta", [
        (0.0, 2, 1.0, 1.0), (-0.9999, 2, 1.0, 1.0), (math.inf, 2, 1.0, 1.0),
        (math.nan, 2, 1.0, 1.0), (1e308, 2, 1.0, 1.0), (1.0, 0, 1.0, 1.0),
        (1.0, 2, -1.0, 1.0), (1.0, 2, 1.0, math.inf), (1.0, 2, 1.0, -0.5),
    ])
    def test_schedule_and_slope_share_one_domain(self, loss, alpha, d, q, beta):
        # outside the rate's domain a schedule would overflow (alpha = -0.9999)
        # or describe an architecture for a rate that does not exist
        with pytest.raises(PreconditionError, match="no rate exponent"):
            theory_slope(loss, alpha, d, q=q, beta=beta)
        with pytest.raises(PreconditionError, match="no rate exponent"):
            architecture_schedule(loss, 8192, d, alpha, q=q, beta=beta)


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

    @pytest.mark.parametrize("ns, errors, match", [
        ([1.0, 2.0, 4.0, 8.0], [1.0, 0.5, 0.25], "equal-length vectors"),
        ([[1.0, 2.0], [4.0, 8.0]], [[1.0, 0.5], [0.25, 0.125]], "equal-length vectors"),
        ([1.0, 2.0, 4.0, 8.0], [1.0, 0.5, 0.0, 0.125], "errors must be positive"),
        ([1.0, 2.0, 4.0, 8.0], [1.0, -0.5, 0.25, 0.125], "errors must be positive"),
    ])
    def test_malformed_inputs(self, ns, errors, match):
        with pytest.raises(PreconditionError, match=match):
            fit_loglog(ns, errors)

    def test_too_few_points(self):
        with pytest.raises(PreconditionError):
            fit_loglog([1.0, 2.0, 4.0], [1.0, 0.5, 0.25])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_errors(self, bad):
        with pytest.raises(PreconditionError, match="finite"):
            fit_loglog([1.0, 2.0, 4.0, 8.0], [1.0, bad, 0.25, 0.125])

    @pytest.mark.parametrize("bad", [0.0, -5.0, math.nan, math.inf])
    def test_non_positive_or_non_finite_sizes(self, bad):
        with pytest.raises(PreconditionError, match="sample sizes"):
            fit_loglog([bad, 2.0, 4.0, 8.0], [1.0, 0.5, 0.25, 0.125])


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

    @pytest.mark.parametrize("loss, repeats, match", [
        ("squared", 0, "repeats=0 must be positive"),
        ("cubic", 1, "unknown loss: 'cubic'"),
    ])
    def test_refused_before_sampling(self, monkeypatch, loss, repeats, match):
        calls = []
        monkeypatch.setattr(learnlab, "sample_dataset", lambda *a, **k: calls.append(a))
        spec = make_regression_target("coordinate-clamp", {"d": 2})
        with pytest.raises(PreconditionError, match=match):
            run_rate_experiment(spec, loss, [32, 64, 128, 256], repeats=repeats)
        assert calls == []

    @pytest.mark.parametrize("key", ["loss", "L", "M", "trunc_level", "seed", "bogus"])
    def test_scheduled_or_unknown_train_option_rejected_before_sampling(self, monkeypatch, key):
        calls = []
        monkeypatch.setattr(learnlab, "sample_dataset", lambda *a, **k: calls.append(a))
        spec = make_regression_target("coordinate-clamp", {"d": 2})
        with pytest.raises(PreconditionError, match=f"train option '{key}'"):
            run_rate_experiment(spec, "squared", [32, 64, 128, 256], train_options={key: 1})
        assert calls == []

    def test_loss_target_mismatch_rejected_before_training(self, monkeypatch):
        calls = []
        monkeypatch.setattr(learnlab, "train_erm", lambda *a, **k: calls.append(a))
        with pytest.raises(PreconditionError, match="squared loss expects a regression"):
            run_rate_experiment(make_eta_tsybakov(4.0), "squared", [32, 64, 128, 256])
        assert calls == []

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
