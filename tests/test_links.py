"""Link constructions, risk functionals, and scalar inequalities.

Oracles: plain-arithmetic clamp/interp evaluation for the link nets,
scipy quadrature for one-dimensional risk integrals, and closed forms for
constant integrands.
"""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from convrates.compiler import shallow_norm
from convrates.errors import PreconditionError
from convrates.links import (
    RiskEstimate,
    check_kl_bound,
    check_log2_inequality,
    check_logistic_variance_bound,
    classification_excess_risk,
    hinge_excess_risk,
    kl_divergence,
    kl_small_value_bound,
    log_link,
    log_link_net,
    logistic,
    logistic_excess_risk,
    sign_link,
    sign_link_net,
    sign_plus,
    squared_excess_risk,
)
from convrates.sampling import spawn_rng


class TestLogistic:
    def test_frozen_values(self):
        assert logistic(0.0) == 0.5
        assert logistic(math.log(3.0)) == pytest.approx(0.75, abs=1e-15)

    def test_infinite_arguments(self):
        assert logistic(float("inf")) == 1.0
        assert logistic(float("-inf")) == 0.0

    def test_symmetry(self, rng):
        t = rng.uniform(-700, 700, 1000)
        assert np.allclose(logistic(t) + logistic(-t), 1.0, atol=1e-12)

    def test_no_overflow_for_large_negative(self):
        assert logistic(-1e4) == 0.0
        assert logistic(np.array([-750.0, 750.0])).tolist() == [0.0, 1.0]


class TestKlDivergence:
    def test_zero_on_diagonal(self):
        p = np.linspace(0, 1, 101)
        assert np.array_equal(kl_divergence(p, p), np.zeros(101))

    def test_frozen_half_quarter(self):
        # two independent arithmetic paths to the same value
        path_a = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
        path_b = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert path_a == pytest.approx(path_b, rel=1e-15)
        assert kl_divergence(0.5, 0.25) == pytest.approx(path_a, rel=1e-13)

    def test_infinity_conventions(self):
        assert kl_divergence(1.0, 0.0) == math.inf
        assert kl_divergence(0.5, 0.0) == math.inf
        assert kl_divergence(0.5, 1.0) == math.inf
        assert kl_divergence(0.0, 0.0) == 0.0
        assert kl_divergence(1.0, 1.0) == 0.0
        assert kl_divergence(0.0, 1.0) == math.inf  # q=1 with p != 1

    def test_nonnegative_and_zero_iff_equal_on_grid(self):
        p = np.linspace(0, 1, 41)
        q = np.linspace(0.01, 0.99, 37)
        P, Q = np.meshgrid(p, q, indexing="ij")
        vals = kl_divergence(P.ravel(), Q.ravel())
        assert np.all(vals >= 0)
        equal = np.isclose(P.ravel(), Q.ravel(), atol=1e-12)
        assert np.all(vals[~equal] > 0)

    def test_accurate_near_diagonal(self):
        # KL(p, p+h) ~ h^2 / (2 p (1-p)); check the leading order at h=1e-6
        p, h = 0.3, 1e-6
        expected = h * h / (2 * p * (1 - p))
        assert kl_divergence(p, p + h) == pytest.approx(expected, rel=1e-3)

    def test_out_of_range_rejected(self):
        with pytest.raises(PreconditionError):
            kl_divergence(1.2, 0.5)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_nonnegative_everywhere(self, p, q):
        assert kl_divergence(p, q) >= 0.0

    def test_extreme_ratio_regression(self):
        # p << q once rounded the relative difference to exactly -1, turning
        # the first term into -inf and the sum into NaN
        assert kl_divergence(4.5e-163, 1.0) == math.inf
        assert kl_divergence(1.0 - 1e-16, 5e-324) < math.inf
        assert kl_divergence(5e-324, 0.5) == pytest.approx(math.log(2.0), abs=1e-12)


class TestLogLink:
    def test_antisymmetry_at_half(self):
        for n in (3, 10, 50):
            link = log_link_net(n)
            assert abs(link(0.5)) < 1e-12
            assert logistic(link(0.5)) == pytest.approx(0.5, abs=1e-12)

    def test_boundary_values(self):
        for n in (3, 7, 100):
            link = log_link_net(n)
            for t in (-3.0, -0.1, 0.0):
                assert link(t) == pytest.approx(-math.log(n), rel=1e-12)
            for t in (1.0, 1.5, 10.0):
                assert link(t) == pytest.approx(math.log(n), rel=1e-12)

    def test_conditions_on_grid(self):
        t = np.linspace(0, 1, 10_000)
        for n in (3, 10, 100):
            link = log_link_net(n)
            g = link(t)
            assert np.max(np.abs(g)) <= math.log(n) + 1e-12
            assert np.max(np.abs(logistic(g) - t)) <= 3.0 / n
            assert shallow_norm(link) <= 6 * n

    def test_net_matches_closed_form(self):
        t = np.linspace(-0.5, 1.5, 4001)
        for n in (3, 17, 128):
            link = log_link_net(n)
            assert np.max(np.abs(link(t) - log_link(n, t))) < 1e-12

    def test_small_n_rejected(self):
        with pytest.raises(PreconditionError):
            log_link_net(2)


class TestSignLink:
    def test_zero_at_zero(self):
        assert sign_link_net(0.25)(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_saturation(self):
        link = sign_link_net(0.25)
        assert link(0.5) == pytest.approx(1.0, abs=1e-14)
        assert link(-0.5) == pytest.approx(-1.0, abs=1e-14)

    def test_matches_clamp_oracle(self):
        t = np.linspace(-2, 2, 10_000)
        for u in (0.1, 0.3, 0.9):
            link = sign_link_net(u)
            assert np.max(np.abs(link(t) - sign_link(u, t))) < 1e-14
        # round-off scales with the 1/u amplification
        link = sign_link_net(0.01)
        assert np.max(np.abs(link(t) - sign_link(0.01, t))) < 1e-12

    @given(st.one_of(st.just(0.0), st.just(1.0), st.floats(1e-300, 1.0, exclude_max=True)))
    def test_half_width_domain(self, u):
        if u in (0.0, 1.0):
            with pytest.raises(PreconditionError):
                sign_link_net(u)
        else:
            assert sign_link_net(u)(np.array([u / 2, u])) == pytest.approx([0.5, 1.0])


class TestHingeExcessRisk:
    def test_bayes_function_has_zero_excess(self, rng):
        eta = lambda X: X[:, 0]
        f = lambda X: sign_plus(2 * X[:, 0] - 1)
        est = hinge_excess_risk(f, eta, 2, 5000, 3)
        assert est.value == 0.0

    def test_constant_integrand(self):
        est = hinge_excess_risk(
            lambda X: -np.ones(len(X)),
            lambda X: np.ones(len(X)),
            2,
            100,
            0,
        )
        assert est.value == 2.0 and est.standard_error == 0.0

    def test_quadrature_oracle(self):
        # eta = x1 on [0,1]^2, f = 1: integrand 2(1-2x1) on x1 < 1/2
        exact = quad(lambda x: 2 * (1 - 2 * x), 0, 0.5)[0]
        assert exact == pytest.approx(0.5, abs=1e-12)
        est = hinge_excess_risk(
            lambda X: np.ones(len(X)), lambda X: X[:, 0], 2, 400_000, 11
        )
        assert est.value == pytest.approx(exact, abs=4 * est.standard_error)

    def test_unbounded_f_rejected(self):
        with pytest.raises(PreconditionError):
            hinge_excess_risk(
                lambda X: 2 * np.ones(len(X)),
                lambda X: X[:, 0],
                2,
                100,
                0,
            )


    def test_nan_scores_rejected(self):
        # NaN compares false against the |f| <= 1 check, so it needs its own
        with pytest.raises(PreconditionError, match="finite"):
            hinge_excess_risk(
                lambda X: np.full(len(X), np.nan),
                lambda X: X[:, 0],
                2,
                100,
                0,
            )


class TestLogisticExcessRisk:
    def test_optimal_score_has_zero_excess(self):
        eta = lambda X: 0.25 + 0.5 * X[:, 0]
        f_star = lambda X: np.log(eta(X) / (1 - eta(X)))
        est = logistic_excess_risk(f_star, eta, 2, 5000, 1)
        assert est.value == pytest.approx(0.0, abs=1e-14)

    def test_symmetric_zero(self):
        est = logistic_excess_risk(
            lambda X: np.zeros(len(X)),
            lambda X: np.full(len(X), 0.5),
            2,
            100,
            0,
        )
        assert est.value == 0.0

    def test_constant_integrand_closed_form(self):
        est = logistic_excess_risk(
            lambda X: np.full(len(X), math.log(3.0)),
            lambda X: np.full(len(X), 0.5),
            2,
            100,
            0,
        )
        assert est.value == pytest.approx(kl_divergence(0.5, 0.75), rel=1e-13)
        assert est.standard_error == pytest.approx(0.0, abs=1e-16)

    def test_nan_scores_rejected(self):
        # logistic(NaN) is NaN, which kl_divergence would carry into the mean
        scores = lambda X: np.where(X[:, 1] < 0.5, np.nan, 1.0)
        with pytest.raises(PreconditionError, match="finite"):
            logistic_excess_risk(scores, lambda X: X[:, 0], 2, 100, 0)

    @pytest.mark.parametrize("score", [40.0, -800.0])
    def test_saturated_scores_refused_not_estimated_as_inf(self, score):
        # logistic(40) rounds to 1 and logistic(-800) to 0, so KL(eta, .) is inf
        eta = lambda X: (1.0 + np.clip(4.0 * (X[:, 0] - 0.5), -1.0, 1.0)) / 2.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="loss overflows float64"):
                logistic_excess_risk(lambda X: np.full(len(X), score), eta, 2, 100, 0)


class TestSquaredExcessRisk:
    def test_regression_function_has_zero_excess(self):
        h = lambda X: np.sin(3 * X[:, 0]) + X[:, 1]
        est = squared_excess_risk(h, h, 2, 1000, 4)
        assert est.value == 0.0 and est.standard_error == 0.0

    def test_draws_the_uniform_stream_of_the_seed(self):
        # f - h = x1, so the estimate is the sample mean of x1^2 over the
        # points spawn_rng(seed, 0) draws uniformly on [0,1]^3
        est = squared_excess_risk(lambda X: X[:, 0], lambda X: np.zeros(len(X)), 3, 500, 9)
        X = spawn_rng(9, 0).random((500, 3))
        assert est.value == float(np.mean(X[:, 0] ** 2))
        assert est.value == pytest.approx(1 / 3, abs=4 * est.standard_error)

    def test_nan_scores_rejected(self):
        scores = lambda X: np.where(X[:, 1] < 0.5, np.nan, 1.0)
        with pytest.raises(PreconditionError, match="finite"):
            squared_excess_risk(scores, lambda X: X[:, 0], 2, 100, 0)

    def test_overflowing_loss_rejected(self):
        # (1e200)^2 overflows to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="loss overflows float64"):
                squared_excess_risk(lambda X: np.full(len(X), 1e200), lambda X: X[:, 0], 2, 100, 0)

    def test_overflowing_spread_rejected(self):
        # finite values near 1e306 whose sum of squared deviations overflows
        with pytest.raises(PreconditionError, match="not finite"):
            squared_excess_risk(lambda X: 1e153 * X[:, 0], lambda X: np.zeros(len(X)), 2, 100, 0)


class TestClassificationExcessRisk:
    def test_correct_signs_give_zero(self, rng):
        eta = lambda X: logistic(3 * (X[:, 0] - 0.5))
        f = lambda X: X[:, 0] - 0.5
        est = classification_excess_risk(f, eta, 2, 2000, 0)
        assert est.value == 0.0

    def test_always_wrong(self):
        est = classification_excess_risk(
            lambda X: -np.ones(len(X)),
            lambda X: np.ones(len(X)),
            2,
            100,
            0,
        )
        assert est.value == 1.0

    def test_nan_scores_rejected(self):
        # sign_plus would read NaN as -1 and return a plausible risk
        scores = lambda X: np.where(X[:, 1] < 0.5, np.nan, 1.0)
        with pytest.raises(PreconditionError, match="finite"):
            classification_excess_risk(scores, lambda X: X[:, 0], 2, 100, 0)


class TestRiskEstimate:
    @pytest.mark.parametrize("samples, se, match", [
        (0, 0.0, "at least one sample"),
        (10, -1.0, "standard error must be nonnegative"),
        (10, -math.inf, "standard error must be nonnegative"),
    ])
    def test_refusals(self, samples, se, match):
        with pytest.raises(PreconditionError, match=match):
            RiskEstimate(0.5, se, samples, 0)

    @pytest.mark.parametrize("estimator", [
        squared_excess_risk, hinge_excess_risk, logistic_excess_risk, classification_excess_risk,
    ])
    @pytest.mark.parametrize("m", [0, -1])
    def test_no_draws_refused(self, estimator, m):
        zero = lambda X: np.zeros(len(X))
        with pytest.raises(PreconditionError, match="at least one Monte Carlo draw"):
            estimator(zero, lambda X: np.full(len(X), 0.5), 2, m, 0)


class TestGoldenEstimators:
    def test_estimator_reprs(self):
        # sha256 of the repr of each Monte Carlo estimator's result on fixed
        # callables, seeds and sample sizes; every value and standard error is
        # pinned to the bit
        score = lambda X: np.clip(2 * X[:, 0] + X[:, 1] - 1.4, -1.0, 1.0)
        regression = lambda X: np.sin(3 * X[:, 0]) * X[:, -1]
        eta = lambda X: 0.05 + 0.9 * X[:, 1] ** 2
        u = 0.05
        results = [
            squared_excess_risk(score, regression, 3, 1000, 5),
            hinge_excess_risk(score, eta, 2, 1000, 6),
            logistic_excess_risk(lambda X: 3 * score(X), eta, 2, 1000, 7),
            classification_excess_risk(score, eta, 3, 1000, 8),
            check_logistic_variance_bound(lambda X: 3 * score(X), eta, 3.0, 2, 1000, 9),
            check_kl_bound(
                lambda X: X[:, 0], lambda X: np.clip(X[:, 0], u, 1 - u), u, 1.0, 1.0, 1.0, 2,
                1000, 10,
            ),
        ]
        digest = hashlib.sha256("\n".join(map(repr, results)).encode()).hexdigest()
        assert digest == "d96f4a84f11dd719d5357fe8354fe4b3afeab42208e8ee17aa73a732b0270d27"


class TestHingeCalibration:
    def test_classification_below_hinge_on_random_instances(self, rng):
        """0-1 excess <= hinge excess (pointwise once |f| <= 1), shared draws."""
        for trial in range(20):
            w = rng.standard_normal(2)
            b = rng.standard_normal()
            c = rng.uniform(0.5, 4.0)
            f = lambda X, w=w, b=b: np.clip(X @ w + b, -1, 1)
            eta = lambda X, c=c: logistic(c * (X[:, 0] - 0.5))
            cls = classification_excess_risk(f, eta, 2, 20_000, trial)
            hin = hinge_excess_risk(f, eta, 2, 20_000, trial)
            joint_se = math.hypot(cls.standard_error, hin.standard_error)
            assert cls.value <= hin.value + 3 * joint_se


class TestLogisticCalibration:
    def test_risk_conversion_on_tsybakov_eta(self, rng):
        """0-1 excess <= 4 c_q^(1/(q+2)) (logistic excess)^((q+1)/(q+2))."""
        q = 1.0
        for trial in range(20):
            c = rng.uniform(1.0, 6.0)
            c_q = max(1.0, 2.0 / c)
            eta = lambda X, c=c: (1 + np.clip(c * (X[:, 0] - 0.5), -1, 1)) / 2
            w = rng.standard_normal(2)
            b = 0.3 * rng.standard_normal()
            f = lambda X, w=w, b=b: np.clip(X @ w + b, -3, 3)
            cls = classification_excess_risk(f, eta, 2, 40_000, trial)
            log_est = logistic_excess_risk(f, eta, 2, 40_000, trial)
            rhs = 4 * c_q ** (1 / (q + 2)) * (
                log_est.value + 3 * log_est.standard_error
            ) ** ((q + 1) / (q + 2))
            assert cls.value - 3 * cls.standard_error <= rhs


class TestLog2Inequality:
    def test_grid_pass(self):
        report = check_log2_inequality(300)
        assert report.passed and report.min_slack >= 0.0

    def test_equality_on_diagonal(self):
        report = check_log2_inequality(50)
        assert report.min_slack == 0.0

    def test_corner_closed_form(self):
        # p=1, q=u=e^-2: lhs = 4, rhs = 4(1 + e^-2)
        u = math.exp(-2.0)
        lhs = math.log(1 / u) ** 2
        rhs = math.log(u**-2) * (math.log(1 / u) - 1 + u)
        assert lhs == pytest.approx(4.0, rel=1e-12)
        assert rhs == pytest.approx(4 * (1 + u), rel=1e-12)
        assert lhs < rhs

    def test_p_zero_row(self):
        # slack at p=0 is q log(u^-2) >= 0
        report = check_log2_inequality(100, u_values=[math.exp(-2.0)])
        assert report.passed

    def test_invalid_u(self):
        with pytest.raises(PreconditionError):
            check_log2_inequality(50, u_values=[0.5])

    @pytest.mark.parametrize("u, resolution", [(0.1, 500), (0.1, 50), (0.1, 30), (0.05, 50)])
    def test_no_round_off_violation_one_ulp_off_the_diagonal(self, u, resolution):
        # these grids hold p, q pairs one ulp apart, where (1+r) log1p(r) - r
        # cancels to round-off; the exact slack there is positive
        report = check_log2_inequality(resolution, u_values=[u])
        assert report.passed and report.min_slack == 0.0


class TestLogisticVarianceBound:
    def test_optimal_score_zero_both_sides(self):
        eta = lambda X: 0.3 + 0.4 * X[:, 0]
        f_star = lambda X: np.log(eta(X) / (1 - eta(X)))
        report = check_logistic_variance_bound(
            f_star, eta, 2.0, 2, 2000, 0
        )
        assert report.lhs == pytest.approx(0.0, abs=1e-12)
        assert report.passed

    def test_constant_integrand_closed_form(self):
        report = check_logistic_variance_bound(
            lambda X: np.full(len(X), 2.0),
            lambda X: np.full(len(X), 0.5),
            2.0,
            2,
            500,
            0,
        )
        e2 = math.exp(2.0)
        lhs = 0.5 * math.log((1 + 1 / e2) / 2) ** 2 + 0.5 * math.log((1 + e2) / 2) ** 2
        rhs = 6 * kl_divergence(0.5, logistic(2.0))
        assert report.lhs == pytest.approx(lhs, rel=1e-12)
        assert report.rhs == pytest.approx(rhs, rel=1e-12)
        assert report.passed

    def test_identity_path_matches_raw_phi_differences(self, rng):
        """The closed-form integrand equals the direct (phi(Yf)-phi(Yf*))^2 law."""

        def phi(t):
            return np.logaddexp(0.0, -t)

        ev = rng.uniform(0.05, 0.95, 50)
        fv = rng.uniform(-2, 2, 50)
        f_star = np.log(ev / (1 - ev))
        raw = ev * (phi(fv) - phi(f_star)) ** 2 + (1 - ev) * (
            phi(-fv) - phi(-f_star)
        ) ** 2
        psi = logistic(fv)
        closed = ev * np.log(ev / psi) ** 2 + (1 - ev) * np.log((1 - ev) / (1 - psi)) ** 2
        assert np.allclose(raw, closed, rtol=1e-10)

    def test_random_instances(self, rng):
        for trial in range(50):
            B = float(rng.uniform(2.0, 6.0))
            w = rng.standard_normal(2)
            b = rng.standard_normal()
            f = lambda X, w=w, b=b, B=B: np.clip(2 * (X @ w) + b, -B, B)
            a = rng.uniform(0.5, 5.0)
            eta = lambda X, a=a: logistic(a * (X[:, 1] - 0.3))
            report = check_logistic_variance_bound(
                f, eta, B, 2, 4000, trial
            )
            assert report.passed

    def test_saturated_scores_refused_without_a_nan_margin(self):
        # at |f| = 800 the logistic rounds to 0 or 1, and both sides are inf
        f = lambda X: np.where(X[:, 0] < 0.5, -800.0, 800.0)
        eta = lambda X: 0.3 + 0.4 * X[:, 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="not finite"):
                check_logistic_variance_bound(f, eta, 1000.0, 2, 500, 0)

    def test_scores_beyond_b_rejected(self):
        with pytest.raises(PreconditionError, match="exceeds the declared bound B"):
            check_logistic_variance_bound(
                lambda X: np.full(len(X), 3.0), lambda X: np.full(len(X), 0.5), 2.0, 2, 100, 0
            )

    def test_small_b_rejected(self):
        with pytest.raises(PreconditionError):
            check_logistic_variance_bound(
                lambda X: np.zeros(len(X)),
                lambda X: np.full(len(X), 0.5),
                1.0,
                2,
                100,
                0,
            )


class TestKlBound:
    def test_trivial_when_eta_interior(self):
        u = 0.05
        eta = lambda X: 0.3 + 0.4 * X[:, 0]  # already in [u, 1-u]
        h = lambda X: np.clip(eta(X), u, 1 - u)
        report = check_kl_bound(eta, h, u, 1.0, 1.0, 1.0, 2, 2000, 0)
        assert report.lhs == 0.0 and report.passed

    def test_quadrature_oracle_beta_one(self):
        """eta = x1 uniform: E KL(eta, clip(eta, u, 1-u)) by 1-d quadrature."""
        u = 0.01
        eta = lambda X: X[:, 0]
        h = lambda X: np.clip(X[:, 0], u, 1 - u)
        report = check_kl_bound(eta, h, u, 1.0, 1.0, 1.0, 2, 400_000, 7)
        exact = (
            quad(lambda t: kl_divergence(t, u), 0, u)[0]
            + quad(lambda t: kl_divergence(t, 1 - u), 1 - u, 1)[0]
        )
        assert report.lhs == pytest.approx(exact, abs=5 * report.margin_se + 1e-6)
        ceiling = 2 * 1.0 * (1 + 1) ** 3 * u**2 * math.log(1 / u)
        assert report.rhs == pytest.approx(ceiling, rel=1e-12)
        assert report.passed

    def test_beta_zero_constant(self):
        assert kl_small_value_bound(0.01, 1.0, 0.0, 1.0) == pytest.approx(
            4 * (1 + 1) ** 2 * 0.01, rel=1e-12
        )

    @pytest.mark.parametrize("u, beta, match", [
        (0.0, 1.0, "u must lie"), (0.5, 1.0, "u must lie"), (math.nan, 1.0, "u must lie"),
        (0.1, -0.1, "beta must lie"), (0.1, 1.5, "beta must lie"), (0.1, math.nan, "beta must lie"),
    ])
    def test_small_value_bound_refusals(self, u, beta, match):
        with pytest.raises(PreconditionError, match=match):
            kl_small_value_bound(u, 1.0, beta, 1.0)

    def test_distance_violation_rejected(self):
        # h = 1/2 lies in [u, 1-u], but |h - eta| reaches 1/2 > C*u = 0.1
        with pytest.raises(PreconditionError, match=r"within C\*u"):
            check_kl_bound(
                lambda X: X[:, 0], lambda X: np.full(len(X), 0.5), 0.1, 1.0, 1.0, 1.0, 2, 1000, 0
            )

    def test_range_violation_rejected(self):
        u = 0.1
        with pytest.raises(PreconditionError):
            check_kl_bound(
                lambda X: X[:, 0],
                lambda X: X[:, 0],  # not clipped into [u, 1-u]
                u,
                1.0,
                1.0,
                1.0,
                2,
                1000,
                0,
            )
