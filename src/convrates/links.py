"""Scalar links, risk functionals, and verifiable scalar inequalities.

The two link constructions turn class-probability estimates into real-valued
scores.  Each is built as a `ScalarNet`, with its closed form beside it
(`sign_link`, `log_link`):

* `sign_link_net(u)` is the saturated ramp clamp(t/u, -1, 1), written as a
  three-neuron ReLU net; composed after a probability-gap estimate it
  approximates the optimal classifier under the hinge loss.
* `log_link_net(n_pieces)` approximates the log-odds map t -> log(t/(1-t))
  by interpolating log t on a uniform grid of breakpoints and
  antisymmetrizing; pushing its output through the logistic function
  recovers t up to 3/n_pieces.

Excess risks for the squared, hinge, logistic and 0-1 losses are estimated by
Monte Carlo using their pointwise closed forms:

    squared : E (f - h)^2                                  (h the regression function)
    hinge   : E |f - sign(2 eta - 1)| |2 eta - 1|          (for |f| <= 1)
    logistic: E KL(eta, logistic(f))
    0-1     : E 1{sign f != sign(2 eta - 1)} |2 eta - 1|

with sign(0) taken as +1.  Every estimate draws X uniform on [0,1]^d, the one
law the lab's targets certify their margin and small-value conditions
under, and rejects non-finite scores f(X) and a loss that overflows float64
on them.  The inequality checkers validate exact pointwise or in-expectation
bounds, allowing three standard errors of slack for the Monte Carlo ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compiler import ScalarNet
from .errors import PreconditionError, check_finite, check_size
from .sampling import spawn_rng


def logistic(t):
    """1 / (1 + exp(-t)), computed stably; maps -inf -> 0 and +inf -> 1."""
    arr = np.asarray(t, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    e = np.exp(arr[~pos])
    out[~pos] = e / (1.0 + e)
    return float(out[0]) if scalar else out


def sign_plus(v):
    """Sign with the tie broken upward: +1 for v >= 0, else -1."""
    return np.where(np.asarray(v) >= 0, 1.0, -1.0)


def kl_divergence(p, q):
    """Binary KL divergence p log(p/q) + (1-p) log((1-p)/(1-q)).

    Conventions: 0 log 0 = 0; the value is +inf when q = 0 with p != 0 or
    q = 1 with p != 1.  Near p = q each log ratio goes through log1p of the
    relative difference (accurate where the terms cancel); far from the
    diagonal it is a difference of logs, which survives extreme ratios that
    would round the relative difference to -1.  Negative round-off residue
    is clipped to 0 (the divergence is nonnegative exactly).
    """
    p_arr = np.asarray(p, dtype=np.float64)
    q_arr = np.asarray(q, dtype=np.float64)
    scalar = p_arr.ndim == 0 and q_arr.ndim == 0
    p_arr, q_arr = np.atleast_1d(p_arr), np.atleast_1d(q_arr)
    p_arr, q_arr = np.broadcast_arrays(p_arr, q_arr)
    if np.any((p_arr < 0) | (p_arr > 1)) or np.any((q_arr < 0) | (q_arr > 1)):
        raise PreconditionError("kl_divergence arguments must lie in [0, 1]")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r1 = (p_arr - q_arr) / q_arr
        lr1 = np.where(np.abs(r1) < 0.5, np.log1p(r1), np.log(p_arr) - np.log(q_arr))
        t1 = np.where(p_arr > 0, p_arr * lr1, 0.0)
        r2 = (q_arr - p_arr) / (1 - q_arr)
        lr2 = np.where(
            np.abs(r2) < 0.5, np.log1p(r2), np.log1p(-p_arr) - np.log1p(-q_arr)
        )
        t2 = np.where(p_arr < 1, (1 - p_arr) * lr2, 0.0)
    out = np.maximum(t1 + t2, 0.0)
    return float(out[0]) if scalar else out


def log_link(n_pieces, t):
    """The closed form of `log_link_net(n_pieces)`: h(t) - h(1 - t), with h
    the interpolant of log t at the knots i/n, i = 1..n."""
    n = int(n_pieces)
    knots = np.arange(1, n + 1) / n
    logs = np.log(knots)
    t = np.asarray(t, dtype=np.float64)
    return np.interp(t, knots, logs) - np.interp(1.0 - t, knots, logs)


def log_link_net(n_pieces):
    """Antisymmetrized piecewise-linear log-odds approximation, as a `ScalarNet`.

    Interpolates log t at breakpoints i/n (constant -log n left of 1/n, 0
    right of 1), then returns g(t) = h(t) - h(1-t), whose closed form is
    `log_link`.  Guarantees, for n >= 3: |g| <= log n everywhere, g = -log n
    on t <= 0 and log n on t >= 1, and |logistic(g(t)) - t| <= 3/n on [0, 1].
    In floats, g's end slope is the float sum of h's coefficients rather
    than 0, so "log n on t >= 1" (and "-log n on t <= 0") holds within |t - 1|
    (|t|) times that sum: 0 at n = 3, 2.0e-15 at n = 50.  The net has 2n
    neurons and constraint norm at most 6n.
    """
    n = int(n_pieces)
    check_size("2n, the neuron count of a log link with n pieces,", 2 * n, low=6)
    knots = np.arange(1, n + 1) / n
    slopes = n * np.diff(np.log(knots))  # slope on (i/n, (i+1)/n), i = 1..n-1

    # h as a ReLU sum: kink coefficients at the interior knots
    coeffs = np.empty(n)
    coeffs[0] = slopes[0]
    coeffs[1:-1] = np.diff(slopes)
    coeffs[-1] = -slopes[-1]

    return ScalarNet(
        np.concatenate([coeffs, -coeffs]),
        np.concatenate([np.ones(n), -np.ones(n)]),
        np.concatenate([-knots, 1 - knots]),
    )


def sign_link(half_width, t):
    """The closed form of `sign_link_net(half_width)`: clamp(t/u, -1, 1)."""
    return np.clip(np.asarray(t, dtype=np.float64) / half_width, -1.0, 1.0)


def sign_link_net(half_width):
    """Saturated ramp clamp(t/u, -1, 1) as a three-neuron `ScalarNet`, 0 < u < 1;
    its closed form is `sign_link`."""
    u = float(half_width)
    if not 0 < u < 1:
        raise PreconditionError("half width must lie strictly between 0 and 1")
    return ScalarNet([1.0 / u, -1.0 / u, -1.0], [1.0, 1.0, 0.0], [u, -u, 1.0])


# -- Monte Carlo risk functionals ------------------------------------------


@dataclass
class RiskEstimate:
    value: float
    standard_error: float
    samples: int
    seed: int

    def __post_init__(self):
        if self.samples < 1:
            raise PreconditionError("an estimate needs at least one sample")
        if not (self.standard_error >= 0 or math.isnan(self.standard_error)):
            raise PreconditionError("standard error must be nonnegative")


def _estimate(values, samples, seed):
    values = np.asarray(values, dtype=np.float64)
    if not np.isfinite(values).all():  # before `std`, whose inf - inf would warn
        raise PreconditionError(
            f"the loss overflows float64 on the {samples}-point sample: a value is not finite"
        )
    with np.errstate(over="ignore"):  # an overflow is reported below
        se = float(values.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
        mean = float(values.mean())
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise PreconditionError(
            f"the mean or spread of {samples} Monte Carlo values is not finite"
        )
    return RiskEstimate(mean, se, samples, seed)


def _draw(f, target, d, m, seed, name="scores"):
    """(f(X), target(X)) as float64 arrays, f(X) checked finite, at m points X
    uniform on [0,1]^d from the (seed, 0) stream: every estimator's sample."""
    if m < 1:
        raise PreconditionError("need at least one Monte Carlo draw")
    X = spawn_rng(seed, 0).random((m, d))
    return check_finite(f(X), f"{name} on the sample"), np.asarray(target(X), dtype=np.float64)


def squared_excess_risk(f, h, d, m, seed):
    """Monte Carlo estimate of E (f - h)^2.

    Equals the squared risk of f minus that of the regression function h.
    """
    fv, hv = _draw(f, h, d, m, seed)
    with np.errstate(over="ignore"):  # `_estimate` refuses an overflow
        vals = (fv - hv) ** 2
    return _estimate(vals, m, seed)


def hinge_excess_risk(f, eta, d, m, seed):
    """Monte Carlo estimate of E |f - sign(2 eta - 1)| |2 eta - 1|.

    Valid for finite |f| <= 1 (checked on the sample); equals the hinge risk of f
    minus the Bayes hinge risk.
    """
    fv, ev = _draw(f, eta, d, m, seed)
    if np.max(np.abs(fv)) > 1 + 1e-9:
        raise PreconditionError("hinge excess risk requires |f| <= 1 on the sample")
    margin = 2 * ev - 1
    vals = np.abs(fv - sign_plus(margin)) * np.abs(margin)
    return _estimate(vals, m, seed)


def logistic_excess_risk(f, eta, d, m, seed):
    """Monte Carlo estimate of E KL(eta, logistic(f))."""
    fv, ev = _draw(f, eta, d, m, seed)
    vals = kl_divergence(ev, logistic(fv))
    return _estimate(vals, m, seed)


def classification_excess_risk(f, eta, d, m, seed):
    """Monte Carlo estimate of E 1{sign f != sign(2 eta - 1)} |2 eta - 1|."""
    fv, ev = _draw(f, eta, d, m, seed)
    margin = 2 * ev - 1
    vals = (sign_plus(fv) != sign_plus(margin)) * np.abs(margin)
    return _estimate(vals, m, seed)


# -- inequality checks ------------------------------------------------------


@dataclass
class GridCheckReport:
    """Minimum slack of an inequality over a grid; negative slack fails."""

    min_slack: float
    worst_point: tuple
    passed: bool


@dataclass
class BoundCheckReport:
    """Monte Carlo comparison lhs <= rhs within three standard errors."""

    lhs: float
    rhs: float
    margin: float
    margin_se: float
    samples: int
    seed: int
    passed: bool


def log2_u_values():
    """The u values `check_log2_inequality` scans by default: five log-spaced in [1e-6, e^-2]."""
    return np.geomspace(1e-6, math.exp(-2.0), 5)


def check_log2_inequality(grid_resolution=500, u_values=None):
    """Grid check of  p log^2(p/q) <= log(u^-2) (p log(p/q) - p + q).

    Scanned over p in [0,1], q in [u,1] for each u in (0, e^-2]; returns the
    minimum slack (rhs - lhs), which is exactly 0 on the diagonal p = q and
    positive elsewhere.
    """
    if u_values is None:
        u_values = log2_u_values()
    check_size("grid resolution", grid_resolution, low=2)
    check_size("floats per grid (resolution^2)", grid_resolution**2)
    u_values = np.asarray(u_values, dtype=np.float64)
    if not np.all((u_values > 0) & (u_values <= math.exp(-2.0) + 1e-15)):  # NaN fails too
        raise PreconditionError("u values must lie in (0, e^-2]")
    p = np.linspace(0.0, 1.0, grid_resolution)
    min_slack = np.inf
    worst = None
    for u in u_values:
        with np.errstate(over="ignore"):  # an overflow is reported below
            log_u2 = math.log(u**-2)
        if not math.isfinite(log_u2):
            raise PreconditionError(f"u={u} is so small that u^-2 overflows float64")
        q = np.linspace(u, 1.0, grid_resolution)
        P, Q = np.meshgrid(p, q, indexing="ij")
        # write both sides through r = (p-q)/q:
        #   lhs = q (1+r) log1p(r)^2
        #   rhs = log(u^-2) q ((1+r) log1p(r) - r)
        # so the cancellation near p = q happens between exactly
        # representable quantities.  For |r| < 1e-4, where (1+r) log1p(r) - r
        # would still cancel to round-off, f_term is its series
        # r^2/2 - r^3/6 + r^4/12 - r^5/20 (the first omitted term is below
        # 1e-17 relative), so the slack stays nonnegative at p, q one ulp apart
        r = (P - Q) / Q
        with np.errstate(divide="ignore", invalid="ignore"):
            lg = np.log1p(r)
            small = np.abs(r) < 1e-4
            rs = np.where(small, r, 0.0)  # the series only where it is used
            series = rs * rs * (0.5 - rs * (1 / 6 - rs * (1 / 12 - rs / 20)))
            f_term = np.where(P > 0, np.where(small, series, (1 + r) * lg - r), 1.0)
            lhs_term = np.where(P > 0, (1 + r) * lg**2, 0.0)
        slack = Q * (log_u2 * f_term - lhs_term)
        i, j = np.unravel_index(np.argmin(slack), slack.shape)
        if slack[i, j] < min_slack:
            min_slack = float(slack[i, j])
            worst = (float(P[i, j]), float(Q[i, j]), float(u))
    return GridCheckReport(min_slack, worst, bool(min_slack >= 0))


def check_logistic_variance_bound(f, eta, bound_level, d, m, seed):
    """Check E[(phi(Yf) - phi(Yf*))^2] <= 3 B R_phi(f) for the logistic loss.

    f must satisfy |f| <= B with B >= 2 (checked on the sample).  Both sides
    are estimated on shared draws using their pointwise closed forms: the
    left side is eta log^2(eta/psi(f)) + (1-eta) log^2((1-eta)/(1-psi(f))),
    the right side 3 B KL(eta, psi(f)).
    """
    B = float(bound_level)
    if B < 2:
        raise PreconditionError("the variance bound requires B >= 2")
    fv, ev = _draw(f, eta, d, m, seed)
    if np.max(np.abs(fv)) > B + 1e-9:
        raise PreconditionError("sampled |f| exceeds the declared bound B")
    psi = logistic(fv)
    with np.errstate(divide="ignore", invalid="ignore"):
        lhs = np.where(ev > 0, ev * np.log(ev / psi) ** 2, 0.0) + np.where(
            ev < 1, (1 - ev) * np.log((1 - ev) / (1 - psi)) ** 2, 0.0
        )
    rhs = 3 * B * kl_divergence(ev, psi)
    # both sides are infinite exactly where psi rounds to 0 or 1 and eta does
    # not, so the difference is finite or NaN, and `_estimate` refuses NaN
    with np.errstate(invalid="ignore"):
        margin = _estimate(rhs - lhs, m, seed)
    return BoundCheckReport(
        lhs=float(lhs.mean()),
        rhs=float(rhs.mean()),
        margin=margin.value,
        margin_se=margin.standard_error,
        samples=m,
        seed=seed,
        passed=bool(margin.value >= -3 * margin.standard_error),
    )


def kl_small_value_bound(u, C, beta, C_beta):
    """The guaranteed ceiling for E KL(eta, h) under the small-value condition."""
    if not 0 < u < 0.5:
        raise PreconditionError("u must lie in (0, 1/2)")
    if not 0 <= beta <= 1:
        raise PreconditionError("beta must lie in [0, 1]")
    if beta < 1:
        return 2 * (2 - beta) * C_beta * (C + 1) ** (2 + beta) / (1 - beta) * u ** (1 + beta)
    return 2 * C_beta * (C + 1) ** 3 * u**2 * math.log(1.0 / u)


def check_kl_bound(eta, h, u, C, beta, C_beta, d, m, seed):
    """Check E KL(eta, h) against the small-value-bound ceiling.

    Requires h to map into [u, 1-u] with |h - eta| <= C u (checked on the
    sample); the caller certifies that the distribution of eta(X) satisfies
    P(eta <= t) <= C_beta t^beta and P(1 - eta <= t) <= C_beta t^beta.
    """
    ceiling = kl_small_value_bound(u, C, beta, C_beta)
    hv, ev = _draw(h, eta, d, m, seed, "h")
    if np.min(hv) < u - 1e-12 or np.max(hv) > 1 - u + 1e-12:
        raise PreconditionError("h must map into [u, 1-u]")
    if np.max(np.abs(hv - ev)) > C * u + 1e-12:
        raise PreconditionError("|h - eta| must stay within C*u")
    vals = kl_divergence(ev, hv)
    est = _estimate(vals, m, seed)
    return BoundCheckReport(
        lhs=est.value,
        rhs=ceiling,
        margin=ceiling - est.value,
        margin_se=est.standard_error,
        samples=m,
        seed=seed,
        passed=bool(est.value <= ceiling + 3 * est.standard_error),
    )
