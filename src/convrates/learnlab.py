"""Synthetic learning problems, constrained ERM training, and rate fits.

Targets are closed-form functions whose regularity constants are certified
analytically, not estimated: regression families carry an explicit Lipschitz
constant and sup bound, class-probability families carry margin-noise
(exponent q: P(|2 eta - 1| <= t) <= c_q t^q) and small-value (exponent beta:
P(eta <= t) and P(1 - eta <= t) <= C_beta t^beta) certificates together with
the closed-form marginal laws the certificates are derived from.

Training minimizes the empirical risk over the constrained CNN class by
multi-restart Adam with best-iterate selection; after every step the output
layer is scaled down whenever the path norm exceeds the budget M, which is an
exact projection back into the class because the path norm is absolutely
homogeneous in the output layer.  The returned parameters therefore always
satisfy the constraint, and their full-sample risk never exceeds the risk at
initialization.

Exact empirical minimization over CNNs is intractable, so measured errors are
an upper proxy for the ERM excess risk: rate experiments report trends and
fitted log-log slopes next to the theoretical exponent, not verdicts on it.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import links
from .cnn import (
    CnnParams,
    ConvLayer,
    backward,
    forward,
    param_vector,
    params_from_vector,
    params_view,
    path_norm,
    truncate,
)
from .errors import PreconditionError, TrainingFailure, check_budget, check_finite, check_size
from .sampling import spawn_rng

LOSSES = ("squared", "hinge", "logistic")


# -- targets ----------------------------------------------------------------


@dataclass
class TargetSpec:
    """A closed-form target with analytically certified constants."""

    kind: str  # "regression" or "class-probability"
    fn: callable = field(repr=False)
    d: int
    name: str
    smoothness: float | None = None
    holder_radius: float | None = None
    sup_bound: float | None = None
    lipschitz: float | None = None
    noise_exponent: float | None = None  # q
    noise_constant: float | None = None  # c_q
    svb_exponent: float | None = None  # beta
    svb_constant: float | None = None  # C_beta
    margin_cdf: callable | None = field(default=None, repr=False)
    small_value_cdf: callable | None = field(default=None, repr=False)

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=np.float64))


def make_regression_target(family, params=None, seed=0):
    """Closed-form regression function with certified (smoothness, radius).

    Families:
      trig-mixture          sum_j a_j sin(2 pi f_j x_{c_j} + p_j) / (2 pi f_j)
      gaussian-bump-mixture sum_j a_j exp(-||x - mu_j||^2 / (2 w_j^2))
      coordinate-clamp      offset + clamp(slope (x_c - center), -level, level)

    All families are certified Lipschitz (smoothness 1); the radius is the
    sup bound plus the Lipschitz constant.  Every parameter is read by
    `_term_array` and refused before any default term is drawn.
    """
    params = dict(params or {})
    d = _term_array(params, "d", 2, scalar=True, integer=(1,))
    rng = spawn_rng(seed, 0)

    if family == "trig-mixture":
        k = _term_array(params, "n_terms", 3, scalar=True, integer=(1,))
        given = [_term_array(params, key) for key in ("amps", "freqs")]
        given += [_term_array(params, "coords", integer=(0, d - 1)), _term_array(params, "phases")]
        _reject_unknown(params, family)
        # every default is drawn, so a given array leaves the other draws unchanged
        drawn = (rng.uniform(0.4, 1.0, k), rng.integers(1, 4, k), rng.integers(0, d, k),
                 rng.uniform(0, 2 * np.pi, k))
        terms = [x if g is None else g for g, x in zip(given, drawn)]
        amps, freqs, coords, phases = terms
        if len({t.shape for t in terms}) > 1 or amps.ndim != 1:
            raise PreconditionError(
                f"amps, freqs, coords, phases differ in length: {[t.size for t in terms]}"
            )
        if not np.all(freqs != 0):
            raise PreconditionError("trig-mixture needs nonzero freqs")

        def fn(X):
            out = np.zeros(len(X))
            for a, f, c, p in zip(amps, freqs, coords, phases):
                out += a * np.sin(2 * np.pi * f * X[:, c] + p) / (2 * np.pi * f)
            return out

        sup = float(np.sum(np.abs(amps) / (2 * np.pi * np.abs(freqs))))
        lip = float(np.sum(np.abs(amps)))
        return _lipschitz_target("trig-mixture", fn, d, sup, lip)

    if family == "gaussian-bump-mixture":
        k = _term_array(params, "n_terms", 3, scalar=True, integer=(1,))
        check_size("n_terms * d, the entries of the default centers,", k * d)
        given = [_term_array(params, key) for key in ("amps", "centers", "widths")]
        _reject_unknown(params, family)
        drawn = rng.uniform(-1.0, 1.0, k), rng.random((k, d)), rng.uniform(0.2, 0.5, k)
        amps, centers, widths = [x if g is None else g for g, x in zip(given, drawn)]
        if amps.ndim != 1 or widths.shape != amps.shape or centers.shape != (amps.size, d):
            raise PreconditionError(
                f"gaussian-bump-mixture needs k amps, k widths and (k, {d}) centers, got "
                f"shapes {amps.shape}, {widths.shape}, {centers.shape}"
            )
        if not np.all(widths > 0):
            raise PreconditionError("gaussian-bump-mixture needs widths > 0")

        def fn(X):
            out = np.zeros(len(X))
            for a, mu, w in zip(amps, centers, widths):
                out += a * np.exp(-np.sum((X - mu) ** 2, axis=1) / (2 * w * w))
            return out

        with np.errstate(over="ignore"):  # an overflow is reported below
            sup = float(np.sum(np.abs(amps)))
            # sup of |grad| of a bump with width w is |a| e^(-1/2) / w
            lip = float(np.sum(np.abs(amps) * math.exp(-0.5) / widths))
        return _lipschitz_target("gaussian-bump-mixture", fn, d, sup, lip)

    if family == "coordinate-clamp":
        slope, center, level, offset = (
            _term_array(params, key, default, scalar=True)
            for key, default in (("slope", 4.0), ("center", 0.5), ("level", 1.0), ("offset", 0.0))
        )
        coord = _term_array(params, "coord", 0, scalar=True, integer=(0, d - 1))
        _reject_unknown(params, family)
        if level < 0:
            raise PreconditionError("coordinate-clamp needs level >= 0")

        def fn(X):
            return offset + np.clip(slope * (X[:, coord] - center), -level, level)

        sup = abs(offset) + level
        return _lipschitz_target("coordinate-clamp", fn, d, sup, abs(slope))

    raise PreconditionError(f"unknown regression family: {family!r}")


def _lipschitz_target(name, fn, d, sup, lip):
    """A regression target certified Lipschitz (smoothness 1): |h| <= sup,
    Lipschitz constant lip, radius sup + lip."""
    if not (0 <= sup < math.inf and 0 <= lip < math.inf):
        raise PreconditionError(
            f"{name}: sup bound {sup} and Lipschitz constant {lip} must be finite and >= 0"
        )
    return TargetSpec(
        kind="regression", fn=fn, d=d, name=name, smoothness=1.0, holder_radius=sup + lip,
        sup_bound=sup, lipschitz=lip,
    )


def _term_array(params, key, default=None, scalar=False, integer=None):
    """params.pop(key, default) as a float64 array of finite numbers, or None
    for an absent key without a default; ragged, non-numeric and non-finite
    values are refused, naming the key.

    `scalar` asks for one number, returned as a Python number.  With
    `integer`, the (low, limit) bounds of `check_size`, the entries must be
    integers within them, and they are returned as ints.
    """
    if key not in params and default is None:
        return None
    try:
        arr = np.asarray(params.pop(key, default), dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise PreconditionError(f"{key} must be a rectangular array of numbers ({exc})") from None
    if not np.isfinite(arr).all():
        raise PreconditionError(f"{key} must be finite")
    if scalar and arr.ndim:
        raise PreconditionError(f"{key} must be one number, not an array of shape {arr.shape}")
    if integer is not None:
        if np.any(arr % 1):
            raise PreconditionError(f"integer {key} must be whole numbers")
        for v in (arr.min(), arr.max()) if arr.size else ():
            check_size(f"integer {key}", int(v), *integer)
        arr = arr.astype(int)
    return arr.item() if scalar else arr


def _reject_unknown(params, family):
    if params:
        raise PreconditionError(f"unknown {family} parameters: {sorted(params)}")


def _class_probability(name, fn, d, given, lipschitz=None, **certificates):
    """A class-probability target; with `lipschitz`, eta is certified
    Lipschitz (smoothness 1, radius max(1, lipschitz)), the counterpart of
    `_lipschitz_target`.  `certificates` are its margin and small-value laws;
    d is read by `_term_array`, as `make_regression_target` reads it.  Every
    certified constant must be finite and > 0; a refusal names `given`, the
    family's parameter and its value ("c=4.0")."""
    d = _term_array({"d": d}, "d", scalar=True, integer=(1,))
    if lipschitz is not None:
        certificates.update(smoothness=1.0, holder_radius=max(1.0, lipschitz), lipschitz=lipschitz)
    for key in ("lipschitz", "holder_radius", "sup_bound", "noise_constant", "svb_constant"):
        value = certificates.get(key)
        if value is not None and not 0 < value < math.inf:  # c/2 may underflow, 2/c overflow
            raise PreconditionError(f"{name} at {given} certifies {key} = {value}, not finite > 0")
    return TargetSpec(kind="class-probability", fn=fn, d=d, name=name, **certificates)


def make_eta_tsybakov(c, d=2):
    """Ramp class probability (1 + clamp(c (x1 - 1/2), -1, 1)) / 2, uniform X.

    The margin law is P(|2 eta - 1| <= t) = min(2t/c, 1) for t < 1 and 1 for
    t >= 1, so the noise exponent is q = 1 with constant c_q = max(1, 2/c)
    (the max makes the bound valid for every t > 0, including t >= 1 where
    the clamped mass concentrates).  The ramp is symmetric about x1 = 1/2, so
    eta and 1 - eta share one small-value law: for 0 <= t < 1,
        P(eta <= t) = clip(1/2 + (2t - 1)/c, 0, 1),
    0 below and 1 from t = 1.  For c <= 2 the clamp never binds and the law
    is at most (2/c) t: beta = 1 with C_beta = 2/c.  For c > 2 the mass
    1/2 - 1/c at eta = 0 leaves beta = 0, C_beta = 1.  c = inf gives the
    step eta with margin identically 1 (the q = inf regime).
    """
    if not (isinstance(c, numbers.Real) and c > 0):
        raise PreconditionError(f"ramp steepness c must be a number > 0, not {c!r}")
    if math.isinf(c):

        def fn(X):
            return (1.0 + links.sign_plus(X[:, 0] - 0.5)) / 2.0

        def margin_cdf(t):  # not the ramp's at c = inf, which is -0.0 for t < 0
            t = np.asarray(t, dtype=np.float64)
            return np.where(t >= 1.0, 1.0, 0.0)

        return _class_probability(
            "eta-step", fn, d, f"c={c!r}", noise_exponent=math.inf, noise_constant=1.0,
            margin_cdf=margin_cdf,
        )

    def fn(X):
        return (1.0 + np.clip(c * (X[:, 0] - 0.5), -1.0, 1.0)) / 2.0

    def margin_cdf(t):
        t = np.asarray(t, dtype=np.float64)
        return np.where(t >= 1.0, 1.0, np.minimum(2 * t / c, 1.0))

    def small_value_cdf(t):
        t = np.asarray(t, dtype=np.float64)
        low = np.clip(0.5 + (2 * np.clip(t, 0.0, 1.0) - 1) / c, 0.0, 1.0)
        low = np.where(t >= 1.0, 1.0, np.where(t < 0.0, 0.0, low))
        return low, low

    beta, c_beta = (1.0, 2.0 / c) if c <= 2 else (0.0, 1.0)
    return _class_probability(
        "eta-ramp", fn, d, f"c={c!r}", lipschitz=c / 2, sup_bound=1.0, noise_exponent=1.0,
        noise_constant=max(1.0, 2.0 / c), margin_cdf=margin_cdf, svb_exponent=beta,
        svb_constant=c_beta, small_value_cdf=small_value_cdf,
    )


def make_eta_svb(beta, d=2):
    """Class probability with certified small-value exponent beta in [0, 1].

    beta = 0 returns an eta in [1/4, 3/4], bounded away from 0 and 1
    (trivially certified with C_beta = 1); beta > 0 returns eta = x1^(1/beta),
    whose marginal is P(eta <= t) = t^beta exactly and P(1 - eta <= t) =
    1 - (1-t)^beta <= t^beta by concavity, so C_beta = 1 on both sides.
    """
    if not (isinstance(beta, numbers.Real) and 0 <= beta <= 1):
        raise PreconditionError(f"small-value exponent beta must lie in [0, 1], not {beta!r}")
    if beta == 0:
        floor = 0.25
        span = 1.0 - 2 * floor

        def fn(X):
            return floor + span * X[:, 0]

        def small_value_cdf(t):
            t = np.asarray(t, dtype=np.float64)
            low = np.clip((t - floor) / span, 0.0, 1.0)
            return low, low

        return _class_probability(
            "eta-svb0", fn, d, f"beta={beta!r}", lipschitz=span, sup_bound=1.0 - floor,
            svb_exponent=0.0, svb_constant=1.0, small_value_cdf=small_value_cdf,
        )

    power = 1.0 / beta

    def fn(X):
        return X[:, 0] ** power

    def small_value_cdf(t):
        t = np.asarray(t, dtype=np.float64)
        t = np.clip(t, 0.0, 1.0)
        return t**beta, 1.0 - (1.0 - t) ** beta

    return _class_probability(
        "eta-svb", fn, d, f"beta={beta!r}", lipschitz=power, sup_bound=1.0, svb_exponent=beta,
        svb_constant=1.0, small_value_cdf=small_value_cdf,
    )


# -- datasets ---------------------------------------------------------------


@dataclass
class NoiseSpec:
    """Regression label noise; both families have all exponential moments of
    Y^2 controlled (gaussian: E exp(c Y^2) < inf for c < 1/(4 sigma^2) once
    the bounded mean is peeled off; bounded uniform: for every c)."""

    kind: str = "gaussian"
    scale: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "uniform"):
            raise PreconditionError(f"unknown noise family: {self.kind!r}")
        if not 0 <= self.scale < math.inf:
            raise PreconditionError(f"noise scale {self.scale} must be finite and nonnegative")
        if self.kind == "uniform" and not math.isfinite(2 * self.scale):
            raise PreconditionError(f"uniform noise scale {self.scale} overflows its range")

    def admissible_moment_exponent(self):
        """A c > 0 with E exp(c Y^2) < inf, from the analytic argument; it holds
        whatever the bound on the mean is."""
        if self.kind == "uniform" or self.scale == 0:
            return math.inf
        return 1.0 / (4 * self.scale**2) * 0.999


@dataclass
class Dataset:
    X: np.ndarray
    y: np.ndarray


def sample_dataset(spec, n, noise=None, seed=0):
    """Draw n i.i.d. pairs: X uniform on the cube, labels from the target.

    Regression labels are h(X) plus the configured noise; classification
    labels are +-1 with P(Y = 1 | X) = eta(X).  Reproducible from
    (spec, n, noise, seed).  Raises PreconditionError when a noise scale
    near the float64 limit makes a label non-finite.
    """
    if n < 1:
        raise PreconditionError("need at least one sample")
    rng = spawn_rng(seed, 0)
    X = rng.random((n, spec.d))
    if spec.kind == "regression":
        noise = noise or NoiseSpec("gaussian", 0.0)
        y = spec(X)
        if noise.scale > 0:
            with np.errstate(over="ignore"):  # overflowing labels are rejected below
                if noise.kind == "gaussian":
                    y = y + noise.scale * rng.standard_normal(n)
                else:
                    y = y + rng.uniform(-noise.scale, noise.scale, n)
            if not np.all(np.isfinite(y)):
                raise PreconditionError(f"noise scale {noise.scale} makes labels non-finite")
        return Dataset(X, y)
    if spec.kind == "class-probability":
        y = np.where(rng.random(n) < spec(X), 1.0, -1.0)
        return Dataset(X, y)
    raise PreconditionError(f"unknown target kind: {spec.kind!r}")


# -- training ---------------------------------------------------------------


@dataclass
class TrainConfig:
    s: int = 2
    J: int = 6
    L: int = 2
    M: float = 10.0
    loss: str = "squared"
    trunc_level: float = 1.0
    epochs: int = 40
    batch_size: int = 64
    learning_rate: float = 0.02
    final_learning_rate: float | None = None  # geometric decay target
    restarts: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise PreconditionError(f"unknown loss: {self.loss!r}")
        check_budget(self.M)
        if not 0 < self.trunc_level < math.inf:
            raise PreconditionError(
                f"truncation level {self.trunc_level} must be finite and positive"
            )
        final = self.final_learning_rate or 0.0
        if not (0 < self.learning_rate < math.inf and 0 <= final < math.inf):
            raise PreconditionError("learning rates must be finite, the first > 0, the final >= 0")
        if self.epochs < 1 or self.batch_size < 1 or self.restarts < 1:
            raise PreconditionError("epochs, batch size, restarts must be positive")
        if self.L < 1 or self.s < 1 or self.J < 1:
            raise PreconditionError(f"L={self.L}, s={self.s} and J={self.J} must each be >= 1")
        check_size("L*s*J^2 filter weights", self.L * self.s * self.J**2)


@dataclass
class TrainTrace:
    """Per-epoch full-sample risks for each restart, and the selection made."""

    risks: list  # one array per restart; entry 0 is the risk at init
    best_restart: int
    best_epoch: int
    best_risk: float
    wall_time: float


def _pointwise_loss(loss, f_vals, y, level):
    t = np.clip(f_vals, -level, level)
    if loss == "squared":
        return (t - y) ** 2
    if loss == "hinge":
        return np.maximum(1.0 - y * t, 0.0)
    return np.logaddexp(0.0, -y * t)  # logistic


def _loss_grad(loss, f_vals, y, level):
    """d loss / d f per sample; the clip gate uses subgradient 0 at the edge."""
    t = np.clip(f_vals, -level, level)
    gate = (np.abs(f_vals) < level).astype(np.float64)
    if loss == "squared":
        return 2.0 * (t - y) * gate
    if loss == "hinge":
        return -y * (1.0 - y * t > 0) * gate
    return -y * links.logistic(-y * t) * gate


def empirical_risk(params, X, y, loss, level):
    """Full-sample mean loss of the truncated network."""
    return float(np.mean(_pointwise_loss(loss, forward(params, X), y, level)))


def _init_cnn(d, s, J, L, M, rng):
    # He-style fan-in scaling keeps activation magnitudes stable in depth
    layers = []
    for i in range(L):
        in_c = 1 if i == 0 else J
        w = rng.normal(0.0, math.sqrt(2.0 / (s * in_c)), (s, J, in_c))
        b = rng.normal(0.0, 0.01, J)
        layers.append(ConvLayer(w, b))
    W = rng.normal(0.0, 1.0 / math.sqrt(d * J), (d, J))
    params = CnnParams(d, s, layers, W)
    _project(params, M)
    return params


def _project(params, M):
    """Scale the output layer down in place so the path norm is at most M (exact)."""
    k = path_norm(params)
    if not k < math.inf:  # the layer-norm product overflows float64
        raise TrainingFailure(f"path norm {k} is not finite")
    if k > M:
        params.output_weights *= M / k


def train_erm(data, cfg):
    """Approximate ERM over the constrained CNN class.

    Multi-restart Adam on minibatches; after every step the parameters are
    projected back into the class (output-layer scaling).  The best iterate
    by full-sample risk, across all epochs and restarts and including the
    initializations, is returned, so the result never does worse than any
    initialization.  Raises TrainingFailure if the risk, at an initialization
    or after an epoch, or a loss gradient is non-finite.

    Each restart keeps its parameters in one flat vector; the network it
    trains is a `params_view` of that vector, so Adam and the projection
    update it in place and each step runs a single `backward`.
    """
    t0 = time.perf_counter()
    X, y = data.X, data.y
    d = X.shape[1]
    level = cfg.trunc_level
    n = len(y)
    batch = min(cfg.batch_size, n)
    arch = (d, cfg.s, cfg.J, cfg.L)
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    best = None  # (risk, params, restart, epoch)
    all_risks = []
    # non-finite intermediates on a diverging run are detected explicitly
    # below and raised as TrainingFailure; suppress the IEEE warnings they
    # emit on the way there
    with np.errstate(over="ignore", invalid="ignore"):
        for restart in range(cfg.restarts):
            rng = spawn_rng(cfg.seed, restart)
            vec = param_vector(_init_cnn(*arch, cfg.M, rng))
            params = params_view(vec, *arch)
            step = 0

            def fail(reason):
                return TrainingFailure(
                    reason,
                    TrainTrace(all_risks + [np.array(risks)], -1, -1, math.nan, 0.0),
                )

            risks = [empirical_risk(params, X, y, cfg.loss, level)]
            if not math.isfinite(risks[0]):
                raise fail("non-finite empirical risk")
            if best is None or risks[0] < best[0]:
                best = (risks[0], params_from_vector(vec, *arch), restart, 0)

            m1 = np.zeros_like(vec)
            m2 = np.zeros_like(vec)

            def batch_loss_grad(f_vals):
                g = _loss_grad(cfg.loss, f_vals, y_batch, level) / len(y_batch)
                if not np.isfinite(g).all():
                    raise fail("non-finite loss gradient")
                return g

            for epoch in range(1, cfg.epochs + 1):
                if cfg.final_learning_rate and cfg.epochs > 1:
                    frac = (epoch - 1) / (cfg.epochs - 1)
                    lr = cfg.learning_rate * (
                        cfg.final_learning_rate / cfg.learning_rate
                    ) ** frac
                else:
                    lr = cfg.learning_rate
                order = rng.permutation(n)
                for lo in range(0, n, batch):
                    idx = order[lo : lo + batch]
                    y_batch = y[idx]  # read by batch_loss_grad
                    grad = backward(params, X[idx], batch_loss_grad)
                    step += 1
                    m1 *= beta1
                    m1 += (1 - beta1) * grad
                    m2 *= beta2
                    m2 += (1 - beta2) * grad * grad
                    hat1 = m1 / (1 - beta1**step)
                    hat2 = m2 / (1 - beta2**step)
                    vec -= lr * hat1 / (np.sqrt(hat2) + eps)
                    if not np.isfinite(vec).all():
                        raise fail("parameters diverged")
                    _project(params, cfg.M)
                risk = empirical_risk(params, X, y, cfg.loss, level)
                if not math.isfinite(risk):
                    raise fail("non-finite empirical risk")
                risks.append(risk)
                if risk < best[0]:
                    best = (risk, params_from_vector(vec, *arch), restart, epoch)
            all_risks.append(np.array(risks))

    risk, params, restart, epoch = best
    assert path_norm(params) <= cfg.M * (1 + 1e-9), "constraint violated after projection"
    trace = TrainTrace(all_risks, restart, epoch, risk, time.perf_counter() - t0)
    return params, trace


# -- evaluation -------------------------------------------------------------


def _check_target_kind(loss, spec):
    # squared loss is measured against a regression function, every other
    # loss against a class probability
    wanted = "regression" if loss == "squared" else "class-probability"
    if spec.kind != wanted:
        raise PreconditionError(f"{loss} loss expects a {wanted} target")


def measure_excess(params, spec, loss, m, seed, trunc_level):
    """Monte Carlo excess risk of the truncated network against the target.

    squared -> L2(mu) distance to the regression function; hinge/logistic ->
    the corresponding surrogate excess risks of the truncated network;
    classification -> the 0-1 excess risk of its sign.  The estimate is
    `links.<loss>_excess_risk` on m points uniform on [0,1]^d, looked up at
    each call.
    """
    if loss not in (*LOSSES, "classification"):
        raise PreconditionError(f"unknown loss: {loss!r}")
    _check_target_kind(loss, spec)
    estimate = getattr(links, f"{loss}_excess_risk")
    return estimate(lambda X: truncate(trunc_level, forward(params, X)), spec, spec.d, m, seed)


# -- schedules and rate fits ------------------------------------------------


@dataclass
class ScheduleConstants:
    """Proportionality constants in front of the schedule growth orders."""

    l_const: float = 1.0
    m_const: float = 5.0
    b_const: float = 2.0


def default_constants(loss):
    """Per-loss defaults, tuned so first-order training stays reliable.

    Depth constants are kept small: the growth orders already force depth to
    rise with n, and deeper stacks at these sample sizes are dominated by
    optimization error rather than the statistical terms the schedules are
    meant to expose.
    """
    if loss == "squared":
        return ScheduleConstants(1.0, 5.0, 2.0)
    if loss == "hinge":
        return ScheduleConstants(0.5, 3.0, 2.0)
    if loss == "logistic":
        return ScheduleConstants(0.15, 2.0, 2.0)
    raise PreconditionError(f"unknown loss: {loss!r}")


# deepest network a schedule may ask for; the shipped rate studies stay at or
# below 5 layers, and a larger depth constant would otherwise build layers
# until memory runs out
_DEPTH_GUARD = 10_000


def architecture_schedule(loss, n, d, alpha, q=1.0, beta=1.0, consts=None):
    """(L_n, M_n, B_n) for sample size n under the loss's growth orders.

    squared : L ~ (n/log^3 n)^(d/(2a+d)),        M ~ (n/log^3 n)^((3d+3-2a)/(4a+2d)),  B ~ log n
    hinge   : L ~ (n/log^2 n)^(d/((q+2)a+d)),    M ~ (n/log^2 n)^((3d+3)/(2(q+2)a+2d)), B = 1
    logistic: L ~ (n/log n)^(d/((1+b)a+d)),      M ~ (n/log n)^((3d+3+2a)/(2(1+b)a+2d)), B ~ log n
    """
    # the schedule's exponents are defined where the rate's is; outside, they
    # would overflow or yield a schedule without a rate
    theory_slope(loss, alpha, d, q=q, beta=beta)
    consts = consts or default_constants(loss)
    if not all(math.isfinite(c) for c in (consts.l_const, consts.m_const, consts.b_const)):
        raise PreconditionError(f"schedule constants must be finite, got {consts}")
    check_size("a schedule's sample size n", n, low=3)  # keeps n / ln**3 finite
    ln = math.log(n)
    if loss == "squared":
        base = n / ln**3
        l_exp = d / (2 * alpha + d)
        m_exp = (3 * d + 3 - 2 * alpha) / (4 * alpha + 2 * d)
        B = consts.b_const * ln
    elif loss == "hinge":
        base = n / ln**2
        l_exp = d / ((q + 2) * alpha + d)
        m_exp = (3 * d + 3) / (2 * (q + 2) * alpha + 2 * d)
        B = 1.0
    else:  # logistic
        base = n / ln
        l_exp = d / ((1 + beta) * alpha + d)
        m_exp = (3 * d + 3 + 2 * alpha) / (2 * (1 + beta) * alpha + 2 * d)
        B = consts.b_const * ln
    base = max(base, 1.0)
    depth = max(consts.l_const * base**l_exp, 1.0)  # NaN stays NaN
    check_size(f"the depth at n={n} (set by l_const)", depth, limit=_DEPTH_GUARD)
    L = round(depth)
    M = max(1.0, consts.m_const * base**m_exp)
    return L, M, B


def theory_slope(loss, alpha, d, q=1.0, beta=1.0):
    """The predicted excess-risk exponent in n (negative); like the schedule, it
    needs finite alpha > 0, d >= 1, q >= 0 (inf: the step regime), finite beta >= 0."""
    if loss not in LOSSES:
        raise PreconditionError(f"unknown loss: {loss!r}")
    slope = math.nan
    if 0 < alpha < math.inf and d >= 1 and q >= 0 and 0 <= beta < math.inf:  # NaN fails too
        if loss == "squared":
            slope = -2 * alpha / (2 * alpha + d)
        elif loss == "hinge":
            slope = -1.0 if math.isinf(q) else -(q + 1) * alpha / ((q + 2) * alpha + d)
        else:
            slope = -(1 + beta) * alpha / ((1 + beta) * alpha + d)
    if not math.isfinite(slope):  # also an alpha or q so large that the exponent overflows
        raise PreconditionError(
            f"no rate exponent at alpha={alpha}, d={d}, q={q}, beta={beta}: it needs "
            "finite alpha > 0, d >= 1, q >= 0 and finite beta >= 0"
        )
    return slope


def fit_loglog(ns, errors):
    """Least-squares slope/intercept of log error against log n."""
    ns = np.asarray(ns, dtype=np.float64)
    errors = check_finite(errors, "errors of a log-log fit")
    if ns.shape != errors.shape or ns.ndim != 1:
        raise PreconditionError("ns and errors must be equal-length vectors")
    if ns.shape[0] < 4:
        raise PreconditionError("a rate fit needs at least 4 points")
    if not np.all(np.isfinite(ns) & (ns > 0)):
        raise PreconditionError("sample sizes must be finite and positive for a log-log fit")
    if np.any(errors <= 0):
        raise PreconditionError("errors must be positive for a log-log fit")
    logn, loge = np.log(ns), np.log(errors)
    slope, intercept = np.polyfit(logn, loge, 1)
    residuals = loge - (slope * logn + intercept)
    return float(slope), float(intercept), residuals


@dataclass
class RateFit:
    ns: np.ndarray
    mean_errors: np.ndarray
    slope: float
    intercept: float
    residuals: np.ndarray
    theory_slope: float

    def inversions(self):
        """Number of upward steps in the mean-error sequence."""
        return int(np.sum(np.diff(self.mean_errors) > 0))


def fit_rate(cells, theory):
    """Fit the log-log slope of the mean excess risk in n.

    `cells` are (n, risk) pairs, one per repeat; the repeats of each n are
    averaged in the order given and the sizes sorted ascending before
    `fit_loglog`.  Returns a RateFit carrying `theory` as its theory slope.
    """
    by_n = {}
    for n, risk in cells:
        by_n.setdefault(n, []).append(risk)
    ns = sorted(by_n)
    means = [float(np.mean(by_n[n])) for n in ns]
    return RateFit(np.asarray(ns, dtype=float), np.asarray(means), *fit_loglog(ns, means), theory)


@dataclass
class ExperimentRow:
    loss: str
    n: int
    L: int
    M: float
    B: float
    seed: int
    excess_risk: float
    stderr: float
    wall_time: float


def run_rate_experiment(
    spec,
    loss,
    n_schedule,
    repeats=5,
    base_seed=0,
    noise=None,
    consts=None,
    train_options=None,
    mc_samples=20_000,
):
    """Train across the sample-size schedule and fit the log-log error slope.

    For each n the architecture follows `architecture_schedule`; each of the
    `repeats` cells gets its own derived seeds for data, training and
    measurement, so cells are independent and order-insensitive.  Returns
    (RateFit, rows) where rows carry one record per (n, repeat).
    """
    n_schedule = [int(n) for n in n_schedule]
    if len(n_schedule) < 4 or any(b <= a for a, b in zip(n_schedule, n_schedule[1:])):
        raise PreconditionError("n_schedule must be increasing with at least 4 values")
    if repeats < 1:
        raise PreconditionError(f"repeats={repeats} must be positive")
    check_size("mc_samples * d floats of one draw", mc_samples * spec.d)
    if loss not in LOSSES:
        raise PreconditionError(f"unknown loss: {loss!r}")
    _check_target_kind(loss, spec)  # checked here so that no cell trains in vain
    # the options and every cell's architecture are validated before any
    # data is drawn, so bad settings fail without work done
    scheduled = ("loss", "L", "M", "trunc_level", "seed")  # set per cell
    for key in train_options or {}:
        if key in scheduled or key not in {f.name for f in fields(TrainConfig)}:
            raise PreconditionError(
                f"train option {key!r} is unknown or set per cell ({', '.join(scheduled)})"
            )
    train_base = TrainConfig(loss=loss, **(train_options or {}))
    alpha = spec.smoothness if spec.smoothness else 1.0
    q = spec.noise_exponent if spec.noise_exponent is not None else 1.0
    beta = spec.svb_exponent if spec.svb_exponent is not None else 1.0
    theory = theory_slope(loss, alpha, spec.d, q=q, beta=beta)
    cell_cfgs = []
    for n in n_schedule:
        L, M, B = architecture_schedule(loss, n, spec.d, alpha, q=q, beta=beta, consts=consts)
        cell_cfgs.append(replace(train_base, L=L, M=M, trunc_level=B))
    passes = train_base.restarts * train_base.epochs * repeats
    steps = passes * sum(-(-n // min(train_base.batch_size, n)) for n in n_schedule)
    check_size("Adam steps in the whole experiment", steps)

    rows = []
    for i, (n, cell_cfg) in enumerate(zip(n_schedule, cell_cfgs)):
        L, M, B = cell_cfg.L, cell_cfg.M, cell_cfg.trunc_level
        for r in range(repeats):
            t0 = time.perf_counter()
            data = sample_dataset(spec, n, noise=noise, seed=_cell_seed(base_seed, i, r, 0))
            cfg = replace(cell_cfg, seed=_cell_seed(base_seed, i, r, 1))
            try:
                params, _ = train_erm(data, cfg)
            except TrainingFailure as exc:
                exc.partial_rows = rows  # completed cells travel with the error
                raise
            est = measure_excess(
                params, spec, loss, mc_samples, _cell_seed(base_seed, i, r, 2), B
            )
            rows.append(ExperimentRow(
                loss, n, L, M, B, cfg.seed, est.value, est.standard_error,
                time.perf_counter() - t0,
            ))

    return fit_rate([(row.n, row.excess_risk) for row in rows], theory), rows


def _cell_seed(base, *path):
    # stable scalar seed per cell, independent of evaluation order
    h = np.random.SeedSequence([int(base), *map(int, path)]).generate_state(1)[0]
    return int(h)
