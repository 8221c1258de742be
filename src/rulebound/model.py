"""Small dense multi-label classifier with hand-written gradients.

One tanh hidden layer feeding per-label sigmoids, trained by plain SGD on a
masked binary cross-entropy plus an optional rule-violation penalty. Built
for exactness and determinism rather than speed: float64 everywhere, fixed
reduction orders, no hidden state.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from . import jsonio
from .relax import domain_loss, domain_loss_grad
from .rules import RuleSet
from .supervision import CORRECTION_MODES

BCE_CLAMP = 1e-7


@dataclass
class ModelParams:
    """Dense weights of the two-layer network (also reused as a gradient container)."""

    W1: np.ndarray  # hidden x features
    b1: np.ndarray  # hidden
    W2: np.ndarray  # labels x hidden
    b2: np.ndarray  # labels

    def __post_init__(self):
        self.W1 = np.asarray(self.W1, dtype=np.float64)
        self.b1 = np.asarray(self.b1, dtype=np.float64)
        self.W2 = np.asarray(self.W2, dtype=np.float64)
        self.b2 = np.asarray(self.b2, dtype=np.float64)
        if self.W1.ndim != 2 or self.W2.ndim != 2 or self.b1.ndim != 1 or self.b2.ndim != 1:
            raise ValueError("weights must be 2-D matrices and biases 1-D vectors")
        if (
            self.b1.shape[0] != self.W1.shape[0]
            or self.W2.shape[1] != self.W1.shape[0]
            or self.b2.shape[0] != self.W2.shape[0]
        ):
            raise ValueError("parameter shapes are inconsistent")

    @property
    def n_features(self) -> int:
        return self.W1.shape[1]

    @property
    def n_hidden(self) -> int:
        return self.W1.shape[0]

    @property
    def n_labels(self) -> int:
        return self.W2.shape[0]


def _inf_past_float_range(value):
    """`value`, or +-inf for an integer past the float range, as the JSON float token 1e400 reads."""
    try:
        float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf
    return value


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the training schedule."""

    learning_rate: float = 0.05
    epochs: int = 30
    batch_size: int = 32
    lambda_: float = 1.0  # weight of the rule-violation loss term
    warmup_epochs: int = 5
    tau: float = 0.9  # self-correction confidence threshold
    hidden_units: int = 16
    seed: int = 0
    correction_mode: str = "relabel"

    def __post_init__(self):
        for f in fields(self):
            cast = {"float": float, "int": int}.get(f.type)  # numeric fields, by annotation
            if cast is None:
                continue
            raw = getattr(self, f.name)
            key = f.name.rstrip("_")  # messages name the config key, as `as_dict` writes it
            if isinstance(raw, bool) or not isinstance(raw, numbers.Real):  # a string such as "6" too
                raise ValueError(f"{key} must be a number, got {raw!r}")
            raw = _inf_past_float_range(raw)
            if cast is int and isinstance(raw, float) and not raw.is_integer():
                raise ValueError(f"{key} must be an integer, got {raw!r}")
            value = cast(raw)
            if not math.isfinite(value):  # NaN would pass every range check below
                raise ValueError(f"{key} must be finite, got {raw!r}")
            object.__setattr__(self, f.name, value)
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.lambda_ < 0:
            raise ValueError("lambda must be nonnegative")
        if not 0 <= self.warmup_epochs <= self.epochs:
            raise ValueError("warmup_epochs must lie in [0, epochs]")
        if not 0.5 < self.tau < 1:
            raise ValueError("tau must lie in (0.5, 1)")
        if self.hidden_units < 1:
            raise ValueError("hidden_units must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.correction_mode not in CORRECTION_MODES:
            raise ValueError(
                f"correction_mode must be one of {CORRECTION_MODES}, got {self.correction_mode!r}"
            )

    def as_dict(self) -> dict:
        """Every field in declaration order, keyed by name; `lambda_` is keyed "lambda"."""
        return {f.name.rstrip("_"): getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        """The config with each field read from its `as_dict` key in `doc`; a
        field whose key is absent keeps its default, and other keys are not read."""
        return cls(**{f.name: doc[key] for f in fields(cls) if (key := f.name.rstrip("_")) in doc})


def init_params(seed: int, n_features: int, n_hidden: int, n_labels: int) -> ModelParams:
    """Seeded uniform init in +-1/sqrt(fan_in); W1 is drawn before W2, row-major; biases zero."""
    if min(n_features, n_hidden, n_labels) < 1:
        raise ValueError("all dimensions must be at least 1")
    rng = np.random.default_rng(seed)
    lim1 = 1.0 / math.sqrt(n_features)
    lim2 = 1.0 / math.sqrt(n_hidden)
    W1 = rng.uniform(-lim1, lim1, size=(n_hidden, n_features))
    W2 = rng.uniform(-lim2, lim2, size=(n_labels, n_hidden))
    return ModelParams(W1, np.zeros(n_hidden), W2, np.zeros(n_labels))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows: 1 / (1 + exp(-z)) where z >= 0, exp(z) / (1 + exp(z)) elsewhere
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def forward(params: ModelParams, X) -> tuple[np.ndarray, np.ndarray]:
    """Per-label probabilities for a batch of feature rows, and the hidden activations backprop reuses."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.n_features:
        raise ValueError(f"feature matrix has shape {X.shape}, expected (n, {params.n_features})")
    hidden = np.tanh(X @ params.W1.T + params.b1)
    probs = _sigmoid(hidden @ params.W2.T + params.b2)
    return probs, hidden


def _as_loss_inputs(P, T, M) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    P = np.asarray(P, dtype=np.float64)
    T = np.asarray(T, dtype=np.float64)
    M = np.asarray(M, dtype=np.float64)
    if not (P.shape == T.shape == M.shape):
        raise ValueError("P, T and M must share one shape")
    return P, T, M, float(M.sum())


NO_SUPERVISION = "no supervision: mask excludes every entry"


def bce_masked(P, T, M) -> float:
    """Mean binary cross-entropy over mask-selected entries, probabilities
    clamped to [1e-7, 1 - 1e-7] before the logs."""
    P, T, M, m = _as_loss_inputs(P, T, M)
    if m == 0:
        raise ValueError(NO_SUPERVISION)
    clamped = np.clip(P, BCE_CLAMP, 1.0 - BCE_CLAMP)
    loglik = T * np.log(clamped) + (1.0 - T) * np.log1p(-clamped)
    return float(-(loglik * M).sum() / m)


def _bce_grad_probs(P: np.ndarray, T: np.ndarray, M: np.ndarray, m: float) -> np.ndarray:
    if m == 0:  # a batch whose entries are all masked gets no BCE gradient
        return np.zeros_like(P)
    clamped = np.clip(P, BCE_CLAMP, 1.0 - BCE_CLAMP)
    # outside the clamp window the loss is locally constant in P
    inside = (P >= BCE_CLAMP) & (P <= 1.0 - BCE_CLAMP)
    grad = np.where(M * inside > 0, (clamped - T) / (clamped * (1.0 - clamped)), 0.0)
    return grad / m


def loss_grads(params: ModelParams, X, T, M, rs: RuleSet, lambda_: float) -> ModelParams:
    """Exact analytic gradients of the composite loss of `total_loss_and_grads`
    in every parameter, without computing the loss value: one training step.
    A batch whose entries are all masked adds no BCE gradient; its rule
    penalty gradient still applies."""
    if not (lambda_ >= 0 and math.isfinite(lambda_)):
        raise ValueError("lambda must be nonnegative")
    X = np.asarray(X, dtype=np.float64)
    probs, hidden = forward(params, X)
    P, T, M, m = _as_loss_inputs(probs, T, M)
    grad_probs = _bce_grad_probs(P, T, M, m)
    if lambda_ > 0 and rs.rules:
        grad_probs = grad_probs + lambda_ * domain_loss_grad(rs, P)
    d_logits = grad_probs * P * (1.0 - P)
    gW2 = d_logits.T @ hidden
    gb2 = d_logits.sum(axis=0)
    d_hidden = d_logits @ params.W2
    d_pre = d_hidden * (1.0 - hidden**2)
    gW1 = d_pre.T @ X
    gb1 = d_pre.sum(axis=0)
    return ModelParams(gW1, gb1, gW2, gb2)


def total_loss_and_grads(
    params: ModelParams, X, T, M, rs: RuleSet, lambda_: float
) -> tuple[float, ModelParams]:
    """Composite loss (masked BCE plus lambda_ times the rule penalty) and its
    exact analytic gradients in every parameter."""
    grads = loss_grads(params, X, T, M, rs, lambda_)
    P, _ = forward(params, X)
    loss = bce_masked(P, T, M)
    if lambda_ > 0 and rs.rules:
        loss = loss + lambda_ * domain_loss(rs, P)
    return loss, grads


def sgd_step(params: ModelParams, grads: ModelParams, learning_rate: float) -> ModelParams:
    """One plain gradient step; returns new parameters, inputs untouched."""
    if not (learning_rate > 0 and math.isfinite(learning_rate)):
        raise ValueError("learning rate must be positive")
    lr = float(learning_rate)
    return ModelParams(
        params.W1 - lr * grads.W1,
        params.b1 - lr * grads.b1,
        params.W2 - lr * grads.W2,
        params.b2 - lr * grads.b2,
    )


# ---- checkpoints ----


def _check_finite(params: ModelParams) -> None:
    for name in ("W1", "b1", "W2", "b2"):
        if not np.isfinite(getattr(params, name)).all():
            raise ValueError(f"non-finite values in parameter {name}")


def save_model(params: ModelParams, path, seed: int, config: TrainConfig | None = None) -> None:
    """Write one JSON document: dims, seed, row-major weight arrays, config echo."""
    _check_finite(params)
    doc = {
        "dims": {
            "n_features": params.n_features,
            "n_hidden": params.n_hidden,
            "n_labels": params.n_labels,
        },
        "seed": int(seed),
        "W1": params.W1.ravel().tolist(),
        "b1": params.b1.ravel().tolist(),
        "W2": params.W2.ravel().tolist(),
        "b2": params.b2.ravel().tolist(),
        "config": config.as_dict() if config is not None else None,
    }
    jsonio.dump_lines([doc], path)


def load_model(path) -> tuple[ModelParams, int, dict | None]:
    """Read a checkpoint back; returns (params, seed, config echo or None).

    The checkpoint and its dims must be JSON objects, each dim a non-negative
    integer and each weight array a flat list of numbers; W1 and W2 must hold
    as many as their dims give. The seed must be an integer in [0, 2**64), as
    `TrainConfig.seed` is, and a config echo must hold exactly the keys
    `TrainConfig.as_dict` writes, with values `TrainConfig` accepts."""
    text, doc = jsonio.read_object(path, "checkpoint")
    try:
        if not isinstance(doc["dims"], dict):
            raise ValueError("dims must be a JSON object")
        dims = {key: _checkpoint_dim(doc["dims"], key) for key in ("n_features", "n_hidden", "n_labels")}
        weights = jsonio.with_negative_zeros(text, doc)  # a weight written as -0 reads back as -0.0
        W1, b1, W2, b2 = (_weight_array(weights, name) for name in ("W1", "b1", "W2", "b2"))
        W1 = _layer_weights(W1, "W1", "n_hidden", "n_features", dims)
        W2 = _layer_weights(W2, "W2", "n_labels", "n_hidden", dims)
        params = ModelParams(W1, b1, W2, b2)
        _check_finite(params)  # JSON readers take NaN and Infinity, which save_model never writes
        seed = doc["seed"]
        if type(seed) is not int or not 0 <= seed < 2**64:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {json.dumps(seed)}")
        config = doc.get("config")
        if config is not None:
            _check_config_echo(config)
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"{path}: malformed checkpoint: {err}") from None
    return params, seed, config


def _checkpoint_dim(dims, key: str) -> int:
    """A layer size from the checkpoint's dims: a JSON integer, and not negative,
    which `reshape` would read as "infer this size"."""
    value = dims[key]
    if type(value) is not int or value < 0:
        raise ValueError(f"dims key '{key}' must be a non-negative integer, got {json.dumps(value)}")
    return value


def _weight_array(doc, name: str) -> np.ndarray:
    """A weight array as `save_model` writes it: a flat JSON list of numbers,
    not strings or booleans, which numpy would convert."""
    values = doc[name]
    if type(values) is not list or not set(map(type, values)) <= {int, float}:
        raise ValueError(f"{name} must be a list of numbers")
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        return np.array([_inf_past_float_range(value) for value in values], dtype=np.float64)


def _layer_weights(values: np.ndarray, name: str, rows: str, cols: str, dims: dict) -> np.ndarray:
    """A layer's flat weights shaped (dims[rows], dims[cols]). Its length is
    checked against that product in Python ints first, so that a wrong or huge
    dim names its keys rather than failing in `reshape`."""
    shape = (dims[rows], dims[cols])
    if values.size != shape[0] * shape[1]:
        raise ValueError(f"{name} holds {values.size} values, not {rows} x {cols} = {shape[0]} x {shape[1]}")
    return values.reshape(shape)


def _check_config_echo(config) -> None:
    keys = list(TrainConfig().as_dict())
    if not isinstance(config, dict) or sorted(config) != sorted(keys):
        raise ValueError(f"config echo must be an object with the keys {', '.join(keys)}")
    try:
        TrainConfig.from_dict(config)
    except ValueError as err:
        raise ValueError(f"config echo: {err}") from None
