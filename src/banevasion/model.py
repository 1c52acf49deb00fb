"""L2-regularized logistic regression fitted by damped Newton's method (IRLS).

Inputs are standardized with train-set statistics (zero-variance columns
are centered only). The fit minimizes the mean log-loss, weighted so that
each class carries half the total weight, plus ``l2_lambda * ||w||^2 / 2``
(the bias is not penalized), starting from zero weights; it is bit-for-bit
deterministic given (X, y, config).

Each iteration solves one ``(d+1) x (d+1)`` system ``(H + mu I) step = -g``
over the weights and bias. The Levenberg damping ``mu`` is a multiple of the
gradient norm, so it vanishes at the optimum (convergence stays quadratic)
and keeps the step bounded where the Hessian is singular (``l2_lambda=0`` on
separable data). A step is kept when the loss does not rise beyond its own
rounding error; otherwise the multiple grows tenfold and the step is
retried. Training stops after the step taken from a gradient whose norm is
at most ``_TOLERANCE``, after a kept step that did not lower the loss, at a
zero gradient, or after ``max_epochs`` tried steps. With ``l2_lambda > 0``
the returned gradient is at rounding level.

Models serialize to a self-describing JSON document that round-trips
exactly: one key per ``LogisticModel`` field (feature names, weights, bias,
means, stds) and a config echo that also records the fixed tolerance and
class weighting. ``load_model`` coerces nothing: a field of the wrong form
raises ``InvalidInputError`` naming the file and the key.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import (
    InvalidConfigError,
    InvalidInputError,
    MismatchError,
    NonFiniteFeatureError,
    SingleClassInputError,
)
from ._metrics import roc_auc

_TOLERANCE = 1e-8
_VALIDATION_FRACTION = 0.1
# The fixed settings every model file echoes beside its ``TrainConfig``.
_FIXED_CONFIG = {"class_weighting": "inverse-frequency", "tolerance": _TOLERANCE}


@dataclass(frozen=True)
class TrainConfig:
    l2_lambda: float = 1.0
    max_epochs: int = 2000

    def __post_init__(self):
        if not 0 <= self.l2_lambda < math.inf:
            raise InvalidConfigError("l2_lambda", "must be finite and >= 0")
        if self.max_epochs < 1:
            raise InvalidConfigError("max_epochs", "must be >= 1")


@dataclass(frozen=True)
class LogisticModel:
    feature_names: tuple[str, ...]
    weights: np.ndarray
    bias: float
    means: np.ndarray
    stds: np.ndarray
    config: TrainConfig

    def predict_proba_matrix(self, X: np.ndarray, names: tuple[str, ...]) -> np.ndarray:
        if tuple(names) != self.feature_names:
            raise MismatchError(
                f"expected {self.feature_names}, got {tuple(names)}"
            )
        Xs = _standardize(np.atleast_2d(X), self.means, self.stds)
        return _sigmoid(Xs @ self.weights + self.bias)


def _standardize(X: np.ndarray, means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    """``X`` centered on ``means`` and scaled by ``stds``; a zero-variance
    column is centered only."""
    return (X - means) / np.where(stds > 0.0, stds, 1.0)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _sample_weights(y: np.ndarray) -> np.ndarray:
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    return np.where(y == 1, y.size / (2.0 * n_pos), y.size / (2.0 * n_neg))


def loss_and_gradient(
    w: np.ndarray,
    b: float,
    X: np.ndarray,
    y: np.ndarray,
    l2_lambda: float,
    sample_weights: np.ndarray,
):
    """Weighted mean logistic loss with L2 penalty, and its gradient.

    Returns (loss, grad_w, grad_b). X is assumed already standardized.
    The penalty multiplies ||w||^2 / 2 and excludes the bias.
    """
    z = X @ w + b
    p = _sigmoid(z)
    # log-loss via logaddexp for stability: log(1 + e^-z) etc.
    per_sample = np.logaddexp(0.0, -z) * y + np.logaddexp(0.0, z) * (1 - y)
    total_weight = sample_weights.sum()
    loss = float((sample_weights * per_sample).sum() / total_weight)
    loss += 0.5 * l2_lambda * float(w @ w)
    residual = sample_weights * (p - y) / total_weight
    grad_w = X.T @ residual + l2_lambda * w
    grad_b = float(residual.sum())
    return loss, grad_w, grad_b


def _hessian(
    w: np.ndarray,
    b: float,
    X: np.ndarray,
    l2_lambda: float,
    sample_weights: np.ndarray,
) -> np.ndarray:
    """Hessian of ``loss_and_gradient``'s loss over (w, b), the bias last."""
    p = _sigmoid(X @ w + b)
    s = sample_weights * p * (1.0 - p) / sample_weights.sum()
    d = X.shape[1]
    H = np.empty((d + 1, d + 1))
    H[:d, :d] = X.T @ (X * s[:, None])
    H[np.diag_indices(d)] += l2_lambda
    H[:d, d] = H[d, :d] = X.T @ s
    H[d, d] = s.sum()
    return H


# Levenberg damping is this multiple of the gradient norm at least.
_MIN_DAMPING = 1e-4
# A step may raise the loss by this relative amount, the rounding error of
# summing the per-sample losses; near the optimum the true change is smaller.
_ROUNDING = 64 * np.finfo(float).eps


def train(
    X: np.ndarray,
    y: np.ndarray,
    config: TrainConfig = TrainConfig(),
    feature_names: tuple[str, ...] | None = None,
) -> LogisticModel:
    """Fit the classifier; deterministic given (X, y, config)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise InvalidInputError("X must be 2-dimensional")
    if not np.isfinite(X).all():
        raise NonFiniteFeatureError("X contains non-finite values")
    classes = np.unique(y)
    if classes.size < 2:
        raise SingleClassInputError("training labels contain a single class")
    if not set(classes.tolist()) <= {0.0, 1.0}:
        raise InvalidInputError("labels must be 0/1")
    if feature_names is None:
        feature_names = tuple(f"f{i}" for i in range(X.shape[1]))

    means, stds = X.mean(axis=0), X.std(axis=0)
    Xs = _standardize(X, means, stds)
    sw = _sample_weights(y)

    d = X.shape[1]
    w = np.zeros(d)
    b = 0.0
    loss, grad_w, grad_b = loss_and_gradient(w, b, Xs, y, config.l2_lambda, sw)
    damping = _MIN_DAMPING
    for _ in range(config.max_epochs):
        grad = np.append(grad_w, grad_b)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm == 0.0:
            break
        system = _hessian(w, b, Xs, config.l2_lambda, sw)
        system[np.diag_indices(d + 1)] += damping * grad_norm
        step = np.linalg.solve(system, -grad)
        w_new, b_new = w + step[:d], b + float(step[d])
        new_loss, new_gw, new_gb = loss_and_gradient(
            w_new, b_new, Xs, y, config.l2_lambda, sw
        )
        if new_loss > loss * (1.0 + _ROUNDING):
            damping *= 10.0
            continue
        decreased = new_loss < loss
        w, b, loss, grad_w, grad_b = w_new, b_new, new_loss, new_gw, new_gb
        damping = max(damping / 10.0, _MIN_DAMPING)
        if grad_norm <= _TOLERANCE or not decreased:
            break
    return LogisticModel(tuple(feature_names), w, float(b), means, stds, config)


def rfe(
    X: np.ndarray,
    y: np.ndarray,
    config: TrainConfig = TrainConfig(),
    feature_names: tuple[str, ...] | None = None,
):
    """Recursive feature elimination against a temporal holdout.

    Rows must already be in temporal order; the trailing
    ``_VALIDATION_FRACTION`` of rows is held out. The weakest feature
    (smallest absolute standardized weight, ties drop the later name) is
    removed each round; the subset with the best holdout AUC wins, smaller
    subsets winning ties. Returns (model, history): the model retrained on
    all rows over the winning subset, in input column order, and the
    (names, validation_auc) of each round.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.shape[1] < 2:
        raise InvalidInputError("rfe needs at least 2 features")
    if feature_names is None:
        feature_names = tuple(f"f{i}" for i in range(X.shape[1]))

    n_val = max(1, int(X.shape[0] * _VALIDATION_FRACTION))
    X_train, X_val = X[:-n_val], X[-n_val:]
    y_train, y_val = y[:-n_val], y[-n_val:]
    if np.unique(y_val).size < 2 or np.unique(y_train).size < 2:
        raise SingleClassInputError("temporal holdout left a single-class split")

    active = list(range(X.shape[1]))
    history: list[tuple[tuple[str, ...], float]] = []
    while active:
        model = train(
            X_train[:, active],
            y_train,
            config,
            tuple(feature_names[i] for i in active),
        )
        scores = model.predict_proba_matrix(X_val[:, active], model.feature_names)
        auc = roc_auc(scores, y_val)
        history.append((model.feature_names, auc))
        if len(active) == 1:
            break
        min_abs = float(np.min(np.abs(model.weights)))
        # ties on |weight| drop the later name in the fixed order
        for pos in range(len(active) - 1, -1, -1):
            if abs(model.weights[pos]) == min_abs:
                del active[pos]
                break

    best_names, _ = max(history, key=lambda item: (item[1], -len(item[0])))
    keep = [i for i, name in enumerate(feature_names) if name in best_names]
    return train(X[:, keep], y, config, tuple(feature_names[i] for i in keep)), history


# ---------------------------------------------------------------------------
# serialization

_FORMAT = "banevasion-logistic/1"
# files written before TrainConfig dropped its unused seed and the descent
# solver's learning rate still carry them
_LEGACY_CONFIG = ("learning_rate", "seed")


def model_bytes(model: LogisticModel) -> bytes:
    """Canonical serialized form: the exact bytes ``save_model`` writes."""
    doc = {
        "format": _FORMAT,
        "feature_names": list(model.feature_names),
        "weights": model.weights.tolist(),
        "bias": model.bias,
        "means": model.means.tolist(),
        "stds": model.stds.tolist(),
        "config": {**asdict(model.config), **_FIXED_CONFIG},
    }
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def save_model(model: LogisticModel, path: str | Path) -> None:
    Path(path).write_bytes(model_bytes(model))


def _is_number(value) -> bool:
    """A finite JSON number: not a string, a bool or null."""
    return type(value) in (int, float) and math.isfinite(value)


def load_model(path: str | Path) -> LogisticModel:
    """The model ``path`` holds. Nothing is coerced: a field of the wrong form
    raises ``InvalidInputError`` naming ``path`` and the key."""
    def invalid(key: str, reason: str) -> InvalidInputError:
        return InvalidInputError(f"{path}: key {key!r} {reason}")

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise InvalidInputError(f"{path}: not JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise InvalidInputError(f"unrecognized model format in {path}")
    names = doc.get("feature_names")
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)
            and len(set(names)) == len(names)):
        raise invalid("feature_names", "must be a list of distinct strings")
    vectors = []
    for key in ("weights", "means", "stds"):
        values = doc.get(key)
        if not (isinstance(values, list) and len(values) == len(names)
                and all(map(_is_number, values))):
            raise invalid(key, f"must be {len(names)} finite numbers, one per feature name")
        vectors.append(np.array(values, dtype=float))
    if not _is_number(doc.get("bias")):
        raise invalid("bias", "must be a finite number")
    config = doc.get("config")
    if not isinstance(config, dict):
        raise invalid("config", "must be an object")
    for key, value in config.items():
        if key in _FIXED_CONFIG:
            fine, wanted = value == _FIXED_CONFIG[key], repr(_FIXED_CONFIG[key])
        elif key == "l2_lambda":
            fine, wanted = _is_number(value), "a finite number"
        elif key == "max_epochs":
            fine, wanted = type(value) is int, "an integer"
        elif key in _LEGACY_CONFIG:
            continue
        else:
            raise invalid(f"config.{key}", "is not a training option")
        if not fine:
            raise invalid(f"config.{key}", f"must be {wanted}")
    for key in ("l2_lambda", "max_epochs"):
        if key not in config:
            raise invalid(f"config.{key}", "is missing")
    try:
        train_config = TrainConfig(config["l2_lambda"], config["max_epochs"])
    except InvalidConfigError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None
    weights, means, stds = vectors
    return LogisticModel(tuple(names), weights, float(doc["bias"]), means, stds, train_config)
