"""L2-regularized logistic regression trained by full-batch gradient descent.

Inputs are standardized with train-set statistics (zero-variance columns
are centered only). Full-batch descent with weights initialized to zero is
bit-for-bit deterministic: no shuffling, no stochastic minibatches. The
learning rate halves whenever a step would increase the loss, and training
stops once the improvement falls below the tolerance.

Models serialize to a self-describing JSON document that round-trips
exactly (feature names, means, stds, weights, bias, config echo).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import (
    FeatureNameMismatchError,
    NonFiniteFeatureError,
    SingleClassInputError,
)
from ._metrics import roc_auc
from .features import FeatureVector


@dataclass(frozen=True)
class StandardizationStats:
    means: np.ndarray
    stds: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        scale = np.where(self.stds > 0.0, self.stds, 1.0)
        return (X - self.means) / scale


def fit_standardization(X: np.ndarray) -> StandardizationStats:
    return StandardizationStats(X.mean(axis=0), X.std(axis=0))


@dataclass(frozen=True)
class TrainConfig:
    l2_lambda: float = 1.0
    learning_rate: float = 0.1
    max_epochs: int = 2000
    tolerance: float = 1e-8
    class_weighting: str = "inverse-frequency"  # or "none"

    def __post_init__(self):
        if self.l2_lambda < 0:
            raise ValueError("l2_lambda must be >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be > 0")
        if self.class_weighting not in ("none", "inverse-frequency"):
            raise ValueError(f"unknown class_weighting {self.class_weighting!r}")


@dataclass(frozen=True)
class LogisticModel:
    feature_names: tuple[str, ...]
    weights: np.ndarray
    bias: float
    stats: StandardizationStats
    config: TrainConfig

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        return self.stats.apply(X) @ self.weights + self.bias

    def predict_proba_matrix(self, X: np.ndarray, names: tuple[str, ...]) -> np.ndarray:
        if tuple(names) != self.feature_names:
            raise FeatureNameMismatchError(
                f"expected {self.feature_names}, got {tuple(names)}"
            )
        return _sigmoid(self.decision_values(np.atleast_2d(X)))

    def negated(self) -> "LogisticModel":
        return LogisticModel(
            self.feature_names, -self.weights, -self.bias, self.stats, self.config
        )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _sample_weights(y: np.ndarray, scheme: str) -> np.ndarray:
    if scheme == "none":
        return np.ones(y.size)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    weights = np.where(y == 1, y.size / (2.0 * n_pos), y.size / (2.0 * n_neg))
    return weights


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
        raise ValueError("X must be 2-dimensional")
    if not np.isfinite(X).all():
        raise NonFiniteFeatureError("X contains non-finite values")
    classes = np.unique(y)
    if classes.size < 2:
        raise SingleClassInputError("training labels contain a single class")
    if not set(classes.tolist()) <= {0.0, 1.0}:
        raise ValueError("labels must be 0/1")
    if feature_names is None:
        feature_names = tuple(f"f{i}" for i in range(X.shape[1]))

    stats = fit_standardization(X)
    Xs = stats.apply(X)
    sw = _sample_weights(y, config.class_weighting)

    w = np.zeros(X.shape[1])
    b = 0.0
    lr = config.learning_rate
    loss, grad_w, grad_b = loss_and_gradient(w, b, Xs, y, config.l2_lambda, sw)
    for _ in range(config.max_epochs):
        while True:
            w_new = w - lr * grad_w
            b_new = b - lr * grad_b
            new_loss, new_gw, new_gb = loss_and_gradient(
                w_new, b_new, Xs, y, config.l2_lambda, sw
            )
            if new_loss <= loss or lr < 1e-12:
                break
            lr *= 0.5
        improvement = loss - new_loss
        w, b, grad_w, grad_b = w_new, b_new, new_gw, new_gb
        loss = new_loss
        if improvement < config.tolerance:
            break
    return LogisticModel(tuple(feature_names), w, float(b), stats, config)


def predict_proba(model: LogisticModel, x: FeatureVector) -> float:
    """Positive-class probability for a single named feature vector."""
    return float(model.predict_proba_matrix(x.values, x.names)[0])


def rfe(
    X: np.ndarray,
    y: np.ndarray,
    config: TrainConfig = TrainConfig(),
    validation_fraction: float = 0.1,
    feature_names: tuple[str, ...] | None = None,
):
    """Recursive feature elimination against a temporal holdout.

    Rows must already be in temporal order; the trailing
    ``validation_fraction`` of rows is held out. The weakest feature
    (smallest absolute standardized weight, ties drop the later name) is
    removed each round; the subset with the best holdout AUC wins, smaller
    subsets winning ties. Returns (selected_names, model retrained on all
    rows, history) where history lists (names, validation_auc) per round.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.shape[1] < 2:
        raise ValueError("rfe needs at least 2 features")
    if not 0.0 < validation_fraction < 1.0:
        raise ValueError("validation_fraction must be in (0, 1)")
    if feature_names is None:
        feature_names = tuple(f"f{i}" for i in range(X.shape[1]))

    n_val = max(1, int(X.shape[0] * validation_fraction))
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
    final = train(X[:, keep], y, config, tuple(feature_names[i] for i in keep))
    return best_names, final, history


# ---------------------------------------------------------------------------
# serialization


def model_bytes(model: LogisticModel) -> bytes:
    """Canonical serialized form: the exact bytes ``save_model`` writes."""
    doc = {
        "format": "banevasion-logistic/1",
        "feature_names": list(model.feature_names),
        "weights": model.weights.tolist(),
        "bias": model.bias,
        "means": model.stats.means.tolist(),
        "stds": model.stats.stds.tolist(),
        "config": asdict(model.config),
    }
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def save_model(model: LogisticModel, path: str | Path) -> None:
    Path(path).write_bytes(model_bytes(model))


def load_model(path: str | Path) -> LogisticModel:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != "banevasion-logistic/1":
        raise ValueError(f"unrecognized model format in {path}")
    # files written before TrainConfig dropped its unused seed still carry it
    doc["config"].pop("seed", None)
    return LogisticModel(
        tuple(doc["feature_names"]),
        np.array(doc["weights"], dtype=float),
        float(doc["bias"]),
        StandardizationStats(
            np.array(doc["means"], dtype=float), np.array(doc["stds"], dtype=float)
        ),
        TrainConfig(**doc["config"]),
    )
