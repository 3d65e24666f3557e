"""Probabilistic capacity predictors.

Given a feature vector describing an interval (weather, demand, time of
day), a predictor returns a full PMF over capacities 0..max_capacity
instead of a single number. Two predictor kinds share one model type:

* 'empirical' buckets the normalized features (rounded to one decimal)
  and answers with the bucket's label histogram, falling back to the
  global histogram for unseen buckets;
* 'mlp' is a single-hidden-layer softmax network trained with plain
  minibatch gradient descent.

Point predictions, central tolerance sets and the usual accuracy /
coverage metrics are derived from the predicted PMFs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyDatasetError,
    LabelOutOfRangeError,
)
from .pmf import Pmf, make_pmf

EMPIRICAL = "empirical"
MLP = "mlp"


@dataclass
class TrainingConfig:
    kind: str = MLP
    max_capacity: int | None = None  # default: largest training label
    hidden_units: int = 32
    learning_rate: float = 1e-4
    epochs: int = 300
    batch_size: int = 16
    seed: int = 0


@dataclass
class PredictorModel:
    """A trained predictor plus the normalization fitted with it."""

    kind: str
    max_capacity: int
    feature_lo: np.ndarray
    feature_hi: np.ndarray
    params: dict = field(default_factory=dict)

    @property
    def feature_dim(self) -> int:
        return len(self.feature_lo)

    def normalize(self, features: np.ndarray) -> np.ndarray:
        """Min-max scale with the training bounds; constant columns map to 0."""
        span = self.feature_hi - self.feature_lo
        safe = np.where(span > 0, span, 1.0)
        scaled = (features - self.feature_lo) / safe
        return np.where(span > 0, scaled, 0.0)


@dataclass(frozen=True)
class PredictionMetrics:
    rmse: float
    mae: float
    picp: float
    mpiw: float
    count: int


def _check_dataset(features, labels, max_capacity=None):
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
    if features.ndim != 2:
        raise DimensionMismatchError("features must be a 2-D array")
    if features.shape[0] == 0:
        raise EmptyDatasetError("no training rows")
    if features.shape[0] != labels.shape[0]:
        raise DimensionMismatchError(
            f"{features.shape[0]} feature rows vs {labels.shape[0]} labels"
        )
    if np.any(labels != labels.astype(int)):
        raise LabelOutOfRangeError("labels must be integers")
    labels = labels.astype(int)
    if np.any(labels < 0):
        raise LabelOutOfRangeError("labels must be non-negative")
    cap = int(labels.max()) if max_capacity is None else int(max_capacity)
    if np.any(labels > cap):
        raise LabelOutOfRangeError(
            f"label {int(labels.max())} exceeds max capacity {cap}"
        )
    return features, labels, cap


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _bucket_key(row: np.ndarray) -> tuple:
    return tuple(round(float(v), 1) for v in row)


def train(features, labels, config: TrainingConfig) -> PredictorModel:
    """Fit a predictor on (features, labels) rows.

    Normalization bounds come from the training rows only, so a model
    applied to later data scales it exactly as it scaled its own.
    """
    features, labels, cap = _check_dataset(features, labels, config.max_capacity)
    lo = features.min(axis=0)
    hi = features.max(axis=0)
    model = PredictorModel(config.kind, cap, lo, hi)
    normalized = model.normalize(features)
    classes = cap + 1

    if config.kind == EMPIRICAL:
        buckets: dict[tuple, np.ndarray] = {}
        overall = np.zeros(classes)
        for row, label in zip(normalized, labels):
            key = _bucket_key(row)
            if key not in buckets:
                buckets[key] = np.zeros(classes)
            buckets[key][label] += 1
            overall[label] += 1
        model.params = {
            "buckets": {k: v / v.sum() for k, v in buckets.items()},
            "overall": overall / overall.sum(),
        }
        return model

    if config.kind != MLP:
        raise ValueError(f"unknown predictor kind {config.kind!r}")

    rng = np.random.default_rng(config.seed)
    dim = features.shape[1]
    hidden = config.hidden_units
    w1 = rng.normal(0.0, math.sqrt(2.0 / dim), size=(dim, hidden))
    b1 = np.zeros(hidden)
    w2 = rng.normal(0.0, math.sqrt(2.0 / hidden), size=(hidden, classes))
    b2 = np.zeros(classes)
    onehot = np.eye(classes)[labels]

    n = len(labels)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            x, y = normalized[batch], onehot[batch]
            pre = x @ w1 + b1
            hid = np.maximum(pre, 0.0)
            probs = _softmax(hid @ w2 + b2)
            # average cross-entropy gradient over the minibatch
            g_logits = (probs - y) / len(batch)
            g_w2 = hid.T @ g_logits
            g_b2 = g_logits.sum(axis=0)
            g_hid = (g_logits @ w2.T) * (pre > 0)
            g_w1 = x.T @ g_hid
            g_b1 = g_hid.sum(axis=0)
            w1 -= config.learning_rate * g_w1
            b1 -= config.learning_rate * g_b1
            w2 -= config.learning_rate * g_w2
            b2 -= config.learning_rate * g_b2

    model.params = {"w1": w1, "b1": b1, "w2": w2, "b2": b2}
    return model


def predict_pmf(model: PredictorModel, feature_vector) -> Pmf:
    """PMF over capacities 0..max_capacity for one feature vector."""
    x = np.asarray(feature_vector, dtype=float)
    if x.shape != (model.feature_dim,):
        raise DimensionMismatchError(
            f"feature vector has shape {x.shape}, model expects ({model.feature_dim},)"
        )
    z = model.normalize(x)
    if model.kind == EMPIRICAL:
        weights = model.params["buckets"].get(
            _bucket_key(z), model.params["overall"]
        )
    else:
        hid = np.maximum(z @ model.params["w1"] + model.params["b1"], 0.0)
        weights = _softmax(hid @ model.params["w2"] + model.params["b2"])
    return make_pmf(range(model.max_capacity + 1), weights)


def point_prediction(p: Pmf) -> int:
    """Most likely capacity, preferring the smaller value on ties."""
    return int(p.support[int(np.argmax(p.weights_array))])


def tolerance_interval(p: Pmf, level: float = 0.9) -> frozenset:
    """Smallest support set reaching the coverage level.

    Values are added in decreasing probability order (smaller capacity
    first on ties) until the accumulated mass reaches level, with a tiny
    slack so that sums like 0.7 + 0.1 + 0.1 still count as 0.9.
    """
    if not 0.0 < level <= 1.0:
        raise ValueError("level must be in (0, 1]")
    order = sorted(zip(p.weights, p.support), key=lambda t: (-t[0], t[1]))
    chosen, total = [], 0.0
    for weight, value in order:
        chosen.append(value)
        total += weight
        if total >= level - 1e-9:
            break
    return frozenset(chosen)


def evaluate(model: PredictorModel, features, truths, level: float = 0.9) -> PredictionMetrics:
    """Point accuracy and tolerance-set coverage on labeled rows."""
    features = np.asarray(features, dtype=float)
    truths = np.asarray(truths, dtype=int)
    if len(truths) == 0:
        raise EmptyDatasetError("nothing to evaluate")
    errors, covered, widths = [], 0, []
    for x, truth in zip(features, truths):
        pmf = predict_pmf(model, x)
        errors.append(point_prediction(pmf) - truth)
        interval = tolerance_interval(pmf, level)
        covered += int(truth) in interval
        widths.append(len(interval))
    errors = np.asarray(errors, dtype=float)
    return PredictionMetrics(
        rmse=float(np.sqrt(np.mean(errors**2))),
        mae=float(np.mean(np.abs(errors))),
        picp=covered / len(truths),
        mpiw=float(np.mean(widths)),
        count=len(truths),
    )


def temporal_split(n: int, train_frac: float = 10 / 12, val_frac: float = 1 / 12):
    """Contiguous train/validation/test index ranges over n rows."""
    train_end = int(n * train_frac)
    val_end = int(n * (train_frac + val_frac))
    return np.arange(train_end), np.arange(train_end, val_end), np.arange(val_end, n)


# ---------------------------------------------------------------------------
# model files


def save_model(path, model: PredictorModel) -> None:
    body = {
        "kind": model.kind,
        "max_capacity": model.max_capacity,
        "feature_lo": model.feature_lo.tolist(),
        "feature_hi": model.feature_hi.tolist(),
    }
    if model.kind == EMPIRICAL:
        body["buckets"] = [
            [list(key), weights.tolist()]
            for key, weights in sorted(model.params["buckets"].items())
        ]
        body["overall"] = model.params["overall"].tolist()
    else:
        body.update(
            {name: model.params[name].tolist() for name in ("w1", "b1", "w2", "b2")}
        )
    Path(path).write_text(json.dumps(body) + "\n")


def load_model(path) -> PredictorModel:
    body = json.loads(Path(path).read_text())
    model = PredictorModel(
        kind=body["kind"],
        max_capacity=body["max_capacity"],
        feature_lo=np.asarray(body["feature_lo"]),
        feature_hi=np.asarray(body["feature_hi"]),
    )
    if model.kind == EMPIRICAL:
        model.params = {
            "buckets": {
                tuple(key): np.asarray(weights) for key, weights in body["buckets"]
            },
            "overall": np.asarray(body["overall"]),
        }
    else:
        model.params = {
            name: np.asarray(body[name]) for name in ("w1", "b1", "w2", "b2")
        }
    return model
