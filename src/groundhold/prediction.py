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

from .config import load_input
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
        raise ValueError("features must be a 2-D array")
    if features.shape[0] == 0:
        raise ValueError("no training rows")
    if features.shape[0] != labels.shape[0]:
        raise ValueError(
            f"{features.shape[0]} feature rows vs {labels.shape[0]} labels"
        )
    if np.any(labels != labels.astype(int)):
        raise ValueError("labels must be integers")
    labels = labels.astype(int)
    if np.any(labels < 0):
        raise ValueError("labels must be non-negative")
    cap = int(labels.max()) if max_capacity is None else int(max_capacity)
    if np.any(labels > cap):
        raise ValueError(
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

    model.params = {"w1": w1, "b1": b1, "w2": w2, "b2": b2}
    _descend(model.params, normalized, np.eye(classes)[labels], rng, config)
    return model


def _descend(params: dict, normalized, onehot, rng, config: TrainingConfig) -> None:
    """Minibatch gradient descent on the average cross-entropy, updating
    params in place.

    Each epoch gathers the rows in a fresh random order once and slices
    its batches from the gathered arrays. The softmax and the gradient
    steps run in place, but every floating-point operation is the one,
    and in the order, of the plain loop (tests/oracles.py keeps it), so
    the trained weights are the same to the bit.
    """
    w1, b1, w2, b2 = (params[k] for k in ("w1", "b1", "w2", "b2"))
    lr, size, n = config.learning_rate, config.batch_size, len(onehot)
    add, largest = np.add.reduce, np.maximum.reduce
    for _ in range(config.epochs):
        order = rng.permutation(n)
        xs, ys = normalized[order], onehot[order]
        for start in range(0, n, size):
            x, y = xs[start : start + size], ys[start : start + size]
            pre = x @ w1
            pre += b1
            hid = np.maximum(pre, 0.0)
            # softmax of the logits, then its gradient, both in place
            g_logits = hid @ w2
            g_logits += b2
            g_logits -= largest(g_logits, axis=-1, keepdims=True)
            np.exp(g_logits, out=g_logits)
            g_logits /= add(g_logits, axis=-1, keepdims=True)
            g_logits -= y
            g_logits /= len(x)
            g_w2 = hid.T @ g_logits
            g_b2 = add(g_logits, axis=0)
            g_hid = g_logits @ w2.T
            g_hid *= pre > 0
            g_w1 = x.T @ g_hid
            g_b1 = add(g_hid, axis=0)
            w1 -= lr * g_w1
            b1 -= lr * g_b1
            w2 -= lr * g_w2
            b2 -= lr * g_b2


def predict_pmf(model: PredictorModel, feature_vector) -> Pmf:
    """PMF over capacities 0..max_capacity for one feature vector."""
    x = np.asarray(feature_vector, dtype=float)
    if x.shape != (model.feature_dim,):
        raise ValueError(
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
        raise ValueError("nothing to evaluate")
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
    """Read a model file; a malformed one raises MissingInputError
    naming the file."""
    return load_input(path, "model", _model_from_dict)


def _model_from_dict(body: dict) -> PredictorModel:
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
