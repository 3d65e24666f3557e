"""Probabilistic capacity predictors.

Given a feature vector describing an interval (weather, demand, time of
day), a predictor returns a full PMF over capacities 0..max_capacity
instead of a single number. Two predictor kinds share one model type:

* 'empirical' buckets the normalized features, each rounded to one
  decimal exactly as Python's round(v, 1) rounds it, and answers with
  the bucket's label histogram, falling back to the global histogram
  for unseen buckets;
* 'mlp' is a single-hidden-layer softmax network trained with plain
  minibatch gradient descent.

evaluate derives point predictions, tolerance sets and the usual
accuracy / coverage metrics from the predicted PMFs. Training,
bucketing and scoring run on whole arrays, and every number they give
is the one the plain per-row loops give; the MLP scores each row as its
own 1 x d product, so its weights are those of scoring it alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .config import load_input
from .pmf import MASS_TOL, Pmf, as_real, as_whole, make_pmf

EMPIRICAL = "empirical"
MLP = "mlp"
#: the MLP's parameter arrays, in the order they sit in one flat vector
_LAYERS = ("w1", "b1", "w2", "b2")


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

    @cached_property
    def _scale(self):
        """The span divided by, 1 where a column is constant, and the mask
        of the columns that vary; the bounds are fixed once fitted."""
        span = self.feature_hi - self.feature_lo
        varies = span > 0
        return np.where(varies, span, 1.0), varies

    def normalize(self, features: np.ndarray) -> np.ndarray:
        """Min-max scale with the training bounds; constant columns map to
        0. Non-finite features raise ValueError."""
        if not np.isfinite(features).all():
            raise ValueError("features must be finite")
        safe, varies = self._scale
        scaled = (features - self.feature_lo) / safe
        return np.where(varies, scaled, 0.0)


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
    if features.shape[1] == 0:
        raise ValueError("no feature columns")
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
            f"label {int(labels.max())} exceeds max capacity {cap} set by 'max_capacity'"
        )
    return features, labels, cap


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _bucket_keys(z: np.ndarray) -> list[tuple]:
    """Each row of the 2-D array z as a tuple of its entries rounded to
    one decimal, each equal to Python's round(v, 1), signed zero included.

    rint(10 v) / 10 is that value wherever the rounded product 10 v
    lies on the same side of every half-integer as the exact one: the
    quotient of an integer by 10 is rounded once, to the double nearest
    the decimal round() picks. Entries within 1e-6 of a half-decimal,
    where the product's rounding could cross the midpoint, non-finite
    entries and entries of magnitude 1e14 or more (past 2**53 / 10,
    about 9e14, the product no longer holds every half-integer) are
    rounded by round() itself.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        tenths = 10.0 * z
        keys = np.rint(tenths) / 10.0
        exact = (np.abs(tenths - np.floor(tenths) - 0.5) > 1e-5) & (np.abs(z) < 1e14)
    rows = keys.tolist()
    for i, j in zip(*np.nonzero(~exact)):
        rows[i][j] = round(float(z[i, j]), 1)
    return [tuple(row) for row in rows]


def train(features, labels, config: TrainingConfig) -> PredictorModel:
    """Fit a predictor on (features, labels) rows.

    Normalization bounds come from the training rows only, so a model
    applied to later data scales it exactly as it scaled its own.
    Non-finite features raise ValueError.
    """
    features, labels, cap = _check_dataset(features, labels, config.max_capacity)
    lo = features.min(axis=0)
    hi = features.max(axis=0)
    model = PredictorModel(config.kind, cap, lo, hi)
    normalized = model.normalize(features)
    classes = cap + 1

    if config.kind == EMPIRICAL:
        # bucket ids in order of first appearance, then one label count
        index: dict[tuple, int] = {}
        ids = [index.setdefault(key, len(index)) for key in _bucket_keys(normalized)]
        counts = np.bincount(
            np.asarray(ids) * classes + labels, minlength=len(index) * classes
        ).reshape(len(index), classes).astype(float)
        overall = np.bincount(labels, minlength=classes).astype(float)
        model.params = {
            "buckets": dict(zip(index, counts / counts.sum(axis=1, keepdims=True))),
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


def _layer_views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive slices of flat, reshaped to shapes."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start : start + size].reshape(shape))
        start += size
    return views


def _descend(params: dict, normalized, onehot, rng, config: TrainingConfig) -> None:
    """Minibatch gradient descent on the average cross-entropy, updating
    params in place.

    w1, b1, w2 and b2 are views of one flat parameter vector, and their
    gradients views of one flat gradient vector of the same layout, so
    one step is two vector updates. Each epoch gathers the rows in a
    fresh random order into one buffer, and each batch size (the ragged
    last batch is a second one) has its own set of work buffers, so a
    step allocates no array. Every floating-point operation is still the
    one, and in the order, of the plain loop (tests/oracles.py keeps
    it): lr * g and g * lr round the same, so the trained weights are
    the same to the bit.
    """
    shapes = [params[k].shape for k in _LAYERS]
    theta = np.concatenate([params[k].ravel() for k in _LAYERS])
    grads = np.empty_like(theta)
    w1, b1, w2, b2 = _layer_views(theta, shapes)
    g_w1, g_b1, g_w2, g_b2 = _layer_views(grads, shapes)
    w2_t = w2.T
    hidden, classes = w2.shape
    lr, size, n = config.learning_rate, config.batch_size, len(onehot)
    xs, ys = np.empty_like(normalized), np.empty_like(onehot)
    work, batches = {}, []
    for start in range(0, n, size):
        x, y = xs[start : start + size], ys[start : start + size]
        rows = len(x)
        if rows not in work:
            hid = np.empty((rows, hidden))
            work[rows] = (
                np.empty((rows, hidden)),  # pre-activation
                hid,
                hid.T,
                np.empty((rows, classes)),  # logits, then their gradient
                np.empty((rows, 1)),  # a row maximum, then a row sum
                np.empty((rows, hidden)),  # gradient of the hidden layer
                np.empty((rows, hidden), dtype=bool),  # where pre > 0
            )
        batches.append((x, x.T, y, float(rows), work[rows]))
    # the binary ufuncs take their output positionally: parsing an out=
    # keyword costs about as much as some of these small operations
    matmul, add, subtract, multiply, divide = np.matmul, np.add, np.subtract, np.multiply, np.divide
    total, largest = np.add.reduce, np.maximum.reduce
    for _ in range(config.epochs):
        order = rng.permutation(n)
        np.take(normalized, order, axis=0, out=xs)
        np.take(onehot, order, axis=0, out=ys)
        for x, x_t, y, rows, (pre, hid, hid_t, g_logits, row, g_hid, active) in batches:
            matmul(x, w1, pre)
            add(pre, b1, pre)
            np.maximum(pre, 0.0, out=hid)
            # softmax of the logits, then its gradient, all in place
            matmul(hid, w2, g_logits)
            add(g_logits, b2, g_logits)
            subtract(g_logits, largest(g_logits, axis=-1, keepdims=True, out=row), g_logits)
            np.exp(g_logits, g_logits)
            divide(g_logits, total(g_logits, axis=-1, keepdims=True, out=row), g_logits)
            subtract(g_logits, y, g_logits)
            divide(g_logits, rows, g_logits)
            matmul(hid_t, g_logits, g_w2)
            total(g_logits, axis=0, out=g_b2)
            matmul(g_logits, w2_t, g_hid)
            multiply(g_hid, np.greater(pre, 0.0, active), g_hid)
            matmul(x_t, g_hid, g_w1)
            total(g_hid, axis=0, out=g_b1)
            multiply(grads, lr, grads)
            subtract(theta, grads, theta)
    for key, trained in zip(_LAYERS, (w1, b1, w2, b2)):
        params[key][...] = trained


def _predicted_weights(model: PredictorModel, z: np.ndarray) -> np.ndarray:
    """The predicted weights over 0..max_capacity for each row of the
    normalized 2-D array z, one row each. The MLP multiplies each row
    as its own 1 x d matrix, so a row's weights do not depend on the
    rows scored with it."""
    if model.kind == EMPIRICAL:
        buckets, overall = model.params["buckets"], model.params["overall"]
        return np.array([buckets.get(key, overall) for key in _bucket_keys(z)])
    w1, b1, w2, b2 = (model.params[k] for k in _LAYERS)
    return _softmax(np.maximum(z[:, None, :] @ w1 + b1, 0.0) @ w2 + b2)[:, 0]


def predict_pmf(model: PredictorModel, feature_vector) -> Pmf:
    """PMF over capacities 0..max_capacity for one feature vector."""
    x = np.asarray(feature_vector, dtype=float)
    if x.shape != (model.feature_dim,):
        raise ValueError(
            f"feature vector has shape {x.shape}, model expects ({model.feature_dim},)"
        )
    weights = _predicted_weights(model, model.normalize(x)[None])[0]
    return make_pmf(range(model.max_capacity + 1), weights)


def _ranked(weights: np.ndarray, level: float = 1.0):
    """For each row of the 2-D array weights, its column indices in
    decreasing probability order (the smaller index first on ties), and
    how many of them the tolerance set at level takes: the first count
    whose accumulated mass reaches level, with a tiny slack so that sums
    like 0.7 + 0.1 + 0.1 still count as 0.9, or every column if none
    does."""
    if not 0.0 < level <= 1.0:
        raise ValueError("level must be in (0, 1]")
    order = np.argsort(-weights, axis=1, kind="stable")
    mass = np.cumsum(np.take_along_axis(weights, order, axis=1), axis=1)
    reached = mass >= level - 1e-9
    sizes = np.where(reached.any(axis=1), reached.argmax(axis=1) + 1, weights.shape[1])
    return order, sizes


def evaluate(model: PredictorModel, features, truths, level: float = 0.9) -> PredictionMetrics:
    """Point accuracy and tolerance-set coverage on labeled rows.

    Each row's weights are the ones predict_pmf gives it; its point
    prediction is the most likely capacity (the smaller on ties) and its
    tolerance set the fewest capacities, taken in that order, whose mass
    reaches level. A truth outside 0..max_capacity is never covered.
    Non-finite features raise ValueError.
    """
    features = np.asarray(features, dtype=float)
    truths = np.asarray(truths, dtype=int)
    if len(truths) == 0:
        raise ValueError("nothing to evaluate")
    if features.shape != (len(truths), model.feature_dim):
        raise ValueError(
            f"features have shape {features.shape}, expected "
            f"({len(truths)}, {model.feature_dim})"
        )
    weights = _predicted_weights(model, model.normalize(features))
    # a row predict_pmf would renormalize or reject goes through make_pmf
    for i in np.flatnonzero(
        (np.abs(weights.sum(axis=1) - 1.0) > MASS_TOL / 2) | (weights < 0).any(axis=1)
    ):
        weights[i] = make_pmf(range(weights.shape[1]), weights[i]).weights
    order, sizes = _ranked(weights, level)
    errors = (order[:, 0] - truths).astype(float)
    chosen = np.arange(weights.shape[1]) < sizes[:, None]
    covered = int(np.count_nonzero(chosen & (order == truths[:, None])))
    return PredictionMetrics(
        rmse=float(np.sqrt(np.mean(errors**2))),
        mae=float(np.mean(np.abs(errors))),
        picp=covered / len(truths),
        mpiw=float(np.mean(sizes)),
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
        body.update({name: model.params[name].tolist() for name in _LAYERS})
    Path(path).write_text(json.dumps(body) + "\n")


def load_model(path) -> PredictorModel:
    """Read a model file; a malformed one raises MissingInputError
    naming the file."""
    return load_input(path, "model", _model_from_dict)


def _shaped(values, shape, name: str) -> np.ndarray:
    """values, finite numbers of the given shape, as a float array, else
    ValueError; a string or a bool is not a number."""
    array = np.asarray(values)
    if not (array.shape == shape and array.dtype.kind in "iuf" and np.isfinite(array).all()):
        raise ValueError(f"{name!r} must be finite numbers of shape {shape}, got {array.shape}")
    return array.astype(float)


def _weight_row(values, row, name: str) -> np.ndarray:
    """values, a weight row of the given shape, as the weights make_pmf
    gives it over 0..max_capacity: a near-unit row renormalized, as
    predict_pmf would renormalize it, and a negative weight or another
    total refused with ValueError."""
    return np.array(make_pmf(range(row[0]), _shaped(values, row, name)).weights)


def _model_from_dict(body: dict) -> PredictorModel:
    """Rebuild a model. ValueError refuses a kind other than mlp or
    empirical, a max_capacity as_whole refuses, bounds other than two
    equal-length lists of finite numbers, a bucket key, weight row or
    layer of another shape than the bounds and max_capacity give, and an
    empirical weight row that is not a PMF."""
    kind = body["kind"]
    if kind not in (MLP, EMPIRICAL):
        raise ValueError(f"'kind' must be {MLP!r} or {EMPIRICAL!r}, got {kind!r}")
    lo = _shaped(body["feature_lo"], (len(body["feature_lo"]),), "feature_lo")
    hi = _shaped(body["feature_hi"], lo.shape, "feature_hi")
    model = PredictorModel(kind, as_whole(body["max_capacity"]), lo, hi)
    dim, row = len(lo), (model.max_capacity + 1,)
    if kind == EMPIRICAL:
        buckets = {tuple(map(as_real, k)): _weight_row(w, row, "buckets") for k, w in body["buckets"]}
        if any(len(key) != dim for key in buckets):
            raise ValueError(f"every bucket key must have {dim} entries, one per feature")
        model.params = {"buckets": buckets, "overall": _weight_row(body["overall"], row, "overall")}
    else:
        hidden = len(body["b1"])
        shapes = {"w1": (dim, hidden), "b1": (hidden,), "w2": (hidden, *row), "b2": row}
        model.params = {name: _shaped(body[name], shape, name) for name, shape in shapes.items()}
    return model
