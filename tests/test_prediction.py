"""Predictor training, PMF outputs and forecast metrics."""

import math

import numpy as np
import pytest

from groundhold.errors import (
    DimensionMismatchError,
    EmptyDatasetError,
    LabelOutOfRangeError,
)
from groundhold.pmf import make_pmf
from groundhold.prediction import (
    EMPIRICAL,
    MLP,
    PredictorModel,
    TrainingConfig,
    evaluate,
    load_model,
    point_prediction,
    predict_pmf,
    save_model,
    temporal_split,
    tolerance_interval,
    train,
)
from oracles import cross_entropy

EXAMPLE = make_pmf([0, 1, 2, 3, 4, 5], [0.05, 0.10, 0.70, 0.10, 0.03, 0.02])


def constant_model(weights):
    """An empirical model with no buckets: always answers `weights`."""
    return PredictorModel(
        kind=EMPIRICAL,
        max_capacity=len(weights) - 1,
        feature_lo=np.zeros(2),
        feature_hi=np.ones(2),
        params={"buckets": {}, "overall": np.asarray(weights)},
    )


def test_point_prediction_examples():
    assert point_prediction(EXAMPLE) == 2
    assert point_prediction(make_pmf([0, 1], [0.5, 0.5])) == 0


def test_tolerance_interval_example():
    # 0.70 (at 2) + 0.10 (at 1, smaller value wins the tie) + 0.10 (at 3)
    assert tolerance_interval(EXAMPLE, 0.9) == {1, 2, 3}
    assert tolerance_interval(make_pmf([3], [1.0]), 0.9) == {3}
    assert tolerance_interval(
        make_pmf(range(10), [0.1] * 10), 0.9
    ) == frozenset(range(9))


def test_tolerance_interval_is_minimal():
    """Dropping the least likely member must fall below the level."""
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = rng.integers(2, 9)
        p = make_pmf(np.arange(n), rng.dirichlet(np.ones(n)))
        level = float(rng.uniform(0.2, 0.99))
        chosen = tolerance_interval(p, level)
        mass = math.fsum(p.weight_at(v) for v in chosen)
        assert mass >= level - 1e-9
        smallest = min(chosen, key=lambda v: (p.weight_at(v), -v))
        assert mass - p.weight_at(smallest) < level - 1e-9 or len(chosen) == 1


def test_constant_predictor_metrics():
    model = constant_model(EXAMPLE.weights)
    features = np.zeros((4, 2))
    metrics = evaluate(model, features, [2, 2, 2, 2], level=0.9)
    assert metrics.mae == 0.0
    assert metrics.rmse == 0.0
    assert metrics.picp == 1.0
    assert metrics.mpiw == 3.0


def test_point_error_metrics():
    model = constant_model(EXAMPLE.weights)  # always predicts 2
    metrics = evaluate(model, np.zeros((2, 2)), [2, 4])
    assert metrics.mae == pytest.approx(1.0)
    assert metrics.rmse == pytest.approx(math.sqrt(2.0))


def test_empirical_buckets_and_backoff():
    features = np.array([[0.0], [0.0], [10.0], [10.0]])
    labels = np.array([1, 1, 3, 3])
    model = train(features, labels, TrainingConfig(kind=EMPIRICAL))
    assert point_prediction(predict_pmf(model, [0.0])) == 1
    assert point_prediction(predict_pmf(model, [10.0])) == 3
    # an unseen bucket falls back to the pooled histogram
    backoff = predict_pmf(model, [5.0])
    assert backoff.weights[1] == pytest.approx(0.5)
    assert backoff.weights[3] == pytest.approx(0.5)


def test_mlp_learns_separable_toy_set():
    rng = np.random.default_rng(32)
    n = 120
    half = np.ones((n // 2, 2))
    features = np.vstack([half * 0.0, half * 4.0]) + rng.normal(0, 0.3, (n, 2))
    labels = np.array([0] * (n // 2) + [1] * (n // 2))
    config = TrainingConfig(
        kind=MLP, hidden_units=16, learning_rate=0.5, epochs=150, seed=5
    )
    untrained = train(features, labels, TrainingConfig(
        kind=MLP, hidden_units=16, learning_rate=0.5, epochs=0, seed=5
    ))
    model = train(features, labels, config)
    assert cross_entropy(model, features, labels) < cross_entropy(
        untrained, features, labels
    )
    hits = sum(
        point_prediction(predict_pmf(model, x)) == z
        for x, z in zip(features, labels)
    )
    assert hits / n >= 0.95


def test_predicted_pmf_is_valid():
    rng = np.random.default_rng(33)
    features = rng.normal(size=(40, 5))
    labels = rng.integers(0, 4, size=40)
    model = train(features, labels, TrainingConfig(kind=MLP, epochs=3))
    p = predict_pmf(model, features[0])
    assert p.support == tuple(range(model.max_capacity + 1))
    assert math.fsum(p.weights) == pytest.approx(1.0, abs=1e-9)


def test_normalization_bounds_come_from_training_rows():
    features = np.array([[0.0, 5.0], [2.0, 9.0]])
    model = train(features, [0, 1], TrainingConfig(kind=EMPIRICAL))
    assert np.allclose(model.feature_lo, [0.0, 5.0])
    assert np.allclose(model.feature_hi, [2.0, 9.0])
    scaled = model.normalize(np.array([4.0, 7.0]))
    assert scaled == pytest.approx([2.0, 0.5])  # outside bounds stays linear


def test_training_validation_errors():
    with pytest.raises(EmptyDatasetError):
        train(np.zeros((0, 3)), [], TrainingConfig())
    with pytest.raises(LabelOutOfRangeError):
        train(np.zeros((2, 3)), [0, 9], TrainingConfig(max_capacity=5))
    with pytest.raises(LabelOutOfRangeError):
        train(np.zeros((2, 3)), [-1, 0], TrainingConfig())
    with pytest.raises(DimensionMismatchError):
        train(np.zeros((2, 3)), [0], TrainingConfig())
    model = train(np.zeros((2, 3)), [0, 1], TrainingConfig(kind=EMPIRICAL))
    with pytest.raises(DimensionMismatchError):
        predict_pmf(model, [1.0, 2.0])


def test_model_file_round_trip(tmp_path):
    rng = np.random.default_rng(34)
    features = rng.normal(size=(30, 4))
    labels = rng.integers(0, 3, size=30)
    for kind in (EMPIRICAL, MLP):
        model = train(features, labels, TrainingConfig(kind=kind, epochs=5))
        path = tmp_path / f"{kind}.json"
        save_model(path, model)
        loaded = load_model(path)
        for x in features[:5]:
            assert predict_pmf(loaded, x).weights == predict_pmf(model, x).weights


def test_temporal_split_is_contiguous():
    train_idx, val_idx, test_idx = temporal_split(48)
    assert train_idx[-1] + 1 == val_idx[0]
    assert val_idx[-1] + 1 == test_idx[0]
    assert len(train_idx) + len(val_idx) + len(test_idx) == 48
