"""Predictor training, PMF outputs and forecast metrics."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from groundhold.errors import MissingInputError
from groundhold.pmf import make_pmf
from groundhold.prediction import (
    EMPIRICAL,
    MLP,
    PredictionMetrics,
    PredictorModel,
    TrainingConfig,
    _bucket_keys,
    evaluate,
    load_model,
    predict_pmf,
    save_model,
    temporal_split,
    train,
)
import groundhold.prediction as prediction
from oracles import (
    cross_entropy,
    looped_histograms,
    minibatch_descent,
    point_prediction,
    tolerance_interval,
    weight_of,
)

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
        mass = math.fsum(weight_of(p, v) for v in chosen)
        assert mass >= level - 1e-9
        smallest = min(chosen, key=lambda v: (weight_of(p, v), -v))
        assert mass - weight_of(p, smallest) < level - 1e-9 or len(chosen) == 1


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


@pytest.mark.parametrize(
    "seed,rows,batch_size",
    [(0, 64, 16), (1, 61, 16), (2, 50, 1), (3, 37, 7), (4, 10, 64), (5, 300, 32)],
    ids=["even", "ragged", "batch 1", "ragged small", "one batch", "bench batch"],
)
def test_training_weights_are_the_plain_loops_to_the_bit(monkeypatch, seed, rows, batch_size):
    """The in-place training loop gives the plain loop's weights byte for
    byte, for even and ragged last batches and batch size 1."""
    rng = np.random.default_rng(100 + seed)
    features = rng.normal(size=(rows, 4)) * [1.0, 5.0, 0.1, 30.0]
    labels = rng.integers(0, 9, size=rows)
    config = TrainingConfig(
        kind=MLP, hidden_units=12, learning_rate=0.05, epochs=6,
        batch_size=batch_size, seed=seed,
    )
    fast = train(features, labels, config)
    monkeypatch.setattr(prediction, "_descend", minibatch_descent)
    plain = train(features, labels, config)
    for key in ("w1", "b1", "w2", "b2"):
        assert fast.params[key].tobytes() == plain.params[key].tobytes(), key
    untrained = train(features, labels, replace(config, epochs=0))
    assert not np.array_equal(fast.params["w1"], untrained.params["w1"])


def metrics_row_by_row(model, features, truths, level):
    """The metrics of evaluate, recomputed one row at a time from
    predict_pmf and the per-PMF sorts point_prediction and
    tolerance_interval; each row's mode is also checked against argmax."""
    errors, covered, widths = [], 0, []
    for x, truth in zip(features, truths):
        pmf = predict_pmf(model, x)
        interval = tolerance_interval(pmf, level)
        assert point_prediction(pmf) == pmf.support[int(np.argmax(pmf.weights))]
        errors.append(point_prediction(pmf) - int(truth))
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


@pytest.mark.parametrize("level", [1.0, 0.9, 0.5, 0.05])
@pytest.mark.parametrize("kind", [MLP, EMPIRICAL, "tied", "near-unit"])
def test_evaluate_is_the_row_by_row_recomputation(kind, level):
    """evaluate's array metrics equal the per-row recomputation exactly:
    on tie-heavy PMFs, on weights predict_pmf renormalizes, and with a
    truth above max_capacity or below 0, which counts as uncovered."""
    rng = np.random.default_rng(40)
    features = rng.normal(size=(120, 3)).round(1)
    labels = rng.integers(0, 7, size=120)
    rows = features[60:]
    if kind == "tied":
        # capacity c seen 1 + c % 3 times, so the pooled histogram has
        # three long runs of tied weights, and rows far outside every
        # training bucket that answer with it
        tied = np.repeat(np.arange(40), 1 + np.arange(40) % 3)
        model = train(rng.normal(size=(len(tied), 3)), tied, TrainingConfig(kind=EMPIRICAL))
        rows = rows + 50.0
    elif kind == "near-unit":
        # predict_pmf rescales these weights, which moves where the
        # running sum reaches 0.5 and 0.9
        model = constant_model(np.array([0.5, 0.4, 0.05, 0.05, 0.0]) * (1 - 5e-8))
        rows = rows[:, :2]
    else:
        model = train(features[:60], labels[:60], TrainingConfig(kind=kind, epochs=20, seed=3))
    truths = labels[60:].copy()
    truths[:3] = [model.max_capacity + 1, -1, 40]
    got = evaluate(model, rows, truths, level)
    assert repr(got) == repr(metrics_row_by_row(model, rows, truths, level))


@pytest.mark.parametrize("rows", [1, 2, 17, 600])
def test_mlp_scores_each_row_as_the_per_row_forward_pass(monkeypatch, rows):
    """The stacked forward pass gives each row the bytes of its own
    softmax(max(row @ w1 + b1, 0) @ w2 + b2), at the benchmark's layer
    sizes; evaluate ranks exactly the weights predict_pmf gives."""
    rng = np.random.default_rng(44)
    features = rng.normal(size=(300 + rows, 6)) * [1.0, 5.0, 0.1, 30.0, 2.0, 0.5]
    labels = rng.integers(0, 15, size=300 + rows)
    config = TrainingConfig(kind=MLP, max_capacity=14, learning_rate=0.02, epochs=2, seed=rows)
    model = train(features[:300], labels[:300], config)
    z = model.normalize(features[300:])
    w1, b1, w2, b2 = (model.params[k] for k in ("w1", "b1", "w2", "b2"))
    looped = [prediction._softmax(np.maximum(row @ w1 + b1, 0.0) @ w2 + b2) for row in z]
    assert prediction._predicted_weights(model, z).tobytes() == np.array(looped).tobytes()

    ranked = []
    real_ranked = prediction._ranked

    def recording(weights, level=1.0):
        ranked.append(weights.copy())
        return real_ranked(weights, level)

    monkeypatch.setattr(prediction, "_ranked", recording)
    evaluate(model, features[300:], labels[300:])
    pmfs = [predict_pmf(model, x).weights for x in features[300:]]
    assert ranked[0].tobytes() == np.array(pmfs).tobytes()


def test_bucket_keys_are_pythons_round(tmp_path):
    """Every key entry has the repr of round(float(v), 1), on values
    beside each half-decimal, signed zeros, non-finite and huge values;
    an empirical model keyed by them has the plain loop's buckets and
    survives its model file."""
    halves = np.arange(-40, 40) / 10 + 0.05
    values = np.concatenate([
        halves,
        np.nextafter(halves, np.inf),
        np.nextafter(halves, -np.inf),
        np.nextafter(np.nextafter(halves, np.inf), np.inf),
        halves + 1e-7,
        halves - 1e-7,
        [0.25, 0.75, -0.25, 2.5, -0.0, 0.0, -0.04, 0.04, 5e-324, -5e-324],
        [np.nan, np.inf, -np.inf, 1e300, -1e300, 1e14, 1e14 + 0.05, 99999999999999.95],
        [1e13 + 0.05, 123456789.25, 123456789.35, 2.0**52 + 1, 1e-7, 0.95],
        # past 2**53 / 10, where rint(10 v) / 10 is not round(v, 1)
        [918964989811569.5, 946746492098451.9, 7371313876802823.0, 9.48804135905941e17],
        np.random.default_rng(41).normal(size=400) * 3,
        np.random.default_rng(42).uniform(-1e6, 1e6, size=400),
    ])
    z = values.reshape(-1, 4)
    keys = _bucket_keys(z)
    assert len(keys) == len(z)
    for key, row in zip(keys, z):
        assert [repr(v) for v in key] == [repr(round(float(v), 1)) for v in row]
        assert all(type(v) is float for v in key)
    (one,) = _bucket_keys(z[5:6])
    assert repr(one) == repr(keys[5])

    # with both bounds 0 and 1 present, rows in [0, 1] normalize to
    # themselves, so the buckets see the half-decimal neighbours above
    inside = values[(values >= 0) & (values <= 1)]
    features = np.concatenate([[[0.0, 0.0], [1.0, 1.0]], np.column_stack([inside, inside[::-1]])])
    labels = np.random.default_rng(43).integers(0, 5, size=len(features))
    model = train(features, labels, TrainingConfig(kind=EMPIRICAL))
    plain = looped_histograms(model.normalize(features), labels, model.max_capacity + 1)
    assert list(map(repr, model.params["buckets"])) == list(map(repr, plain["buckets"]))
    for key, weights in plain["buckets"].items():
        assert model.params["buckets"][key].tobytes() == weights.tobytes()
    assert model.params["overall"].tobytes() == plain["overall"].tobytes()
    path = tmp_path / "empirical.json"
    save_model(path, model)
    loaded = load_model(path)
    assert sorted(map(repr, loaded.params["buckets"])) == sorted(map(repr, model.params["buckets"]))
    for x in np.concatenate([features, features[::7] + 0.1]):
        assert predict_pmf(loaded, x).weights == predict_pmf(model, x).weights


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
    with pytest.raises(ValueError, match="no training rows"):
        train(np.zeros((0, 3)), [], TrainingConfig())
    with pytest.raises(ValueError, match="no feature columns"):
        train(np.zeros((3, 0)), [0, 1, 2], TrainingConfig())
    with pytest.raises(ValueError, match="label 9 exceeds max capacity 5"):
        train(np.zeros((2, 3)), [0, 9], TrainingConfig(max_capacity=5))
    with pytest.raises(ValueError, match="labels must be non-negative"):
        train(np.zeros((2, 3)), [-1, 0], TrainingConfig())
    with pytest.raises(ValueError, match="2 feature rows vs 1 labels"):
        train(np.zeros((2, 3)), [0], TrainingConfig())
    model = train(np.zeros((2, 3)), [0, 1], TrainingConfig(kind=EMPIRICAL))
    with pytest.raises(ValueError, match=r"feature vector has shape \(2,\), model expects \(3,\)"):
        predict_pmf(model, [1.0, 2.0])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", [EMPIRICAL, MLP])
def test_non_finite_features_are_refused(kind, value):
    """A non-finite feature would give the model NaN bounds and a column
    normalized to 0, and a trained empirical model would answer it with
    its global histogram and an MLP with non-finite weights; train,
    evaluate and predict_pmf refuse it instead."""
    features = np.arange(12.0).reshape(4, 3)
    features[2, 1] = value
    with pytest.raises(ValueError, match="features must be finite"):
        train(features, [0, 1, 2, 1], TrainingConfig(kind=kind, epochs=1))
    model = train(np.arange(12.0).reshape(4, 3), [0, 1, 2, 1], TrainingConfig(kind=kind, epochs=1))
    with pytest.raises(ValueError, match="features must be finite"):
        evaluate(model, features, [0, 1, 2, 1])
    with pytest.raises(ValueError, match="features must be finite"):
        predict_pmf(model, features[2])



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
        save_model(tmp_path / "again.json", loaded)
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_near_unit_model_rows_are_renormalized_at_load(tmp_path):
    """An empirical row whose total is off 1 by at most RENORM_TOL loads
    as the weights make_pmf gives it, those predict_pmf answers with."""
    rng = np.random.default_rng(35)
    features = rng.normal(size=(30, 4))
    model = train(features, rng.integers(0, 3, size=30), TrainingConfig(kind=EMPIRICAL))
    path = tmp_path / "model.json"
    save_model(path, model)
    body = json.loads(path.read_text())
    body["overall"] = [w * (1 + 5e-7) for w in body["overall"]]
    body["buckets"][0][1] = [w * (1 - 5e-7) for w in body["buckets"][0][1]]
    path.write_text(json.dumps(body))
    loaded = load_model(path)
    assert tuple(loaded.params["overall"]) == make_pmf(range(3), body["overall"]).weights
    key, row = body["buckets"][0]
    assert tuple(loaded.params["buckets"][tuple(key)]) == make_pmf(range(3), row).weights
    assert tuple(loaded.params["overall"]) != tuple(body["overall"])


@pytest.mark.parametrize("text", ['{"kind": "mlp", "max_capacity": 3}', "{not json"])
def test_malformed_model_file_names_the_file(tmp_path, text):
    path = tmp_path / "model.json"
    path.write_text(text)
    with pytest.raises(MissingInputError, match="model.json"):
        load_model(path)


#: case: (model kind, an edit of its saved body, the refusal's message)
MODEL_REFUSALS = {
    "kind-other": (MLP, lambda b: b.update(kind="forest"),
                   "'kind' must be 'mlp' or 'empirical', got 'forest'"),
    "max-capacity-negative": (MLP, lambda b: b.update(max_capacity=-1),
                              "expected a whole number of at least 0, got -1"),
    "max-capacity-fraction": (EMPIRICAL, lambda b: b.update(max_capacity=2.5),
                              "expected a whole number of at least 0, got 2.5"),
    "bounds-unequal": (MLP, lambda b: b["feature_hi"].pop(),
                       "'feature_hi' must be finite numbers of shape (4,), got (3,)"),
    "bound-nan": (EMPIRICAL, lambda b: b["feature_lo"].__setitem__(1, math.nan),
                  "'feature_lo' must be finite numbers of shape (4,), got (4,)"),
    "bound-string": (MLP, lambda b: b["feature_hi"].__setitem__(0, "1.0"),
                     "'feature_hi' must be finite numbers of shape (4,), got (4,)"),
    "bounds-number": (EMPIRICAL, lambda b: b.update(feature_lo=0.0),
                      "object of type 'float' has no len()"),
    "w1-rows": (MLP, lambda b: b["w1"].pop(),
                "'w1' must be finite numbers of shape (4, 5), got (3, 5)"),
    "w1-nan": (MLP, lambda b: b["w1"][0].__setitem__(2, math.nan),
               "'w1' must be finite numbers of shape (4, 5), got (4, 5)"),
    "b1-length": (MLP, lambda b: b["b1"].pop(),
                  "'w1' must be finite numbers of shape (4, 4), got (4, 5)"),
    "w2-columns": (MLP, lambda b: b.update(w2=[row[:-1] for row in b["w2"]]),
                   "'w2' must be finite numbers of shape (5, 3), got (5, 2)"),
    "b2-length": (MLP, lambda b: b["b2"].append(0.0),
                  "'b2' must be finite numbers of shape (3,), got (4,)"),
    "b2-strings": (MLP, lambda b: b.update(b2=["0.5", True, "nan"]),
                   "'b2' must be finite numbers of shape (3,), got (3,)"),
    "bucket-key-length": (EMPIRICAL, lambda b: b["buckets"][0][0].pop(),
                          "every bucket key must have 4 entries, one per feature"),
    "bucket-weights-length": (EMPIRICAL, lambda b: b["buckets"][0][1].pop(),
                              "'buckets' must be finite numbers of shape (3,), got (2,)"),
    "overall-length": (EMPIRICAL, lambda b: b["overall"].append(0.0),
                       "'overall' must be finite numbers of shape (3,), got (4,)"),
    "overall-negative": (EMPIRICAL, lambda b: b.update(overall=[-1, 1, 1]),
                         "negative weight in (-1.0, 1.0, 1.0)"),
    "bucket-weights-total": (EMPIRICAL, lambda b: b["buckets"][0].__setitem__(1, [0.5, 0.5, 0.5]),
                             "weights sum to 1.5, not 1"),
}


@pytest.mark.parametrize("case", sorted(MODEL_REFUSALS))
def test_model_file_refusals_name_the_file(tmp_path, case):
    """A model file whose kind, max_capacity, feature bounds or array
    shapes do not fit each other, or whose empirical weight row is not a
    PMF, is refused through load_model, naming the file: 4 features, 5 hidden units and labels 0 to 2 give w1 4 x 5,
    b1 5, w2 5 x 3, b2 3, bucket keys of 4 entries and weight rows of 3."""
    kind, edit, message = MODEL_REFUSALS[case]
    rng = np.random.default_rng(34)
    labels = np.arange(30) % 3
    model = train(rng.normal(size=(30, 4)), labels, TrainingConfig(kind, hidden_units=5, epochs=1))
    path = tmp_path / "model.json"
    save_model(path, model)
    body = json.loads(path.read_text())
    edit(body)
    path.write_text(json.dumps(body))
    with pytest.raises(MissingInputError) as caught:
        load_model(path)
    assert str(caught.value) == f"model file {path} is malformed: {message}"


def test_temporal_split_is_contiguous():
    train_idx, val_idx, test_idx = temporal_split(48)
    assert train_idx[-1] + 1 == val_idx[0]
    assert val_idx[-1] + 1 == test_idx[0]
    assert len(train_idx) + len(val_idx) + len(test_idx) == 48
