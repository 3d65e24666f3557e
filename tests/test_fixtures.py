"""The bundled synthetic fixtures stay inside their documented bounds."""

import numpy as np

from fixtures import (
    bucket_training_data,
    random_instance,
    stress_instance,
    synthetic_records,
)
from groundhold.capacity import aggregate_intervals, estimate_capacities
from groundhold.evaluation import reduce_distribution
from groundhold.maghp import build_sp, instance_to_dict, solve


def test_random_instances_stay_within_bounds():
    for seed in range(10):
        inst = random_instance(seed)
        assert 2 <= len(inst.airports) <= 3
        assert len(inst.flights) <= 30
        assert 4 <= inst.horizon <= 8
        for key in inst.constrained_keys():
            assert key in inst.trees
            assert inst.trees[key].num_scenarios <= 4
        assert len(inst.connections) <= 2


def test_random_instance_deterministic_and_solvable():
    assert instance_to_dict(random_instance(3)) == instance_to_dict(random_instance(3))
    result = solve(build_sp(random_instance(3)))
    assert result.status == "optimal"


def test_stress_instance_shape():
    inst = stress_instance()
    assert inst.airports == ("A", "B", "C")
    assert len(inst.flights) == 30
    assert inst.horizon == 6
    assert len(inst.trees) == 6
    for tree in inst.trees.values():
        assert tree.num_scenarios == 4
        assert tree.time_clusters.num_stages == 2
    assert 0 < inst.cost_ground <= inst.cost_air


def test_stress_representatives_survive_half_reduction():
    """Every stage representative must stay shiftable down to half its
    mean within the default band, or the sensitivity sweep would die."""
    inst = stress_instance()
    for tree in inst.trees.values():
        for rep in tree.time_clusters.representatives:
            reduce_distribution(rep, 0.5, 1.0)


def test_stress_instance_deterministic():
    assert instance_to_dict(stress_instance()) == instance_to_dict(stress_instance())


def test_synthetic_records_trip_all_three_criteria():
    records = synthetic_records(seed=0)
    stats = aggregate_intervals(records, 48)
    observations = estimate_capacities(stats)
    assert observations
    seen = set()
    for o in observations:
        seen |= o.criteria
    assert seen == {"throughput", "demand", "delay"}


def test_bucket_training_data_is_bucket_determined():
    features, labels = bucket_training_data(seed=5, count=400)
    assert features.shape == (400, 3)
    assert labels.min() >= 1 and labels.max() <= 7
    # rows are pure functions of the first column
    for b in np.unique(features[:, 0]):
        rows = features[features[:, 0] == b]
        assert np.all(rows == rows[0])
        mask = features[:, 0] == b
        assert set(labels[mask]) <= {int(b) + 1, int(b) + 2, int(b) + 3}
