"""Time clustering, PMF compression and scenario tree assembly."""

import json
import math

import numpy as np
import pytest

from groundhold.errors import (
    InvalidChangePointCountError,
    ScenarioExplosionError,
    TooFewIntervalsError,
    TooManyClustersError,
)
from groundhold.pmf import make_pmf, pmf_mean
from groundhold.scenario import (
    ReducedPmf,
    build_scenario_tree,
    cluster_time_series,
    compress_pmf_kmeans,
    load_trees,
    save_trees,
    scenario_capacity_profile,
    tree_from_dict,
    tree_to_dict,
)

EXAMPLE = make_pmf([0, 1, 2, 3, 4, 5], [0.05, 0.10, 0.70, 0.10, 0.03, 0.02])


def bernoulli(p1):
    return make_pmf([0, 1], [1.0 - p1, p1])


def random_pmf(rng, max_atoms=8, max_value=20):
    n = rng.integers(1, max_atoms + 1)
    support = np.sort(rng.choice(max_value, size=n, replace=False))
    return make_pmf(support, rng.dirichlet(np.ones(n)))


# ---------------------------------------------------------------------------
# time clustering


def test_constant_series_tie_breaks_to_earliest():
    series = [EXAMPLE] * 6
    clustering = cluster_time_series(series, 2)
    assert clustering.boundaries == (1, 2)
    assert clustering.segments == ((0, 1), (2,), (3, 4, 5))
    for rep in clustering.representatives:
        assert rep.support == EXAMPLE.support
        assert rep.weights == pytest.approx(EXAMPLE.weights, abs=1e-12)


def test_single_switch_boundary_closes_first_segment():
    """The boundary interval itself belongs to the segment it closes."""
    low, high = bernoulli(0.0), bernoulli(1.0)
    series = [low] * 10 + [high] * 6
    clustering = cluster_time_series(series, 1)
    assert clustering.boundaries == (10,)
    assert clustering.segments == (tuple(range(11)), tuple(range(11, 16)))
    # second segment is pure; the first mixes ten lows with one high
    assert clustering.representatives[1].weights == pytest.approx(
        high.weights, abs=1e-12
    )
    assert clustering.representatives[0].weight_at(1) == pytest.approx(
        1 / 11, abs=1e-12
    )


def test_hand_computed_jumps_partition():
    # jumps between consecutive Bernoulli PMFs are |p1 - p1'|:
    # [0.1, 0.9, 0.3], so the single change point lands at index 2
    series = [bernoulli(0.0), bernoulli(0.1), bernoulli(1.0), bernoulli(0.7)]
    clustering = cluster_time_series(series, 1)
    assert clustering.boundaries == (2,)
    assert clustering.segments == ((0, 1, 2), (3,))


def test_zero_change_points_single_segment():
    series = [bernoulli(0.2), bernoulli(0.8), bernoulli(0.5)]
    clustering = cluster_time_series(series, 0)
    assert clustering.segments == ((0, 1, 2),)
    assert clustering.representatives[0].weight_at(1) == pytest.approx(0.5)


def test_final_index_boundary_drops_empty_segment():
    series = [bernoulli(0.0), bernoulli(0.5), bernoulli(1.0)]
    clustering = cluster_time_series(series, 2)
    assert clustering.boundaries == (1, 2)
    assert clustering.segments == ((0, 1), (2,))
    assert clustering.num_stages == 2


def test_clustering_validation():
    with pytest.raises(TooFewIntervalsError):
        cluster_time_series([EXAMPLE], 0)
    with pytest.raises(InvalidChangePointCountError):
        cluster_time_series([EXAMPLE] * 4, 4)
    with pytest.raises(InvalidChangePointCountError):
        cluster_time_series([EXAMPLE] * 4, -1)


def test_representatives_average_mass():
    rng = np.random.default_rng(41)
    for _ in range(20):
        series = [random_pmf(rng) for _ in range(6)]
        clustering = cluster_time_series(series, int(rng.integers(0, 5)))
        for seg, rep in zip(clustering.segments, clustering.representatives):
            member_mean = np.mean([pmf_mean(series[t]) for t in seg])
            assert pmf_mean(rep) == pytest.approx(member_mean, abs=1e-9)


# ---------------------------------------------------------------------------
# PMF compression


def test_compress_to_single_atom():
    reduced = compress_pmf_kmeans(EXAMPLE, 1)
    assert reduced.atoms == ((2, pytest.approx(1.0, abs=1e-12)),)


def test_identity_compression():
    reduced = compress_pmf_kmeans(EXAMPLE, len(EXAMPLE))
    assert reduced.supports == EXAMPLE.support
    assert reduced.probabilities == pytest.approx(EXAMPLE.weights, abs=0)


def test_two_lump_compression_rounds_half_up():
    p = make_pmf([1, 2, 9, 10], [0.3, 0.2, 0.25, 0.25])
    reduced = compress_pmf_kmeans(p, 2)
    # centroids 1.4 and 9.5; half-up rounding pushes 9.5 to 10
    assert reduced.supports == (1, 10)
    assert reduced.probabilities == pytest.approx((0.5, 0.5), abs=1e-12)


def test_compression_conserves_mass_without_renormalizing():
    rng = np.random.default_rng(42)
    for _ in range(50):
        p = random_pmf(rng)
        k = int(rng.integers(1, len(p) + 1))
        reduced = compress_pmf_kmeans(p, k)
        assert abs(
            math.fsum(reduced.probabilities) - math.fsum(p.weights)
        ) <= 1e-15


def test_single_atom_mean_drift_bounded_by_rounding():
    rng = np.random.default_rng(43)
    for _ in range(30):
        p = random_pmf(rng)
        reduced = compress_pmf_kmeans(p, 1)
        assert abs(reduced.mean() - pmf_mean(p)) <= 0.5 + 1e-12


def test_zero_weight_atoms_are_ignored():
    p = make_pmf([0, 1, 2], [0.5, 0.0, 0.5])
    reduced = compress_pmf_kmeans(p, 2)
    assert reduced.atoms == ((0, 0.5), (2, 0.5))
    with pytest.raises(TooManyClustersError):
        compress_pmf_kmeans(p, 3)


def test_compression_rejects_bad_k():
    with pytest.raises(ValueError):
        compress_pmf_kmeans(EXAMPLE, 0)
    with pytest.raises(TooManyClustersError):
        compress_pmf_kmeans(EXAMPLE, 7)


def test_compression_is_deterministic():
    rng = np.random.default_rng(44)
    for _ in range(10):
        p = random_pmf(rng)
        k = int(rng.integers(1, len(p) + 1))
        assert compress_pmf_kmeans(p, k) == compress_pmf_kmeans(p, k)


# ---------------------------------------------------------------------------
# scenario trees


def two_stage_clustering():
    series = [bernoulli(0.5), bernoulli(0.5), bernoulli(0.4), bernoulli(0.4)]
    return cluster_time_series(series, 1)


def test_tree_product_probabilities():
    clustering = two_stage_clustering()
    assert clustering.boundaries == (2,)
    # stage PMFs: {0: 0.5, 1: 0.5} x {0: 0.6, 1: 0.4} after averaging
    tree = build_scenario_tree(clustering, 2, airport="A",
                               op_type="departure")
    probs = tree.probabilities
    assert len(probs) == 4
    expected_first = tree.stage_pmfs[0].probabilities
    expected_second = tree.stage_pmfs[1].probabilities
    want = [a * b for a in expected_first for b in expected_second]
    assert probs == pytest.approx(want, abs=0)
    assert math.fsum(probs) == pytest.approx(1.0, abs=1e-8)


def test_simple_product_example():
    stage_a = ReducedPmf(((10, 0.5), (20, 0.5)))
    stage_b = ReducedPmf(((5, 0.4), (15, 0.6)))
    want = (0.2, 0.3, 0.2, 0.3)
    got = [
        pa * pb for _, pa in stage_a.atoms for _, pb in stage_b.atoms
    ]
    assert tuple(got) == pytest.approx(want, abs=1e-15)


def test_tree_marginalization_recovers_stages():
    rng = np.random.default_rng(45)
    for _ in range(10):
        series = [random_pmf(rng, max_atoms=5) for _ in range(8)]
        clustering = cluster_time_series(series, 2)
        tree = build_scenario_tree(clustering, 2, clamp=True)
        for stage_index, stage in enumerate(tree.stage_pmfs):
            for atom_index, (_, p_atom) in enumerate(stage.atoms):
                marginal = math.fsum(
                    prob
                    for combo_index, (_, prob) in enumerate(tree.scenarios)
                    if _atom_of(tree, combo_index, stage_index) == atom_index
                )
                assert marginal == pytest.approx(p_atom, abs=1e-9)


def _atom_of(tree, scenario_index, stage_index):
    """Stage-atom index hit by a scenario under last-stage-fastest order."""
    sizes = [len(s) for s in tree.stage_pmfs]
    for k in range(len(sizes) - 1, -1, -1):
        scenario_index, rem = divmod(scenario_index, sizes[k])
        if k == stage_index:
            return rem
    raise AssertionError("stage index out of range")


def test_eight_scenarios_three_stages():
    series = [bernoulli(0.3)] * 3 + [bernoulli(0.6)] * 3 + [bernoulli(0.9)] * 3
    clustering = cluster_time_series(series, 2)
    tree = build_scenario_tree(clustering, 2)
    assert tree.num_scenarios == 8
    assert math.fsum(tree.probabilities) == pytest.approx(1.0, abs=1e-8)


def test_scenario_cap():
    series = [bernoulli(0.1 * i) for i in range(1, 9)]
    clustering = cluster_time_series(series, 3)
    with pytest.raises(ScenarioExplosionError):
        build_scenario_tree(clustering, 2, max_scenarios=15)


def test_capacity_at_boundary_and_lookup():
    clustering = two_stage_clustering()
    tree = build_scenario_tree(clustering, 2)
    c1 = clustering.boundaries[0]
    assert clustering.stage_index == (0, 0, 0, 1)
    for vector in tree.vectors:
        profile = scenario_capacity_profile(tree, vector)
        assert profile[c1] == vector[0]
        assert profile[c1 + 1] == vector[1]
    with pytest.raises(ValueError):
        scenario_capacity_profile(tree, (1,))
    with pytest.raises(ValueError):
        scenario_capacity_profile(tree, (1, 2, 3))


def test_single_stage_tree_is_flat():
    series = [bernoulli(0.5)] * 4
    tree = build_scenario_tree(cluster_time_series(series, 0), 2)
    assert tree.time_clusters.stage_index == (0, 0, 0, 0)
    for vector in tree.vectors:
        assert len(set(scenario_capacity_profile(tree, vector))) == 1


def test_capacity_profile_expansion():
    clustering = two_stage_clustering()
    tree = build_scenario_tree(clustering, 2)
    profile = scenario_capacity_profile(tree, (3, 5))
    assert profile == [3, 3, 3, 5]


def test_tree_json_round_trip(tmp_path):
    clustering = two_stage_clustering()
    tree = build_scenario_tree(clustering, 2, airport="B",
                               op_type="arrival")
    path = tmp_path / "trees.json"
    save_trees(path, [tree])
    (loaded,) = load_trees(path)
    assert loaded == tree
    assert tree_from_dict(json.loads(json.dumps(tree_to_dict(tree)))) == tree
