"""Time clustering, PMF compression and scenario tree assembly."""

import dataclasses
import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from groundhold import scenario
from groundhold.pmf import make_pmf, pmf_mean, pmf_to_dict
from groundhold.errors import MissingInputError
from groundhold.scenario import (
    ReducedPmf,
    ScenarioTree,
    _optimal_cuts,
    average_pmfs,
    build_scenario_tree,
    cluster_time_series,
    compress_pmf_kmeans,
    load_trees,
    save_trees,
    tree_from_dict,
    tree_to_dict,
)
from fixtures import with_listed_scenarios
from oracles import looked_up_average, scenario_capacity_profile, weight_of

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
    assert weight_of(clustering.representatives[0], 1) == pytest.approx(
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
    assert weight_of(clustering.representatives[0], 1) == pytest.approx(0.5)


def _sparse_pmf(rng):
    """A PMF on 1 to 6 random capacities below 12, each weight 0 with
    probability 1/3 (the first kept when all would be)."""
    n = int(rng.integers(1, 7))
    weights = rng.dirichlet(np.ones(n)) * (rng.random(n) > 1 / 3)
    weights[0] += not weights.any()
    return make_pmf(np.sort(rng.choice(12, size=n, replace=False)), weights / weights.sum())


@pytest.mark.parametrize("seed", range(6))
def test_average_is_the_looked_up_average_to_the_bit(seed):
    """average_pmfs on members of differing supports, zero weights
    among them, and on a single member, gives the bits of asking every
    member for every capacity of the union."""
    rng = np.random.default_rng(seed)
    for size in (1, 2, 3, 7, 16):
        members = [_sparse_pmf(rng) for _ in range(size)]
        assert repr(average_pmfs(members)) == repr(looked_up_average(members))


def test_final_index_boundary_drops_empty_segment():
    series = [bernoulli(0.0), bernoulli(0.5), bernoulli(1.0)]
    clustering = cluster_time_series(series, 2)
    assert clustering.boundaries == (1, 2)
    assert clustering.segments == ((0, 1), (2,))
    assert clustering.num_stages == 2


def test_clustering_validation():
    with pytest.raises(ValueError, match="need at least 2 intervals to cluster"):
        cluster_time_series([EXAMPLE], 0)
    with pytest.raises(ValueError, match=r"change-point count 4 outside \[0, 3\]"):
        cluster_time_series([EXAMPLE] * 4, 4)
    with pytest.raises(ValueError, match=r"change-point count -1 outside \[0, 3\]"):
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
    with pytest.raises(ValueError, match="3 clusters requested but only 2 atoms carry mass"):
        compress_pmf_kmeans(p, 3)


def test_compression_rejects_bad_k():
    with pytest.raises(ValueError):
        compress_pmf_kmeans(EXAMPLE, 0)
    with pytest.raises(ValueError, match="7 clusters requested but only"):
        compress_pmf_kmeans(EXAMPLE, 7)


def test_compression_is_deterministic():
    rng = np.random.default_rng(44)
    for _ in range(10):
        p = random_pmf(rng)
        k = int(rng.integers(1, len(p) + 1))
        assert compress_pmf_kmeans(p, k) == compress_pmf_kmeans(p, k)


def sum_of_squares(support, weights, cuts):
    """The within-run weighted sum of squares of the runs between cuts,
    each about its own mean; exact when given Fractions."""
    total = 0
    for lo, hi in zip(cuts, cuts[1:]):
        xs, ws = support[lo:hi], weights[lo:hi]
        mean = sum(x * w for x, w in zip(xs, ws)) / sum(ws)
        total += sum(w * (x - mean) ** 2 for x, w in zip(xs, ws))
    return total


def contiguous_partitions(m, k):
    """The cuts of every split of m points into k runs, in lexicographic
    order."""
    return [[0, *inner, m] for inner in itertools.combinations(range(1, m), k - 1)]


def assignment_minimum(support, weights, k):
    """The least weighted sum of squares over all k**m assignments of
    the points to k labels, contiguous or not."""
    x, w = np.asarray(support), np.asarray(weights)
    labels = np.array(list(itertools.product(range(k), repeat=len(x))))
    total = np.zeros(len(labels))
    for j in range(k):
        member = (labels == j).astype(float)
        mass, first, second = member @ w, member @ (w * x), member @ (w * x * x)
        total += second - np.divide(first**2, mass, out=np.zeros_like(mass), where=mass > 0)
    return total.min()


def test_kmeans_cost_is_the_brute_force_minimum():
    """On seeded PMFs with m <= 8 points and k <= min(m, 4), the cuts'
    cost is the least over all contiguous partitions, and for m <= 7
    no assignment of points to k labels does better."""
    rng = np.random.default_rng(45)
    for _ in range(150):
        m = int(rng.integers(1, 9))
        p = make_pmf(np.sort(rng.choice(20, size=m, replace=False)), rng.dirichlet(np.ones(m)))
        support, weights = [float(s) for s in p.support], list(p.weights)
        for k in range(1, min(m, 4) + 1):
            cost = sum_of_squares(support, weights, _optimal_cuts(support, weights, k))
            least = min(
                sum_of_squares(support, weights, cuts) for cuts in contiguous_partitions(m, k)
            )
            assert cost == pytest.approx(least, rel=1e-9, abs=1e-15)
            if m <= 7:
                assert cost <= assignment_minimum(support, weights, k) * (1 + 1e-9) + 1e-12


def test_kmeans_ties_go_to_the_leftmost_cuts():
    """With weights in eighths and integer supports, partitions of
    exactly equal cost are frequent; the cuts are the lexicographically
    smallest of the exactly least-cost partitions."""
    rng = np.random.default_rng(46)
    ties = 0
    for _ in range(200):
        m = int(rng.integers(2, 9))
        support = sorted(int(s) for s in rng.choice(10, size=m, replace=False))
        eighths = [int(e) for e in rng.integers(1, 5, size=m)]
        for k in range(2, min(m, 4) + 1):
            exact = {
                tuple(cuts): sum_of_squares(
                    [Fraction(s) for s in support], [Fraction(e, 8) for e in eighths], cuts
                )
                for cuts in contiguous_partitions(m, k)
            }
            least = min(exact.values())
            optimal = [list(cuts) for cuts, cost in exact.items() if cost == least]
            ties += len(optimal) > 1
            cuts = _optimal_cuts([float(s) for s in support], [e / 8 for e in eighths], k)
            assert cuts == optimal[0]
    assert ties >= 20


def test_equal_weight_tie_splits_at_the_leftmost_cut():
    """{0}, {2, 4} and {0, 2}, {4} cost 2/3 each; the left cut wins."""
    reduced = compress_pmf_kmeans(make_pmf([0, 2, 4], [1 / 3] * 3), 2)
    assert reduced.atoms == ((0, 1 / 3), (3, 2 / 3))


def test_heavy_right_point_gets_its_own_pair():
    """{0, 1}, {2, 3} costs 0.1 + 2/15 = 0.233, below the 0.400 of
    {0, 1, 2}, {3}."""
    reduced = compress_pmf_kmeans(make_pmf([0, 1, 2, 3], [0.2, 0.2, 0.2, 0.4]), 2)
    assert reduced.supports == (1, 3)
    assert reduced.probabilities == pytest.approx((0.4, 0.6), abs=1e-15)


def test_points_too_light_for_a_running_total_keep_their_own_cluster():
    """A weight below the rounding of a running total of the weights
    before it still forms a cluster of its own."""
    p = make_pmf([0, 1, 2, 3], [0.5, 0.5, 1e-17, 1e-17])
    reduced = compress_pmf_kmeans(p, 3)
    assert reduced.atoms == ((0, 0.5), (1, 0.5), (2, 2e-17))


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


def _with_vectors(tree, vectors):
    scenarios = tuple(zip(vectors, tree.probabilities))
    return ScenarioTree(
        tree.airport, tree.op_type, tree.stage_pmfs, tree.time_clusters, scenarios
    )


def test_tree_vectors_must_be_the_product_of_stage_supports():
    tree = build_scenario_tree(two_stage_clustering(), 2)
    vectors = list(tree.vectors)
    # free joint probabilities on the product are fine
    assert _with_vectors(tree, vectors).vectors == tree.vectors
    swapped = [vectors[1], vectors[0], *vectors[2:]]
    repeated = [vectors[0], *vectors[:-1]]
    shifted = [(vectors[0][0] + 1, vectors[0][1]), *vectors[1:]]
    for bad in (swapped, repeated, shifted):
        with pytest.raises(ValueError, match="product of the stage supports"):
            _with_vectors(tree, bad)
    with pytest.raises(ValueError, match="product of the stage supports"):
        ScenarioTree(
            tree.airport, tree.op_type, tree.stage_pmfs, tree.time_clusters,
            tree.scenarios[:-1] + ((vectors[-1], 0.0),) * 2,
        )


def test_stage_with_fewer_atoms_than_k_keeps_its_exact_atoms():
    """A stage with fewer atoms that carry mass than k is already its best
    k-atom compression, so the tree keeps it exactly."""
    early = make_pmf([3, 6, 9], [0.2, 0.5, 0.3])
    late = make_pmf([4, 5, 8], [0.6, 0.0, 0.4])
    clustering = cluster_time_series([early] * 4 + [late] * 4, 1)
    tree = build_scenario_tree(clustering, 3)
    first, second = tree.stage_pmfs
    assert first == compress_pmf_kmeans(clustering.representatives[0], 3)
    assert second.supports == (4, 8)
    assert second.probabilities == pytest.approx((0.6, 0.4), abs=1e-15)
    assert tree.num_scenarios == 6
    assert tree.stage_capacities[1] == pytest.approx({4: 0.6, 8: 0.4}, abs=1e-15)


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
        tree = build_scenario_tree(clustering, 2)
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
    """13 two-atom stages make 8,192 scenarios, over the cap of 4,096;
    the count is refused before any scenario is enumerated."""
    series = [bernoulli(0.05 + 0.065 * i) for i in range(14)]
    clustering = cluster_time_series(series, 13)
    assert clustering.num_stages == 13
    with pytest.raises(ValueError, match="8192 scenarios exceed the cap of 4096"):
        build_scenario_tree(clustering, 2)


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


def test_stage_index_is_computed_once_per_clustering():
    """stage_index is cached: two reads give the same tuple, which is
    the segments' expansion, and dataclasses.replace computes it anew."""
    clustering = two_stage_clustering()
    first = clustering.stage_index
    assert clustering.stage_index is first
    assert first == tuple(k for k, seg in enumerate(clustering.segments) for _ in seg)
    regrouped = dataclasses.replace(clustering, boundaries=(0,), segments=((0,), (1, 2, 3)))
    assert regrouped.stage_index == (0, 1, 1, 1)
    assert clustering.stage_index is first


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


def _tree_body_with_first_capacity(value):
    """The body of a two-stage tree, its scenarios listed as in files
    written before trees were stored as their stages, whose first stage
    atom, capacity 0, reads value in the stage and in every scenario
    vector."""
    body = with_listed_scenarios(tree_to_dict(build_scenario_tree(two_stage_clustering(), 2)))
    assert body["stages"][0][0][0] == 0
    body["stages"][0][0][0] = value
    for vector, _ in body["scenarios"]:
        if vector[0] == 0:
            vector[0] = value
    return body


@pytest.mark.parametrize("value", [0.6, 1.5, -1, "0", None], ids=repr)
def test_tree_refuses_a_capacity_that_is_not_a_whole_number(value):
    """A stage atom or scenario capacity of 0.6 is refused, not loaded as 0."""
    body = _tree_body_with_first_capacity(value)
    with pytest.raises(ValueError, match=f"got {re.escape(repr(value))}"):
        tree_from_dict(body)
    vector_only = _tree_body_with_first_capacity(value)
    vector_only["stages"][0][0][0] = 0
    with pytest.raises(ValueError, match=f"got {re.escape(repr(value))}"):
        tree_from_dict(vector_only)


@pytest.mark.parametrize("value", [0.0, np.int64(0)], ids=["float", "numpy-int"])
def test_tree_accepts_integral_capacities(value):
    tree = build_scenario_tree(two_stage_clustering(), 2)
    assert tree_from_dict(_tree_body_with_first_capacity(value)) == tree


def _swap_first_probabilities(body):
    (first, p), (second, q) = body["scenarios"][:2]
    body["scenarios"][:2] = [[first, q], [second, p]]


OFF_PRODUCT = "scenario vectors must be the product of the stage supports, last stage fastest"
#: case: (an edit of a two-stage tree body that lists its scenarios, the refusal's message)
BAD_TREES = {
    "representative weight NaN": (
        lambda b: b["representatives"][0].update(weights=[math.nan, 1.0]),
        "non-finite weight in (nan, 1.0)",
    ),
    "stage capacity 0.6": (
        lambda b: b.update(_tree_body_with_first_capacity(0.6)),
        "expected a whole number of at least 0, got 0.6",
    ),
    "stage probability NaN": (
        lambda b: b["stages"][0][0].__setitem__(1, math.nan),
        "atom probabilities sum to nan, not 1",
    ),
    "listed stage count": (
        lambda b: b["stages"].append(b["stages"][-1]),
        "stage count 3 does not match the 2 time segments",
    ),
    "listed vectors reversed": (lambda b: b["scenarios"].reverse(), OFF_PRODUCT),
    "listed scenario missing": (lambda b: b["scenarios"].pop(), OFF_PRODUCT),
    "listed total 2": (
        lambda b: [entry.__setitem__(1, 2 * entry[1]) for entry in b["scenarios"]],
        "scenario probabilities sum to 2.0",
    ),
    "listed probabilities swapped": (
        _swap_first_probabilities,
        "scenario probabilities must be the products of their stage atoms' probabilities",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_TREES))
def test_load_trees_names_the_file_of_a_bad_tree(tmp_path, case):
    """A bad tree in a file that lists its scenarios is refused, naming
    the file, with the message of the first check it fails."""
    edit, message = BAD_TREES[case]
    body = _tree_body_with_first_capacity(0)
    edit(body)
    path = tmp_path / "trees.json"
    path.write_text(json.dumps([body]))
    with pytest.raises(MissingInputError) as caught:
        load_trees(path)
    assert str(caught.value) == f"trees file {path} is malformed: {message}"


def test_a_listed_tree_is_built_once(monkeypatch):
    """A body that lists its scenarios enumerates the stage product
    twice, as one of stage atoms alone does: once for the tree and once
    in its product-support check."""
    tree = build_scenario_tree(two_stage_clustering(), 2)
    enumerated = []
    product = scenario._product
    monkeypatch.setattr(scenario, "_product", lambda stages: enumerated.append(stages) or product(stages))
    body = tree_to_dict(tree)
    for read in (with_listed_scenarios(body), body):
        enumerated.clear()
        assert tree_from_dict(read) == tree
        assert len(enumerated) == 2



def test_listed_scenarios_off_the_product_are_refused(tmp_path):
    """Listed scenarios on the product support whose probabilities are a
    Dirichlet joint, not the products of the stage atoms', are refused,
    naming the file."""
    body = with_listed_scenarios(tree_to_dict(build_scenario_tree(two_stage_clustering(), 2)))
    weights = np.random.default_rng(0).dirichlet(np.ones(len(body["scenarios"])))
    for scenario, weight in zip(body["scenarios"], weights):
        scenario[1] = float(weight)
    path = tmp_path / "trees.json"
    path.write_text(json.dumps([body]))
    with pytest.raises(MissingInputError) as caught:
        load_trees(path)
    assert str(caught.value) == (
        f"trees file {path} is malformed: scenario probabilities must be the products "
        "of their stage atoms' probabilities"
    )


def test_tree_file_past_the_cap_is_refused_before_enumeration(tmp_path, monkeypatch):
    """13 two-atom stages in a file multiply to 8,192 scenarios, over the
    cap of 4,096; the file is refused, naming it, before any scenario is
    enumerated."""
    series = [bernoulli(0.05 + 0.065 * i) for i in range(14)]
    clustering = cluster_time_series(series, 13)
    assert clustering.num_stages == 13
    body = {
        "airport": "A",
        "op_type": "departure",
        "boundaries": list(clustering.boundaries),
        "segments": [list(seg) for seg in clustering.segments],
        "representatives": [pmf_to_dict(rep) for rep in clustering.representatives],
        "stages": [[[0, 0.5], [1, 0.5]]] * 13,
    }
    path = tmp_path / "trees.json"
    path.write_text(json.dumps([body]))

    def enumerate_product(*_):
        raise AssertionError("enumerated past the cap")

    monkeypatch.setattr(itertools, "product", enumerate_product)
    with pytest.raises(MissingInputError) as caught:
        load_trees(path)
    assert str(caught.value) == (
        f"trees file {path} is malformed: 8192 scenarios exceed the cap of 4096"
    )


def test_tree_at_the_cap_round_trips(tmp_path):
    """12 two-atom stages make 4,096 scenarios, the cap: the tree saves
    and loads back equal."""
    series = [bernoulli(0.05 + 0.065 * i) for i in range(13)]
    tree = build_scenario_tree(cluster_time_series(series, 12), 2)
    assert tree.num_scenarios == 4096
    path = tmp_path / "trees.json"
    save_trees(path, [tree])
    assert load_trees(path) == [tree]
