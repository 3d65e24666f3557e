"""The array paths of the sweep against the loops they replaced.

Each check asks for equality to the bit, not to a tolerance: the draws
do the arithmetic Generator.choice does, the stage tables sum whole
numbers, which no order of summation can round, and the block appends
number variables and rows as the per-row builders did.
"""

import json
import sys
from collections import Counter
from functools import partial

import numpy as np
import pytest
from test_evaluation import _min_band_mean
from test_model_size import handed_to_milp

from fixtures import network_day, random_instance, stress_instance
from groundhold import maghp
from groundhold.cli import main
from groundhold.errors import InfeasibleReductionError
from groundhold.evaluation import ReductionSpec, reduce_distribution, resample_capacities
from groundhold.maghp import (
    GroundDelayPolicy,
    _stage_overflow,
    assigned_counts,
    best_capacity_profiles,
    build_det,
    build_dr,
    build_sp,
    overflow,
    save_instance,
)
from groundhold.pmf import make_pmf, pmf_mean
from groundhold.scenario import TimeClustering, build_scenario_tree
from oracles import (
    broadcast_overflow,
    choice_capacities,
    looped_stage_overflow,
    rowwise_det,
    rowwise_dr,
    rowwise_sp,
)


def _random_pmf(rng, smallest):
    """A PMF on smallest to 8 capacities below 20; about a third of the
    multi-atom ones carry some atoms at zero weight."""
    size = int(rng.integers(smallest, 9))
    support = np.sort(rng.choice(np.arange(20), size=size, replace=False))
    weights = rng.dirichlet(np.ones(size))
    if size > 1 and rng.random() < 0.35:
        weights[rng.choice(size, size=int(rng.integers(1, size)), replace=False)] = 0.0
        weights /= weights.sum()
    return make_pmf(support.tolist(), weights.tolist())


def _random_trees(rng, smallest):
    """Three trees of one to four stages over a 12-interval horizon,
    each stage representative on at least smallest capacities."""
    trees = {}
    for cell in range(3):
        stages = int(rng.integers(1, 5))
        cuts = sorted(rng.choice(np.arange(11), size=stages - 1, replace=False).tolist())
        bounds = [0] + [c + 1 for c in cuts] + [12]
        clustering = TimeClustering(
            tuple(cuts),
            tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:])),
            tuple(_random_pmf(rng, smallest) for _ in range(stages)),
        )
        key = (f"A{cell}", "departure")
        trees[key] = build_scenario_tree(clustering, 2, *key)
    return trees


def _band_edge(trees, band):
    """The largest reduction every stage of every tree allows within the
    band, a hair inside it so that rounding cannot refuse it."""
    edges = [
        1.0 - _min_band_mean(rep, band) / pmf_mean(rep)
        for tree in trees.values()
        for rep in tree.time_clusters.representatives
    ]
    return min(edges) * (1.0 - 1e-12)


def _assert_same_draws(trees, spec):
    drawn = resample_capacities(trees, spec)
    expected = choice_capacities(trees, spec)
    assert drawn.keys() == expected.keys()
    for key, samples in drawn.items():
        assert samples.dtype == expected[key].dtype
        assert np.array_equal(samples, expected[key]), key


@pytest.mark.parametrize("seed", range(12))
def test_draws_are_generator_choice_stage_by_stage(seed):
    """Unshifted draws from single-atom and multi-atom stages, then
    draws shifted by 10 % and to the band's edge from stages of two
    atoms or more, which a shift can reach."""
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, 300))
    _assert_same_draws(_random_trees(rng, 1), ReductionSpec(0.0, 1.0, count, seed))
    trees = _random_trees(rng, 2)
    band = float(rng.choice([0.5, 1.0]))
    _assert_same_draws(trees, ReductionSpec(_band_edge(trees, band), band, count, seed))
    try:
        _assert_same_draws(trees, ReductionSpec(0.1, band, count, seed))
    except InfeasibleReductionError:
        assert _band_edge(trees, band) < 0.1


def test_band_edge_draws_skip_the_emptied_top_atoms():
    """At the band's edge with band 1 the highest capacities lose all
    their mass, so the draws never reach them."""
    p = make_pmf([2, 5, 9], [0.2, 0.3, 0.5])
    clustering = TimeClustering((), (tuple(range(12)),), (p,))
    trees = {("A", "departure"): build_scenario_tree(clustering, 1, "A", "departure")}
    spec = ReductionSpec(1.0 - _min_band_mean(p, 1.0) / pmf_mean(p), 1.0, 500, 3)
    assert reduce_distribution(p, spec.reduction, 1.0).weights == (0.4, 0.6, 0.0)
    _assert_same_draws(trees, spec)
    assert set(resample_capacities(trees, spec)["A", "departure"].ravel().tolist()) <= {2, 5}


PRICING_CASES = {
    "stress": stress_instance,
    "network-day-0": partial(network_day, 0),
    **{f"random-{seed}": partial(random_instance, seed) for seed in range(10)},
}


def _random_policy(instance, rng):
    """Every flight held 0 to 2 intervals and landing 0 or 1 late."""
    ground = {f.id: int(rng.integers(0, 3)) for f in instance.flights}
    return GroundDelayPolicy(
        {f.id: f.sched_dep + ground[f.id] for f in instance.flights},
        {f.id: f.sched_arr + ground[f.id] + int(rng.integers(0, 2)) for f in instance.flights},
    )


@pytest.mark.parametrize("case", sorted(PRICING_CASES))
def test_stage_tables_are_the_interval_loop(case):
    """Each cell's table equals the loop's to the bit, on random policies
    and on one that holds every flight past the horizon, which loads no
    cell: then each table is one column of zeros, top being 0. Every
    random instance has a single-stage tree."""
    instance = PRICING_CASES[case]()
    rng = np.random.default_rng(len(case) + 1)
    keys = sorted(instance.trees)
    if case.startswith("random"):
        assert 1 in {tree.time_clusters.num_stages for tree in instance.trees.values()}
    held = {f.id: max(f.sched_dep, instance.horizon) for f in instance.flights}
    idle = GroundDelayPolicy(
        held, {f.id: held[f.id] + f.flight_time for f in instance.flights}
    )
    for policy in [_random_policy(instance, rng) for _ in range(5)] + [idle]:
        tables = _stage_overflow(instance, policy, keys)
        expected = looped_stage_overflow(instance, policy, keys)
        assert list(tables) == keys
        counts = assigned_counts(instance, policy)
        for key, table in tables.items():
            assert table.shape == (
                instance.trees[key].time_clusters.num_stages,
                int(counts[key].max()) + 1,
            )
            assert table.dtype == expected[key].dtype
            assert table.tobytes() == expected[key].tobytes(), key
    assert all(table.shape[1] == 1 and not table.any() for table in tables.values())


@pytest.mark.parametrize("case", sorted(PRICING_CASES))
def test_capacities_above_the_largest_count_price_zero(case):
    """Rows at or above a cell's largest count read the table's last
    column, which is 0, and rows reaching 3 past it price as the oracle
    does."""
    instance = PRICING_CASES[case]()
    rng = np.random.default_rng(len(case) + 2)
    policy = _random_policy(instance, rng)
    counts = assigned_counts(instance, policy)
    high, mixed = {}, {}
    for key, tree in instance.trees.items():
        top = int(counts[key].max())
        shape = (20, tree.time_clusters.num_stages)
        high[key] = rng.integers(top, top + 4, size=shape)
        mixed[key] = rng.integers(0, top + 4, size=shape)
    assert all(not excess.any() for excess in overflow(instance, policy, high).values())
    expected = broadcast_overflow(instance, policy, mixed)
    for key, excess in overflow(instance, policy, mixed).items():
        assert excess.tobytes() == expected[key].tobytes(), key


def test_a_sweep_round_builds_one_table_per_cell_and_call(tmp_path, monkeypatch):
    """The benchmark's seed-3 sweep round on its day builds 114 tables:
    90 for the evaluator's sampled costs and 24 for the dr gammas,
    solve()'s check and the support worst case, one per cell and call.
    Building one table per stage, as before, the gammas took 72."""
    save_instance(tmp_path / "day.json", network_day(0))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 3,
        "sweep": {
            "instance": str(tmp_path / "day.json"),
            "epsilons": [0.0, 0.02, 0.05, 0.1, 0.2, 0.5],
            "reductions": [0.1, 0.2, 0.3, 0.4, 0.5],
            "band": 1.0,
            "sample_count": 2000,
            "day": "bench",
            "out": str(tmp_path / "report.csv"),
            "samples_out": str(tmp_path / "samples.csv"),
            "curve_out": str(tmp_path / "curve.csv"),
        },
    }))
    builds = Counter()

    def counted(instance, policy, keys):
        tables = _stage_overflow(instance, policy, keys)
        builds[sys._getframe(1).f_code.co_name] += len(tables)
        return tables

    monkeypatch.setattr(maghp, "_stage_overflow", counted)
    assert main(["sweep", "--config", str(config)]) == 0
    assert builds == {"overflow": 90, "_stage_gammas": 24}


@pytest.mark.parametrize("case", sorted(PRICING_CASES))
def test_stage_tables_price_like_the_broadcast_sum(case):
    """Random policies against random rows of stage capacities give the
    oracle's overflow to the bit. Every random instance has a
    single-stage tree and a flight scheduled in interval 0."""
    instance = PRICING_CASES[case]()
    rng = np.random.default_rng(len(case))
    if case.startswith("random"):
        assert 1 in {tree.time_clusters.num_stages for tree in instance.trees.values()}
    for _ in range(5):
        policy = _random_policy(instance, rng)
        capacities = {
            key: rng.integers(0, 8, size=(int(rng.integers(1, 40)), tree.time_clusters.num_stages))
            for key, tree in instance.trees.items()
        }
        priced = overflow(instance, policy, capacities)
        expected = broadcast_overflow(instance, policy, capacities)
        assert priced.keys() == expected.keys()
        for key, excess in priced.items():
            assert excess.dtype == expected[key].dtype
            assert excess.tobytes() == expected[key].tobytes(), key


def test_a_negative_capacity_is_refused():
    instance = stress_instance()
    policy = GroundDelayPolicy(
        {f.id: f.sched_dep for f in instance.flights},
        {f.id: f.sched_arr for f in instance.flights},
    )
    key, tree = next(iter(instance.trees.items()))
    rows = [[-1] * tree.time_clusters.num_stages]
    with pytest.raises(ValueError, match="at least 0"):
        overflow(instance, policy, {key: rows})


BUILDERS = {
    "det": (
        lambda i: build_det(i, best_capacity_profiles(i)),
        lambda i: rowwise_det(i, best_capacity_profiles(i)),
    ),
    "sp": (build_sp, rowwise_sp),
    "dr": (lambda i: build_dr(i, 0.1), lambda i: rowwise_dr(i, 0.1)),
}


@pytest.mark.parametrize("kind", sorted(BUILDERS))
@pytest.mark.parametrize("seed", range(20))
def test_block_builders_hand_milp_the_per_row_arrays(monkeypatch, seed, kind):
    instance = random_instance(seed)
    bulk, rowwise = (build(instance) for build in BUILDERS[kind])
    for name in ("u_index", "v_index", "z_index", "alpha_index"):
        assert getattr(bulk, name) == getattr(rowwise, name), name
    handed = handed_to_milp(bulk.model, monkeypatch)
    expected = handed_to_milp(rowwise.model, monkeypatch)
    assert handed.keys() == expected.keys()
    for name, array in handed.items():
        assert array.dtype == expected[name].dtype, name
        assert np.array_equal(array, expected[name]), name
