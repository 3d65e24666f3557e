"""Ten end-to-end checks that gate the package.

Each test is one independently meaningful property of the pipeline,
asserted at a fixed tolerance and, where it matters, a wall-clock
budget. Run with -v for one pass/fail line per check.
"""

import math
import time

import numpy as np
import pytest
from handcase import (
    AIRPORT,
    EXPECTED,
    EXPECTED_THRESHOLD,
    NUM_INTERVALS,
    records,
)
from test_maghp import two_airport_instance

from fixtures import (
    bucket_training_data,
    random_instance,
    stress_instance,
)
from groundhold.capacity import (
    aggregate_intervals,
    estimate_capacities,
    saturation_threshold,
)
from groundhold.errors import InfeasibleReductionError
from groundhold.evaluation import (
    ReductionSpec,
    epsilon_sweep,
    evaluate_policy,
    reduce_distribution,
)
from groundhold.maghp import (
    GroundDelayPolicy,
    build_dr,
    build_sp,
    extract_policy,
    first_stage_cost,
    solve,
)
from groundhold.pmf import make_pmf, pmf_mean, wasserstein_1d
from groundhold.prediction import TrainingConfig, evaluate, train
from groundhold.scenario import (
    build_scenario_tree,
    cluster_time_series,
    compress_pmf_kmeans,
)
from oracles import inner_worst_case, lp_second_stage_cost, wasserstein_lp


def random_pmf(rng, max_atoms=8, max_value=20):
    n = int(rng.integers(2, max_atoms + 1))
    support = np.sort(rng.choice(np.arange(max_value), size=n, replace=False))
    weights = rng.random(n) + 0.05
    weights /= weights.sum()
    return make_pmf([int(s) for s in support], [float(w) for w in weights])


STRESS_EPSILONS = (0.0, 0.05, 0.1, 0.3, 1.0)
STRESS_REDUCTIONS = (0.1, 0.2, 0.3, 0.4, 0.5)


@pytest.fixture(scope="module")
def stress_report():
    """One shared sweep of the seeded overestimation fixture."""
    started = time.monotonic()
    report = epsilon_sweep(
        stress_instance(),
        epsilons=STRESS_EPSILONS,
        reductions=STRESS_REDUCTIONS,
        spec=ReductionSpec(reduction=0.0, band=1.0, sample_count=300, seed=0),
        day="stress",
    )
    return report, time.monotonic() - started


@pytest.mark.usefixtures("highs_only")
def test_zero_radius_robust_model_collapses_to_stochastic():
    started = time.monotonic()
    for seed in range(20):
        instance = random_instance(seed)
        sp = solve(build_sp(instance))
        dr = solve(build_dr(instance, 0.0))
        gap = abs(dr.objective - sp.objective) / max(1.0, abs(sp.objective))
        assert gap <= 1e-6, f"seed {seed}: relative gap {gap}"
    assert time.monotonic() - started <= 120.0


def test_robust_objective_matches_worst_case_oracle():
    started = time.monotonic()
    for seed in range(20):
        instance = random_instance(seed)
        for epsilon in (0.02, 0.05, 0.1):
            result = solve(build_dr(instance, epsilon))
            policy = extract_policy(result)
            oracle = first_stage_cost(instance, policy)
            for key in instance.constrained_keys():
                oracle += inner_worst_case(
                    policy, instance, instance.trees[key], epsilon
                )
            gap = abs(result.objective - oracle) / max(1.0, abs(oracle))
            assert gap <= 1e-5, f"seed {seed} eps {epsilon}: gap {gap}"
    assert time.monotonic() - started <= 300.0


def test_robust_objective_is_monotone_in_radius(stress_report):
    report, _ = stress_report
    curve = [report.in_sample[e] for e in sorted(report.in_sample)]
    for lo, hi in zip(curve, curve[1:]):
        assert hi >= lo - 1e-7
    grid = (0.0, 0.02, 0.05, 0.1, 0.5, 1.0)
    for seed in range(5):
        instance = random_instance(seed + 100)
        values = [solve(build_dr(instance, e)).objective for e in grid]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-7, f"seed {seed + 100}: {values}"


def test_sorted_transport_distance_matches_lp():
    started = time.monotonic()
    rng = np.random.default_rng(404)
    for _ in range(200):
        p = random_pmf(rng)
        q = random_pmf(rng)
        cost = np.abs(
            np.subtract.outer(
                np.asarray(p.support, dtype=float),
                np.asarray(q.support, dtype=float),
            )
        )
        lp_value, _ = wasserstein_lp(p, q, cost)
        assert abs(wasserstein_1d(p, q) - lp_value) <= 1e-8
    assert time.monotonic() - started <= 30.0


def _tightest_mean_within_band(p, band):
    """Greedy lower bound on the mean over the banded simplex."""
    lo = [max(0.0, (1.0 - band) * w) for w in p.weights]
    hi = [(1.0 + band) * w for w in p.weights]
    filled = list(lo)
    deficit = 1.0 - math.fsum(lo)
    for i in range(len(filled)):
        if deficit <= 0.0:
            break
        add = min(hi[i] - lo[i], deficit)
        filled[i] += add
        deficit -= add
    return math.fsum(s * w for s, w in zip(p.support, filled))


def test_reduction_lp_hits_target_mean_inside_band():
    rng = np.random.default_rng(505)
    kept = 0
    while kept < 100:
        p = random_pmf(rng)
        reduction = float(rng.uniform(0.05, 0.5))
        band = float(rng.uniform(0.1, 2.0))
        target = (1.0 - reduction) * pmf_mean(p)
        if _tightest_mean_within_band(p, band) > target - 1e-6:
            continue
        kept += 1
        q = reduce_distribution(p, reduction, band)
        got = math.fsum(s * w for s, w in zip(q.support, q.weights))
        assert abs(got - target) <= 1e-8
        for w, w0 in zip(q.weights, p.weights):
            assert max(0.0, (1.0 - band) * w0) <= w <= (1.0 + band) * w0
    # a point mass on a positive value cannot move its mean at all
    for value in (3, 7, 11):
        with pytest.raises(InfeasibleReductionError):
            reduce_distribution(make_pmf([value], [1.0]), 0.25, 1.0)


def test_scenario_tree_measures_are_consistent():
    rng = np.random.default_rng(606)
    for _ in range(20):
        series = [random_pmf(rng, max_atoms=5) for _ in range(8)]
        clustering = cluster_time_series(series, int(rng.integers(1, 3)))
        tree = build_scenario_tree(clustering, 2)
        assert abs(math.fsum(tree.probabilities) - 1.0) <= 1e-8
        sizes = [len(stage) for stage in tree.stage_pmfs]
        for stage_index, stage in enumerate(tree.stage_pmfs):
            for atom_index, (_, p_atom) in enumerate(stage.atoms):
                parts = []
                for combo, (_, prob) in enumerate(tree.scenarios):
                    index = combo
                    for k in range(len(sizes) - 1, -1, -1):
                        index, rem = divmod(index, sizes[k])
                        if k == stage_index and rem == atom_index:
                            parts.append(prob)
                # float products leave a few ulps of dust, nothing more
                assert abs(math.fsum(parts) - p_atom) <= 1e-12
    for _ in range(100):
        p = random_pmf(rng)
        k = int(rng.integers(1, len(p.support) + 1))
        reduced = compress_pmf_kmeans(p, k)
        assert abs(
            math.fsum(reduced.probabilities) - math.fsum(p.weights)
        ) <= 1e-12
        positive = tuple((s, w) for s, w in zip(p.support, p.weights) if w > 0)
        lossless = compress_pmf_kmeans(p, len(positive))
        assert lossless.atoms == positive


def test_hedging_beats_deterministic_under_overestimation(stress_report):
    report, elapsed = stress_report
    assert elapsed <= 900.0
    assert [row.reduction for row in report.rows] == list(STRESS_REDUCTIONS)
    for row in report.rows:
        sp_vs_det = 100.0 * (row.det_cost - row.sp_cost) / row.det_cost
        assert sp_vs_det > 20.0, f"r={row.reduction}: sp gains {sp_vs_det:.1f}%"
        assert row.pct_vs_det > 20.0, (
            f"r={row.reduction}: dr gains {row.pct_vs_det:.1f}%"
        )
    deepest = report.rows[-1]
    assert deepest.reduction == 0.5
    assert deepest.dr_cost < deepest.sp_cost
    stars = [row.eps_star for row in report.rows]
    assert stars == sorted(stars)


def test_prediction_metrics_on_perfect_and_matched_data():
    buckets = 5
    base = np.array(
        [[b, b * b, buckets - 1 - b] for b in range(buckets)], dtype=float
    )
    features = np.tile(base, (200, 1))
    labels = np.tile(np.arange(buckets) * 2 + 1, 200)
    model = train(features, labels, TrainingConfig(kind="empirical", seed=0))
    exact = evaluate(model, features[:500], labels[:500], level=0.9)
    assert (exact.rmse, exact.mae) == (0.0, 0.0)
    assert (exact.picp, exact.mpiw) == (1.0, 1.0)

    train_features, train_labels = bucket_training_data(seed=11, count=6000)
    matched = train(
        train_features, train_labels, TrainingConfig(kind="empirical", seed=0)
    )
    test_features, test_labels = bucket_training_data(seed=12, count=10000)
    metrics = evaluate(matched, test_features, test_labels, level=0.9)
    assert metrics.count == 10000
    assert metrics.picp >= 0.87


def test_capacity_rules_match_hand_checked_day():
    stats = aggregate_intervals(records(), NUM_INTERVALS)
    threshold = saturation_threshold([s.throughput for s in stats])
    assert threshold == EXPECTED_THRESHOLD
    observations = estimate_capacities(stats)
    assert all(o.airport == AIRPORT for o in observations)
    got = {o.interval: (o.capacity, o.criteria) for o in observations}
    assert got == EXPECTED


def test_closed_form_recourse_matches_lp():
    rng = np.random.default_rng(808)
    instance = two_airport_instance()
    ids = [f.id for f in instance.flights]
    for _ in range(50):
        slots = {
            fid: int(rng.integers(instance.flight(fid).sched_dep, 5))
            for fid in ids
        }
        policy = GroundDelayPolicy(
            dict(slots),
            {fid: t + instance.flight(fid).flight_time for fid, t in slots.items()},
        )
        sample = {
            key: [int(rng.choice(stage.supports)) for stage in tree.stage_pmfs]
            for key, tree in instance.trees.items()
        }
        matrices = {key: np.array([vec]) for key, vec in sample.items()}
        closed = evaluate_policy(policy, instance, matrices).per_sample[0]
        lp = lp_second_stage_cost(policy, instance, sample)
        assert abs(closed - lp) <= 1e-8
