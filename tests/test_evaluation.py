"""Distribution shifting and out-of-sample evaluation tests."""

import math

import numpy as np
import pytest

from groundhold.errors import InfeasibleReductionError
from groundhold.evaluation import (
    ReductionSpec,
    epsilon_sweep,
    evaluate_policy,
    expected_recourse_cost,
    reduce_distribution,
    resample_capacities,
    shifted_representatives,
    write_in_sample_csv,
    write_report_csv,
    write_sample_costs_csv,
)
from groundhold.maghp import (
    GroundDelayPolicy,
    MaghpInstance,
    build_sp,
    extract_policy,
    first_stage_cost,
    solve,
)
from groundhold.pmf import make_pmf, pmf_mean, point_mass

from oracles import lp_second_stage_cost
from test_maghp import flight, single_stage_tree, two_airport_instance


def test_reduce_zero_is_identity():
    p = make_pmf([0, 2, 4], [0.25, 0.5, 0.25])
    assert reduce_distribution(p, 0.0, 1.0) == p


def test_reduce_point_mass_infeasible():
    """A point mass has no mean to give up, whatever the band."""
    with pytest.raises(InfeasibleReductionError):
        reduce_distribution(point_mass(3), 0.3, 1.0)
    with pytest.raises(InfeasibleReductionError):
        reduce_distribution(point_mass(3), 0.01, 50.0)


def test_reduce_two_atom_example():
    p = make_pmf([1, 3], [0.5, 0.5])
    shifted = reduce_distribution(p, 0.25, 1.0)
    assert shifted.support == (1, 3)
    assert shifted.weights == pytest.approx((0.75, 0.25), abs=1e-9)
    assert pmf_mean(shifted) == pytest.approx(1.5, abs=1e-9)


def _min_band_mean(p, band):
    """Greedy oracle: lowest mean reachable inside the weight band."""
    lows = [max(0.0, (1.0 - band) * w) for w in p.weights]
    highs = [(1.0 + band) * w for w in p.weights]
    weights = list(lows)
    spare = 1.0 - math.fsum(lows)
    for i in range(len(weights)):  # supports are already ascending
        take = min(spare, highs[i] - weights[i])
        weights[i] += take
        spare -= take
        if spare <= 1e-15:
            break
    return math.fsum(w * v for w, v in zip(weights, p.support))


def test_reduce_hits_target_or_reports_infeasible():
    """Across random PMFs the output mean lands on the target exactly,
    stays inside the band, and infeasibility agrees with a greedy oracle."""
    rng = np.random.default_rng(7)
    for _ in range(60):
        size = rng.integers(2, 6)
        support = np.sort(rng.choice(np.arange(0, 12), size=size, replace=False))
        weights = rng.dirichlet(np.ones(size))
        p = make_pmf(support.tolist(), weights.tolist())
        reduction = float(rng.choice([0.1, 0.25, 0.5]))
        band = float(rng.choice([0.5, 1.0]))
        target = (1.0 - reduction) * pmf_mean(p)
        reachable = _min_band_mean(p, band) <= target + 1e-9
        if not reachable:
            with pytest.raises(InfeasibleReductionError):
                reduce_distribution(p, reduction, band)
            continue
        shifted = reduce_distribution(p, reduction, band)
        assert pmf_mean(shifted) == pytest.approx(target, abs=1e-8)
        assert math.fsum(shifted.weights) == pytest.approx(1.0, abs=1e-9)
        for w, orig in zip(shifted.weights, p.weights):
            assert max(0.0, (1.0 - band) * orig) - 1e-9 <= w <= (1.0 + band) * orig + 1e-9


def test_resample_unshifted_matches_representatives():
    tree = single_stage_tree("A", "departure", 4, [(2, 0.3), (5, 0.7)])
    spec = ReductionSpec(reduction=0.0, band=1.0, sample_count=4000, seed=11)
    samples = resample_capacities({("A", "departure"): tree}, spec)
    draws = samples["A", "departure"]
    assert draws.shape == (4000, 1)
    assert set(np.unique(draws)) <= {2, 5}
    assert np.mean(draws == 2) == pytest.approx(0.3, abs=0.03)


def test_resample_half_reduction_halves_the_mean():
    tree = single_stage_tree("A", "departure", 4, [(0, 0.5), (8, 0.5)])
    spec = ReductionSpec(reduction=0.5, band=1.0, sample_count=10000, seed=3)
    shifted = shifted_representatives(tree, spec)[0]
    assert pmf_mean(shifted) == pytest.approx(2.0, abs=1e-8)
    draws = resample_capacities({("A", "departure"): tree}, spec)["A", "departure"]
    assert draws.mean() == pytest.approx(2.0, abs=0.15)


def test_resample_deterministic_in_seed():
    tree = single_stage_tree("A", "departure", 4, [(2, 0.3), (5, 0.7)])
    spec = ReductionSpec(reduction=0.0, band=1.0, sample_count=50, seed=4)
    first = resample_capacities({("A", "departure"): tree}, spec)
    second = resample_capacities({("A", "departure"): tree}, spec)
    assert np.array_equal(first["A", "departure"], second["A", "departure"])
    other = resample_capacities(
        {("A", "departure"): tree}, ReductionSpec(0.0, 1.0, 50, seed=5)
    )
    assert not np.array_equal(first["A", "departure"], other["A", "departure"])


def test_reduction_spec_validation():
    with pytest.raises(ValueError):
        ReductionSpec(reduction=1.0)
    with pytest.raises(ValueError):
        ReductionSpec(reduction=0.2, band=-0.5)
    with pytest.raises(ValueError):
        ReductionSpec(reduction=0.2, sample_count=0)


def test_evaluator_agrees_with_sp_on_training_scenarios():
    """Expected recourse over the tree's own scenarios reproduces the
    stochastic model's objective for its own policy."""
    inst = two_airport_instance()
    result = solve(build_sp(inst))
    policy = extract_policy(result)
    recomputed = first_stage_cost(inst, policy) + expected_recourse_cost(policy, inst)
    rel = abs(recomputed - result.objective) / max(1.0, abs(result.objective))
    assert rel <= 1e-6


def test_out_of_sample_cost_hand_case():
    """Two samples, counts [3, 1] against capacities 1 and 3."""
    net = {"A"}
    flights = tuple(flight(f"f{i}", "A", "X", 0, 1, net) for i in range(4))
    tree = single_stage_tree("A", "departure", 2, [(1, 0.5), (3, 0.5)])
    inst = MaghpInstance(
        airports=("A",),
        flights=flights,
        connections=(),
        horizon=2,
        cost_ground=1.0,
        cost_air=3.0,
        trees={("A", "departure"): tree},
    )
    policy = GroundDelayPolicy(
        {"f0": 0, "f1": 0, "f2": 0, "f3": 1},
        {"f0": 1, "f1": 1, "f2": 1, "f3": 2},
        {"f0": 0, "f1": 0, "f2": 0, "f3": 1},
        {"f0": 0, "f1": 0, "f2": 0, "f3": 0},
    )
    samples = {("A", "departure"): np.array([[1], [3]])}
    evaluation = evaluate_policy(policy, inst, samples)
    # capacity 1: overflow 2 at t=0 and 0 at t=1 (6.0); capacity 3: none
    assert evaluation.per_sample.tolist() == [6.0, 0.0]
    assert evaluation.first_stage == pytest.approx(1.0)
    assert evaluation.total == pytest.approx(4.0)
    assert evaluation.overflow_by_op["departure"] == pytest.approx(1.0)
    assert evaluation.overflow_by_op["arrival"] == 0.0


def test_closed_form_matches_lp_on_random_policies():
    """The evaluator's max(0, assigned - capacity) recourse equals an LP
    solve, sample by sample."""
    rng = np.random.default_rng(21)
    inst = two_airport_instance()
    ids = [f.id for f in inst.flights]
    for _ in range(25):
        slots = {fid: int(rng.integers(inst.flight(fid).sched_dep, 5)) for fid in ids}
        policy = GroundDelayPolicy(
            dict(slots),
            {fid: t + inst.flight(fid).flight_time for fid, t in slots.items()},
            {fid: t - inst.flight(fid).sched_dep for fid, t in slots.items()},
            {fid: 0 for fid in ids},
        )
        sample = {
            key: [int(rng.choice(stage.supports)) for stage in tree.stage_pmfs]
            for key, tree in inst.trees.items()
        }
        matrices = {key: np.array([vec]) for key, vec in sample.items()}
        closed = evaluate_policy(policy, inst, matrices).per_sample[0]
        assert closed == pytest.approx(lp_second_stage_cost(policy, inst, sample), abs=1e-8)


def test_sweep_report_shape_and_selection(tmp_path):
    inst = two_airport_instance()
    spec = ReductionSpec(reduction=0.0, band=1.0, sample_count=40, seed=9)
    report = epsilon_sweep(
        inst, epsilons=(0.0, 0.5), reductions=(0.0, 0.2), spec=spec, day="toy"
    )
    assert [row.reduction for row in report.rows] == [0.0, 0.2]
    assert report.epsilons == (0.0, 0.5)
    assert report.in_sample[0.0] == pytest.approx(report.sp_objective, rel=1e-6)
    assert report.in_sample[0.5] >= report.in_sample[0.0] - 1e-7
    for row in report.rows:
        assert set(row.dr_costs) == {0.0, 0.5}
        assert row.eps_star in (0.0, 0.5)
        assert row.dr_cost == pytest.approx(min(row.dr_costs.values()))
        assert row.per_sample["det"].shape == (40,)
        expected_pct = 0.0
        if abs(row.det_cost) > 1e-12:
            expected_pct = 100.0 * (row.det_cost - row.dr_cost) / row.det_cost
        assert row.pct_vs_det == pytest.approx(expected_pct)

    report_path = tmp_path / "report.csv"
    write_report_csv(report_path, report)
    lines = report_path.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("day,reduction,det_cost,sp_cost,dr_cost")

    samples_path = tmp_path / "samples.csv"
    write_sample_costs_csv(samples_path, report)
    assert len(samples_path.read_text().strip().splitlines()) == 1 + 2 * 3 * 40

    curve_path = tmp_path / "curve.csv"
    write_in_sample_csv(curve_path, report)
    curve = curve_path.read_text().strip().splitlines()
    assert curve[0] == "model,epsilon,objective"
    assert len(curve) == 1 + 2 + len(report.epsilons)


def test_sweep_rejects_empty_radius_list():
    inst = two_airport_instance()
    with pytest.raises(ValueError):
        epsilon_sweep(inst, (), (0.0,), ReductionSpec(0.0))
