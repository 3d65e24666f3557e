"""Distribution shifting and out-of-sample evaluation tests."""

import csv
import math
import re

import numpy as np
import pytest

import groundhold.evaluation as evaluation
import groundhold.solver as solver
from fixtures import point_mass, random_instance, stress_instance
from groundhold.errors import InfeasibleReductionError
from groundhold.evaluation import (
    ReductionRow,
    ReductionSpec,
    SensitivityReport,
    epsilon_sweep,
    evaluate_policy,
    reduce_distribution,
    resample_capacities,
    shifted_representatives,
    sweep_levels,
    sweep_radii,
    write_in_sample_csv,
    write_report_csv,
    write_sample_costs_csv,
)
from groundhold.maghp import (
    GroundDelayPolicy,
    MaghpInstance,
    best_capacity_profiles,
    build_det,
    build_dr,
    build_sp,
    extract_policy,
    first_stage_cost,
    solve,
    support_worst_case,
)
from groundhold.pmf import make_pmf, pmf_mean, wasserstein_1d

from oracles import (
    expected_recourse_cost,
    inner_worst_case,
    lp_second_stage_cost,
    wasserstein_lp,
)
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
    stays inside the band, only moves mass downward (so W1 equals the
    mean drop, by the CDF formula and by the transportation LP), and
    infeasibility and its reported lowest mean agree with a greedy
    oracle."""
    rng = np.random.default_rng(7)
    for _ in range(60):
        size = rng.integers(2, 6)
        support = np.sort(rng.choice(np.arange(0, 12), size=size, replace=False))
        weights = rng.dirichlet(np.ones(size))
        p = make_pmf(support.tolist(), weights.tolist())
        reduction = float(rng.choice([0.1, 0.25, 0.5]))
        band = float(rng.choice([0.5, 1.0]))
        target = (1.0 - reduction) * pmf_mean(p)
        lowest = _min_band_mean(p, band)
        if lowest > target + 1e-9:
            with pytest.raises(InfeasibleReductionError) as raised:
                reduce_distribution(p, reduction, band)
            reported = re.search(r"achievable mean: (\S+)\)", str(raised.value))
            assert float(reported.group(1)) == pytest.approx(lowest, abs=1e-9)
            continue
        shifted = reduce_distribution(p, reduction, band)
        assert pmf_mean(shifted) == pytest.approx(target, abs=1e-8)
        assert math.fsum(shifted.weights) == pytest.approx(1.0, abs=1e-9)
        for w, orig in zip(shifted.weights, p.weights):
            assert max(0.0, (1.0 - band) * orig) - 1e-9 <= w <= (1.0 + band) * orig + 1e-9
        assert np.all(np.cumsum(shifted.weights) >= np.cumsum(p.weights) - 1e-12)
        drop = pmf_mean(p) - pmf_mean(shifted)
        assert wasserstein_1d(p, shifted) == pytest.approx(drop, abs=1e-9)
        cost = np.abs(support[:, None] - support[None, :])
        transport, _ = wasserstein_lp(p, shifted, cost)
        assert transport == pytest.approx(drop, abs=1e-8)


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
    p = make_pmf([1, 3], [0.5, 0.5])
    for band in (math.nan, math.inf):
        with pytest.raises(ValueError, match="band must be finite"):
            ReductionSpec(reduction=0.2, band=band)
        with pytest.raises(ValueError, match="band must be finite"):
            reduce_distribution(p, 0.2, band)


def _count_milp(monkeypatch):
    """A list that grows by one per groundhold.solver.milp call."""
    calls = []
    milp = solver.milp

    def counting(*args, **kwargs):
        calls.append(1)
        return milp(*args, **kwargs)

    monkeypatch.setattr(solver, "milp", counting)
    return calls


def _saturates(result, instance):
    objective = result.objective
    bound = support_worst_case(extract_policy(result), instance)
    return objective >= bound - 1e-6 * max(1.0, abs(objective))


GRID = (0.0, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)
SHIFTS = (0.1, 0.3, 0.5)
# name: (instance, radii, reduction levels, solver calls)
SWEEP_CASES = {
    # radius 0.5 saturates and is solved; radius 0.1 is not saturated
    "stress-0.1-0.5": (stress_instance, (0.0, 0.1, 0.5), SHIFTS, 3),
    # no radius saturates, so every positive radius is solved
    "stress-unsaturated": (stress_instance, (0.0, 0.02, 0.05, 0.1, 0.2), SHIFTS, 5),
    # the schedule fits every capacity: no model reaches HiGHS
    "random-0": (lambda: random_instance(0), GRID, (0.0,), 0),
    # the first robust solve, at 0.02, certifies the rest of the grid
    "random-52": (lambda: random_instance(52), GRID, (0.0,), 2),
}


def test_sweep_solves_only_its_models(monkeypatch):
    """A sweep calls the solver for det and for sp only where their
    optimum is above 0, since solve() answers a model the schedule fits
    without it; shifting the test distributions takes no solve. Radius 0
    reuses sp, and of the positive radii only those up to the first
    whose optimum reaches its policy's support worst case are solved
    (none when sp already does), which fresh per-radius solves decide
    here."""
    spec = ReductionSpec(reduction=0.0, band=1.0, sample_count=20, seed=0)
    for name, (make, radii, reductions, pinned) in SWEEP_CASES.items():
        instance = make()
        det = build_det(instance, best_capacity_profiles(instance))
        solved = sum(
            bundle.model.minimize().objective > 0 for bundle in (det, build_sp(instance))
        )
        certified = _saturates(solve(build_sp(instance)), instance)
        for eps in radii:
            if eps > 0 and not certified:
                solved += 1
                certified = _saturates(solve(build_dr(instance, eps)), instance)
        calls = _count_milp(monkeypatch)
        epsilon_sweep(instance, radii, reductions, spec)
        assert len(calls) == solved == pinned, name
        monkeypatch.undo()


DIFFERENTIAL = {f"random-{seed}": (random_instance, seed) for seed in range(10)}
DIFFERENTIAL["stress"] = (lambda _: stress_instance(), None)


@pytest.mark.parametrize("case", sorted(DIFFERENTIAL))
def test_sweep_matches_fresh_solves(case, monkeypatch):
    """Every in-sample objective equals a fresh robust solve at its
    radius; at each radius the sweep did not solve, the policy it reused
    (sp's at radius 0, else the last solve's) has that objective as its
    robust cost by the inner worst-case LP."""
    make, seed = DIFFERENTIAL[case]
    instance = make(seed)
    results = []

    def recording(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(evaluation, "solve", recording)
    spec = ReductionSpec(reduction=0.0, band=1.0, sample_count=5, seed=0)
    report = epsilon_sweep(instance, GRID, (0.0,), spec)
    monkeypatch.undo()

    for eps in GRID:
        fresh = solve(build_dr(instance, eps)).objective
        gap = abs(report.in_sample[eps] - fresh) / max(1.0, abs(fresh))
        assert gap <= 1e-6, f"radius {eps}: relative gap {gap}"
    positive = [eps for eps in GRID if eps > 0]
    solved = len(results) - 2  # det and sp come first
    reused = {0.0: results[1]} | {eps: results[-1] for eps in positive[solved:]}
    for eps, source in reused.items():
        policy = extract_policy(source)
        worst = first_stage_cost(instance, policy) + math.fsum(
            inner_worst_case(policy, instance, instance.trees[key], eps)
            for key in instance.constrained_keys()
        )
        assert worst == pytest.approx(report.in_sample[eps], abs=1e-5), eps


@pytest.mark.parametrize(
    "radii", [(0.0, 0.02, math.inf), (-0.1, 0.1), (0.1, math.nan), (0.0, "x")]
)
def test_sweep_checks_every_radius_before_solving(radii, monkeypatch):
    """A bad radius anywhere in the grid fails before any model is
    solved, even where the sweep would not have solved that radius."""
    calls = _count_milp(monkeypatch)
    (bad,) = [r for r in radii if r not in (0.0, 0.02, 0.1)]
    message = f"radius must be a finite non-negative number, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        epsilon_sweep(two_airport_instance(), radii, (0.0,), ReductionSpec(0.0))
    assert calls == []


def test_sweep_reads_negative_zero_as_zero(tmp_path):
    spec = ReductionSpec(reduction=0.0, band=1.0, sample_count=10, seed=0)
    report = epsilon_sweep(two_airport_instance(), (-0.0, 0.1), (0.0,), spec)
    assert report.epsilons == (0.0, 0.1)
    assert math.copysign(1.0, report.epsilons[0]) == 1.0
    curve = tmp_path / "curve.csv"
    write_in_sample_csv(curve, report)
    assert "dr,0," in curve.read_text()
    assert "-0" not in curve.read_text()


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
    flights = tuple(flight(f"f{i}", "A", "X", 0, 1) for i in range(4))
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


@pytest.mark.parametrize("day", ["plain", "a,b", 'say "hi"', "two\nlines"])
def test_sample_costs_csv_is_what_csv_writer_writes(tmp_path, day):
    """The block-formatted samples CSV equals csv.writer writing one row
    per sample, byte for byte, also for day names that need quoting."""
    rng = np.random.default_rng(3)
    costs = np.concatenate([[0.0, -0.0, 1e-7, 2.5e6, 1 / 3], rng.exponential(40.0, 20)])
    rows = [
        ReductionRow(
            reduction, 0.0, 0.0, {}, 0.0, 0.0, 0.0, 0.0, {},
            {"det": costs, "sp": costs[::-1] * reduction, "dr": costs[:3]},
        )
        for reduction in (0.0, 0.05, 0.1, 1 / 3)
    ]
    report = SensitivityReport(day, (0.0,), 0.0, 0.0, {0.0: 0.0}, rows)
    write_sample_costs_csv(tmp_path / "blocks.csv", report)

    with (tmp_path / "rows.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["day", "reduction", "model", "sample", "second_stage_cost"])
        for row in report.rows:
            for model in ("det", "sp", "dr"):
                for i, cost in enumerate(row.per_sample[model]):
                    writer.writerow([day, f"{row.reduction:g}", model, i, f"{cost:.6f}"])
    written = (tmp_path / "blocks.csv").read_bytes()
    assert written == (tmp_path / "rows.csv").read_bytes()
    assert written.count(b"\r\n") == 1 + 4 * (25 + 25 + 3)


def test_sweep_rejects_empty_radius_list():
    inst = two_airport_instance()
    with pytest.raises(ValueError):
        epsilon_sweep(inst, (), (0.0,), ReductionSpec(0.0))


def test_sweep_reads_a_negative_zero_level_as_zero():
    spec = ReductionSpec(reduction=0.0, band=1.0, sample_count=10, seed=0)
    report = epsilon_sweep(two_airport_instance(), (0.1,), (-0.0, 0.1), spec)
    assert [row.reduction for row in report.rows] == [0.0, 0.1]
    assert math.copysign(1.0, report.rows[0].reduction) == 1.0


@pytest.mark.parametrize(
    "levels,message",
    [
        ((), "need at least one reduction level"),
        ((0.1, 1.5), "reduction must lie in [0, 1)"),
        ((-0.1, 0.2), "reduction must lie in [0, 1)"),
    ],
)
def test_sweep_checks_every_reduction_level_before_solving(levels, message, monkeypatch):
    calls = _count_milp(monkeypatch)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        epsilon_sweep(two_airport_instance(), (0.1,), levels, ReductionSpec(0.0))
    assert calls == []


@pytest.mark.parametrize(
    "level,message",
    [
        ("0.1", "expected a real number, got '0.1'"),
        (False, "expected a real number, got False"),
        (10**400, "reduction must lie in [0, 1)"),
    ],
    ids=["string", "boolean", "huge"],
)
def test_sweep_levels_take_only_real_numbers(level, message):
    """A string or a boolean is no number, and an integer too large for
    a float reads as infinity, outside [0, 1)."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sweep_levels([level])


def test_sweep_levels_are_distinct_and_ascending():
    assert sweep_levels([0.3, np.float64(0.1), 0, -0.0, 0.3]) == (0.0, 0.1, 0.3)


def test_sweep_lists_refuse_a_single_number():
    """A bare level or radius is no list of them; a tuple, a numpy array
    and a range are."""
    for parse, value in ((sweep_levels, 0.1), (sweep_radii, np.float64(0.1))):
        with pytest.raises(ValueError, match=r"^expected a list of numbers, got .*0\.1"):
            parse(value)
    assert sweep_levels(np.array([0.1])) == (0.1,)
    assert sweep_levels((0.2, 0.1)) == (0.1, 0.2)
    assert sweep_radii(range(2)) == (0.0, 1.0)


def test_evaluate_policy_refuses_samples_without_a_constrained_cell():
    """A cell left out of the samples is refused, not priced at zero."""
    inst = two_airport_instance()
    policy = extract_policy(solve(build_sp(inst)))
    samples = resample_capacities(inst.trees, ReductionSpec(0.1, sample_count=5))
    left_out = sorted(samples)[0]
    del samples[left_out]
    with pytest.raises(ValueError, match=re.escape(f"no capacity samples for {[left_out]}")):
        evaluate_policy(policy, inst, samples)


def test_evaluate_policy_refuses_sample_sets_of_different_sizes():
    """Cells whose sample sets differ in size are refused, not priced
    per sample against each other."""
    inst = two_airport_instance()
    policy = extract_policy(solve(build_sp(inst)))
    samples = resample_capacities(inst.trees, ReductionSpec(0.1, sample_count=5))
    short = sorted(samples)[0]
    samples[short] = samples[short][:4]
    with pytest.raises(ValueError, match="sample sets disagree on sample count"):
        evaluate_policy(policy, inst, samples)
