"""Ground holding model tests with hand-checked optima."""

import itertools
import json
import math

import numpy as np
import pytest

from fixtures import random_instance
from groundhold.errors import MissingInputError, SolverError
from groundhold.maghp import (
    Flight,
    FlightConnection,
    GroundDelayPolicy,
    MaghpInstance,
    assigned_counts,
    best_capacity_profiles,
    build_det,
    build_dr,
    build_sp,
    extract_policy,
    first_stage_cost,
    flight_delays,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    overflow,
    result_from_dict,
    result_to_dict,
    save_instance,
    solve,
)
from groundhold.pmf import make_pmf
from groundhold.scenario import ReducedPmf, ScenarioTree, TimeClustering
from oracles import inner_worst_case


def single_stage_tree(airport, op_type, horizon, atoms):
    """Tree with one time segment and one scenario per capacity atom."""
    ordered = sorted(atoms)
    rep = make_pmf([a for a, _ in ordered], [p for _, p in ordered])
    clustering = TimeClustering(
        boundaries=(),
        segments=(tuple(range(horizon)),),
        representatives=(rep,),
    )
    stage = ReducedPmf(atoms=tuple((int(a), float(p)) for a, p in atoms))
    scenarios = tuple(((int(a),), float(p)) for a, p in atoms)
    return ScenarioTree(airport, op_type, (stage,), clustering, scenarios)


def flight(fid, origin, dest, dep, arr):
    return Flight(fid, origin, dest, dep, arr)


def test_det_single_flight_no_delay():
    """Ample capacity leaves the schedule untouched at zero cost."""
    inst = MaghpInstance(
        airports=("A", "B"),
        flights=(flight("f1", "A", "B", 0, 1),),
        connections=(),
        horizon=2,
        cost_ground=1.0,
        cost_air=3.0,
    )
    caps = {("A", "departure"): [5, 5], ("B", "arrival"): [5, 5]}
    result = solve(build_det(inst, caps))
    assert result.status == "optimal"
    assert result.objective == pytest.approx(0.0, abs=1e-9)
    policy = extract_policy(result)
    assert policy.u_slot["f1"] == 0 and policy.v_slot["f1"] == 1
    assert flight_delays(inst, policy)["f1"] == (0, 0)


def test_det_two_flights_share_one_slot():
    """Departure capacity one pushes exactly one flight back an interval."""
    inst = MaghpInstance(
        airports=("A",),
        flights=(
            flight("f1", "A", "X", 0, 1),
            flight("f2", "A", "X", 0, 1),
        ),
        connections=(),
        horizon=2,
        cost_ground=1.0,
        cost_air=3.0,
    )
    result = solve(build_det(inst, {("A", "departure"): [1, 1]}))
    assert result.objective == pytest.approx(1.0, abs=1e-9)
    policy = extract_policy(result)
    assert sorted(policy.u_slot.values()) == [0, 1]
    # (ground, air) per flight: one held an interval, no airborne delay
    assert sorted(flight_delays(inst, policy).values()) == [(0, 0), (1, 0)]


def test_det_connection_passes_delay_minus_slack():
    """A predecessor held three intervals forces its successor to absorb
    the excess over one interval of slack."""
    inst = MaghpInstance(
        airports=("A", "B"),
        flights=(
            flight("p", "A", "B", 0, 1),
            flight("s", "B", "X", 2, 3),
        ),
        connections=(FlightConnection("p", "s", 1),),
        horizon=4,
        cost_ground=1.0,
        cost_air=3.0,
    )
    caps = {
        ("A", "departure"): [0, 0, 0, 1],
        ("B", "arrival"): [5, 5, 5, 5],
        ("B", "departure"): [5, 5, 5, 5],
    }
    result = solve(build_det(inst, caps))
    policy = extract_policy(result)
    delays = flight_delays(inst, policy)
    assert delays["p"] == (3, 0)
    assert delays["s"][0] == 2
    assert result.objective == pytest.approx(5.0, abs=1e-9)


def test_coupling_skipped_at_out_of_network_airport():
    """Connections through airports outside the network carry no delay,
    whether the aircraft flies on to another network airport (A -> X -> B)
    or back to the one it left (A -> X -> A)."""
    for airports, final in ((("A", "B"), "B"), (("A",), "A")):
        inst = MaghpInstance(
            airports=airports,
            flights=(
                flight("p", "A", "X", 0, 1),
                flight("s", "X", final, 1, 2),
            ),
            connections=(FlightConnection("p", "s", 0),),
            horizon=2,
            cost_ground=1.0,
            cost_air=3.0,
        )
        result = solve(build_det(inst, {("A", "departure"): [0, 1]}))
        policy = extract_policy(result)
        delays = flight_delays(inst, policy)
        assert delays["p"][0] == 1
        assert delays["s"][0] == 0
        assert result.objective == pytest.approx(1.0, abs=1e-9)


def test_sp_single_scenario_equals_det():
    """A degenerate tree reproduces the deterministic model's optimum."""
    flights = tuple(flight(f"f{i}", "A", "B", 0, 1) for i in range(3))
    trees = {
        ("A", "departure"): single_stage_tree("A", "departure", 3, [(1, 1.0)]),
        ("B", "arrival"): single_stage_tree("B", "arrival", 3, [(3, 1.0)]),
    }
    inst = MaghpInstance(
        airports=("A", "B"),
        flights=flights,
        connections=(),
        horizon=3,
        cost_ground=1.0,
        cost_air=3.0,
        trees=trees,
    )
    det = solve(build_det(inst, {k: [t.vectors[0][0]] * 3 for k, t in trees.items()}))
    sp = solve(build_sp(inst))
    assert det.objective == pytest.approx(3.0, abs=1e-9)
    assert sp.objective == pytest.approx(det.objective, abs=1e-9)
    delays = flight_delays(inst, extract_policy(sp))
    assert sorted(ground for ground, _ in delays.values()) == [0, 1, 2]


def test_sp_two_scenarios_matches_exhaustive_enumeration():
    """Three departures, capacities 2 or 0 with equal odds: the model's
    optimum equals a brute-force scan over every slot assignment."""
    flights = tuple(flight(f"f{i}", "A", "X", 0, 1) for i in range(3))
    tree = single_stage_tree("A", "departure", 2, [(2, 0.5), (0, 0.5)])
    inst = MaghpInstance(
        airports=("A",),
        flights=flights,
        connections=(),
        horizon=2,
        cost_ground=1.0,
        cost_air=3.0,
        trees={("A", "departure"): tree},
    )
    result = solve(build_sp(inst))

    best = math.inf
    slots = range(3)  # horizon 2 plus one overflow period is enough here
    for assign in itertools.product(slots, repeat=3):
        counts = [assign.count(t) for t in range(2)]
        # interval 0 overflow is pinned to zero, so its capacity binds in
        # every scenario outright
        if counts[0] > min(2, 0):
            continue
        cost = 1.0 * sum(assign)
        for cap, prob in [(2, 0.5), (0, 0.5)]:
            cost += prob * 3.0 * max(0, counts[1] - cap)
        best = min(best, cost)
    assert best == pytest.approx(6.0, abs=1e-12)
    assert result.objective == pytest.approx(best, abs=1e-6)


def two_airport_instance():
    """Small two-cell instance used across the robust-model tests."""
    flights = tuple(
        flight(f"f{i}", "A", "B", 0, 1) for i in range(3)
    ) + (flight("f3", "A", "B", 1, 2),)
    trees = {
        ("A", "departure"): single_stage_tree(
            "A", "departure", 3, [(1, 0.6), (2, 0.4)]
        ),
        ("B", "arrival"): single_stage_tree("B", "arrival", 3, [(1, 0.3), (3, 0.7)]),
    }
    return MaghpInstance(
        airports=("A", "B"),
        flights=flights,
        connections=(),
        horizon=3,
        cost_ground=1.0,
        cost_air=3.0,
        trees=trees,
    )


def test_dr_zero_radius_collapses_to_sp():
    """With radius zero the robust objective is the stochastic one."""
    inst = two_airport_instance()
    sp = solve(build_sp(inst))
    dr = solve(build_dr(inst, 0.0))
    rel = abs(dr.objective - sp.objective) / max(1.0, abs(sp.objective))
    assert rel <= 1e-6


def test_dr_saturates_at_ball_diameter():
    """Distances are scaled to max 1, so radius 1 already covers every
    point mass and larger radii change nothing."""
    inst = two_airport_instance()
    at_one = solve(build_dr(inst, 1.0))
    beyond = solve(build_dr(inst, 5.0))
    assert at_one.objective == pytest.approx(beyond.objective, rel=1e-9)
    policy = extract_policy(at_one)
    worst = first_stage_cost(inst, policy)
    vectors = {key: tree.vectors for key, tree in inst.trees.items()}
    for excess in overflow(inst, policy, vectors).values():
        worst += inst.recourse_cost * excess.max()
    assert at_one.objective == pytest.approx(worst, rel=1e-6)


def test_dr_objective_monotone_in_radius():
    """Growing the ball can only raise the optimal objective."""
    inst = two_airport_instance()
    values = [
        solve(build_dr(inst, eps)).objective
        for eps in (0.0, 0.02, 0.05, 0.1, 0.5, 1.0)
    ]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-7


def test_dr_duality_gap_closed_at_optimum():
    """The dual objective equals the brute-force worst case per cell."""
    inst = two_airport_instance()
    eps = 0.05
    result = solve(build_dr(inst, eps))
    policy = extract_policy(result)
    primal = first_stage_cost(inst, policy)
    for tree in inst.trees.values():
        primal += inner_worst_case(policy, inst, tree, eps)
    rel = abs(primal - result.objective) / max(1.0, abs(result.objective))
    assert rel <= 1e-5


def test_dr_radius_is_one_number():
    """The radius is one number for every cell: 0 matches sp, and a
    negative radius or one keyed by op type is refused."""
    inst = two_airport_instance()
    sp = solve(build_sp(inst))
    dr = solve(build_dr(inst, 0.0))
    assert dr.objective == pytest.approx(sp.objective, rel=1e-6)
    with pytest.raises(ValueError):
        build_dr(inst, -0.1)
    with pytest.raises(ValueError):
        build_dr(inst, {"departure": 0.1, "arrival": 0.1})


def hand_policy(inst, slots):
    u = dict(slots)
    v = {fid: t + inst.flight(fid).flight_time for fid, t in u.items()}
    return GroundDelayPolicy(u, v)


def worst_case_fixture():
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
    policy = hand_policy(inst, {"f0": 0, "f1": 0, "f2": 0, "f3": 1})
    return inst, tree, policy


def test_inner_worst_case_zero_radius_is_expectation():
    inst, tree, policy = worst_case_fixture()
    # counts [3, 1]: capacity 1 overflows by 2 (cost 6), capacity 3 by 0
    excess = overflow(inst, policy, {("A", "departure"): [(1,), (3,)]})
    assert (inst.recourse_cost * excess["A", "departure"]).tolist() == [6.0, 0.0]
    value = inner_worst_case(policy, inst, tree, 0.0)
    assert value == pytest.approx(3.0, abs=1e-8)


def test_inner_worst_case_saturates_at_costliest_scenario():
    inst, tree, policy = worst_case_fixture()
    value = inner_worst_case(policy, inst, tree, 1.0)
    assert value == pytest.approx(6.0, abs=1e-8)
    assert inner_worst_case(policy, inst, tree, 7.5) == pytest.approx(6.0, abs=1e-8)


def test_inner_worst_case_partial_budget():
    """Budget 0.25 moves a quarter of the mass onto the bad scenario."""
    inst, tree, policy = worst_case_fixture()
    value = inner_worst_case(policy, inst, tree, 0.25)
    assert value == pytest.approx(0.75 * 6.0 + 0.25 * 0.0, abs=1e-8)


def test_assigned_counts_ignore_overflow_slots():
    inst, tree, policy = worst_case_fixture()
    shifted = hand_policy(inst, {"f0": 0, "f1": 1, "f2": 2, "f3": 5})
    counts = assigned_counts(inst, shifted)
    assert counts["A", "departure"].tolist() == [1.0, 1.0]
    assert counts["A", "arrival"].tolist() == [0.0, 0.0]


def test_best_capacity_profile_breaks_ties_toward_first():
    rep = make_pmf([1, 5], [0.5, 0.5])
    clustering = TimeClustering(
        boundaries=(1,),
        segments=((0, 1), (2,)),
        representatives=(rep, rep),
    )
    stages = (
        ReducedPmf(atoms=((1, 0.5), (3, 0.5))),
        ReducedPmf(atoms=((5, 0.5), (1, 0.5))),
    )
    scenarios = (
        ((1, 5), 0.25),
        ((1, 1), 0.25),
        ((3, 5), 0.25),
        ((3, 1), 0.25),
    )
    tree = ScenarioTree("A", "departure", stages, clustering, scenarios)
    inst = MaghpInstance(
        airports=("A",),
        flights=(flight("f0", "A", "X", 0, 1),),
        connections=(),
        horizon=3,
        cost_ground=1.0,
        cost_air=3.0,
        trees={("A", "departure"): tree},
    )
    # weighted totals: 2*1+5=7, 2*1+1=3, 2*3+5=11, 2*3+1=7; scenario 2 wins
    assert best_capacity_profiles(inst) == {("A", "departure"): [3, 3, 5]}


def test_instance_validation_rejects_bad_data():
    good = flight("f1", "A", "B", 0, 1)
    with pytest.raises(ValueError):
        MaghpInstance(("A", "B"), (good,), (), 2, 3.0, 1.0)  # air < ground
    with pytest.raises(ValueError):
        MaghpInstance(("A", "B"), (good,), (), 2, 1.0, math.inf)
    with pytest.raises(ValueError):
        MaghpInstance(("A", "B"), (good, good), (), 2, 1.0, 3.0)
    with pytest.raises(ValueError):
        flight("f2", "A", "B", 3, 3)
    with pytest.raises(ValueError):
        MaghpInstance(
            ("A", "B"),
            (good, flight("f2", "A", "B", 0, 1)),
            (FlightConnection("f1", "f2", 0),),  # f2 departs from A, not B
            2,
            1.0,
            3.0,
        )
    with pytest.raises(ValueError):
        MaghpInstance(
            ("A", "B"),
            (good,),
            (),
            5,
            1.0,
            3.0,
            trees={("A", "departure"): single_stage_tree("A", "departure", 3, [(1, 1.0)])},
        )


def test_connection_cycle_rejected():
    """A rotation cycle always puts some successor before its aircraft."""
    with pytest.raises(ValueError):
        MaghpInstance(
            airports=("A", "B"),
            flights=(
                flight("f1", "A", "B", 0, 1),
                flight("f2", "B", "A", 2, 3),
            ),
            connections=(
                FlightConnection("f1", "f2", 0),
                FlightConnection("f2", "f1", 0),
            ),
            horizon=4,
            cost_ground=1.0,
            cost_air=3.0,
        )


def test_build_sp_requires_trees():
    inst = MaghpInstance(
        airports=("A",),
        flights=(flight("f1", "A", "X", 0, 1),),
        connections=(),
        horizon=2,
        cost_ground=1.0,
        cost_air=3.0,
    )
    with pytest.raises(MissingInputError):
        build_sp(inst)
    with pytest.raises(MissingInputError):
        build_dr(inst, 0.1)


def test_extract_policy_requires_optimal():
    from groundhold.maghp import SolveResult

    with pytest.raises(SolverError):
        extract_policy(SolveResult("infeasible", None, None))


def test_instance_file_round_trip(tmp_path):
    inst = two_airport_instance()
    path = tmp_path / "instance.json"
    save_instance(path, inst)
    loaded = load_instance(path)
    assert instance_to_dict(loaded) == instance_to_dict(inst)
    # overflow is priced at cost_air; a null cost_recourse still loads
    assert "cost_recourse" not in instance_to_dict(inst)
    older = dict(instance_to_dict(inst), cost_recourse=None)
    assert instance_to_dict(instance_from_dict(older)) == instance_to_dict(inst)
    original = solve(build_sp(inst)).objective
    reloaded = solve(build_sp(loaded)).objective
    assert reloaded == pytest.approx(original, abs=1e-9)


def test_loaders_read_whole_numbers_written_as_floats():
    """An interval, slack, horizon or slot written as 3.0 loads as the
    int 3; test_cli's malformed-input cases refuse 0.9, "2", 6.5, 6.7
    and true instead of truncating them."""
    inst = random_instance(0)
    assert inst.connections
    body = instance_to_dict(inst)
    floated = json.loads(json.dumps(body))
    floated["horizon"] = float(floated["horizon"])
    for f in floated["flights"]:
        f["sched_dep"], f["sched_arr"] = float(f["sched_dep"]), float(f["sched_arr"])
    for c in floated["connections"]:
        c["slack"] = float(c["slack"])
    assert json.dumps(instance_to_dict(instance_from_dict(floated))) == json.dumps(body)

    result = solve(build_sp(inst))
    body = result_to_dict(result, inst)
    floated = json.loads(json.dumps(body))
    for entry in floated["flights"].values():
        entry["u_slot"], entry["v_slot"] = float(entry["u_slot"]), float(entry["v_slot"])
    assert json.dumps(result_to_dict(result_from_dict(floated), inst)) == json.dumps(body)


def test_result_files_carry_no_second_stage_grid():
    """Result files hold the policy and duals only; an older file with a
    per-scenario "second_stage" grid or per-scenario "beta" duals still
    loads, the grid and the betas ignored."""
    inst = two_airport_instance()
    result = solve(build_dr(inst, 0.1))
    body = result_to_dict(result, inst)
    assert "second_stage" not in body
    assert set(body["duals"]) == {"alpha", "gamma"}
    older = dict(body, second_stage={"A/departure": [[0.0, 1.0], [0.0, 0.0]]})
    older["duals"] = dict(body["duals"], beta={"A/departure": [1.0, 2.0]})
    loaded = result_from_dict(older)
    assert loaded.policy == result.policy
    assert loaded.objective == result.objective
    assert loaded.duals == result.duals
    assert not hasattr(loaded, "second_stage")
    del older["duals"]["gamma"]
    loaded = result_from_dict(older)
    assert loaded.policy == result.policy
    assert loaded.duals == {"alpha": result.duals["alpha"]}
