"""Stagewise sp and dr against the scenario-enumerating oracle.

Each instance is solved by the library's stage-atom builders and by the
extensive forms in oracles.py, and the objectives must agree. Besides,
the scenario-by-scenario expected recourse must equal the stage-atom
form the stochastic model optimizes, the robust objective must equal
the first stage plus the worst case found by the transportation LP at
every positive radius, and the robust model at radius 0 must collapse
to the stochastic one. The per-stage recourse that solve() checks
objectives against must equal the sum over every scenario and the max
over every scenario pair, and solve() must reject an sp model whose
overflow is mispriced.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from test_model_size import _joint_marginals, _product_tree

from fixtures import network_day, random_instance, stress_instance
from groundhold.errors import SolverError
from groundhold.maghp import (
    _stage_gammas,
    _stage_recourse,
    assigned_counts,
    best_capacity_profiles,
    build_dr,
    build_sp,
    extract_policy,
    first_stage_cost,
    load_instance,
    save_instance,
    solve,
    support_worst_case,
)
from groundhold.scenario import ReducedPmf, ScenarioTree, _product
from oracles import (
    enumerated_dr,
    enumerated_sp,
    expected_recourse_cost,
    inner_worst_case,
    pair_regret,
    scanned_best_capacity_profiles,
    scanned_support_worst_case,
)

RADII = (0.0, 0.05, 0.3, 1.0)
TOL = 1e-6


def _hand_written(tree: ScenarioTree, rng) -> ScenarioTree:
    """The tree built in code with a joint of its own: the first stage's
    atoms collide on one capacity, the scenario probabilities are drawn
    at random, no longer products of stage probabilities, and the stage
    atoms carry their marginals."""
    first, *rest = tree.stage_pmfs
    supports = [(first.supports[0],) * len(first), *(stage.supports for stage in rest)]
    weights = rng.dirichlet(np.ones(tree.num_scenarios))
    scenarios = tuple(zip(itertools.product(*supports), weights.tolist()))
    stages = _joint_marginals(supports, weights)
    return ScenarioTree(tree.airport, tree.op_type, stages, tree.time_clusters, scenarios)


def _hand_written_instance(seed):
    instance = random_instance(seed)
    rng = np.random.default_rng(seed)
    instance.trees = {
        key: _hand_written(tree, rng) for key, tree in sorted(instance.trees.items())
    }
    return instance


CASES = {f"random-{seed}": (random_instance, seed) for seed in range(20)}
CASES["stress"] = (lambda _: stress_instance(), None)
CASES.update(
    {f"hand-written-{seed}": (_hand_written_instance, seed) for seed in (50, 51)}
)


def _gap(value, reference):
    return abs(value - reference) / max(1.0, abs(reference))


def _stagewise_recourse(policy, instance):
    """Expected recourse in the stage-atom form build_sp optimizes: per
    interval, the overflow above each capacity of its stage at that
    capacity's probability."""
    counts = assigned_counts(instance, policy)
    total = 0.0
    for key, tree in sorted(instance.trees.items()):
        stages = zip(tree.time_clusters.segments, tree.stage_capacities)
        for segment, atoms in stages:
            for t in segment:
                total += math.fsum(
                    prob * max(counts[key][t] - capacity, 0.0)
                    for capacity, prob in atoms.items()
                )
    return instance.recourse_cost * total


@pytest.mark.parametrize("case", sorted(CASES))
def test_stagewise_models_match_enumeration(case):
    make, seed = CASES[case]
    instance = make(seed)
    sp = solve(build_sp(instance))
    assert _gap(sp.objective, solve(enumerated_sp(instance)).objective) <= TOL
    policy = extract_policy(sp)
    stagewise = _stagewise_recourse(policy, instance)
    assert _gap(expected_recourse_cost(policy, instance), stagewise) <= 1e-12

    for epsilon in RADII:
        dr = solve(build_dr(instance, epsilon))
        oracle = solve(enumerated_dr(instance, epsilon))
        assert _gap(dr.objective, oracle.objective) <= TOL, f"radius {epsilon}"

        if epsilon == 0.0:
            assert _gap(dr.objective, sp.objective) <= TOL
            continue
        policy = extract_policy(dr)
        worst = first_stage_cost(instance, policy) + sum(
            inner_worst_case(policy, instance, instance.trees[key], epsilon)
            for key in instance.constrained_keys()
        )
        assert _gap(dr.objective, worst) <= TOL, f"radius {epsilon}"


def _product_instance(atoms, stages):
    """random_instance(7) with every tree a product of stages stages of
    atoms capacities each; one atom per stage makes the diameter D 0."""
    instance = random_instance(7)
    rng = np.random.default_rng(atoms * 10 + stages)
    instance.trees = {
        key: _product_tree(key, instance.horizon, atoms, stages, rng)
        for key in sorted(instance.trees)
    }
    return instance


RECOURSE_CASES = {
    **CASES,
    **{
        f"product-{atoms}x{stages}": (lambda shape: _product_instance(*shape), (atoms, stages))
        for atoms, stages in ((1, 1), (1, 4), (2, 3), (3, 2))
    },
}


@pytest.mark.parametrize("case", sorted(RECOURSE_CASES))
def test_stage_recourse_matches_scenario_and_pair_oracles(case):
    """The per-stage recourse equals the scenario-weighted sum and, at
    every alpha, the max over every scenario pair, for sp's policy and
    dr's at three radii. The alphas are fixed ones, 0 among them, and
    the solved ones; radius 5 lies past saturation, where alpha is 0."""
    make, seed = RECOURSE_CASES[case]
    instance = make(seed)
    policies = [extract_policy(solve(build_sp(instance)))]
    alphas = [0.0, 0.5, 4.0]
    for epsilon in (0.05, 0.3, 5.0):
        dr = solve(build_dr(instance, epsilon))
        policies.append(extract_policy(dr))
        alphas.extend(dr.duals["alpha"].values())
    for policy in policies:
        expected = _stage_recourse(_stage_gammas(instance, policy))
        total = math.fsum(expected.values())
        assert _gap(total, expected_recourse_cost(policy, instance)) <= 1e-12
        for alpha in alphas:
            gammas = _stage_gammas(instance, policy, dict.fromkeys(expected, alpha))
            worst = _stage_recourse(gammas)
            for key, value in worst.items():
                pairs = pair_regret(policy, instance, key, alpha)
                assert _gap(value, pairs) <= 1e-12, f"cell {key}, alpha {alpha}"


def test_solve_rejects_mispriced_overflow():
    """solve() recomputes the sp objective per stage atom from the policy
    alone, so a model whose overflow variables cost half their price
    understates the recourse and fails the objective check."""
    instance = stress_instance()
    bundle = build_sp(instance)
    first_overflow = min(var for z in bundle.z_index.values() for var in z.values())
    objective = np.concatenate(bundle.model._objective)
    objective[first_overflow:] *= 0.5
    bundle.model._objective = [objective]
    with pytest.raises(SolverError):
        solve(bundle)


def test_stage_capacities_merge_colliding_atoms():
    """Atoms that collide on one capacity merge into it with their
    summed probability, the capacities in ascending order whatever the
    order of the atoms."""
    tree = stress_instance().trees["C", "arrival"]
    collided = ReducedPmf(((4, 0.25), (2, 0.125), (7, 0.0625), (4, 0.5), (2, 0.0625)))
    stages = (collided, *tree.stage_pmfs[1:])
    merged = replace(tree, stage_pmfs=stages, scenarios=_product(stages))
    first, *rest = merged.stage_capacities
    assert list(first.items()) == [(2, 0.1875), (4, 0.75), (7, 0.0625)]
    assert rest == list(tree.stage_capacities[1:])


def test_sp_prices_a_tree_by_its_stage_atoms_in_memory_and_from_a_file(tmp_path):
    """A tree whose stage atoms change under dataclasses.replace keeps
    its old scenario list; sp prices it by the new atoms, as it prices
    the tree its instance file gives back, whose scenarios are their
    product."""
    instance = stress_instance()
    tree = instance.trees["A", "departure"]
    first, *rest = tree.stage_pmfs
    swapped = ReducedPmf(tuple(zip(first.supports, first.probabilities[::-1])))
    instance.trees["A", "departure"] = replace(tree, stage_pmfs=(swapped, *rest))
    save_instance(tmp_path / "instance.json", instance)
    in_memory = solve(build_sp(instance)).objective
    assert solve(build_sp(load_instance(tmp_path / "instance.json"))).objective == in_memory
    assert in_memory == pytest.approx(31.075, rel=1e-9)


EXTREME_CASES = {**CASES, **{f"network-day-{seed}": (network_day, seed) for seed in range(4)}}


@pytest.mark.parametrize("case", sorted(EXTREME_CASES))
def test_stage_extremes_match_the_scenario_scans(case):
    """The det profiles read each stage's largest capacity and the
    support worst case each stage's smallest; on a product support both
    equal the scans over every scenario, with sp's and dr's policies."""
    make, seed = EXTREME_CASES[case]
    instance = make(seed)
    assert best_capacity_profiles(instance) == scanned_best_capacity_profiles(instance)
    for bundle in (build_sp(instance), build_dr(instance, 0.1)):
        policy = extract_policy(solve(bundle))
        assert support_worst_case(policy, instance) == scanned_support_worst_case(
            policy, instance
        )
