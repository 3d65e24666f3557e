"""The robust model keeps only the undominated Wasserstein pair rows.

build_dr drops pair row (i, j) when a scenario k with x_k <= x_j in
every stage and dist(i, k) <= dist(i, j) already covers it. The
argument is that the closed-form recourse R_j does not increase with
capacity, so at the robust optimum every pair, dropped ones included,
must still satisfy beta_i >= R_j - alpha * dist(i, j). These tests
check that inequality directly, pin the kept count on product trees
and the tie rule, and check that solve() rejects a model whose pruning
drops a needed row.
"""

import itertools

import numpy as np
import pytest
from test_stagewise import _hand_written_instance

from groundhold import maghp
from groundhold.errors import SolverError
from groundhold.fixtures import random_instance, stress_instance
from groundhold.maghp import (
    build_dr,
    extract_policy,
    kept_pairs,
    overflow,
    scenario_distance_matrix,
    solve,
)
from groundhold.pmf import make_pmf
from groundhold.scenario import ReducedPmf, ScenarioTree, TimeClustering

CASES = {f"random-{seed}": (random_instance, seed) for seed in range(20)}
CASES.update(
    {f"hand-written-{seed}": (_hand_written_instance, seed) for seed in (50, 51)}
)


@pytest.mark.parametrize("radius", (0.05, 0.3))
@pytest.mark.parametrize("case", sorted(CASES))
def test_every_pair_holds_at_the_dr_optimum(case, radius):
    make, seed = CASES[case]
    instance = make(seed)
    bundle = build_dr(instance, radius)
    result = solve(bundle)
    policy = extract_policy(result)
    dropped = 0
    for key in instance.constrained_keys():
        tree = instance.trees[key]
        distances = scenario_distance_matrix(tree)
        alpha = result.duals["alpha"][key]
        betas = np.array(result.duals["beta"][key])
        recourse = instance.recourse_cost * overflow(instance, policy, {key: tree.vectors})[key]
        slack = betas[:, None] - (recourse[None, :] - alpha * distances)
        assert slack.min() >= -1e-9, f"cell {key}"
        dropped += int((~kept_pairs(tree, distances)).sum())
    assert dropped > 0


def _product_tree(atoms_per_stage, stages, rng):
    """A tree with one interval per stage and distinct, unevenly spaced
    atoms in every stage; scenarios are the full product."""
    stage_atoms = [
        sorted(rng.choice(np.arange(20), size=atoms_per_stage, replace=False).tolist())
        for _ in range(stages)
    ]
    probs = [1.0 / atoms_per_stage] * atoms_per_stage
    clustering = TimeClustering(
        boundaries=tuple(range(stages - 1)),
        segments=tuple((t,) for t in range(stages)),
        representatives=tuple(make_pmf(atoms, probs) for atoms in stage_atoms),
    )
    pmfs = tuple(ReducedPmf(tuple((a, p) for a, p in zip(atoms, probs))) for atoms in stage_atoms)
    scenarios = tuple(
        (vector, 1.0 / atoms_per_stage**stages)
        for vector in itertools.product(*stage_atoms)
    )
    return ScenarioTree("A", "departure", pmfs, clustering, scenarios)


@pytest.mark.parametrize("atoms,stages", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2), (4, 2), (3, 3)])
def test_product_tree_keeps_triangular_pair_count(atoms, stages):
    tree = _product_tree(atoms, stages, np.random.default_rng(atoms * 10 + stages))
    keep = kept_pairs(tree, scenario_distance_matrix(tree))
    assert int(keep.sum()) == (atoms * (atoms + 1) // 2) ** stages


def test_tied_vectors_are_covered_by_the_lowest_index():
    clustering = TimeClustering((), ((0,),), (make_pmf([2, 5], [0.5, 0.5]),))
    stage = ReducedPmf(((2, 0.25), (2, 0.25), (5, 0.5)))
    scenarios = (((2,), 0.25), ((2,), 0.25), ((5,), 0.5))
    tree = ScenarioTree("A", "departure", (stage,), clustering, scenarios)
    keep = kept_pairs(tree, scenario_distance_matrix(tree))
    # column 1 ties with column 0, which covers it from the lower index;
    # capacity 5 is covered by capacity 2 unless 5 is nearer to i
    assert keep.tolist() == [
        [True, False, False],
        [True, False, False],
        [True, False, True],
    ]


def test_solve_rejects_pruning_that_drops_needed_rows(monkeypatch):
    """solve() recomputes the robust objective as a max over every pair,
    so a model that keeps only the diagonal pair rows understates the
    worst case and fails the objective check."""
    monkeypatch.setattr(
        maghp, "kept_pairs", lambda tree, distances: np.eye(len(distances), dtype=bool)
    )
    with pytest.raises(SolverError):
        solve(build_dr(stress_instance(), 0.1))

