"""Every Wasserstein scenario pair holds at the robust optimum.

build_dr writes the dual per stage atom, with no row per scenario pair:
beta_i is the sum over stages of gamma[s, x_i^s], with gamma[s, a] =
max_b (G_s(b) - alpha * |a - b| / D) and D, the diameter, the unit of
distance. G_s is convex and non-increasing in the capacity b, so that
max sits at b = a or at the stage's smallest capacity, and the model
needs one premium row per capacity above the smallest. On a product
support the max over b covers every pair (i, j), so at the robust
optimum beta_i >= R_j - alpha * dist(i, j) must hold for all of them,
R_j the closed-form recourse. These tests rebuild each beta_i from the
reported gammas, which solve() takes in that closed form at the solved
alpha, and check that inequality directly, check the L1 distance matrix
it rests on, and check that solve() rejects a model whose premium rows,
the ones carrying alpha, are switched off.
"""

import numpy as np
import pytest
from test_model_size import _product_tree
from test_stagewise import _hand_written_instance

from fixtures import random_instance, stress_instance
from groundhold.errors import SolverError
from groundhold.maghp import (
    build_dr,
    extract_policy,
    overflow,
    solve,
)
from oracles import scenario_distance_matrix

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
    for key in instance.constrained_keys():
        tree = instance.trees[key]
        distances = scenario_distance_matrix(tree)
        alpha = result.duals["alpha"][key]
        gammas = [dict(stage) for stage in result.duals["gamma"][key]]
        betas = np.array(
            [sum(gamma[x] for gamma, x in zip(gammas, vector)) for vector in tree.vectors]
        )
        recourse = instance.recourse_cost * overflow(instance, policy, {key: tree.vectors})[key]
        slack = betas[:, None] - (recourse[None, :] - alpha * distances)
        assert slack.min() >= -1e-9, f"cell {key}"


def test_solve_rejects_pruning_that_drops_needed_rows():
    """solve() recomputes the robust objective per stage atom from the
    policy and alpha alone, so a model whose rows between two different
    capacities (the ones carrying alpha) are switched off keeps only
    gamma[s, a] >= G_s(a), understates the worst case and fails the
    objective check."""
    bundle = build_dr(stress_instance(), 0.1)
    alphas = set(bundle.alpha_index.values())
    model = bundle.model
    for row, col in zip(model._row_ids, model._cols):
        if col in alphas:
            model._row_lb[row] = -np.inf
    with pytest.raises(SolverError):
        solve(bundle)


@pytest.mark.parametrize("atoms,stages", [(1, 1), (3, 1), (2, 3), (3, 3), (4, 2)])
def test_distance_matrix_is_the_broadcast_l1(atoms, stages):
    """The stage-by-stage matrix equals the L1 distance of the whole
    vectors, and its scale D is the largest distance of the product."""
    rng = np.random.default_rng(atoms * 10 + stages)
    tree = _product_tree(("A", "departure"), 6, atoms, stages, rng)
    vectors = np.asarray(tree.vectors, dtype=float)
    broadcast = np.abs(vectors[:, None, :] - vectors[None, :, :]).sum(axis=2)
    diameter = broadcast.max()
    expected = broadcast / diameter if diameter > 0 else broadcast
    assert np.array_equal(scenario_distance_matrix(tree), expected)
