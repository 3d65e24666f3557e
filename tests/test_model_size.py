"""Model sizes and optima of det, sp and dr on fixed instances.

A reformulation that changes how many variables, rows or nonzeros a
model carries, or a regression that moves an optimum, fails here by
name. Update the pins only together with a change that means to move
them. stress_instance has no out-of-network endpoint; random_instance(0)
has three flights to EXT and two connections, so it also pins the
network-membership rules. The stress day's sp and dr relaxations are
integral, which a looser first stage would lose. On product trees of
growing size, dr's model must be sp's plus one multiplier per cell and
one premium and one row per stage capacity above the stage's smallest,
however many scenarios the tree has; on the fixtures and the
benchmark's network day, sp's variables and rows must open dr's model
unchanged. The premium row needs no pair of capacities: at fixed slots
the overflow G_s(b) is convex and non-increasing in the capacity b, so
the worst capacity seen from a, at distance |a - b| / D with the
diameter D still the unit of distance, is a itself or the stage's
smallest.
"""

import itertools
from collections import Counter
from functools import partial

import numpy as np
import pytest

from fixtures import network_day, random_instance, stress_instance
from groundhold.maghp import (
    best_capacity_profiles,
    build_det,
    build_dr,
    build_sp,
    solve,
)
from groundhold.pmf import make_pmf
from groundhold.scenario import ReducedPmf, ScenarioTree, TimeClustering

INSTANCES = {
    "stress_instance()": stress_instance,
    "random_instance(0)": lambda: random_instance(0),
}

# (instance, kind): (variables, rows, nonzeros, objective)
PINS = {
    ("stress_instance()", "det"): (804, 670, 2130, 0.0),
    ("stress_instance()", "sp"): (840, 684, 2346, 30.9875),
    ("stress_instance()", "dr"): (858, 696, 2406, 31.926785714285714),
    ("random_instance(0)", "det"): (270, 247, 715, 0.0),
    ("random_instance(0)", "sp"): (283, 234, 725, 0.0),
    ("random_instance(0)", "dr"): (295, 241, 752, 0.0),
}


def _case_id(case):
    name, kind = case
    return kind if name == "stress_instance()" else f"{name}-{kind}"


@pytest.fixture(scope="module")
def bundles():
    built = {}
    for name, make in INSTANCES.items():
        instance = make()
        built[name, "det"] = build_det(instance, best_capacity_profiles(instance))
        built[name, "sp"] = build_sp(instance)
        built[name, "dr"] = build_dr(instance, 0.1)
    return built


@pytest.mark.parametrize("case", sorted(PINS), ids=_case_id)
def test_model_size_and_objective_are_pinned(bundles, case):
    variables, rows, nonzeros, objective = PINS[case]
    model = bundles[case].model
    assert (model.num_variables, model.num_constraints, model.num_nonzeros) == (
        variables,
        rows,
        nonzeros,
    )
    assert solve(bundles[case]).objective == pytest.approx(objective, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("kind", ["sp", "dr"])
def test_stress_relaxation_is_integral(bundles, kind):
    """The wait rows make the stress day's sp and dr relaxations
    integral, so both solve without a branch and bound node."""
    solution = bundles["stress_instance()", kind].model.minimize()
    assert solution.ok
    assert solution.node_count == 0


def _product_tree(key, horizon, atoms, stages, rng):
    """A tree on the product of stages stages of atoms distinct
    capacities each, the segments cut at random points of the horizon
    and the joint probabilities drawn at random."""
    cuts = sorted(rng.choice(np.arange(horizon - 1), size=stages - 1, replace=False).tolist())
    bounds = [0] + [c + 1 for c in cuts] + [horizon]
    supports = [
        sorted(rng.choice(np.arange(12), size=atoms, replace=False).tolist())
        for _ in range(stages)
    ]
    probs = [1.0 / atoms] * atoms
    clustering = TimeClustering(
        boundaries=tuple(cuts),
        segments=tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:])),
        representatives=tuple(make_pmf(s, probs) for s in supports),
    )
    weights = rng.dirichlet(np.ones(atoms**stages))
    scenarios = tuple(
        (vector, float(w)) for vector, w in zip(itertools.product(*supports), weights)
    )
    pmfs = tuple(ReducedPmf(tuple(zip(s, probs))) for s in supports)
    return ScenarioTree(*key, pmfs, clustering, scenarios)


@pytest.mark.parametrize("atoms,stages", [(3, 3), (4, 3), (4, 4)])
def test_dr_rows_count_stage_atoms_not_scenarios(atoms, stages):
    """Per cell, dr carries sp's model plus one multiplier and, per
    stage, one premium variable and one row per capacity above the
    smallest: 1 + sum_s (k_s - 1) variables and sum_s (k_s - 1) rows,
    however many scenarios the product tree has (27, 64 and 256 here)."""
    instance = stress_instance()
    rng = np.random.default_rng(atoms * 10 + stages)
    instance.trees = {
        key: _product_tree(key, instance.horizon, atoms, stages, rng)
        for key in instance.constrained_keys()
    }
    assert {t.num_scenarios for t in instance.trees.values()} == {atoms**stages}
    premiums = sum(
        len(capacities) - 1
        for tree in instance.trees.values()
        for capacities in tree.stage_capacities
    )
    assert premiums == len(instance.trees) * stages * (atoms - 1)
    dr, sp = build_dr(instance, 0.1).model, build_sp(instance).model
    assert dr.num_variables - sp.num_variables == len(instance.trees) + premiums
    assert dr.num_constraints - sp.num_constraints == premiums


EXTENDED = {"stress_instance()": stress_instance, "network_day(0)": partial(network_day, 0)}
EXTENDED.update({f"random_instance({seed})": partial(random_instance, seed) for seed in range(5)})


@pytest.mark.parametrize("name", sorted(EXTENDED))
def test_dr_is_sp_plus_premium_rows(name):
    """dr's first variables and rows are sp's, objective weights,
    integrality (and so bounds) and every coefficient alike; each row
    after them carries one cell's multiplier, sum_s (k_s - 1) rows per
    cell."""
    instance = EXTENDED[name]()
    sp, bundle = build_sp(instance).model, build_dr(instance, 0.1)
    dr = bundle.model
    n, m, nnz = sp.num_variables, sp.num_constraints, sp.num_nonzeros
    for attr in ("_objective", "_integrality"):
        assert getattr(dr, attr)[:n] == getattr(sp, attr), attr
    for attr in ("_row_lb", "_row_ub"):
        assert getattr(dr, attr)[:m] == getattr(sp, attr), attr
    for attr in ("_row_ids", "_cols", "_vals"):
        assert getattr(dr, attr)[:nnz] == getattr(sp, attr), attr
    assert min(dr._row_ids[nnz:], default=m) == m
    cell_of = {var: key for key, var in bundle.alpha_index.items()}
    rows = Counter(cell_of[col] for col in dr._cols[nnz:] if col in cell_of)
    assert sum(rows.values()) == dr.num_constraints - m
    assert rows == {
        key: sum(len(atoms) - 1 for atoms in instance.trees[key].stage_capacities)
        for key in instance.constrained_keys()
    }
