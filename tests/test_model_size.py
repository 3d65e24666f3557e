"""Model sizes and optima of det, sp and dr on fixed instances.

A reformulation that changes how many variables, rows or nonzeros a
model carries, or a regression that moves an optimum, fails here by
name. Update the pins only together with a change that means to move
them. stress_instance has no out-of-network endpoint; random_instance(0)
has three flights to EXT and two connections, so it also pins the
network-membership rules.
"""

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

import groundhold.solver as solver
from groundhold.fixtures import random_instance, stress_instance
from groundhold.maghp import best_capacity_profiles, build_det, build_dr, build_sp, solve

INSTANCES = {
    "stress_instance()": stress_instance,
    "random_instance(0)": lambda: random_instance(0),
}

# (instance, kind): (variables, rows, nonzeros, objective)
PINS = {
    ("stress_instance()", "det"): (492, 148, 1374, 0.0),
    ("stress_instance()", "sp"): (528, 162, 1590, 30.9875),
    ("stress_instance()", "dr"): (582, 240, 1848, 31.781171082873254),
    ("random_instance(0)", "det"): (162, 64, 444, 0.0),
    ("random_instance(0)", "sp"): (175, 51, 454, 0.0),
    ("random_instance(0)", "dr"): (208, 92, 570, 0.0),
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


def _handed_to_highs(model, monkeypatch):
    """The arrays minimize() passes to milp, captured without solving."""
    seen = {}

    def capture(c, constraints, integrality, bounds, options):
        (rows,) = constraints
        seen.update(
            c=c, indptr=rows.A.indptr, indices=rows.A.indices, data=rows.A.data,
            row_lb=rows.lb, row_ub=rows.ub, integrality=integrality,
            lower=bounds.lb, upper=bounds.ub,
        )
        return OptimizeResult(status=2, x=None, fun=None)

    with monkeypatch.context() as patch:
        patch.setattr(solver, "milp", capture)
        model.minimize()
    return seen


def _add_rows_one_by_one(model, rows, cols, vals, lb, ub):
    terms = [[] for _ in lb]
    for row, col, val in zip(rows, cols, vals):
        terms[row].append((col, val))
    for row_terms, lo, hi in zip(terms, lb, ub):
        if lo == hi:
            model.add_linear_constraint(row_terms, "=", lo)
        elif hi == np.inf:
            model.add_linear_constraint(row_terms, ">=", lo)
        else:
            assert lo == -np.inf
            model.add_linear_constraint(row_terms, "<=", hi)


@pytest.mark.parametrize(
    "make",
    [stress_instance] + [lambda seed=seed: random_instance(seed) for seed in range(5)],
    ids=["stress"] + [f"random{seed}" for seed in range(5)],
)
def test_bulk_rows_hand_highs_the_per_row_model(make, monkeypatch):
    """build_dr's bulk add_rows calls give HiGHS the same matrix, bounds
    and objective as adding each of those rows on its own."""
    instance = make()
    bulk = _handed_to_highs(build_dr(instance, 0.1).model, monkeypatch)
    monkeypatch.setattr(solver.LinearModel, "add_rows", _add_rows_one_by_one)
    by_row = _handed_to_highs(build_dr(instance, 0.1).model, monkeypatch)
    assert bulk.keys() == by_row.keys()
    for name in bulk:
        assert np.array_equal(bulk[name], by_row[name]), name
