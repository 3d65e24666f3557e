"""Model sizes and optima of det, sp and dr on fixed instances.

A reformulation that changes how many variables, rows or nonzeros a
model carries, or a regression that moves an optimum, fails here by
name. Update the pins only together with a change that means to move
them. stress_instance has no out-of-network endpoint; random_instance(0)
has three flights to EXT and two connections, so it also pins the
network-membership rules.
"""

import pytest

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
