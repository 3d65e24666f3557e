"""Model sizes and optima of det, sp and dr on the stress fixture.

A reformulation that changes how many variables, rows or nonzeros a
model carries, or a regression that moves an optimum, fails here by
name. Update the pins only together with a change that means to move
them.
"""

import pytest

from groundhold.fixtures import stress_instance
from groundhold.maghp import best_capacity_profiles, build_det, build_dr, build_sp, solve

# kind: (variables, rows, nonzeros, objective)
PINS = {
    "det": (492, 148, 1374, 0.0),
    "sp": (528, 162, 1590, 30.9875),
    "dr": (582, 282, 1974, 31.781171082873254),
}


@pytest.fixture(scope="module")
def bundles():
    instance = stress_instance()
    return {
        "det": build_det(instance, best_capacity_profiles(instance)),
        "sp": build_sp(instance),
        "dr": build_dr(instance, 0.1),
    }


@pytest.mark.parametrize("kind", sorted(PINS))
def test_model_size_and_objective_are_pinned(bundles, kind):
    variables, rows, nonzeros, objective = PINS[kind]
    model = bundles[kind].model
    assert (model.num_variables, model.num_constraints, model.num_nonzeros) == (
        variables,
        rows,
        nonzeros,
    )
    assert solve(bundles[kind]).objective == pytest.approx(objective, rel=1e-9, abs=1e-9)
