"""Checks for the incremental model layer."""

import numpy as np
import pytest

from groundhold.solver import BINARY, LinearModel


def test_empty_model_is_trivially_optimal():
    solution = LinearModel().minimize()
    assert solution.ok
    assert solution.objective == 0.0


def test_small_lp():
    model = LinearModel()
    x = model.add_variable(objective=1.0)
    model.add_linear_constraint([(x, 1.0)], ">=", 3.0)
    solution = model.minimize()
    assert solution.ok
    assert solution.objective == pytest.approx(3.0)
    assert solution.values[x] == pytest.approx(3.0)


def test_equality_and_upper_bounds():
    model = LinearModel()
    x = model.add_variable(objective=2.0)
    y = model.add_variable(objective=1.0)
    model.add_linear_constraint([(x, 1.0)], "<=", 5.0)
    model.add_linear_constraint([(x, 1.0), (y, 1.0)], "=", 8.0)
    solution = model.minimize()
    assert solution.ok
    # everything lands on the cheap variable
    assert solution.values[y] == pytest.approx(8.0)
    assert solution.objective == pytest.approx(8.0)


def test_binary_assignment():
    """Pick exactly one slot per item, cheapest combination wins."""
    costs = np.array([[4.0, 1.0], [2.0, 9.0]])
    model = LinearModel()
    var = {}
    for i in range(2):
        for j in range(2):
            var[i, j] = model.add_variable(kind=BINARY, objective=costs[i, j])
    for i in range(2):
        model.add_linear_constraint([(var[i, j], 1.0) for j in range(2)], "=", 1.0)
    for j in range(2):
        model.add_linear_constraint([(var[i, j], 1.0) for i in range(2)], "=", 1.0)
    solution = model.minimize()
    assert solution.ok
    assert solution.objective == pytest.approx(3.0)
    assert solution.values[var[0, 1]] == pytest.approx(1.0)
    assert solution.values[var[1, 0]] == pytest.approx(1.0)


def test_infeasible_model_reports_status():
    model = LinearModel()
    x = model.add_variable()
    model.add_linear_constraint([(x, 1.0)], "<=", -1.0)
    solution = model.minimize()
    assert solution.status == "infeasible"
    assert not solution.ok


def test_free_variable_lower_bound():
    model = LinearModel()
    x = model.add_variable(objective=1.0, lower=-np.inf)
    model.add_linear_constraint([(x, 1.0)], ">=", -4.0)
    solution = model.minimize()
    assert solution.ok
    assert solution.objective == pytest.approx(-4.0)


def test_rejects_unknown_kind_and_sense():
    model = LinearModel()
    with pytest.raises(ValueError):
        model.add_variable(kind="integer")
    x = model.add_variable()
    with pytest.raises(ValueError):
        model.add_linear_constraint([(x, 1.0)], "<", 0.0)
    with pytest.raises(IndexError):
        model.add_linear_constraint([(99, 1.0)], "<=", 0.0)


def test_milp_carries_highs_telemetry():
    model = LinearModel()
    x = model.add_variable(kind=BINARY, objective=1.0)
    y = model.add_variable(kind=BINARY, objective=2.0)
    model.add_linear_constraint([(x, 1.0), (y, 1.0)], ">=", 1.0)
    solution = model.minimize()
    assert solution.ok
    assert solution.mip_gap == pytest.approx(0.0, abs=1e-6)
    assert solution.dual_bound == pytest.approx(1.0)
    assert isinstance(solution.node_count, int) and solution.node_count >= 0


def test_rows_added_after_a_solve_reach_the_solver():
    """minimize assembles the rows on every call, so rows and variables
    added after a solve are part of the next one."""
    model = LinearModel()
    x = model.add_variable(objective=5.0)
    y = model.add_variable(objective=2.0)
    model.add_linear_constraint([(x, 1.0), (y, 1.0)], ">=", 3.0)
    solution = model.minimize()
    assert solution.objective == pytest.approx(6.0)
    assert solution.values[y] == pytest.approx(3.0)
    model.add_linear_constraint([(y, 1.0)], "<=", 1.0)
    assert model.minimize().objective == pytest.approx(12.0)
    model.add_linear_constraint([(x, 1.0)], ">=", 2.5)
    assert model.minimize().objective == pytest.approx(13.5)
    z = model.add_variable(objective=1.0)
    model.add_linear_constraint([(z, 1.0)], ">=", 0.5)
    assert model.minimize().objective == pytest.approx(14.0)
