"""Checks for the incremental model layer."""

import numpy as np
import pytest

import groundhold.solver as solver
from groundhold.solver import BINARY, LinearModel


def _recording_milp(monkeypatch):
    """A list that gets the options of every groundhold.solver.milp
    call, with the call's integrality and bounds added."""
    calls = []
    milp = solver.milp

    def recording(*args, **kwargs):
        calls.append(
            {
                **kwargs["options"],
                "integrality": kwargs.get("integrality"),
                "bounds": kwargs["bounds"],
            }
        )
        return milp(*args, **kwargs)

    monkeypatch.setattr(solver, "milp", recording)
    return calls


def _knapsack():
    """Most value within weight 8: the relaxation takes a, c and a sixth
    of b (value 19.17); the integer optimum is a and c (value 17)."""
    model = LinearModel()
    items = [model.add_variable(kind=BINARY, objective=-value) for value in (10.0, 13.0, 7.0)]
    model.add_linear_constraint(list(zip(items, (4.0, 6.0, 3.0))), "<=", 8.0)
    return model, items


def _assignment():
    """Two items on two slots, one each: the assignment polytope has
    integral vertices, so the relaxation is the MILP's optimum."""
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
    return model, var


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
    model, var = _assignment()
    solution = model.minimize()
    assert solution.ok
    assert solution.objective == pytest.approx(3.0)
    assert solution.values[var[0, 1]] == pytest.approx(1.0)
    assert solution.values[var[1, 0]] == pytest.approx(1.0)


def test_integral_relaxation_is_returned_without_branching(monkeypatch):
    calls = _recording_milp(monkeypatch)
    model, var = _assignment()
    solution = model.minimize()
    assert [call["integrality"] for call in calls] == [None]
    assert solution.ok
    assert solution.node_count == 0
    assert solution.mip_gap == 0.0
    assert solution.dual_bound == solution.objective == pytest.approx(3.0)
    assert set(solution.values.tolist()) == {0.0, 1.0}


def test_fractional_relaxation_goes_to_branch_and_bound(monkeypatch):
    calls = _recording_milp(monkeypatch)
    model, items = _knapsack()
    solution = model.minimize()
    assert len(calls) == 2 and calls[1]["integrality"] is not None
    assert solution.ok
    assert solution.objective == pytest.approx(-17.0)
    assert solution.values[items] == pytest.approx([1.0, 0.0, 1.0])


def test_branch_and_bound_gets_what_the_relaxation_left(monkeypatch):
    calls = _recording_milp(monkeypatch)
    model, _ = _knapsack()
    assert model.minimize(time_limit=5.0).ok
    assert calls[0]["time_limit"] == 5.0
    assert 0.0 <= calls[1]["time_limit"] <= 5.0


def test_milp_infeasibility_is_reported_on_both_paths(monkeypatch):
    """A binary forced above 1 has no relaxation; two binaries that must
    be equal and sum to 1 relax to one half each, and only branch and
    bound finds that no integer point exists."""
    calls = _recording_milp(monkeypatch)
    model = LinearModel()
    x = model.add_variable(kind=BINARY)
    model.add_linear_constraint([(x, 1.0)], ">=", 2.0)
    assert model.minimize().status == "infeasible"
    assert len(calls) == 1

    model = LinearModel()
    x = model.add_variable(kind=BINARY, objective=1.0)
    y = model.add_variable(kind=BINARY, objective=1.0)
    model.add_linear_constraint([(x, 1.0), (y, 1.0)], "=", 1.0)
    model.add_linear_constraint([(x, 1.0), (y, -1.0)], "=", 0.0)
    solution = model.minimize()
    assert solution.status == "infeasible"
    assert not solution.ok
    assert len(calls) == 3


def test_infeasible_model_reports_status():
    model = LinearModel()
    x = model.add_variable()
    model.add_linear_constraint([(x, 1.0)], "<=", -1.0)
    solution = model.minimize()
    assert solution.status == "infeasible"
    assert not solution.ok


def test_rejects_unknown_kind_and_sense():
    model = LinearModel()
    with pytest.raises(ValueError):
        model.add_variable(kind="integer")
    x = model.add_variable()
    with pytest.raises(ValueError):
        model.add_linear_constraint([(x, 1.0)], "<", 0.0)


@pytest.mark.parametrize("variables, index", [(1, 99), (1, -1), (0, 0)])
def test_bad_index_is_refused_at_minimize(monkeypatch, variables, index):
    """add_linear_constraint takes any index; the sparse assembly in
    minimize refuses one outside the model before HiGHS is called, in a
    model without variables too."""
    calls = _recording_milp(monkeypatch)
    model = LinearModel()
    for _ in range(variables):
        model.add_variable(objective=1.0)
    model.add_linear_constraint([(index, 1.0)], "<=", 0.0)
    # scipy 1.10 names the axis ("column index exceeds matrix
    # dimensions"), later releases the index itself
    with pytest.raises(ValueError, match=rf"index:? {index}\b|column index"):
        model.minimize()
    assert calls == []


def test_bounds_follow_from_the_variable_kind(monkeypatch):
    """Every variable is at least 0; HiGHS gets 0/1 for a binary and
    0/inf for a continuous variable, on both solves."""
    calls = _recording_milp(monkeypatch)
    model, _ = _knapsack()
    z = model.add_variable(objective=1.0)
    model.add_linear_constraint([(z, 1.0)], ">=", -4.0)
    solution = model.minimize()
    assert solution.ok and solution.values[z] == 0.0
    bounds = [(call["bounds"].lb.tolist(), call["bounds"].ub.tolist()) for call in calls]
    assert bounds == [([0.0] * 4, [1.0, 1.0, 1.0, np.inf])] * 2


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
