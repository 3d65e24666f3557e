"""Checks for the incremental model layer."""

import numpy as np
import pytest

import groundhold.solver as solver
from groundhold.solver import LinearModel
from oracles import add_row


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
    items = [model.add_variables([-value], True) for value in (10.0, 13.0, 7.0)]
    add_row(model, list(zip(items, (4.0, 6.0, 3.0))), "<=", 8.0)
    return model, items


def _assignment():
    """Two items on two slots, one each: the assignment polytope has
    integral vertices, so the relaxation is the MILP's optimum."""
    costs = np.array([[4.0, 1.0], [2.0, 9.0]])
    model = LinearModel()
    var = {}
    for i in range(2):
        for j in range(2):
            var[i, j] = model.add_variables([costs[i, j]], True)
    for i in range(2):
        add_row(model, [(var[i, j], 1.0) for j in range(2)], "=", 1.0)
    for j in range(2):
        add_row(model, [(var[i, j], 1.0) for i in range(2)], "=", 1.0)
    return model, var


def test_empty_model_is_trivially_optimal():
    solution = LinearModel().minimize()
    assert solution.status == "optimal"
    assert solution.objective == 0.0


def test_small_lp():
    model = LinearModel()
    x = model.add_variables([1.0])
    add_row(model, [(x, 1.0)], ">=", 3.0)
    solution = model.minimize()
    assert solution.status == "optimal"
    assert solution.objective == pytest.approx(3.0)
    assert solution.values[x] == pytest.approx(3.0)


def test_equality_and_upper_bounds():
    model = LinearModel()
    x = model.add_variables([2.0])
    y = model.add_variables([1.0])
    add_row(model, [(x, 1.0)], "<=", 5.0)
    add_row(model, [(x, 1.0), (y, 1.0)], "=", 8.0)
    solution = model.minimize()
    assert solution.status == "optimal"
    # everything lands on the cheap variable
    assert solution.values[y] == pytest.approx(8.0)
    assert solution.objective == pytest.approx(8.0)


def test_binary_assignment():
    """Pick exactly one slot per item, cheapest combination wins."""
    model, var = _assignment()
    solution = model.minimize()
    assert solution.status == "optimal"
    assert solution.objective == pytest.approx(3.0)
    assert solution.values[var[0, 1]] == pytest.approx(1.0)
    assert solution.values[var[1, 0]] == pytest.approx(1.0)


def test_integral_relaxation_is_returned_without_branching(monkeypatch):
    calls = _recording_milp(monkeypatch)
    model, var = _assignment()
    solution = model.minimize()
    assert [call["integrality"] for call in calls] == [None]
    assert solution.status == "optimal"
    assert solution.node_count == 0
    assert solution.mip_gap == 0.0
    assert solution.dual_bound == solution.objective == pytest.approx(3.0)
    assert set(solution.values.tolist()) == {0.0, 1.0}


def test_fractional_relaxation_goes_to_branch_and_bound(monkeypatch):
    calls = _recording_milp(monkeypatch)
    model, items = _knapsack()
    solution = model.minimize()
    assert len(calls) == 2 and calls[1]["integrality"] is not None
    assert solution.status == "optimal"
    assert solution.objective == pytest.approx(-17.0)
    assert solution.values[items] == pytest.approx([1.0, 0.0, 1.0])


def test_branch_and_bound_gets_what_the_relaxation_left(monkeypatch):
    calls = _recording_milp(monkeypatch)
    model, _ = _knapsack()
    assert model.minimize(time_limit=5.0).status == "optimal"
    assert calls[0]["time_limit"] == 5.0
    assert 0.0 <= calls[1]["time_limit"] <= 5.0


def test_milp_infeasibility_is_reported_on_both_paths(monkeypatch):
    """A binary forced above 1 has no relaxation; two binaries that must
    be equal and sum to 1 relax to one half each, and only branch and
    bound finds that no integer point exists."""
    calls = _recording_milp(monkeypatch)
    model = LinearModel()
    x = model.add_variables([0.0], True)
    add_row(model, [(x, 1.0)], ">=", 2.0)
    assert model.minimize().status == "infeasible"
    assert len(calls) == 1

    model = LinearModel()
    x = model.add_variables([1.0], True)
    y = model.add_variables([1.0], True)
    add_row(model, [(x, 1.0), (y, 1.0)], "=", 1.0)
    add_row(model, [(x, 1.0), (y, -1.0)], "=", 0.0)
    solution = model.minimize()
    assert solution.status == "infeasible"
    assert solution.status != "optimal"
    assert len(calls) == 3


def test_infeasible_model_reports_status():
    model = LinearModel()
    x = model.add_variables([0.0])
    add_row(model, [(x, 1.0)], "<=", -1.0)
    solution = model.minimize()
    assert solution.status == "infeasible"
    assert solution.status != "optimal"


@pytest.mark.parametrize("variables, index", [(1, 99), (1, -1), (0, 0)])
def test_bad_index_is_refused_at_minimize(monkeypatch, variables, index):
    """add_rows takes any index; minimize and feasible refuse one
    outside the model, before HiGHS is called, in a model without
    variables too."""
    calls = _recording_milp(monkeypatch)
    model = LinearModel()
    for _ in range(variables):
        model.add_variables([1.0])
    add_row(model, [(index, 1.0)], "<=", 0.0)
    with pytest.raises(ValueError, match=rf"column index {index}\b"):
        model.minimize()
    with pytest.raises(ValueError, match=rf"column index {index}\b"):
        model.feasible(np.zeros(variables))
    assert calls == []


def _model_with_row(lower, upper):
    """One binary x and one continuous y under lower <= x + 2y <= upper."""
    model = LinearModel()
    x = model.add_variables([1.0], True)
    y = model.add_variables([1.0])
    add_row(model, [(x, 1.0), (y, 2.0)], ">=", lower)
    add_row(model, [(x, 1.0), (y, 2.0)], "<=", upper)
    return model


def test_a_row_at_its_bound_holds():
    model = _model_with_row(1.0, 3.0)
    assert model.feasible([1.0, 1.0])
    assert model.feasible([1.0, 0.0])
    assert model.feasible([0.0, 0.5])


def test_a_row_past_its_bound_fails():
    """By one unit in the last place, on either side: no tolerance."""
    model = _model_with_row(1.0, 3.0)
    assert not model.feasible([1.0, np.nextafter(1.0, 2.0)])
    assert not model.feasible([0.0, np.nextafter(0.5, 0.0)])
    assert not model.feasible([1.0, 1.5])


def test_a_binary_off_0_and_1_fails():
    model = _model_with_row(-10.0, 10.0)
    assert not model.feasible([2.0, 0.0])
    assert not model.feasible([0.5, 0.0])


def test_a_negative_or_infinite_variable_fails():
    model = _model_with_row(-10.0, 10.0)
    assert not model.feasible([0.0, -1.0])
    assert not model.feasible([0.0, -0.5])
    assert not model.feasible([0.0, np.inf])
    assert not model.feasible([0.0, np.nan])


def test_an_empty_model_holds_its_empty_point():
    assert LinearModel().feasible(np.zeros(0))


def test_a_point_of_the_wrong_length_is_refused():
    with pytest.raises(ValueError, match="need 2 values"):
        _model_with_row(0.0, 1.0).feasible([0.0])


def test_a_block_added_after_a_check_is_seen_by_the_next_call(monkeypatch):
    """feasible and minimize share the joined blocks; adding variables or
    rows after a call joins them again, with the new column check."""
    model = _model_with_row(0.0, 3.0)
    assert model.feasible([1.0, 1.0])
    add_row(model, [(1, 1.0)], "<=", 0.5)
    assert not model.feasible([1.0, 1.0])
    z = model.add_variables([-1.0], True)
    add_row(model, [(z, 1.0)], "<=", 0.0)
    assert model.feasible([1.0, 0.0, 0.0])
    assert model.minimize().objective == 0.0
    add_row(model, [(3, 1.0)], "<=", 0.0)
    calls = _recording_milp(monkeypatch)
    with pytest.raises(ValueError, match=r"column index 3\b"):
        model.feasible(np.zeros(3))
    with pytest.raises(ValueError, match=r"column index 3\b"):
        model.minimize()
    assert calls == []


def test_bounds_follow_from_the_variable_kind(monkeypatch):
    """Every variable is at least 0; HiGHS gets 0/1 for a binary and
    0/inf for a continuous variable, on both solves."""
    calls = _recording_milp(monkeypatch)
    model, _ = _knapsack()
    z = model.add_variables([1.0])
    add_row(model, [(z, 1.0)], ">=", -4.0)
    solution = model.minimize()
    assert solution.status == "optimal" and solution.values[z] == 0.0
    bounds = [(call["bounds"].lb.tolist(), call["bounds"].ub.tolist()) for call in calls]
    assert bounds == [([0.0] * 4, [1.0, 1.0, 1.0, np.inf])] * 2


def test_milp_carries_highs_telemetry():
    model = LinearModel()
    x = model.add_variables([1.0], True)
    y = model.add_variables([2.0], True)
    add_row(model, [(x, 1.0), (y, 1.0)], ">=", 1.0)
    solution = model.minimize()
    assert solution.status == "optimal"
    assert solution.mip_gap == pytest.approx(0.0, abs=1e-6)
    assert solution.dual_bound == pytest.approx(1.0)
    assert isinstance(solution.node_count, int) and solution.node_count >= 0


def test_rows_added_after_a_solve_reach_the_solver():
    """minimize assembles the rows on every call, so rows and variables
    added after a solve are part of the next one."""
    model = LinearModel()
    x = model.add_variables([5.0])
    y = model.add_variables([2.0])
    add_row(model, [(x, 1.0), (y, 1.0)], ">=", 3.0)
    solution = model.minimize()
    assert solution.objective == pytest.approx(6.0)
    assert solution.values[y] == pytest.approx(3.0)
    add_row(model, [(y, 1.0)], "<=", 1.0)
    assert model.minimize().objective == pytest.approx(12.0)
    add_row(model, [(x, 1.0)], ">=", 2.5)
    assert model.minimize().objective == pytest.approx(13.5)
    z = model.add_variables([1.0])
    add_row(model, [(z, 1.0)], ">=", 0.5)
    assert model.minimize().objective == pytest.approx(14.0)
