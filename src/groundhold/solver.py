"""Thin incremental model layer over scipy's HiGHS bindings.

Every optimization problem in the package (the ground holding MILPs and
the robust deterministic equivalent) is built against the same calls:
add_variables and add_rows append whole blocks, and minimize solves.
Every variable is at least 0, and a binary at most 1. A block of
variables is one array of objective weights and one of binary flags,
numbered in order from the model's next index. A block of rows is three
index arrays of (row within the block, column, value) triplets plus one
lower and one upper bound per row, numbered in order from the model's
next row; the columns are not checked when they are added. A model is
built for one problem and solved once: each minimize call joins the
blocks into one sparse matrix, which refuses a variable index out of
range with ValueError, and hands the model to scipy.optimize.milp,
first without integrality. A relaxation that comes out integral is the
MILP's optimum and ends the solve; only a fractional one goes on to
branch and bound.

scipy loads on the first solve, not on import, so the forecasting half
of the package (capacity, prediction, pmf, scenario) never pays for the
optimizer stack.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

#: relative optimality gap at which HiGHS stops a MILP
MIP_REL_GAP = 1e-6
#: largest distance from 0 or 1 at which a relaxed binary counts as integral
INTEGRALITY_TOL = 1e-9


@dataclass
class Solution:
    """Outcome of a minimize() call.

    status is one of 'optimal', 'infeasible', 'time_limit' or 'error';
    objective and values are None unless status is 'optimal' or the solver
    returned an incumbent at the time limit. mip_gap, dual_bound and
    node_count are HiGHS's MIP telemetry; they are None for a model
    without integer variables and whenever HiGHS reports none. A MILP
    whose relaxation came out integral reports gap 0, the objective as
    its dual bound and 0 nodes, since no branch and bound ran.
    """

    status: str
    objective: float | None
    values: np.ndarray | None
    mip_gap: float | None = None
    dual_bound: float | None = None
    node_count: int | None = None


class LinearModel:
    """A minimization MILP assembled in blocks of variables and rows.

    Each block is kept as the arrays it was added with and joined once
    per minimize call."""

    def __init__(self):
        self._objective = [np.zeros(0)]
        self._integrality = [np.zeros(0, dtype=int)]
        # constraint matrix as COO triplets, one entry per term
        self._row_ids = [np.zeros(0, dtype=int)]
        self._cols = [np.zeros(0, dtype=int)]
        self._vals = [np.zeros(0)]
        self._row_lb = [np.zeros(0)]
        self._row_ub = [np.zeros(0)]
        self.num_variables = 0
        self.num_constraints = 0
        self.num_nonzeros = 0

    def add_variables(self, objective, binary=False) -> int:
        """Append one variable per objective weight and return the index
        of the first; binary, one flag for the block or one per
        variable, marks the binaries, which range over {0, 1}, and the
        rest range over [0, inf)."""
        objective = np.asarray(objective, dtype=float)
        first = self.num_variables
        self._objective.append(objective)
        self._integrality.append(np.broadcast_to(np.asarray(binary, dtype=int), objective.shape))
        self.num_variables += len(objective)
        return first

    def add_rows(self, rows, cols, vals, lower, upper) -> None:
        """Append one row per entry of lower and upper. Term k adds
        vals[k] times variable cols[k] to row rows[k] of the block,
        counted from 0; row i reads lower[i] <= sum <= upper[i]. The
        columns are checked at minimize."""
        lower = np.asarray(lower, dtype=float)
        self._row_ids.append(np.asarray(rows, dtype=int) + self.num_constraints)
        self._cols.append(np.asarray(cols, dtype=int))
        self._vals.append(np.asarray(vals, dtype=float))
        self._row_lb.append(lower)
        self._row_ub.append(np.asarray(upper, dtype=float))
        self.num_constraints += len(lower)
        self.num_nonzeros += len(self._vals[-1])

    def minimize(self, time_limit: float | None = None) -> Solution:
        """Solve and return a Solution. Never raises for infeasibility.

        The relaxation comes first, through the same milp call with no
        integrality. When it is optimal and every binary lies within
        INTEGRALITY_TOL of 0 or 1, the binaries are rounded and that
        point is returned as the MILP optimum: the relaxation bounds the
        MILP from below and the rounded point is feasible for it. An
        infeasible relaxation proves the MILP infeasible. Otherwise HiGHS
        runs branch and bound within what the relaxation left of
        time_limit.
        """
        n = self.num_variables
        if n == 0 and self.num_nonzeros == 0:
            return Solution("optimal", 0.0, np.zeros(0))

        from scipy import sparse
        from scipy.optimize import Bounds, LinearConstraint

        start = time.perf_counter()
        c = np.concatenate(self._objective)
        integrality = np.concatenate(self._integrality)
        bounds = Bounds(np.zeros(n), np.where(integrality, 1.0, np.inf))

        constraints = []
        if self.num_constraints:
            # refuses a negative or out-of-range index with ValueError
            a = sparse.csr_matrix(
                (
                    np.concatenate(self._vals),
                    (np.concatenate(self._row_ids), np.concatenate(self._cols)),
                ),
                shape=(self.num_constraints, n),
                dtype=float,
            )
            constraints.append(
                LinearConstraint(a, np.concatenate(self._row_lb), np.concatenate(self._row_ub))
            )

        # the relaxation has no integer variables, so it gets no MIP gap
        options: dict = {}
        if time_limit is not None:
            options["time_limit"] = float(time_limit)

        relaxed = milp(c, constraints=constraints, bounds=bounds, options=options)
        if not integrality.any() or relaxed.status == 2:
            return _solution(relaxed)
        if relaxed.status == 0:
            values = np.array(relaxed.x)
            binary = integrality.astype(bool)
            rounded = np.round(values[binary])
            if np.all(np.abs(values[binary] - rounded) <= INTEGRALITY_TOL):
                values[binary] = rounded
                objective = float(relaxed.fun)
                return Solution("optimal", objective, values, 0.0, objective, 0)

        options["mip_rel_gap"] = MIP_REL_GAP
        if time_limit is not None:
            options["time_limit"] = max(time_limit - (time.perf_counter() - start), 0.0)
        return _solution(
            milp(
                c,
                constraints=constraints,
                integrality=integrality,
                bounds=bounds,
                options=options,
            )
        )


def milp(*args, **kwargs):
    """scipy.optimize.milp, imported on the first call."""
    from scipy.optimize import milp as scipy_milp

    return scipy_milp(*args, **kwargs)


def _solution(result) -> Solution:
    """A Solution from a milp result, with HiGHS's telemetry."""
    telemetry = _telemetry(result)
    if result.status == 0:
        return Solution("optimal", float(result.fun), np.asarray(result.x), *telemetry)
    if result.status == 1:
        values = None if result.x is None else np.asarray(result.x)
        objective = None if result.fun is None else float(result.fun)
        return Solution("time_limit", objective, values, *telemetry)
    if result.status == 2:
        return Solution("infeasible", None, None)
    return Solution("error", None, None)


def _telemetry(result) -> tuple:
    """(mip_gap, dual_bound, node_count) from a milp result, None where
    HiGHS reports nothing."""
    gap, bound, nodes = (
        result.get(key) for key in ("mip_gap", "mip_dual_bound", "mip_node_count")
    )
    return (
        None if gap is None else float(gap),
        None if bound is None else float(bound),
        None if nodes is None else int(nodes),
    )
