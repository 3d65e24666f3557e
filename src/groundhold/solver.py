"""Thin incremental model layer over scipy's HiGHS bindings.

Every optimization problem in the package (the ground holding MILPs and
the robust deterministic equivalent) is built against the same three
calls: add_variable, add_linear_constraint and minimize.
add_linear_constraint appends one row's terms as (row, column, value)
triplets. A model is built for one problem and solved once: each
minimize call builds one sparse matrix from the triplets and hands the
model to scipy.optimize.milp, first without integrality. A relaxation
that comes out integral is the MILP's optimum and ends the solve; only
a fractional one goes on to branch and bound.

scipy loads on the first solve, not on import, so the forecasting half
of the package (capacity, prediction, pmf, scenario) never pays for the
optimizer stack.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

#: relative optimality gap at which HiGHS stops a MILP
MIP_REL_GAP = 1e-6
#: largest distance from 0 or 1 at which a relaxed binary counts as integral
INTEGRALITY_TOL = 1e-9

CONTINUOUS = "continuous"
BINARY = "binary"

_SENSES = ("<=", "=", ">=")


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

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


@dataclass
class LinearModel:
    """A minimization MILP assembled one variable / constraint at a time."""

    _objective: list[float] = field(default_factory=list)
    _integrality: list[int] = field(default_factory=list)
    _lower: list[float] = field(default_factory=list)
    _upper: list[float] = field(default_factory=list)
    # constraint matrix as COO triplets, one entry per term
    _row_ids: list[int] = field(default_factory=list)
    _cols: list[int] = field(default_factory=list)
    _vals: list[float] = field(default_factory=list)
    _row_lb: list[float] = field(default_factory=list)
    _row_ub: list[float] = field(default_factory=list)

    @property
    def num_variables(self) -> int:
        return len(self._objective)

    @property
    def num_constraints(self) -> int:
        return len(self._row_lb)

    @property
    def num_nonzeros(self) -> int:
        return len(self._vals)

    def add_variable(
        self,
        kind: str = CONTINUOUS,
        objective: float = 0.0,
        lower: float = 0.0,
    ) -> int:
        """Append a variable and return its index.

        Continuous variables range over [lower, inf), lower defaulting
        to 0; pass lower=-inf for a free variable. Binary variables
        ignore lower.
        """
        if kind == BINARY:
            lo, hi, integral = 0.0, 1.0, 1
        elif kind == CONTINUOUS:
            lo, hi, integral = float(lower), np.inf, 0
        else:
            raise ValueError(f"unknown variable kind {kind!r}")
        self._objective.append(float(objective))
        self._integrality.append(integral)
        self._lower.append(lo)
        self._upper.append(hi)
        return len(self._objective) - 1

    def add_linear_constraint(
        self,
        terms: list[tuple[int, float]],
        sense: str,
        rhs: float,
    ) -> None:
        """Add sum(coef * var) <sense> rhs with sense in {'<=', '=', '>='}."""
        if sense not in _SENSES:
            raise ValueError(f"unknown constraint sense {sense!r}")
        idx, coef = [], []
        for i, c in terms:
            if not 0 <= i < self.num_variables:
                raise IndexError(f"variable index {i} out of range")
            idx.append(i)
            coef.append(float(c))
        rhs = float(rhs)
        lb = rhs if sense in ("=", ">=") else -np.inf
        ub = rhs if sense in ("=", "<=") else np.inf
        self._row_ids.extend([self.num_constraints] * len(idx))
        self._cols.extend(idx)
        self._vals.extend(coef)
        self._row_lb.append(lb)
        self._row_ub.append(ub)

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
        if n == 0:
            return Solution("optimal", 0.0, np.zeros(0))

        from scipy import sparse
        from scipy.optimize import Bounds, LinearConstraint

        start = time.perf_counter()
        c = np.asarray(self._objective)
        integrality = np.asarray(self._integrality)
        bounds = Bounds(np.asarray(self._lower), np.asarray(self._upper))

        constraints = []
        if self._row_lb:
            a = sparse.csr_matrix(
                (self._vals, (self._row_ids, self._cols)),
                shape=(self.num_constraints, n),
            )
            constraints.append(
                LinearConstraint(a, np.asarray(self._row_lb), np.asarray(self._row_ub))
            )

        options: dict = {"mip_rel_gap": MIP_REL_GAP}
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
