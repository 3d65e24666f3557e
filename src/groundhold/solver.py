"""Thin incremental model layer over scipy's HiGHS bindings.

Every optimization problem in the package (the ground holding MILPs, the
robust deterministic equivalents, the reduction and worst-case LPs) is
built against the same three calls: add_variable, add_linear_constraint,
minimize. minimize assembles the rows into one sparse matrix and hands
the model to scipy.optimize.milp.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import LinearConstraint, Bounds, milp

#: relative optimality gap at which HiGHS stops a MILP
MIP_REL_GAP = 1e-6

CONTINUOUS = "continuous"
BINARY = "binary"

_SENSES = ("<=", "=", ">=")


@dataclass
class Solution:
    """Outcome of a minimize() call.

    status is one of 'optimal', 'infeasible', 'time_limit' or 'error';
    objective and values are None unless status is 'optimal' or the solver
    returned an incumbent at the time limit.
    """

    status: str
    objective: float | None
    values: np.ndarray | None

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
    _rows: list[tuple[list[int], list[float]]] = field(default_factory=list)
    _row_lb: list[float] = field(default_factory=list)
    _row_ub: list[float] = field(default_factory=list)

    @property
    def num_variables(self) -> int:
        return len(self._objective)

    @property
    def num_constraints(self) -> int:
        return len(self._rows)

    @property
    def num_nonzeros(self) -> int:
        return sum(len(idx) for idx, _ in self._rows)

    def add_variable(
        self,
        kind: str = CONTINUOUS,
        objective: float = 0.0,
        lower: float = 0.0,
        upper: float | None = None,
    ) -> int:
        """Append a variable and return its index.

        Continuous variables default to [0, inf); pass lower=-inf for a
        free variable. Binary variables ignore the bound arguments.
        """
        if kind == BINARY:
            lo, hi, integral = 0.0, 1.0, 1
        elif kind == CONTINUOUS:
            lo = float(lower)
            hi = np.inf if upper is None else float(upper)
            integral = 0
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
        self._rows.append((idx, coef))
        self._row_lb.append(lb)
        self._row_ub.append(ub)

    def minimize(self, time_limit: float | None = None) -> Solution:
        """Solve and return a Solution. Never raises for infeasibility."""
        n = self.num_variables
        if n == 0:
            return Solution("optimal", 0.0, np.zeros(0))

        c = np.asarray(self._objective)
        integrality = np.asarray(self._integrality)
        bounds = Bounds(np.asarray(self._lower), np.asarray(self._upper))

        constraints = []
        if self._rows:
            data, rows, cols = [], [], []
            for r, (idx, coef) in enumerate(self._rows):
                rows.extend([r] * len(idx))
                cols.extend(idx)
                data.extend(coef)
            a = sparse.csr_matrix(
                (data, (rows, cols)), shape=(len(self._rows), n)
            )
            constraints.append(
                LinearConstraint(a, np.asarray(self._row_lb), np.asarray(self._row_ub))
            )

        options: dict = {"mip_rel_gap": MIP_REL_GAP}
        if time_limit is not None:
            options["time_limit"] = float(time_limit)

        result = milp(
            c,
            constraints=constraints,
            integrality=integrality,
            bounds=bounds,
            options=options,
        )

        if result.status == 0:
            return Solution("optimal", float(result.fun), np.asarray(result.x))
        if result.status == 1:
            values = None if result.x is None else np.asarray(result.x)
            objective = None if result.fun is None else float(result.fun)
            return Solution("time_limit", objective, values)
        if result.status == 2:
            return Solution("infeasible", None, None)
        return Solution("error", None, None)
