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

import hashlib
import itertools
from collections import Counter
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

import groundhold.solver as solver

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


#: kind: (variables, rows, nonzeros, objective) on network_day(0, 30, 16)
#: with 3 stages of 4 atoms, 64 scenarios per cell
PINS_AT_64 = {
    "sp": (1896, 1581, 6153, 55.041877210830656),
    "dr": (1956, 1635, 6651, 68.12662555416112),
}


@pytest.mark.parametrize("kind", sorted(PINS_AT_64))
def test_model_size_and_objective_are_pinned_at_64_scenarios(kind):
    """At n = 64 dr's relaxation is fractional, so its solve goes to
    branch and bound, which stops within solver.MIP_REL_GAP of the
    optimum: the objectives are pinned to that relative gap."""
    variables, rows, nonzeros, objective = PINS_AT_64[kind]
    instance = network_day(0, 30, 16, stages=3, atoms=4)
    assert {tree.num_scenarios for tree in instance.trees.values()} == {64}
    bundle = build_sp(instance) if kind == "sp" else build_dr(instance, 0.1)
    model = bundle.model
    assert (model.num_variables, model.num_constraints, model.num_nonzeros) == (
        variables,
        rows,
        nonzeros,
    )
    assert solve(bundle).objective == pytest.approx(objective, rel=solver.MIP_REL_GAP)


@pytest.mark.parametrize("kind", ["sp", "dr"])
def test_stress_relaxation_is_integral(bundles, kind):
    """The wait rows make the stress day's sp and dr relaxations
    integral, so both solve without a branch and bound node."""
    solution = bundles["stress_instance()", kind].model.minimize()
    assert solution.status == "optimal"
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

    def joined(model, attr):
        return np.concatenate(getattr(model, attr)).tolist()

    for attr in ("_objective", "_integrality"):
        assert joined(dr, attr)[:n] == joined(sp, attr), attr
    for attr in ("_row_lb", "_row_ub"):
        assert joined(dr, attr)[:m] == joined(sp, attr), attr
    for attr in ("_row_ids", "_cols", "_vals"):
        assert joined(dr, attr)[:nnz] == joined(sp, attr), attr
    assert min(joined(dr, "_row_ids")[nnz:], default=m) == m
    cell_of = {var: key for key, var in bundle.alpha_index.items()}
    rows = Counter(cell_of[col] for col in joined(dr, "_cols")[nnz:] if col in cell_of)
    assert sum(rows.values()) == dr.num_constraints - m
    assert rows == {
        key: sum(len(atoms) - 1 for atoms in instance.trees[key].stage_capacities)
        for key in instance.constrained_keys()
    }


class _Handed(Exception):
    """Stops minimize once the MILP call has its arrays."""


def handed_to_milp(model, monkeypatch) -> dict:
    """The arrays model.minimize() hands to milp, by name: the objective
    c, the integrality, the variable bounds lb and ub, A in CSC form
    (indptr, indices, data) and the row bounds row_lb and row_ub. The
    relaxation call is answered with a fractional point, so minimize
    goes on to the MILP call, which stops before HiGHS runs."""
    handed = {}

    def record(c, constraints=(), integrality=None, bounds=None, options=None):
        if integrality is not None:
            handed["integrality"] = np.asarray(integrality)
            raise _Handed
        (constraint,) = constraints
        a = constraint.A.tocsc()
        handed.update(
            c=c, lb=bounds.lb, ub=bounds.ub, indptr=a.indptr, indices=a.indices,
            data=a.data, row_lb=constraint.lb, row_ub=constraint.ub,
        )
        return SimpleNamespace(status=0, x=np.full(len(c), 0.5), fun=0.0)

    with monkeypatch.context() as patch:
        patch.setattr(solver, "milp", record)
        with pytest.raises(_Handed):
            model.minimize()
    return handed


def _sha256(array) -> str:
    """The first 16 hex digits of the SHA-256 of array's values, as
    little-endian 64-bit integers or floats whatever its dtype, so the
    digest does not depend on the platform's index width."""
    kind = "<i8" if np.issubdtype(np.asarray(array).dtype, np.integer) else "<f8"
    return hashlib.sha256(np.ascontiguousarray(array, dtype=kind).tobytes()).hexdigest()[:16]


HASHED = {
    "network_day(0)": partial(network_day, 0),
    "stress_instance()": stress_instance,
}

#: (instance, kind): the SHA-256 prefix of each array handed to milp.
#: The first stage and the det, sp and dr(0.02) rows are those the
#: per-row builders gave; a change that moves a coefficient, a bound or
#: the numbering of a variable or row moves these.
MILP_PINS = {
    ("network_day(0)", "det"): {
        "c": "1b98a91f42971017",
        "data": "3d2d689bc3af0250",
        "indices": "abe088624bad7bd8",
        "indptr": "34c463b4078ecc39",
        "integrality": "cb06df33861406fc",
        "lb": "43e70407c1c344cc",
        "row_lb": "a12d7391208e664b",
        "row_ub": "3ed8a119a722c3c7",
        "ub": "572f8732ec1e56c8",
    },
    ("network_day(0)", "dr"): {
        "c": "2e90d8293b31f712",
        "data": "cc18be4dc0b5c31b",
        "indices": "a504ba99dff7c618",
        "indptr": "cc632dd9634dc4a8",
        "integrality": "823588bca88c5dfc",
        "lb": "0ec9cd6a4b73ba22",
        "row_lb": "307bea59223d13cb",
        "row_ub": "6062988b0167a097",
        "ub": "dccad61cace7d4c6",
    },
    ("network_day(0)", "sp"): {
        "c": "372346b967650d4a",
        "data": "95873162d8b687bc",
        "indices": "e8951fb7e9257325",
        "indptr": "e7acf33ac166faff",
        "integrality": "c113b5b305b306fd",
        "lb": "cd8db6ffeb99acd5",
        "row_lb": "932178aa8af81263",
        "row_ub": "4878b1a798b05aab",
        "ub": "4d0fe1bf52b536d1",
    },
    ("stress_instance()", "det"): {
        "c": "ca09ae6c8ce9f2a8",
        "data": "894325eb64b0945c",
        "indices": "8bd4cc580a9e666a",
        "indptr": "be43d05b17c4c474",
        "integrality": "42a70b22bab19bfa",
        "lb": "9f12fb98ebbf4e5d",
        "row_lb": "ffe2c89a46cff113",
        "row_ub": "c11178e115048ae5",
        "ub": "d4a747182963d727",
    },
    ("stress_instance()", "dr"): {
        "c": "775105a5b53c410d",
        "data": "62fc73f1da715447",
        "indices": "94c9d6e73f1beb51",
        "indptr": "d5244199ab8dc55c",
        "integrality": "c6420f1064c361ad",
        "lb": "cff05fb4568facfc",
        "row_lb": "21a9959e50d40746",
        "row_ub": "54703c79354b3b2d",
        "ub": "2e3aac8a3d571ca8",
    },
    ("stress_instance()", "sp"): {
        "c": "2dfe5c2ef47e7199",
        "data": "76a32a15047db99b",
        "indices": "06908baefab567ec",
        "indptr": "db92f8cad22c2bc3",
        "integrality": "84e2f6a7bbb7f16a",
        "lb": "53192a12b1786877",
        "row_lb": "9be2435dd6040c6a",
        "row_ub": "c61eea149dd03345",
        "ub": "e176a8eed742d528",
    },
}


@pytest.mark.parametrize("case", sorted(MILP_PINS), ids=_case_id)
def test_arrays_handed_to_milp_are_pinned(monkeypatch, case):
    name, kind = case
    instance = HASHED[name]()
    bundle = {
        "det": lambda: build_det(instance, best_capacity_profiles(instance)),
        "sp": lambda: build_sp(instance),
        "dr": lambda: build_dr(instance, 0.02),
    }[kind]()
    handed = handed_to_milp(bundle.model, monkeypatch)
    assert {key: _sha256(array) for key, array in handed.items()} == MILP_PINS[case]
