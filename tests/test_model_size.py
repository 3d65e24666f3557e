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
    ("stress_instance()", "sp"): (438, 282, 1230, 30.9875),
    ("stress_instance()", "dr"): (456, 294, 1290, 31.926785714285714),
    ("random_instance(0)", "det"): (270, 247, 715, 0.0),
    ("random_instance(0)", "sp"): (148, 99, 347, 0.0),
    ("random_instance(0)", "dr"): (160, 106, 374, 0.0),
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
    "sp": (1064, 749, 3747, 55.041877210830656),
    "dr": (1124, 803, 4245, 68.12662555416112),
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


def _joint_marginals(supports, weights) -> tuple[ReducedPmf, ...]:
    """One stage per support, each atom at its marginal probability
    under weights, a joint on the product of the supports, last stage
    fastest."""
    joint = np.reshape(weights, [len(support) for support in supports])
    stages = []
    for k, support in enumerate(supports):
        others = tuple(axis for axis in range(joint.ndim) if axis != k)
        stages.append(ReducedPmf(tuple(zip(support, joint.sum(axis=others).tolist()))))
    return tuple(stages)


def _product_tree(key, horizon, atoms, stages, rng):
    """A tree on the product of stages stages of atoms distinct
    capacities each, the segments cut at random points of the horizon,
    the joint probabilities drawn at random and the stage atoms their
    marginals."""
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
    return ScenarioTree(*key, _joint_marginals(supports, weights), clustering, scenarios)


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
        "c": "9b3db6d185352768",
        "data": "aab60fd7f3ef45b4",
        "indices": "ea8cbfbd31540650",
        "indptr": "bdaa339dac730c3f",
        "integrality": "00edddebf0b632b7",
        "lb": "43e70407c1c344cc",
        "row_lb": "33309b49e04ba71e",
        "row_ub": "c30a4887405592d4",
        "ub": "2b79e728138249ee",
    },
    ("network_day(0)", "dr"): {
        "c": "f6733079ca76288a",
        "data": "ebede6c8519d78ba",
        "indices": "174dfa13114dafe8",
        "indptr": "fd64379318c4036a",
        "integrality": "6da9626a1a767ede",
        "lb": "a2e4b5a10489dabe",
        "row_lb": "41772bbccd3b0576",
        "row_ub": "e73894f153709b4d",
        "ub": "1e35da57d3f1c606",
    },
    ("network_day(0)", "sp"): {
        "c": "4e779494e03f9057",
        "data": "eaa393f4d5d7e546",
        "indices": "209396a84f61969f",
        "indptr": "c0b61d83eb03a976",
        "integrality": "d2f4d9e399b0ac62",
        "lb": "7df491c5f0816aef",
        "row_lb": "61c91b8a60821011",
        "row_ub": "1a2975e179b9dbec",
        "ub": "a85a5ea5e41d365b",
    },
    ("stress_instance()", "det"): {
        "c": "25770b4b178a7554",
        "data": "d6dbc487d54c0200",
        "indices": "674efabd9f314dd9",
        "indptr": "0aa958f74aa806e2",
        "integrality": "98ed4f4380540e09",
        "lb": "9f12fb98ebbf4e5d",
        "row_lb": "b941a3edc9bcfe42",
        "row_ub": "5a33bfc8c9bccaa5",
        "ub": "a99486942662b682",
    },
    ("stress_instance()", "dr"): {
        "c": "02513dededff97f6",
        "data": "dc7a614a350214ca",
        "indices": "f9cc917c51656559",
        "indptr": "2450920316a01872",
        "integrality": "e04a5548df89c809",
        "lb": "301efe9642b0328c",
        "row_lb": "1c4ba73c9926fc30",
        "row_ub": "2523ab79cbda1d1e",
        "ub": "528cb849e915e1bb",
    },
    ("stress_instance()", "sp"): {
        "c": "ba9e73a149f07b41",
        "data": "73ecceceb9d21aed",
        "indices": "e9e42e0d25b896db",
        "indptr": "ee96e3079af1a23a",
        "integrality": "99348b3346462c42",
        "lb": "e10c8cb376b41e42",
        "row_lb": "cb2bb9946c7eb959",
        "row_ub": "7bc42bae823c1378",
        "ub": "04217403671f9b9d",
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
