"""The per-interval first stage against the aggregate-delay oracle, and
the relaxation-first solve against branch and bound.

maghp._build_first_stage ties the slot binaries to delay through wait
variables and one precedence or connection row per interval, so that
LinearModel.minimize can usually take the relaxation as the optimum.
On seeded instances and every model kind, both first stages must reach
the same optimum, and so must a solve forced through branch and bound.
The stochastic and robust models plan no airborne delay; built on the
deterministic model's first stage, which does, they must reach the same
optimum too. Every solve here goes to HiGHS (the highs_only fixture):
the schedule fits most of these models, and the schedule check would
answer both sides of a comparison without building either optimum.
"""

from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import pytest

import groundhold.maghp as maghp
import groundhold.solver as solver
from fixtures import network_day, one_below, random_instance, stress_instance
from groundhold.maghp import (
    Flight,
    FlightConnection,
    MaghpInstance,
    best_capacity_profiles,
    build_det,
    build_dr,
    build_sp,
    solve,
)
from oracles import add_row, aggregated_first_stage, fixpoint_total_periods

INSTANCES = {f"random-{seed}": (random_instance, seed) for seed in range(20)}
INSTANCES["stress"] = (lambda _: stress_instance(), None)
RADII = (0.02, 0.1, 0.5)

pytestmark = pytest.mark.usefixtures("highs_only")


def _builders(instance):
    """Per model name, a function building that model afresh; det-tight
    has one interval below the schedule's count, so it plans delay
    wherever det's best profiles let the schedule fly."""
    best = best_capacity_profiles(instance)
    builders = {
        "det": lambda: build_det(instance, best),
        "det-tight": lambda: build_det(instance, one_below(instance, best)),
        "sp": lambda: build_sp(instance),
    }
    for eps in RADII:
        builders[f"dr-{eps}"] = lambda eps=eps: build_dr(instance, eps)
    return builders


def _skip_relaxation(monkeypatch):
    """Make every relaxation come back without a solution, so minimize
    solves by branch and bound."""
    milp = solver.milp

    def branch_only(*args, integrality=None, **kwargs):
        if integrality is None:
            return SimpleNamespace(status=1, x=None, fun=None)
        return milp(*args, integrality=integrality, **kwargs)

    monkeypatch.setattr(solver, "milp", branch_only)


@pytest.mark.parametrize("case", sorted(INSTANCES))
def test_wait_rows_match_aggregate_delay_rows(case, monkeypatch):
    make, seed = INSTANCES[case]
    instance = make(seed)
    builders = _builders(instance)
    objectives = {name: solve(build()).objective for name, build in builders.items()}

    with monkeypatch.context() as patch:
        patch.setattr(maghp, "_build_first_stage", aggregated_first_stage)
        aggregated = {name: solve(build()).objective for name, build in builders.items()}
    with monkeypatch.context() as patch:
        _skip_relaxation(patch)
        branched = {name: solve(build()).objective for name, build in builders.items()}

    for name, objective in objectives.items():
        assert objective == pytest.approx(aggregated[name], rel=1e-6, abs=1e-6), name
        assert objective == pytest.approx(branched[name], rel=1e-6, abs=1e-6), name



def _pinned(first_stage, instance, pins):
    """minimize() of the first stage alone with the given (flight id,
    'u' or 'v', interval) slots forced to 1."""
    model = solver.LinearModel()
    slots = dict(zip("uv", first_stage(instance, model, airborne=True)))
    for fid, which, t in pins:
        add_row(model, [(slots[which][fid, t], 1.0)], "=", 1.0)
    return model.minimize()


def test_wait_rows_admit_exactly_the_feasible_slot_pairs():
    """p (A to B, flight time 2) feeds s (B to X, flight time 4) with one
    interval of slack, so lag = 3 - 2 - 1 = 0. Pinning p's departure and
    arrival, or p's arrival and s's departure, must be feasible exactly
    when p lands a flight time after it leaves, s leaves no earlier than
    p lands, and p lands early enough for s to leave by its last slot
    (the rows that read y <= 0); the objective must match the oracle's."""
    instance = MaghpInstance(
        airports=("A", "B"),
        flights=(Flight("p", "A", "B", 0, 2), Flight("s", "B", "X", 3, 7)),
        connections=(FlightConnection("p", "s", 1),),
        horizon=4,
        cost_ground=1.0,
        cost_air=3.0,
    )
    total = instance.total_periods()
    last_departure = total - 4 - 1
    cases = [
        ([("p", "u", d), ("p", "v", a)], a >= d + 2 and a <= last_departure)
        for d in range(0, total - 2)
        for a in range(2, total)
    ]
    cases += [
        ([("p", "v", a), ("s", "u", d)], d >= a)
        for a in range(2, total)
        for d in range(3, last_departure + 1)
    ]
    for pins, feasible in cases:
        solution = _pinned(maghp._build_first_stage, instance, pins)
        oracle = _pinned(aggregated_first_stage, instance, pins)
        optimal = [s.status == "optimal" for s in (solution, oracle)]
        assert optimal == [feasible, feasible], pins
        if feasible:
            assert solution.objective == pytest.approx(oracle.objective, abs=1e-9), pins


def _chained(instance: MaghpInstance) -> MaghpInstance:
    """instance with its connections replaced by chains: in order of
    departure, each flight continues on the first later leg from its
    destination that has no predecessor yet. The connections are listed
    last leg first, so relaxing them in file order moves a need one
    link per round."""
    flights = sorted(instance.flights, key=lambda f: (f.sched_dep, f.id))
    connections, continued = [], set()
    for pred in flights:
        for succ in flights:
            gap = succ.sched_dep - pred.sched_arr
            if succ.id not in continued and succ.origin == pred.destination and gap >= 0:
                connections.append(FlightConnection(pred.id, succ.id, gap % 2))
                continued.add(succ.id)
                break
    return replace(instance, connections=tuple(reversed(connections)))


def _longest_chain(instance: MaghpInstance) -> int:
    """Connections on the longest predecessor-to-successor path."""
    depth = {}
    for c in sorted(instance.connections, key=lambda c: instance.flight(c.predecessor).sched_dep):
        depth[c.successor] = max(depth.get(c.successor, 0), depth.get(c.predecessor, 0) + 1)
    return max(depth.values(), default=0)


OVERFLOW_CASES = {
    "stress": stress_instance,
    **{f"random-{seed}": (lambda seed=seed: random_instance(seed)) for seed in range(20)},
    **{
        f"chained-network-day-{seed}": (lambda seed=seed: _chained(network_day(seed, 60, 24)))
        for seed in range(4)
    },
}


@pytest.mark.parametrize("case", sorted(OVERFLOW_CASES))
def test_one_ordered_pass_finds_the_fixpoint_horizon(case):
    instance = OVERFLOW_CASES[case]()
    if case.startswith("chained"):
        assert _longest_chain(instance) >= 3
    assert instance.total_periods() == fixpoint_total_periods(instance)


EXCHANGE_CASES = {
    **{f"random-{seed}": partial(random_instance, seed) for seed in range(10)},
    "stress": stress_instance,
    # stress_instance's cost_air is 3
    "stress-equal-costs": lambda: replace(stress_instance(), cost_ground=3.0),
    **{
        f"chained-network-day-{seed}": partial(
            lambda seed, size: _chained(network_day(seed, *size)), seed, size
        )
        for seed, size in ((2, (20, 12)), (4, (20, 12)), (6, (30, 16)))
    },
    "network-day-64": partial(network_day, 0, 30, 16, 3, 4),
}


@pytest.mark.parametrize("case", sorted(EXCHANGE_CASES))
def test_planned_airborne_delay_never_pays_under_recourse(case, monkeypatch):
    """sp and dr at small and saturated radii reach the same optimum
    with and without the arrival side, on instances with flights out of
    the network, chained connections, a fractional dr relaxation at 64
    scenarios per cell and cost_ground equal to cost_air. Landing a
    slots late costs cost_air * a and takes at most one flight off one
    interval, which saves at most cost_air of recourse."""
    instance = EXCHANGE_CASES[case]()
    if case.startswith("chained"):
        assert _longest_chain(instance) >= 3
    builders = {"sp": lambda: build_sp(instance)}
    for eps in (0.02, 0.1, 0.5, 2.0):
        builders[f"dr-{eps}"] = lambda eps=eps: build_dr(instance, eps)
    objectives = {name: solve(build()).objective for name, build in builders.items()}

    first_stage = maghp._build_first_stage
    with monkeypatch.context() as patch:
        patch.setattr(
            maghp,
            "_build_first_stage",
            lambda instance, model, airborne: first_stage(instance, model, airborne=True),
        )
        planned = {name: solve(build()).objective for name, build in builders.items()}

    for name, objective in objectives.items():
        assert objective == pytest.approx(planned[name], rel=1e-9, abs=1e-9), name
