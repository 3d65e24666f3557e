"""Seeded synthetic fixtures: no external data needed to run anything.

Four generators live here. random_instance builds small solvable
network instances for property checks; stress_instance builds one
deterministic 3-airport, 30-flight day whose capacity distributions
put real weight on severe shortfalls, which is where the deterministic,
stochastic and robust policies spread apart; network_day loads the
benchmark's generated day at its sweep size; synthetic_records and
bucket_training_data feed the estimation and prediction demos.
point_mass, save_pmf_series and write_operation_records build and
write the inputs the command line reads, and with_listed_scenarios
gives a tree body in the format trees were written in before they were
stored as their stage atoms alone. one_below turns capacity profiles
the schedule fits into ones it breaks on one interval.
"""

from __future__ import annotations

import csv
import importlib.util
import itertools
import json
import math
from pathlib import Path

import numpy as np

from groundhold.capacity import ARRIVAL, DEPARTURE, RECORD_COLUMNS, OperationRecord
from groundhold.maghp import (
    Flight,
    FlightConnection,
    GroundDelayPolicy,
    MaghpInstance,
    assigned_counts,
)
from groundhold.pmf import Pmf, make_pmf, pmf_to_dict
from groundhold.scenario import (
    ReducedPmf,
    ScenarioTree,
    TimeClustering,
    build_scenario_tree,
    cluster_time_series,
)


def _single_stage_tree(airport, op_type, horizon, atoms):
    ordered = sorted(atoms)
    rep = make_pmf([a for a, _ in ordered], [p for _, p in ordered])
    clustering = TimeClustering(
        boundaries=(),
        segments=(tuple(range(horizon)),),
        representatives=(rep,),
    )
    stage = ReducedPmf(atoms=tuple((int(a), float(p)) for a, p in ordered))
    scenarios = tuple(((int(a),), float(p)) for a, p in ordered)
    return ScenarioTree(airport, op_type, (stage,), clustering, scenarios)


def _two_stage_tree(airport, op_type, horizon, boundary, first, second):
    """Two-segment tree from explicit per-stage atom lists."""
    stages = []
    reps = []
    for atoms in (sorted(first), sorted(second)):
        reps.append(make_pmf([a for a, _ in atoms], [p for _, p in atoms]))
        stages.append(ReducedPmf(atoms=tuple((int(a), float(p)) for a, p in atoms)))
    clustering = TimeClustering(
        boundaries=(boundary,),
        segments=(
            tuple(range(0, boundary + 1)),
            tuple(range(boundary + 1, horizon)),
        ),
        representatives=tuple(reps),
    )
    scenarios = tuple(
        ((int(a1), int(a2)), float(p1 * p2))
        for (a1, p1), (a2, p2) in itertools.product(sorted(first), sorted(second))
    )
    return ScenarioTree(airport, op_type, tuple(stages), clustering, scenarios)


def _random_tree(rng, airport, op_type, horizon):
    """One- or two-stage tree with two capacity atoms per stage."""

    def atoms():
        lo, hi = sorted(rng.choice(np.arange(0, 7), size=2, replace=False))
        w = float(rng.uniform(0.2, 0.8))
        return [(int(lo), w), (int(hi), 1.0 - w)]

    if horizon >= 3 and rng.random() < 0.5:
        boundary = int(rng.integers(0, horizon - 1))
        return _two_stage_tree(airport, op_type, horizon, boundary, atoms(), atoms())
    return _single_stage_tree(airport, op_type, horizon, atoms())


def random_instance(seed: int) -> MaghpInstance:
    """Small random network instance, solvable in well under a second.

    Two or three airports, up to a dozen flights with occasional
    out-of-network endpoints, up to two same-aircraft connections, and a
    one- or two-stage tree with at most four scenarios per constrained
    cell.
    """
    rng = np.random.default_rng(seed)
    airports = ("A", "B", "C")[: int(rng.integers(2, 4))]
    horizon = int(rng.integers(4, 9))

    flights = []
    for i in range(int(rng.integers(6, 13))):
        origin = str(rng.choice(airports))
        if rng.random() < 0.15:
            destination = "EXT"
        else:
            others = [a for a in airports if a != origin] or ["EXT"]
            destination = str(rng.choice(others))
        sched_dep = int(rng.integers(0, horizon - 1))
        sched_arr = sched_dep + int(rng.integers(1, 3))
        flights.append(
            Flight(
                id=f"f{i:02d}",
                origin=origin,
                destination=destination,
                sched_dep=sched_dep,
                sched_arr=sched_arr,
            )
        )

    connections = []
    used = set()
    for pred, succ in itertools.permutations(flights, 2):
        if len(connections) == 2:
            break
        if pred.id in used or succ.id in used:
            continue
        if pred.destination == succ.origin and succ.sched_dep >= pred.sched_arr:
            slack = int(rng.integers(0, 2))
            connections.append(FlightConnection(pred.id, succ.id, slack))
            used.update((pred.id, succ.id))

    instance = MaghpInstance(
        airports=airports,
        flights=tuple(flights),
        connections=tuple(connections),
        horizon=horizon,
        cost_ground=1.0,
        cost_air=float(rng.choice([2.0, 3.0])),
    )
    instance.trees = {
        key: _random_tree(rng, key[0], key[1], horizon)
        for key in instance.constrained_keys()
    }
    return instance


# capacity regimes for the stress day: (support, weights) per cell,
# before and after the mid-day drop at interval 3. Low atoms carry
# enough weight that halving the mean stays inside a band of 1.
_STRESS_REGIMES = {
    ("A", DEPARTURE): (([0, 8], [0.35, 0.65]), ([0, 5], [0.5, 0.5])),
    ("B", DEPARTURE): (([0, 8], [0.35, 0.65]), ([0, 5], [0.5, 0.5])),
    ("C", DEPARTURE): (([1, 9], [0.4, 0.6]), ([1, 7], [0.45, 0.55])),
    ("A", ARRIVAL): (([1, 10], [0.4, 0.6]), ([1, 8], [0.45, 0.55])),
    ("B", ARRIVAL): (([1, 10], [0.4, 0.6]), ([1, 8], [0.45, 0.55])),
    ("C", ARRIVAL): (([1, 10], [0.4, 0.6]), ([1, 6], [0.45, 0.55])),
}

STRESS_HORIZON = 6
STRESS_SWITCH = 3


def stress_instance() -> MaghpInstance:
    """The deterministic 3-airport, 30-flight sensitivity fixture.

    Two banks of eleven flights feed hub C from A and B through the
    morning; eight flights fan back out in the afternoon, four of them
    waiting on inbound aircraft. Every capacity cell runs a two-regime
    day (interval 3 onward is worse), clustered into two stages and
    compressed to two atoms per stage, so each tree carries four
    scenarios.
    """

    def leg(fid, origin, dest, dep):
        return Flight(
            id=fid,
            origin=origin,
            destination=dest,
            sched_dep=dep,
            sched_arr=dep + 1,
        )

    inbound_departures = [0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 3]
    flights = [leg(f"a{i:02d}", "A", "C", d) for i, d in enumerate(inbound_departures)]
    flights += [leg(f"b{i:02d}", "B", "C", d) for i, d in enumerate(inbound_departures)]
    flights += [leg(f"ca{i}", "C", "A", d) for i, d in enumerate((3, 3, 4, 4))]
    flights += [leg(f"cb{i}", "C", "B", d) for i, d in enumerate((3, 3, 4, 4))]

    connections = (
        FlightConnection("a00", "ca0", 1),
        FlightConnection("b00", "cb0", 1),
        FlightConnection("a03", "ca1", 0),
        FlightConnection("b03", "cb1", 0),
    )

    trees = {}
    for key, (early, late) in _STRESS_REGIMES.items():
        early_pmf = make_pmf(*early)
        late_pmf = make_pmf(*late)
        series = [
            early_pmf if t < STRESS_SWITCH else late_pmf
            for t in range(STRESS_HORIZON)
        ]
        clustering = cluster_time_series(series, 1)
        trees[key] = build_scenario_tree(
            clustering, 2, airport=key[0], op_type=key[1]
        )

    # ground holding is priced well under the recourse unit here: the
    # spread between the det/sp/dr policies out of sample comes from how
    # much cheap insurance each is willing to buy up front
    return MaghpInstance(
        airports=("A", "B", "C"),
        flights=tuple(flights),
        connections=connections,
        horizon=STRESS_HORIZON,
        cost_ground=0.25,
        cost_air=3.0,
        trees=trees,
    )


def network_day(
    seed: int, flights: int = 14, horizon: int = 12, stages: int = 3, atoms: int = 3
) -> MaghpInstance:
    """bench/gen.py's network day, by default at the benchmark sweep's
    size: stages stages of atoms atoms per capacity cell."""
    path = Path(__file__).resolve().parent.parent / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.network_day(seed, flights, horizon, stages, atoms)


def one_below(instance: MaghpInstance, profiles: dict) -> dict:
    """profiles with the first loaded interval of the first loaded cell
    set one below the schedule's count there."""
    schedule = GroundDelayPolicy(
        {f.id: f.sched_dep for f in instance.flights},
        {f.id: f.sched_arr for f in instance.flights},
    )
    counts = assigned_counts(instance, schedule)
    key = next(key for key in sorted(profiles) if counts[key].any())
    t = int(np.flatnonzero(counts[key])[0])
    profile = list(profiles[key])
    profile[t] = int(counts[key][t]) - 1
    return {**profiles, key: profile}


def synthetic_records(
    seed: int = 0,
    airport: str = "DEMO",
    num_intervals: int = 48,
    interval_minutes: float = 15.0,
) -> list[OperationRecord]:
    """A day of operations with a congested stretch in the middle.

    Off-peak intervals run light and on time; the midday block is
    overscheduled, so throughput rides at the facility's limit with
    growing delays. Gives the estimation demo all three saturation
    criteria to find.
    """
    rng = np.random.default_rng(seed)
    records = []
    peak = range(num_intervals // 3, 2 * num_intervals // 3)
    for op_type in (ARRIVAL, DEPARTURE):
        backlog = 0.0
        for t in range(num_intervals):
            start = t * interval_minutes
            if t in peak:
                demand = int(rng.integers(12, 17))
                capacity = 10
            else:
                demand = int(rng.integers(2, 7))
                capacity = 12
            served = min(demand, capacity)
            backlog = max(0.0, backlog + demand - capacity)
            for i in range(demand):
                scheduled = start + float(rng.uniform(0, interval_minutes))
                if i < served and backlog == 0:
                    delay = float(rng.uniform(0, 4))
                else:
                    delay = float(rng.uniform(8, 35)) + backlog
                actual = min(
                    scheduled + delay, num_intervals * interval_minutes - 0.01
                )
                records.append(
                    OperationRecord(airport, op_type, scheduled, actual)
                )
    records.sort(key=lambda r: (r.op_type, r.scheduled_minute))
    return records


def bucket_training_data(seed: int, count: int, buckets: int = 5):
    """Features determined by a discrete latent bucket, labels drawn
    from a per-bucket capacity distribution.

    The feature columns are all functions of the bucket, so an
    empirical predictor can recover the exact conditional given enough
    data. Labels for bucket b take values b+1..b+3 with probabilities
    0.6/0.3/0.1.
    """
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, buckets, size=count)
    features = np.column_stack(
        [
            assignment.astype(float),
            (assignment**2).astype(float),
            (buckets - 1 - assignment).astype(float),
        ]
    )
    offsets = rng.choice([1, 2, 3], size=count, p=[0.6, 0.3, 0.1])
    labels = assignment + offsets
    return features, labels.astype(int)


def point_mass(value: int) -> Pmf:
    return Pmf((int(value),), (1.0,))


def save_pmf_series(path, series: list[Pmf]) -> None:
    Path(path).write_text(
        json.dumps([pmf_to_dict(p) for p in series], indent=1) + "\n"
    )


def write_operation_records(path, records) -> None:
    """Counterpart of read_operation_records with minute timestamps."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_COLUMNS)
        for r in records:
            writer.writerow(
                [r.airport, r.op_type, repr(r.scheduled_minute), repr(r.actual_minute)]
            )


def with_listed_scenarios(body: dict) -> dict:
    """A tree body as files written before trees were stored as their
    stages carry it: body with its "scenarios", every choice of one
    stage atom per stage, last stage fastest, at the product of the
    atoms' probabilities, computed as those files' writer did."""
    combos = itertools.product(*body["stages"])
    return {**body, "scenarios": [[[s for s, _ in c], math.prod(p for _, p in c)] for c in combos]}
