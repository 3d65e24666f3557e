"""Seeded input generators for the benchmark workloads.

Everything a workload feeds the program comes from here, and every
generator is a pure function of its seed and size arguments.

* ``generate_records`` and ``generate_training``: operation records for
  three airports over many 96-interval days, a labelled training set with
  a 17-column feature schema, and one held-out day of feature vectors per
  capacity cell.
* ``network_day``: a 3-airport flight network over ``horizon`` intervals
  with banked departures, same-aircraft connections and one product-form
  scenario tree per capacity cell (``stages`` stages of ``atoms`` atoms).
  Every stage's lowest atom is small and heavy, so each reduction level
  up to ``MAX_REDUCTION`` stays reachable within a band of 1, which is
  what ``reduce_distribution`` needs to shift the trees for the sweep.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from groundhold.capacity import ARRIVAL, DEPARTURE, OperationRecord
from groundhold.maghp import Flight, FlightConnection, MaghpInstance
from groundhold.pmf import make_pmf
from groundhold.scenario import ReducedPmf, ScenarioTree, TimeClustering

AIRPORTS = ("A", "B", "C")
INTERVALS_PER_DAY = 96
INTERVAL_MINUTES = 15.0
#: largest reduction the sweep asks for; network_day keeps it reachable
MAX_REDUCTION = 0.5
SWEEP_BAND = 1.0


# ---------------------------------------------------------------------------
# forecast


def _day_severity(rng, days):
    """Latent weather severity in [0, 1] per (day, interval): calm days
    with one storm window of random start and length."""
    severity = np.zeros((days, INTERVALS_PER_DAY))
    for d in range(days):
        start = int(rng.integers(20, 70))
        length = int(rng.integers(8, 24))
        peak = float(rng.uniform(0.4, 1.0))
        window = np.arange(start, min(start + length, INTERVALS_PER_DAY))
        severity[d, window] = peak
    return severity


def _capacity_from_severity(rng, severity, base):
    noise = rng.integers(-1, 2, size=severity.shape)
    return np.clip(np.round(base * (1.0 - 0.6 * severity)) + noise, 1, None)


def _queue_served(demand, capacity):
    """Cumulative count served by the end of each interval of a FIFO
    queue: Q[t] = max(0, Q[t-1] + demand[t] - capacity[t])."""
    drift = np.cumsum(demand - capacity)
    queued = drift - np.minimum(np.minimum.accumulate(drift), 0)
    return np.cumsum(demand) - queued


def generate_records(seed: int, days: int):
    """Operation records for every (airport, op_type) over ``days`` days.

    Demand follows a daily profile with morning and evening peaks; a
    first-in first-out queue carries demand above the latent capacity
    into later intervals with growing delay, so all three saturation
    criteria fire. Times are minutes from the start of day 0 and stay
    inside the horizon.
    """
    rng = np.random.default_rng([seed, 1])
    horizon = days * INTERVALS_PER_DAY
    end = horizon * INTERVAL_MINUTES - 0.01
    hours = np.arange(INTERVALS_PER_DAY) / 4.0
    profile = (
        2.0
        + 5.0 * np.exp(-((hours - 8.0) ** 2) / 4.0)
        + 4.0 * np.exp(-((hours - 18.0) ** 2) / 6.0)
    )
    severity = _day_severity(rng, days).ravel()
    records = []
    for airport in AIRPORTS:
        for op_type in (ARRIVAL, DEPARTURE):
            capacity = _capacity_from_severity(rng, severity, 8.0).astype(int)
            demand = rng.poisson(np.tile(profile, days))
            # arrival order is time order: intervals are disjoint
            scheduled = np.sort(
                np.repeat(np.arange(horizon) * INTERVAL_MINUTES, demand)
                + rng.uniform(0, INTERVAL_MINUTES, demand.sum())
            )
            served = _queue_served(demand, capacity)
            done = int(served[-1])
            # the k-th arrival is served in the interval where the
            # cumulative count served first exceeds k
            start = np.searchsorted(served, np.arange(done), side="right") * INTERVAL_MINUTES
            on_time = scheduled[:done] >= start
            actual = np.maximum(scheduled[:done], start) + rng.uniform(0, INTERVAL_MINUTES, done)
            prompt = on_time & (rng.random(done) < 0.7)
            actual[prompt] = scheduled[:done][prompt] + rng.uniform(0, 4.0, int(prompt.sum()))
            actual = np.minimum(np.clip(actual, start, start + INTERVAL_MINUTES - 0.01), end)
            # whatever is still queued at the end of the horizon flies in
            # the last interval
            late = scheduled[done:]
            last = (horizon - 1) * INTERVAL_MINUTES
            late_actual = rng.uniform(np.maximum(late, last), end)
            records += [
                OperationRecord(airport, op_type, s, a)
                for s, a in zip(scheduled.tolist(), actual.tolist() + late_actual.tolist())
            ]
    order = rng.permutation(len(records))
    return [records[i] for i in order], horizon


def _features(rng, severity, demand, interval_of_day):
    """17 columns: 12 noisy weather readings, 2 demand columns and the
    time of day as sine, cosine and a raw hour."""
    n = len(severity)
    weather = severity[:, None] * rng.uniform(0.5, 1.5, size=(1, 12))
    weather = weather + rng.normal(0.0, 0.08, size=(n, 12))
    hours = interval_of_day / 4.0
    return np.column_stack(
        [
            weather,
            demand,
            demand * (1.0 + rng.normal(0.0, 0.1, size=n)),
            np.sin(2 * np.pi * hours / 24.0),
            np.cos(2 * np.pi * hours / 24.0),
            hours,
        ]
    )


def generate_training(seed: int, rows: int, max_capacity: int):
    """Labelled rows whose capacity label falls with latent severity.

    Returns (features, labels, series) where series maps each of the six
    (airport, op_type) cells to a held-out day of 96 feature vectors.
    """
    rng = np.random.default_rng([seed, 2])
    days = math.ceil(rows / INTERVALS_PER_DAY) + 1
    severity = _day_severity(rng, days)
    interval = np.tile(np.arange(INTERVALS_PER_DAY), days)
    flat = severity.ravel()
    demand = rng.poisson(6.0, size=flat.size).astype(float)
    features = _features(rng, flat, demand, interval)
    labels = np.clip(
        np.round((max_capacity - 2) * (1.0 - 0.7 * flat)
                 + rng.normal(0.0, 1.2, size=flat.size)),
        0,
        max_capacity,
    ).astype(int)
    series = {}
    for airport in AIRPORTS:
        for op_type in (ARRIVAL, DEPARTURE):
            day = _day_severity(rng, 1).ravel()
            day_demand = rng.poisson(6.0, size=INTERVALS_PER_DAY).astype(float)
            series[airport, op_type] = _features(
                rng, day, day_demand, np.arange(INTERVALS_PER_DAY)
            )
    return features[:rows], labels[:rows], series


# ---------------------------------------------------------------------------
# network day


def _min_reachable_mean(support, weights, band):
    """Smallest mean reduce_distribution can reach: fill the lowest
    supports up to their band ceiling, floor the rest."""
    lows = [max(0.0, (1.0 - band) * w) for w in weights]
    highs = [(1.0 + band) * w for w in weights]
    mass = list(lows)
    left = 1.0 - sum(lows)
    for i in range(len(support)):
        add = min(left, highs[i] - lows[i])
        mass[i] += add
        left -= add
    return sum(s * m for s, m in zip(support, mass))


def _stage_atoms(rng, atoms, top):
    """``atoms`` distinct capacities: a heavy low atom of 0 or 1, the rest
    spread up to ``top``, probabilities summing to one."""
    low = int(rng.integers(0, 2))
    rest = sorted(
        int(v)
        for v in rng.choice(np.arange(low + 1, top + 1), size=atoms - 1, replace=False)
    )
    heavy = float(rng.uniform(0.4, 0.5))
    others = rng.dirichlet(np.full(atoms - 1, 2.0)) * (1.0 - heavy)
    weights = [heavy] + [float(w) for w in others]
    return [low] + rest, weights


def _tree(rng, airport, op_type, horizon, stages, atoms, top):
    cuts = sorted(
        int(c) for c in rng.choice(np.arange(1, horizon - 1), size=stages - 1, replace=False)
    )
    bounds = [0] + [c + 1 for c in cuts] + [horizon]
    segments = tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:]))
    stage_pmfs, reps = [], []
    for _ in range(stages):
        while True:
            support, weights = _stage_atoms(rng, atoms, top)
            mean = sum(s * w for s, w in zip(support, weights))
            if _min_reachable_mean(support, weights, SWEEP_BAND) < (
                (1.0 - MAX_REDUCTION) * mean - 0.05
            ):
                break
        rep = make_pmf(support, weights)
        reps.append(rep)
        stage_pmfs.append(ReducedPmf(tuple(zip(rep.support, rep.weights))))
    clustering = TimeClustering(tuple(cuts), segments, tuple(reps))
    scenarios = tuple(
        (tuple(s for s, _ in combo), math.prod(p for _, p in combo))
        for combo in itertools.product(*(stage.atoms for stage in stage_pmfs))
    )
    return ScenarioTree(airport, op_type, tuple(stage_pmfs), clustering, scenarios)


def network_day(
    seed: int,
    flights: int,
    horizon: int,
    stages: int = 3,
    atoms: int = 3,
) -> MaghpInstance:
    """A 3-airport day with ``flights`` legs over ``horizon`` intervals.

    Departures cluster in two banks so some intervals are oversubscribed
    at every capacity atom; about a fifth of the legs continue on a
    later leg of the same aircraft. Ground delay is priced well under
    the recourse unit, so hedging decisions matter.
    """
    rng = np.random.default_rng([seed, 3])
    banks = (horizon // 4, (2 * horizon) // 3)
    legs = []
    for i in range(flights):
        origin = str(rng.choice(AIRPORTS))
        destination = str(rng.choice([a for a in AIRPORTS if a != origin]))
        bank = banks[i % 2]
        dep = int(np.clip(round(rng.normal(bank, horizon / 10)), 0, horizon - 4))
        legs.append(
            Flight(
                id=f"f{i:03d}",
                origin=origin,
                destination=destination,
                sched_dep=dep,
                sched_arr=dep + int(rng.integers(1, 4)),
            )
        )
    connections = []
    used: set = set()
    for pred, succ in itertools.permutations(legs, 2):
        if len(connections) >= flights // 5:
            break
        if pred.id in used or succ.id in used or pred.destination != succ.origin:
            continue
        gap = succ.sched_dep - pred.sched_arr
        if 0 <= gap <= 3:
            connections.append(
                FlightConnection(pred.id, succ.id, int(rng.integers(0, gap + 1)))
            )
            used.update((pred.id, succ.id))
    per_cell = flights / (len(AIRPORTS) * horizon)
    top = max(atoms + 1, int(round(6 * per_cell)) + 2)
    instance = MaghpInstance(
        airports=AIRPORTS,
        flights=tuple(legs),
        connections=tuple(connections),
        horizon=horizon,
        cost_ground=0.25,
        cost_air=3.0,
    )
    rng = np.random.default_rng([seed, 4])
    instance.trees = {
        key: _tree(rng, key[0], key[1], horizon, stages, atoms, top)
        for key in instance.constrained_keys()
    }
    return instance

