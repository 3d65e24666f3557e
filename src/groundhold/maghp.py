"""Network ground holding models over capacity scenario trees.

Flights get exactly one departure slot and one arrival slot. Ground
delay (slot minus scheduled departure) costs cost_ground per interval,
airborne delay costs cost_air per interval, and connected flights pass
their delay downstream minus the schedule's built-in slack. The first
stage is built one side at a time, departures and arrivals: it prices
delay through wait variables, one per flight and interval, that read 1
while the flight has not yet departed (or arrived); one precedence or
connection row per interval ties them together. That keeps the
deterministic relaxation integral on the days measured, the stochastic
and robust ones only at small sizes (_build_first_stage). Three model
flavors:

* deterministic: hard per-interval airport capacities; the only one
  that plans airborne delay, through the arrival side;
* stochastic: ground holding only, each flight landing a flight time
  after it leaves, and queue overflow, the airborne delay, charged at
  the recourse unit cost and weighted by probability; planned airborne
  delay could never pay (_build_first_stage gives the argument);
* robust: the stochastic model's expectation replaced by the worst
  distribution within a Wasserstein ball of radius epsilon around the
  tree's scenario probabilities, under an L1 ground metric on
  stage-capacity vectors, via the dual deterministic equivalent.

Both scenario models share one stagewise overflow block instead of
enumerating the tree. Overflow cost is separable per interval, and
interval t's capacity depends only on the atom of its own stage, so per
cell and interval t > 0 there is one variable z[t, c] >= assigned_t - c
for each distinct capacity c of stage(t), left out where it can never be
positive. The stochastic model prices z[t, c] at that capacity's stage
probability. Stage probabilities come from ScenarioTree.stage_capacities,
which merges atoms that collide after rounding.

The robust dual splits by stage too: a tree's support is the product of
its stage capacities and the L1 metric, in units of the diameter D, sums
over stages. A stage's overflow cost is convex and non-increasing in its
capacity, so the robust model is the stochastic one plus a multiplier
per cell and one premium and one row per stage capacity above the
smallest (build_dr gives the argument). Its size grows with stage atoms,
not with scenario pairs.

Capacity applies to intervals 0..horizon-1; enough unconstrained
overflow periods are appended past the horizon that every instance
stays feasible no matter how much traffic must be pushed out. The first
interval allows no overflow in the stochastic and robust models: one
hard row caps it at its stage's smallest capacity.

A solved policy is its slot assignment; flight_delays derives each
flight's ground and airborne delay from the slots.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field, replace

import numpy as np

from .capacity import ARRIVAL, DEPARTURE, OP_TYPES
from .config import load_input, write_json
from .errors import MissingInputError, SolverError
from .pmf import as_real, as_whole
from .scenario import ScenarioTree, tree_from_dict, tree_to_dict
from .solver import LinearModel, Solution

DEFAULT_TIME_LIMIT = 300.0


@dataclass(frozen=True)
class Flight:
    """One flight leg with scheduled departure/arrival interval indices.

    An endpoint is inside the network when it is one of the instance's
    airports."""

    id: str
    origin: str
    destination: str
    sched_dep: int
    sched_arr: int

    def __post_init__(self):
        if self.sched_dep < 0:
            raise ValueError(f"flight {self.id}: negative departure interval")
        if self.sched_arr < self.sched_dep + 1:
            raise ValueError(
                f"flight {self.id}: arrival must come at least one interval "
                "after departure"
            )

    @property
    def flight_time(self) -> int:
        return self.sched_arr - self.sched_dep


@dataclass(frozen=True)
class FlightConnection:
    """Same-aircraft pair: the successor inherits the predecessor's delay
    beyond the schedule's slack."""

    predecessor: str
    successor: str
    slack: int

    def __post_init__(self):
        if self.slack < 0:
            raise ValueError("connection slack must be non-negative")


@dataclass
class MaghpInstance:
    airports: tuple[str, ...]
    flights: tuple[Flight, ...]
    connections: tuple[FlightConnection, ...]
    horizon: int
    cost_ground: float
    cost_air: float
    trees: dict = field(default_factory=dict)

    def __post_init__(self):
        self.airports = tuple(self.airports)
        self.flights = tuple(self.flights)
        self.connections = tuple(self.connections)
        if not 0 < self.cost_ground <= self.cost_air < math.inf:
            raise ValueError("need finite cost_air >= cost_ground > 0")
        if self.horizon < 1:
            raise ValueError("horizon must be at least one interval")
        if not self.flights:
            raise ValueError("an instance needs at least one flight")
        ids = [f.id for f in self.flights]
        if len(set(ids)) != len(ids):
            raise ValueError("flight ids must be unique")
        self._by_id = {f.id: f for f in self.flights}
        for c in self.connections:
            if not {c.predecessor, c.successor} <= self._by_id.keys():
                raise ValueError(f"connection {c.predecessor}->{c.successor} names no flight")
            pred, succ = self.flight(c.predecessor), self.flight(c.successor)
            if pred.destination != succ.origin:
                raise ValueError(
                    f"connection {c.predecessor}->{c.successor}: successor must "
                    "depart from the predecessor's destination"
                )
            if succ.sched_dep < pred.sched_arr:
                raise ValueError(
                    f"connection {c.predecessor}->{c.successor}: successor is "
                    "scheduled to depart before the predecessor arrives"
                )
        for (airport, op_type), tree in self.trees.items():
            if op_type not in OP_TYPES:
                raise ValueError(f"unknown op_type {op_type!r} in trees")
            if airport not in self.airports:
                raise ValueError(f"tree attached to unknown airport {airport!r}")
            if (tree.airport, tree.op_type) != (airport, op_type):
                raise ValueError(
                    f"tree for {tree.airport}/{tree.op_type} is attached to cell {airport}/{op_type}"
                )
            if tree.time_clusters.num_intervals != self.horizon:
                raise ValueError(
                    f"tree for {airport}/{op_type} covers "
                    f"{tree.time_clusters.num_intervals} intervals, "
                    f"instance horizon is {self.horizon}"
                )

    def flight(self, flight_id: str) -> Flight:
        return self._by_id[flight_id]

    @property
    def recourse_cost(self) -> float:
        """The price of one interval of airborne overflow: cost_air."""
        return self.cost_air

    def total_periods(self) -> int:
        """Horizon plus enough overflow periods to absorb any traffic.

        Found by pushing every flight to the first unconstrained period
        and propagating turnaround needs along connections, so at least
        one assignment always satisfies every coupling constraint with
        zero airborne delay. One pass over the connections, in order of
        the predecessor's scheduled departure, suffices: a connection
        into a predecessor comes from a flight that lands by the time the
        predecessor departs (__post_init__ refuses any other), so it
        departed strictly earlier and its need was propagated first.
        """
        latest = {f.id: max(f.sched_dep, self.horizon) for f in self.flights}
        for c in sorted(self.connections, key=lambda c: self.flight(c.predecessor).sched_dep):
            pred, succ = self.flight(c.predecessor), self.flight(c.successor)
            need = latest[pred.id] + succ.sched_dep - pred.sched_dep - c.slack
            latest[succ.id] = max(latest[succ.id], need)
        return max(latest[f.id] + f.flight_time for f in self.flights) + 1

    def delay_connections(self) -> list[FlightConnection]:
        """The connections delay propagates through: those whose
        turnaround airport (the successor's origin, which is the
        predecessor's destination) is inside the network. There the
        successor absorbs the predecessor's total delay beyond the
        scheduled slack."""
        return [
            c for c in self.connections if self.flight(c.successor).origin in self.airports
        ]

    def constrained_keys(self):
        """(airport, op_type) cells that need a capacity profile: each
        network airport some flight departs from or arrives at."""
        keys = set()
        for f in self.flights:
            if f.origin in self.airports:
                keys.add((f.origin, DEPARTURE))
            if f.destination in self.airports:
                keys.add((f.destination, ARRIVAL))
        return sorted(keys)


def _cell_loads(instance: MaghpInstance, departures, arrivals):
    """The one rule for which capacity cell a slot loads.

    departures and arrivals yield ((flight id, interval), item) pairs of
    departure and arrival slots. A departure slot loads the flight's
    origin, an arrival slot its destination, and only slots inside the
    horizon count; yields ((airport, op_type), interval, item).
    """
    for slots, endpoint, op_type in (
        (departures, "origin", DEPARTURE),
        (arrivals, "destination", ARRIVAL),
    ):
        for (fid, t), item in slots:
            if t < instance.horizon:
                yield (getattr(instance.flight(fid), endpoint), op_type), t, item


def _runs(lengths) -> tuple[np.ndarray, np.ndarray]:
    """For consecutive runs of the given lengths, the run of every entry
    and the entry's position within its run."""
    lengths = np.asarray(lengths, dtype=int)
    run = np.repeat(np.arange(len(lengths)), lengths)
    return run, np.arange(len(run)) - (np.cumsum(lengths) - lengths)[run]


@dataclass(frozen=True)
class GroundDelayPolicy:
    """First-stage slot choices: per flight id, the departure (u_slot)
    and arrival (v_slot) interval. flight_delays derives the delays."""

    u_slot: dict
    v_slot: dict


@dataclass
class SolveResult:
    status: str
    objective: float | None
    policy: GroundDelayPolicy | None
    duals: dict = field(default_factory=dict)
    kind: str = ""
    epsilon: float | None = None


@dataclass
class ModelBundle:
    """A built model plus the variable maps needed to read it back.

    u_index and v_index map (flight id, interval) to the departure and
    arrival slot binaries, each flight's slots listed together in
    interval order; z_index maps each cell to its overflow variables
    keyed (t, c) and, for dr, alpha_index each cell to its multiplier.
    """

    kind: str
    model: LinearModel
    instance: MaghpInstance
    u_index: dict
    v_index: dict
    z_index: dict = field(default_factory=dict)
    alpha_index: dict = field(default_factory=dict)
    epsilon: float | None = None


def _build_first_stage(instance: MaghpInstance, model: LinearModel, airborne: bool):
    """Slot binaries, wait variables and coupling rows; returns the
    departure and arrival slot maps.

    Flight f departs in one slot u[f, t], t from sched_dep; the wait
    x[f, t] = sum over tau > t of u[f, tau] reads 1 while f has not yet
    departed at t (_slot_block), so its ground delay is sum_t x[f, t].
    With airborne (build_det), f also lands in one slot v[f, t], t from
    sched_arr, with waits y[f, t] likewise, and its airborne delay is
    sum_t y[f, t] - sum_t x[f, t]: x costs cost_ground - cost_air, y
    cost_air. Without (build_sp, build_dr), f lands a flight time after
    it leaves: v[f, t + flight_time] is u[f, t], y likewise x, and x
    costs cost_ground.

    That loses no optimum of sp or dr. In one with airborne delay, land
    each late flight a >= 1 slots earlier, a flight time after it
    leaves, which saves cost_air * a. Its new slot, at least 1, meets no
    interval 0 hard row; it adds one flight to one interval, which
    raises each scenario's overflow by at most one unit, priced at
    cost_air (instance_from_dict refuses any other recourse price), and
    so the expected or worst expected recourse by at most cost_air.
    Landing earlier only loosens the connection rows.

    One rule orders two wait chains (_wait_rows): the one ahead may not
    have stopped waiting while the one behind, offset entries on, still
    waits. With airborne, each flight's arrival waits stay ahead of its
    departure waits, offset 0, so f lands at least a flight time after
    it leaves (Bertsimas & Stock Patterson, Oper. Res. 1998). Each
    delay connection's successor's departure waits stay ahead of its
    predecessor's arrival waits, offset slack, so the successor leaves
    at least succ.sched_dep - pred.sched_arr - slack after the
    predecessor lands.

    Both sides of a flight have m = total - sched_arr slots. The
    departure side comes first; with airborne, the arrival side and the
    precedence rows, flight by flight, follow; the connection rows come
    last, connection by connection.

    On random network days these rows kept the det relaxation integral
    up to 300 flights, sp's and dr's at 14 flights but not from 60 on;
    LinearModel.minimize takes an integral one without branch and bound.
    """
    total = instance.total_periods()
    flights = instance.flights
    slots = total - np.array([f.sched_arr for f in flights], dtype=int)
    if airborne:
        u, x = _slot_block(model, slots, instance.cost_ground - instance.cost_air)
        v, y = _slot_block(model, slots, instance.cost_air)
        _wait_rows(model, x, y, slots, slots, 0)
    else:
        u, x = v, y = _slot_block(model, slots, instance.cost_ground)

    position = {f.id: i for i, f in enumerate(flights)}
    connections = instance.delay_connections()
    pairs = [(position[c.predecessor], position[c.successor], c.slack) for c in connections]
    pred, succ, slack = np.array(pairs, dtype=int).reshape(-1, 3).T
    _wait_rows(model, y[pred], x[succ], slots[pred], slots[succ], slack)

    run, k = _runs(slots)
    ids = [flights[i].id for i in run.tolist()]
    departures = np.array([f.sched_dep for f in flights], dtype=int)[run] + k
    arrivals = np.array([f.sched_arr for f in flights], dtype=int)[run] + k
    u_index = dict(zip(zip(ids, departures.tolist()), (u[run] + k).tolist()))
    v_index = dict(zip(zip(ids, arrivals.tolist()), (v[run] + k).tolist()))
    return u_index, v_index


def _wait_rows(model: LinearModel, behind, ahead, behind_slots, ahead_slots, offset) -> None:
    """One row per wait offset + j of each behind side, in one append:
    ahead wait j >= behind wait offset + j, or behind wait offset + j
    <= 0 once the ahead side's waits have run out. A behind wait below
    offset would pair with an ahead entry before the side's first slot,
    a wait that reads 1, so its row holds by itself and is left out.
    behind and ahead hold each side's first wait, behind_slots and
    ahead_slots its slot count (a side has one wait fewer,
    _slot_block), offset one whole number or one per side."""
    run, j = _runs(np.maximum(behind_slots - 1 - offset, 0))
    paired = j < (ahead_slots - 1)[run]
    model.add_rows(
        np.concatenate([np.arange(len(j)), np.flatnonzero(paired)]),
        np.concatenate([(behind + offset)[run] + j, (ahead[run] + j)[paired]]),
        np.concatenate([np.where(paired, -1.0, 1.0), np.ones(int(paired.sum()))]),
        np.where(paired, 0.0, -np.inf),
        np.where(paired, np.inf, 0.0),
    )


def _slot_block(model: LinearModel, slots: np.ndarray, wait_cost: float):
    """One side of the first stage: per flight, slots[f] slot binaries
    s[f, k] and slots[f] - 1 waits w[f, k] = sum over j > k of s[f, j],
    each costing wait_cost, in one append; then one row summing the
    binaries to 1 and one chain row w[f, k] - s[f, k + 1] - w[f, k + 1]
    = 0 per wait, w[f, k + 1] left out for the last, in another. Returns
    each flight's first binary and first wait."""
    size = 2 * slots - 1
    run, k = _runs(size)
    binary = k < slots[run]
    first = model.add_variables(np.where(binary, 0.0, wait_cost), binary)
    slot = first + np.cumsum(size) - size
    wait = slot + slots

    row = np.cumsum(slots) - slots
    run, k = _runs(slots)
    sum_rows, binaries = row[run], slot[run] + k
    run, k = _runs(slots - 1)
    chain = row[run] + 1 + k
    waits = wait[run] + k
    more = k + 1 < (slots - 1)[run]
    rhs = np.zeros(int(slots.sum()))
    rhs[row] = 1.0
    model.add_rows(
        np.concatenate([sum_rows, chain, chain, chain[more]]),
        np.concatenate([binaries, waits, slot[run] + k + 1, waits[more] + 1]),
        np.repeat([1.0, -1.0], [len(binaries) + len(k), len(k) + int(more.sum())]),
        rhs,
        rhs,
    )
    return slot, wait


def _slot_terms(instance: MaghpInstance, u_index: dict, v_index: dict) -> dict:
    """Per (airport, op_type), the slot binaries landing on the horizon's
    intervals as (binaries, counts): the binaries in interval order and
    counts[t] of them on interval t; one pass over the slot maps. Cells
    no flight uses read as empty intervals."""
    cells: dict = defaultdict(lambda: ([], []))
    for key, t, var in _cell_loads(instance, u_index.items(), v_index.items()):
        times, binaries = cells[key]
        times.append(t)
        binaries.append(var)
    slots: dict = defaultdict(
        lambda: (np.zeros(0, dtype=int), np.zeros(instance.horizon, dtype=int))
    )
    for key, (times, binaries) in cells.items():
        order = np.argsort(times, kind="stable")
        slots[key] = (np.array(binaries)[order], np.bincount(times, minlength=instance.horizon))
    return slots


def _capacity_rows(model: LinearModel, loads: tuple, intervals, upper, overflow=()) -> None:
    """One row per entry of intervals, in one append: the slot binaries
    on that interval, less one overflow variable in each of the last
    len(overflow) rows, at most its entry of upper. loads is the cell's
    entry of _slot_terms."""
    binaries, counts = loads
    run, k = _runs(counts[intervals])
    overflow = np.asarray(overflow, dtype=int)
    model.add_rows(
        np.concatenate([run, len(intervals) - len(overflow) + np.arange(len(overflow))]),
        np.concatenate([binaries[(np.cumsum(counts) - counts)[intervals][run] + k], overflow]),
        np.concatenate([np.ones(len(run)), -np.ones(len(overflow))]),
        np.full(len(intervals), -np.inf),
        np.asarray(upper, dtype=float),
    )


def build_det(instance: MaghpInstance, fixed_capacities: dict) -> ModelBundle:
    """Hard-capacity MILP over given per-interval capacity profiles.

    fixed_capacities maps (airport, op_type) to a horizon-length count
    sequence; cells without an entry are unconstrained.
    """
    model = LinearModel()
    u_index, v_index = _build_first_stage(instance, model, airborne=True)
    slots = _slot_terms(instance, u_index, v_index)
    for (airport, op_type), profile in sorted(fixed_capacities.items()):
        if len(profile) != instance.horizon:
            raise ValueError(
                f"capacity profile for {airport}/{op_type} must cover the horizon"
            )
        loads = slots[airport, op_type]
        intervals = np.flatnonzero(loads[1])
        _capacity_rows(model, loads, intervals, np.asarray(profile, dtype=float)[intervals])
    return ModelBundle("det", model, instance, u_index, v_index)


def _require_trees(instance: MaghpInstance) -> list:
    keys = instance.constrained_keys()
    missing = [k for k in keys if k not in instance.trees]
    if missing:
        raise MissingInputError(f"no scenario tree for {missing}")
    return keys


def _overflow_block(
    model: LinearModel, instance: MaghpInstance, loads: tuple, tree: ScenarioTree
) -> dict:
    """Stagewise queue overflow for one capacity cell.

    Adds z[t, c] >= assigned_t - c, z >= 0, for every interval t > 0 and
    every distinct capacity c of stage(t), each z costing its stage
    probability times the recourse unit, and one hard row capping
    interval 0 at its stage's smallest capacity. A z that can never be
    positive (no more candidate flights than c) is left out and reads
    as zero. The rows come in interval order, the z and their rows in
    ascending capacity within an interval, in one append each. loads
    is the cell's entry of _slot_terms. Returns the z map keyed (t, c).
    """
    counts = loads[1]
    marginals = tree.stage_capacities
    stages = tree.time_clusters.stage_index
    # every (t, c, P(c)) with t > 0 where some flight can overflow c
    t, capacity, prob = np.array([
        (i, c, p) for i in range(1, len(stages)) for c, p in marginals[stages[i]].items()
        if counts[i] > c
    ]).reshape(-1, 3).T
    t, capacity = t.astype(int), capacity.astype(int)
    z = model.add_variables(prob * instance.recourse_cost) + np.arange(len(t))

    floor = min(marginals[stages[0]])
    hard = int(counts[0] > max(floor, 0))  # interval 0's row, where it can bind
    intervals = np.append(np.zeros(hard, dtype=int), t)
    _capacity_rows(model, loads, intervals, np.append(np.full(hard, floor), capacity), z)
    return dict(zip(zip(t.tolist(), capacity.tolist()), z.tolist()))


def build_sp(instance: MaghpInstance) -> ModelBundle:
    """Two-stage stochastic model over the attached scenario trees.

    The expectation over a tree's scenarios is written in stage-atom
    form: per cell, z[t, c] carries the overflow above capacity c at
    interval t and costs p_stage(t)(c) times the recourse unit, which
    equals the scenario-weighted sum of per-scenario overflow exactly.
    """
    keys = _require_trees(instance)
    model = LinearModel()
    u_index, v_index = _build_first_stage(instance, model, airborne=False)
    slots = _slot_terms(instance, u_index, v_index)
    z_index = {
        key: _overflow_block(model, instance, slots[key], instance.trees[key]) for key in keys
    }
    return ModelBundle("sp", model, instance, u_index, v_index, z_index)


def _diameter(marginals) -> float:
    """D = sum over stages of (largest - smallest capacity), the largest
    L1 distance between two vectors of a product support."""
    return float(sum(max(atoms) - min(atoms) for atoms in marginals))


def _radius(epsilon) -> float:
    """epsilon as a Wasserstein radius, a finite non-negative number."""
    try:
        radius = as_real(epsilon)
    except ValueError:
        radius = math.nan
    if not 0 <= radius < math.inf:
        raise ValueError(f"radius must be a finite non-negative number, got {epsilon!r}")
    return radius


def build_dr(instance: MaghpInstance, epsilon) -> ModelBundle:
    """Dual deterministic equivalent of the Wasserstein-robust model:
    build_sp's model plus one robustness premium per stage atom.

    epsilon is the radius of every cell's ball; the ground metric is L1
    on stage-capacity vectors, in units of the diameter D (_diameter).
    Each cell adds a multiplier alpha >= 0 (objective weight epsilon)
    and, per capacity a of stage s above the stage's smallest lo_s, a
    premium pi[s, a] >= 0 (weight P_s(a), its stage probability) and one
    row pi[s, a] + alpha * (a - lo_s) / D >= unit * sum (z[t, lo_s] -
    z[t, a]) over t > 0 in stage s (a missing z reads 0). A cell's
    multiplier and premiums go to the model in one append, its rows in
    another.

    That is the scenario-pair dual, beta_i >= Q_j - alpha * d(i, j) for
    all i, j, exactly. With G_s(b) = unit * sum z[t, b], Q_j =
    sum_s G_s(x_j^s); on the product support every ScenarioTree has,
    beta_i = sum_s gamma[s, x_i^s] with gamma[s, a] = max_b (G_s(b) -
    alpha * |a - b| / D), and sum_i p_i beta_i = sum_s sum_a P_s(a)
    gamma[s, a]. At fixed slots, fractional ones included, G_s is convex
    and non-increasing in b, so the max over b >= a is G_s(a) and over
    [lo_s, a] sits at an end: gamma[s, a] = max(G_s(a), G_s(lo_s) -
    alpha * (a - lo_s) / D) = G_s(a) + pi[s, a].
    The objective, sp's plus epsilon * alpha + sum P_s(a) pi[s, a], does
    not decrease in any z, so some optimum has every z at its bound.
    """
    radius = _radius(epsilon)
    bundle = build_sp(instance)
    model, unit = bundle.model, instance.recourse_cost
    alphas = {}
    for key, z in bundle.z_index.items():
        tree = instance.trees[key]
        marginals = tree.stage_capacities
        diameter = _diameter(marginals)
        # the block's variables are alpha, then one premium per row
        alpha = alphas[key] = model.num_variables
        weights, rows, cols, vals = [radius], [], [], []
        for segment, atoms in zip(tree.time_clusters.segments, marginals):
            lo, *above = atoms
            for a in above:
                row = len(weights) - 1
                weights.append(atoms[a])
                terms = [(alpha + row + 1, 1.0), (alpha, (a - lo) / diameter)]
                terms += [(z[t, lo], -unit) for t in segment if (t, lo) in z]
                terms += [(z[t, a], unit) for t in segment if (t, a) in z]
                rows += [row] * len(terms)
                cols += [col for col, _ in terms]
                vals += [val for _, val in terms]
        model.add_variables(weights)
        count = len(weights) - 1
        model.add_rows(rows, cols, vals, np.zeros(count), np.full(count, np.inf))
    return replace(bundle, kind="dr", alpha_index=alphas, epsilon=radius)


def _chosen_slots(index: dict, values: np.ndarray) -> dict:
    """Per flight id, the interval whose slot binary is largest, the
    first of a tie, as max() over the slots would pick. index lists each
    flight's slots together, in interval order (ModelBundle)."""
    ids, times = zip(*index)
    chosen = values[np.fromiter(index.values(), dtype=int, count=len(times))]
    starts = [k for k in range(len(ids)) if k == 0 or ids[k] != ids[k - 1]]
    return {
        ids[a]: times[a + int(np.argmax(chosen[a:b]))]
        for a, b in zip(starts, starts[1:] + [len(ids)])
    }


def _as_scheduled(bundle: ModelBundle) -> np.ndarray:
    """The model's point that flies the schedule: each flight's slot
    binaries at sched_dep and sched_arr at 1 (one binary in sp and dr),
    every other variable, waits, overflow, multipliers and premiums, at
    0."""
    values = np.zeros(bundle.model.num_variables)
    for f in bundle.instance.flights:
        values[bundle.u_index[f.id, f.sched_dep]] = 1.0
        values[bundle.v_index[f.id, f.sched_arr]] = 1.0
    return values


def solve(bundle: ModelBundle, time_limit: float = DEFAULT_TIME_LIMIT) -> SolveResult:
    """Run the solver and read the solution back into domain terms.

    The schedule comes first: when its point (_as_scheduled) meets every
    bound and row of the model, exactly (LinearModel.feasible), it is
    the optimum, with objective 0, gap 0, dual bound 0 and 0 nodes, and
    HiGHS is not called. Every model's objective is at least 0 on its
    points: delay costs cost_ground per ground and cost_air per airborne
    interval (0 < cost_ground <= cost_air), and overflow, multipliers
    and premiums are at least 0 with weights at least 0. The schedule's
    point costs 0, so nothing does better, and since cost_ground > 0 the
    schedule is the only first stage that costs 0, the policy HiGHS
    would return. A point that breaks a row goes to
    LinearModel.minimize.

    For dr, duals["alpha"] maps each cell to its multiplier and
    duals["gamma"] each cell to one list per stage of [capacity, gamma]
    pairs in ascending capacity, gamma from _stage_gammas at the solved
    alpha. The reported objective is recomputed from the policy and must
    agree within 1e-6 relative, else SolverError: the first-stage cost
    plus, per cell, _stage_recourse of the policy, for dr at the solved
    alpha and plus epsilon * alpha. That reads neither the model's
    overflow variables nor its premiums, so it checks the stagewise rows
    of build_sp and build_dr independently.
    """
    point = _as_scheduled(bundle)
    if bundle.model.feasible(point):
        solution = Solution("optimal", 0.0, point, 0.0, 0.0, 0)
    else:
        solution = bundle.model.minimize(time_limit=time_limit)
    if solution.status != "optimal":
        return SolveResult(
            solution.status,
            solution.objective,
            None,
            kind=bundle.kind,
            epsilon=bundle.epsilon,
        )

    values = solution.values
    instance = bundle.instance
    policy = GroundDelayPolicy(
        _chosen_slots(bundle.u_index, values), _chosen_slots(bundle.v_index, values)
    )

    duals = {}
    recomputed = first_stage_cost(instance, policy)
    if bundle.kind != "det":
        alphas = None
        if bundle.kind == "dr":
            alphas = {key: float(values[var]) for key, var in bundle.alpha_index.items()}
            duals["alpha"] = alphas
        gammas = _stage_gammas(instance, policy, alphas)
        if alphas is not None:
            duals["gamma"] = {
                key: [[[a, float(g)] for a, g in zip(atoms, gamma)] for atoms, gamma in stages]
                for key, stages in gammas.items()
            }
        recomputed += math.fsum(_stage_recourse(gammas).values())
    if bundle.kind == "dr":
        recomputed += bundle.epsilon * math.fsum(duals["alpha"].values())
    gap = abs(recomputed - solution.objective) / max(1.0, abs(solution.objective))
    if gap > 1e-6:
        raise SolverError(
            f"objective {solution.objective} not reproducible from the "
            f"solution ({recomputed})"
        )
    return SolveResult(
        "optimal",
        float(solution.objective),
        policy,
        duals,
        kind=bundle.kind,
        epsilon=bundle.epsilon,
    )


def extract_policy(result: SolveResult) -> GroundDelayPolicy:
    if result.status != "optimal" or result.policy is None:
        raise SolverError(f"no policy available for status {result.status!r}")
    return result.policy


def flight_delays(instance: MaghpInstance, policy: GroundDelayPolicy) -> dict:
    """Per flight id, the (ground, air) delay in intervals the slots
    imply: ground delay is the departure slot minus the scheduled
    departure, airborne delay the arrival lateness ground delay left."""
    delays = {}
    for f in instance.flights:
        ground = policy.u_slot[f.id] - f.sched_dep
        delays[f.id] = ground, policy.v_slot[f.id] - f.sched_arr - ground
    return delays


def first_stage_cost(instance: MaghpInstance, policy: GroundDelayPolicy) -> float:
    return math.fsum(
        instance.cost_ground * ground + instance.cost_air * air
        for ground, air in flight_delays(instance, policy).values()
    )


def assigned_counts(instance: MaghpInstance, policy: GroundDelayPolicy) -> dict:
    """Per (airport, op_type), the flights the policy puts on each
    interval of the horizon, in one pass over the flights; the same
    cells _slot_terms has. Cells no flight loads read as zeros."""
    counts: dict = defaultdict(lambda: np.zeros(instance.horizon))
    departures = (((f.id, policy.u_slot[f.id]), None) for f in instance.flights)
    arrivals = (((f.id, policy.v_slot[f.id]), None) for f in instance.flights)
    for key, t, _ in _cell_loads(instance, departures, arrivals):
        counts[key][t] += 1
    return counts


def _stage_overflow(instance: MaghpInstance, policy: GroundDelayPolicy, keys) -> dict:
    """Per cell of keys, the table G[s, c] = sum over t in stage s of
    max(assigned_t - c, 0) for c = 0..top, top the cell's largest count,
    above which G_s is 0: the recourse of a frozen policy in one stage,
    before the unit cost. The evaluator, solve()'s check and the worst
    case all read it, at column min(c, top).

    Each cell's table is built once, summing its excess rows over the
    stage segments, which are contiguous, in order and not empty
    (TimeClustering). The counts are whole, so every value is an exact
    integer, in whatever order its terms are summed."""
    counts = assigned_counts(instance, policy)
    tables = {}
    for key in keys:
        loads = counts[key]
        excess = np.maximum(loads[:, None] - np.arange(int(loads.max(initial=0)) + 1), 0.0)
        starts = [segment[0] for segment in instance.trees[key].time_clusters.segments]
        tables[key] = np.add.reduceat(excess, starts)
    return tables


def overflow(instance: MaghpInstance, policy: GroundDelayPolicy, capacities: dict) -> dict:
    """Queue overflow of a frozen policy under given capacities, the
    recourse the evaluator prices. capacities maps a cell to rows of
    whole stage capacities (samples drawn per stage, say); per cell, one
    value per row: max(assigned_t - capacity_t, 0) summed over the
    horizon, which instance.recourse_cost turns into the recourse cost.
    A negative capacity raises ValueError."""
    excess = {}
    for key, table in _stage_overflow(instance, policy, capacities).items():
        rows = np.asarray(capacities[key])
        if rows.min(initial=0) < 0:
            raise ValueError("capacities must be whole numbers of at least 0")
        stages, columns = table.shape
        excess[key] = table[np.arange(stages), np.minimum(rows, columns - 1)].sum(axis=1)
    return excess


def _stage_gammas(instance: MaghpInstance, policy: GroundDelayPolicy, alphas=None) -> dict:
    """Per constrained cell, one (capacities, values) pair per stage for
    a frozen policy: per capacity a, G_s(a) = unit * sum over t in stage
    s (interval 0 too, as in overflow) of max(assigned_t - a, 0); or,
    given alphas, a multiplier per cell, gamma[s, a] = max_b (G_s(b) -
    alpha * |a - b| / D) = max(G_s(a), G_s(lo_s) - alpha * (a - lo_s) /
    D), G_s being convex and non-increasing (build_dr)."""
    unit = instance.recourse_cost
    gammas = {}
    for key, table in _stage_overflow(instance, policy, instance.constrained_keys()).items():
        marginals = instance.trees[key].stage_capacities
        diameter = _diameter(marginals) or 1.0  # D = 0 leaves every distance 0
        gammas[key] = []
        for stage, atoms in enumerate(marginals):
            capacity = np.fromiter(atoms, dtype=int, count=len(atoms))
            recourse = unit * table[stage, np.minimum(capacity, table.shape[1] - 1)]
            if alphas is not None:
                rise = alphas[key] * (capacity - capacity[0]) / diameter
                recourse = np.maximum(recourse, recourse[0] - rise)
            gammas[key].append((atoms, recourse))
    return gammas


def _stage_recourse(gammas: dict) -> dict:
    """Per cell, sum_s sum_a P_s(a) times the values of _stage_gammas:
    the expected recourse or, given alphas there, the robust recourse
    less epsilon * alpha, equal to their forms over every scenario or
    scenario pair."""
    return {
        key: sum(float(np.dot(list(atoms.values()), values)) for atoms, values in stages)
        for key, stages in gammas.items()
    }


def support_worst_case(policy: GroundDelayPolicy, instance: MaghpInstance) -> float:
    """First-stage cost plus, per constrained cell, the largest recourse
    over its tree's scenarios.

    Every distribution in a Wasserstein ball lives on the tree's
    scenarios, so this bounds the policy's robust cost at any radius, and
    the robust cost reaches it once the radius covers the ball's
    diameter. Overflow does not increase with capacity and the support
    is a product, so the largest recourse sums each stage's G_s at its
    smallest capacity, the first of _stage_gammas' ascending atoms."""
    return first_stage_cost(instance, policy) + math.fsum(
        float(values[0]) for stages in _stage_gammas(instance, policy).values()
        for _, values in stages
    )


def best_capacity_profiles(instance: MaghpInstance) -> dict:
    """Per cell, the support scenario with the largest time-weighted
    total capacity, expanded to a per-interval profile. On a product
    support that is each stage's largest capacity."""
    profiles = {}
    for key, tree in sorted(instance.trees.items()):
        highest = [max(m) for m in tree.stage_capacities]
        profiles[key] = [highest[k] for k in tree.time_clusters.stage_index]
    return profiles


# ---------------------------------------------------------------------------
# files


def instance_to_dict(instance: MaghpInstance) -> dict:
    return {
        "airports": list(instance.airports),
        "flights": [
            {"id": f.id, "origin": f.origin, "destination": f.destination,
             "sched_dep": f.sched_dep, "sched_arr": f.sched_arr}
            for f in instance.flights
        ],
        "connections": [
            {"predecessor": c.predecessor, "successor": c.successor, "slack": c.slack}
            for c in instance.connections
        ],
        "horizon": instance.horizon,
        "cost_ground": instance.cost_ground,
        "cost_air": instance.cost_air,
        "trees": [tree_to_dict(t) for _, t in sorted(instance.trees.items())],
    }


def _name(body: dict, key: str) -> str:
    """body[key], a flight or airport name, which must be a string, as the
    keys of a result file are."""
    if not isinstance(body[key], str):
        raise ValueError(f"{key!r} must be a string, got {body[key]!r}")
    return body[key]


def instance_from_dict(body: dict) -> MaghpInstance:
    """Rebuild an instance. Overflow is priced at cost_air, so a file
    that sets cost_recourse to anything but null is refused rather than
    priced at another rate; a second tree for one (airport, op_type)
    cell is refused rather than taken in place of the first."""
    if body.get("cost_recourse") is not None:
        raise ValueError(
            "'cost_recourse' must be absent or null, since overflow is priced "
            f"at cost_air; got {body['cost_recourse']!r}"
        )
    airports = body["airports"]
    if not (isinstance(airports, list) and all(isinstance(a, str) for a in airports)):
        raise ValueError(f"'airports' must be a list of strings, got {airports!r}")
    flights = tuple(
        Flight(
            id=_name(f, "id"),
            origin=_name(f, "origin"),
            destination=_name(f, "destination"),
            sched_dep=as_whole(f["sched_dep"]),
            sched_arr=as_whole(f["sched_arr"]),
        )
        for f in body["flights"]
    )
    trees = {}
    for tree_body in body.get("trees", []):
        tree = tree_from_dict(tree_body)
        if (tree.airport, tree.op_type) in trees:
            raise ValueError(f"two trees for cell {tree.airport}/{tree.op_type}")
        trees[tree.airport, tree.op_type] = tree
    return MaghpInstance(
        airports=airports,
        flights=flights,
        connections=tuple(
            FlightConnection(_name(c, "predecessor"), _name(c, "successor"), as_whole(c["slack"]))
            for c in body["connections"]
        ),
        horizon=as_whole(body["horizon"]),
        cost_ground=as_real(body["cost_ground"]),
        cost_air=as_real(body["cost_air"]),
        trees=trees,
    )


def save_instance(path, instance: MaghpInstance) -> None:
    write_json(path, instance_to_dict(instance))


def load_instance(path) -> MaghpInstance:
    return load_input(path, "instance", instance_from_dict)


def result_to_dict(result: SolveResult, instance: MaghpInstance) -> dict:
    body = {
        "status": result.status,
        "objective": result.objective,
        "model": result.kind,
        "epsilon": result.epsilon,
    }
    if result.policy is not None:
        delays = flight_delays(instance, result.policy)
        body["flights"] = {
            f.id: {
                "u_slot": result.policy.u_slot[f.id],
                "v_slot": result.policy.v_slot[f.id],
                "ground_delay": delays[f.id][0],
                "air_delay": delays[f.id][1],
            }
            for f in instance.flights
        }
        if result.duals:
            body["duals"] = {
                name: {f"{a}/{o}": value for (a, o), value in sorted(values.items())}
                for name, values in result.duals.items()
            }
    return body


def save_result(path, result: SolveResult, instance: MaghpInstance) -> None:
    write_json(path, result_to_dict(result, instance))


def result_from_dict(body: dict) -> SolveResult:
    """Rebuild status, objective, policy and duals from a result file.

    The policy is read from the slots alone; a flight's ground_delay and
    air_delay fields are derived from them and not read back. Of the
    duals, alpha and gamma are read; the per-scenario beta an older file
    carries instead of gamma is ignored. epsilon, the radius, is a real
    number or null."""
    status, objective = body["status"], body["objective"]
    policy = None
    duals = {}
    if "flights" in body:
        entries = body["flights"]
        policy = GroundDelayPolicy(
            {fid: as_whole(e["u_slot"]) for fid, e in entries.items()},
            {fid: as_whole(e["v_slot"]) for fid, e in entries.items()},
        )
        for name in ("alpha", "gamma"):
            if name in body.get("duals", {}):
                duals[name] = {
                    tuple(label.rsplit("/", 1)): value
                    for label, value in body["duals"][name].items()
                }
    epsilon = body.get("epsilon")
    return SolveResult(
        status=status,
        objective=objective,
        policy=policy,
        duals=duals,
        kind=body.get("model", ""),
        epsilon=None if epsilon is None else as_real(epsilon),
    )


def load_result(path) -> SolveResult:
    return load_input(path, "result", result_from_dict)
