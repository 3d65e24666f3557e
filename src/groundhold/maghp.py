"""Network ground holding models over capacity scenario trees.

Flights get exactly one departure slot and one arrival slot. Ground
delay (slot minus scheduled departure) costs cost_ground per interval,
airborne delay costs cost_air per interval, and connected flights pass
their delay downstream minus the schedule's built-in slack. The first
stage prices delay through wait variables, one per flight and interval,
that read 1 while the flight has not yet departed (or arrived); one
precedence or connection row per interval ties them together. That
keeps the deterministic relaxation integral on the days measured, the
stochastic and robust ones only at small sizes (_build_first_stage).
Three model flavors share this first stage:

* deterministic: hard per-interval airport capacities;
* stochastic: queue overflow charged at the recourse unit cost and
  weighted by probability;
* robust: the stochastic model's expectation replaced by the worst
  distribution within a Wasserstein ball of radius epsilon around the
  tree's scenario probabilities, under an L1 ground metric on
  stage-capacity vectors, via the dual deterministic equivalent.

Both scenario models share one stagewise overflow block instead of
enumerating the tree. Overflow cost is separable per interval, and
interval t's capacity depends only on the atom of its own stage, so per
cell and interval t > 0 there is one variable z[t, c] >= assigned_t - c
for each distinct capacity c of stage(t). The stochastic model prices
z[t, c] at that capacity's stage probability. Stage probabilities come
from ScenarioTree.stage_capacities, which sums them from the tree's
scenarios, so the block is exact for any scenario list, including atoms
that collide after rounding.

The robust dual splits by stage too. A tree's support is the product of
its stage capacities and the L1 metric sums over stages, so the worst
case seen from scenario i is a sum of one max per stage; the model
carries a multiplier alpha and one free dual gamma[s, a] per stage s and
capacity a, tied to the unpriced z by one row per pair of capacities of
a stage (build_dr gives the argument). Its size grows with stage atoms,
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

import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from numbers import Real
from pathlib import Path

import numpy as np

from .capacity import ARRIVAL, DEPARTURE, OP_TYPES
from .config import load_input
from .errors import MissingInputError, SolverError
from .scenario import ScenarioTree, tree_from_dict, tree_to_dict
from .solver import BINARY, LinearModel

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
        if not 0 < self.cost_ground <= self.cost_air:
            raise ValueError("need cost_air >= cost_ground > 0")
        if self.horizon < 1:
            raise ValueError("horizon must be at least one interval")
        ids = [f.id for f in self.flights]
        if len(set(ids)) != len(ids):
            raise ValueError("flight ids must be unique")
        self._by_id = {f.id: f for f in self.flights}
        for c in self.connections:
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
        zero airborne delay.
        """
        latest = {f.id: max(f.sched_dep, self.horizon) for f in self.flights}
        for _ in range(len(self.flights)):
            changed = False
            for c in self.connections:
                pred = self.flight(c.predecessor)
                succ = self.flight(c.successor)
                need = (
                    latest[pred.id]
                    + succ.sched_dep
                    - pred.sched_dep
                    - c.slack
                )
                if need > latest[succ.id]:
                    latest[succ.id] = need
                    changed = True
            if not changed:
                break
        else:
            raise ValueError("connection graph contains a cycle")
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
    arrival slot binaries. For dr, alpha_index maps each cell to its
    multiplier and gamma_index each cell to one {capacity: variable} map
    per stage, its free duals in ascending capacity.
    """

    kind: str
    model: LinearModel
    instance: MaghpInstance
    u_index: dict
    v_index: dict
    alpha_index: dict = field(default_factory=dict)
    gamma_index: dict = field(default_factory=dict)
    epsilon: float | None = None


def _build_first_stage(instance: MaghpInstance, model: LinearModel):
    """Shared slot binaries, wait variables and coupling rows; returns
    the departure and arrival slot maps.

    Flight f departs in one slot u[f, t], t from sched_dep, and arrives
    in one slot v[f, t], t from sched_arr. The wait x[f, t] = sum over
    tau > t of u[f, tau] is 1 while f has not yet departed at t, and
    y[f, t] likewise for arrival. Each is defined by one chain row
    x[f, t] - x[f, t+1] - u[f, t+1] = 0 for t from the schedule up to
    the last slot but one; a wait reads 1 before the schedule and 0 from
    the last slot on. Ground delay is sum_t x[f, t] and airborne delay
    sum_t y[f, t] - sum_t x[f, t], so the waits carry the whole delay
    cost, (cost_ground - cost_air) on x and cost_air on y.

    The coupling holds one row per interval (Bertsimas & Stock Patterson,
    Oper. Res. 1998):

    * precedence: y[f, t + flight_time] >= x[f, t], so f lands at least a
      flight time after it leaves;
    * connection: x[succ, t + lag] >= y[pred, t] with lag =
      succ.sched_dep - pred.sched_arr - slack, so the successor leaves
      at least lag after the predecessor lands. Where x[succ, t + lag]
      lies before succ's schedule the row holds by itself; past succ's
      last slot it reads y[pred, t] <= 0.

    On random network days these rows kept the det relaxation integral
    up to 300 flights, sp's and dr's at 14 flights but not from 60 on;
    LinearModel.minimize takes an integral one without branch and bound.
    """
    total = instance.total_periods()
    u_index, v_index, waits = {}, {}, {}
    ground_weight = instance.cost_ground - instance.cost_air
    for f in instance.flights:
        chains = []
        for slots, first, last, weight in (
            (u_index, f.sched_dep, total - f.flight_time, ground_weight),
            (v_index, f.sched_arr, total, instance.cost_air),
        ):
            chosen = [model.add_variable(kind=BINARY) for _ in range(first, last)]
            slots.update(((f.id, t), var) for t, var in zip(range(first, last), chosen))
            model.add_linear_constraint([(var, 1.0) for var in chosen], "=", 1.0)
            chains.append(_wait_chain(model, chosen, weight))
        # x and y both have total - sched_arr - 1 entries, and entry k of
        # y lies one flight time after entry k of x
        for x, y in zip(*chains):
            model.add_linear_constraint([(y, 1.0), (x, -1.0)], ">=", 0.0)
        waits[f.id] = chains

    for c in instance.delay_connections():
        x = waits[c.successor][0]
        y = waits[c.predecessor][1]
        # entry k of the predecessor's y pairs with entry k - slack of
        # the successor's x
        for k in range(c.slack, len(y)):
            if k - c.slack < len(x):
                model.add_linear_constraint([(x[k - c.slack], 1.0), (y[k], -1.0)], ">=", 0.0)
            else:
                model.add_linear_constraint([(y[k], 1.0)], "<=", 0.0)
    return u_index, v_index


def _wait_chain(model: LinearModel, chosen: list, weight: float) -> list:
    """One wait variable per slot but the last, entry k the sum of the
    slot binaries after slot k, each defined by one chain row; every
    wait costs weight."""
    waits = [model.add_variable(objective=weight) for _ in chosen[1:]]
    for k, wait in enumerate(waits):
        terms = [(wait, 1.0), (chosen[k + 1], -1.0)]
        if k + 1 < len(waits):
            terms.append((waits[k + 1], -1.0))
        model.add_linear_constraint(terms, "=", 0.0)
    return waits


def _slot_terms(instance: MaghpInstance, u_index: dict, v_index: dict) -> dict:
    """Per (airport, op_type), the slot binaries landing on each interval
    of the horizon, in flight order; one pass over the slot maps. Cells
    no flight uses read as empty intervals."""
    cells: dict = defaultdict(lambda: [[] for _ in range(instance.horizon)])
    for key, t, var in _cell_loads(instance, u_index.items(), v_index.items()):
        cells[key][t].append((var, 1.0))
    return cells


def build_det(instance: MaghpInstance, fixed_capacities: dict) -> ModelBundle:
    """Hard-capacity MILP over given per-interval capacity profiles.

    fixed_capacities maps (airport, op_type) to a horizon-length count
    sequence; cells without an entry are unconstrained.
    """
    model = LinearModel()
    u_index, v_index = _build_first_stage(instance, model)
    slots = _slot_terms(instance, u_index, v_index)
    for (airport, op_type), profile in sorted(fixed_capacities.items()):
        if len(profile) != instance.horizon:
            raise ValueError(
                f"capacity profile for {airport}/{op_type} must cover the horizon"
            )
        for t, terms in enumerate(slots[airport, op_type]):
            if terms:
                model.add_linear_constraint(terms, "<=", float(profile[t]))
    return ModelBundle("det", model, instance, u_index, v_index)


def _require_trees(instance: MaghpInstance) -> list:
    keys = instance.constrained_keys()
    missing = [k for k in keys if k not in instance.trees]
    if missing:
        raise MissingInputError(f"no scenario tree for {missing}")
    return keys


def _overflow_block(
    model: LinearModel,
    instance: MaghpInstance,
    cell_slots: list,
    tree: ScenarioTree,
    priced: bool,
) -> dict:
    """Stagewise queue overflow for one capacity cell.

    Adds z[t, c] >= assigned_t - c, z >= 0, for every interval t > 0 and
    every distinct capacity c of stage(t), and one hard row capping
    interval 0 at its stage's smallest capacity. A z that can never be
    positive (no more candidate flights than c) is left out and reads
    as zero. With priced=True each z costs its stage probability times
    the recourse unit. Returns the z map keyed (t, c).
    """
    marginals = tree.stage_capacities
    stages = tree.time_clusters.stage_index
    unit = instance.recourse_cost
    z_index = {}
    for t, terms in enumerate(cell_slots):
        atoms = marginals[stages[t]]
        if t == 0:
            floor = min(atoms)
            if terms and len(terms) > floor:
                model.add_linear_constraint(terms, "<=", float(floor))
            continue
        for capacity, prob in atoms.items():
            if len(terms) <= capacity:
                continue
            z = model.add_variable(objective=prob * unit if priced else 0.0)
            z_index[t, capacity] = z
            model.add_linear_constraint(terms + [(z, -1.0)], "<=", float(capacity))
    return z_index


def build_sp(instance: MaghpInstance) -> ModelBundle:
    """Two-stage stochastic model over the attached scenario trees.

    The expectation over a tree's scenarios is written in stage-atom
    form: per cell, z[t, c] carries the overflow above capacity c at
    interval t and costs p_stage(t)(c) times the recourse unit, which
    equals the scenario-weighted sum of per-scenario overflow exactly.
    """
    keys = _require_trees(instance)
    model = LinearModel()
    u_index, v_index = _build_first_stage(instance, model)
    slots = _slot_terms(instance, u_index, v_index)
    for key in keys:
        _overflow_block(model, instance, slots[key], instance.trees[key], True)
    return ModelBundle("sp", model, instance, u_index, v_index)


def _diameter(marginals) -> float:
    """D = sum over stages of (largest - smallest capacity), the largest
    L1 distance between two vectors of a product support."""
    return float(sum(max(atoms) - min(atoms) for atoms in marginals))


def _radius(epsilon) -> float:
    """epsilon as a Wasserstein radius, a finite non-negative number."""
    if isinstance(epsilon, bool) or not (isinstance(epsilon, Real) and 0 <= epsilon < math.inf):
        raise ValueError(f"radius must be a finite non-negative number, got {epsilon!r}")
    return float(epsilon)


def build_dr(instance: MaghpInstance, epsilon) -> ModelBundle:
    """Dual deterministic equivalent of the Wasserstein-robust model,
    written per stage atom.

    epsilon is the radius of every cell's ball; the ground
    metric is L1 on stage-capacity vectors over the diameter D
    (_diameter). Per capacity cell the model has
    a multiplier alpha >= 0 (objective weight epsilon), a free
    gamma[s, a] per stage s and capacity a (weight P_s(a), its stage
    probability), build_sp's overflow block unpriced, and for every pair
    of capacities a, b of stage s the row gamma[s, a] + alpha * |a - b|
    / D - unit * sum z[t, b] >= 0, summing over t > 0 in stage s (a
    missing z reads 0): sum_s k_s^2 rows for k_s capacities per stage.

    That is the scenario-pair dual, beta_i >= Q_j - alpha * d(i, j) for
    all i, j, exactly. With G_s(b) = unit * sum z[t, b], Q_j =
    sum_s G_s(x_j^s). On the product support every ScenarioTree has,
    and with d summing over stages, max_j (Q_j - alpha * d(i, j)) =
    sum_s max_b (G_s(b) - alpha * |x_i^s - b| / D), so beta_i =
    sum_s gamma[s, x_i^s]; and sum_i p_i beta_i = sum_s sum_a P_s(a)
    gamma[s, a] for any joint p.
    """
    radius = _radius(epsilon)
    keys = _require_trees(instance)
    model = LinearModel()
    u_index, v_index = _build_first_stage(instance, model)
    slots = _slot_terms(instance, u_index, v_index)
    alpha_index, gamma_index = {}, {}
    unit = instance.recourse_cost
    for key in keys:
        tree = instance.trees[key]
        marginals = tree.stage_capacities
        diameter = _diameter(marginals)
        alpha = alpha_index[key] = model.add_variable(objective=radius)
        gammas = gamma_index[key] = [
            {a: model.add_variable(objective=prob, lower=-np.inf) for a, prob in atoms.items()}
            for atoms in marginals
        ]
        z_index = _overflow_block(model, instance, slots[key], tree, False)
        for segment, gamma in zip(tree.time_clusters.segments, gammas):
            for a, g in gamma.items():
                for b in gamma:
                    terms = [(g, 1.0)]
                    if a != b:
                        terms.append((alpha, abs(a - b) / diameter))
                    terms += [(z_index[t, b], -unit) for t in segment if (t, b) in z_index]
                    model.add_linear_constraint(terms, ">=", 0.0)
    return ModelBundle(
        "dr", model, instance, u_index, v_index, alpha_index, gamma_index, radius
    )


def solve(bundle: ModelBundle, time_limit: float = DEFAULT_TIME_LIMIT) -> SolveResult:
    """Run the solver and read the solution back into domain terms.

    For dr, duals["alpha"] maps each cell to its multiplier and
    duals["gamma"] each cell to one list per stage of [capacity, gamma]
    pairs in ascending capacity. The reported objective is recomputed
    from the policy and must agree within 1e-6 relative, else
    SolverError: the first-stage cost plus, per cell, _stage_recourse of
    the policy, for dr at the solved alpha and plus epsilon * alpha.
    That reads neither the model's overflow variables nor its gammas, so
    it checks the stagewise rows of build_sp and build_dr independently.
    """
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
    slots = ({}, {})
    for index, chosen in zip((bundle.u_index, bundle.v_index), slots):
        for (fid, t), var in index.items():
            # first slot with the largest value, as max() over the slots would pick
            if fid not in chosen or values[var] > values[index[fid, chosen[fid]]]:
                chosen[fid] = t
    policy = GroundDelayPolicy(*slots)

    duals = {}
    if bundle.kind == "dr":
        duals["alpha"] = {
            key: float(values[var]) for key, var in bundle.alpha_index.items()
        }
        duals["gamma"] = {
            key: [[[a, float(values[var])] for a, var in stage.items()] for stage in stages]
            for key, stages in bundle.gamma_index.items()
        }

    recomputed = first_stage_cost(instance, policy)
    if bundle.kind != "det":
        recomputed += math.fsum(_stage_recourse(instance, policy, duals.get("alpha")).values())
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
    shape _slot_terms has. Cells no flight loads read as zeros."""
    counts: dict = defaultdict(lambda: np.zeros(instance.horizon))
    departures = (((f.id, policy.u_slot[f.id]), None) for f in instance.flights)
    arrivals = (((f.id, policy.v_slot[f.id]), None) for f in instance.flights)
    for key, t, _ in _cell_loads(instance, departures, arrivals):
        counts[key][t] += 1
    return counts


def overflow(instance: MaghpInstance, policy: GroundDelayPolicy, capacities: dict) -> dict:
    """Queue overflow of a frozen policy under given capacities, the
    recourse the evaluator prices. capacities maps a cell to rows of
    stage capacities (samples drawn per stage, say); per cell, one value per
    row: max(assigned_t - capacity_t, 0) summed over the horizon, which
    instance.recourse_cost turns into the recourse cost."""
    counts = assigned_counts(instance, policy)
    excess = {}
    for key, rows in capacities.items():
        stages = list(instance.trees[key].time_clusters.stage_index)
        profiles = np.asarray(rows)[:, stages]
        excess[key] = np.maximum(counts[key] - profiles, 0.0).sum(axis=1)
    return excess


def _stage_recourse(instance: MaghpInstance, policy: GroundDelayPolicy, alphas=None) -> dict:
    """Per constrained cell, a frozen policy's recourse per stage atom.

    With G_s(b) = unit * sum over t in stage s (interval 0 too, as in
    overflow) of max(assigned_t - b, 0), a cell's value is the expected
    recourse sum_s sum_a P_s(a) G_s(a); or, given alphas, a multiplier
    per cell, sum_s sum_a P_s(a) max_b (G_s(b) - alpha * |a - b| / D),
    the robust recourse at that alpha less epsilon * alpha (build_dr
    gives the argument). Either equals its form over every scenario, or
    scenario pair, for any joint probabilities on the product support.
    """
    counts = assigned_counts(instance, policy)
    unit = instance.recourse_cost
    values = {}
    for key in instance.constrained_keys():
        tree = instance.trees[key]
        marginals = tree.stage_capacities
        diameter = _diameter(marginals) or 1.0  # D = 0 leaves every distance 0
        total = 0.0
        for segment, atoms in zip(tree.time_clusters.segments, marginals):
            capacities = np.fromiter(atoms, dtype=float)
            recourse = unit * np.maximum(
                counts[key][list(segment)] - capacities[:, None], 0.0
            ).sum(axis=1)
            if alphas is not None:
                distances = np.abs(np.subtract.outer(capacities, capacities)) / diameter
                recourse = (recourse - alphas[key] * distances).max(axis=1)
            total += float(np.dot(np.fromiter(atoms.values(), dtype=float), recourse))
        values[key] = total
    return values


def support_worst_case(policy: GroundDelayPolicy, instance: MaghpInstance) -> float:
    """First-stage cost plus, per tree, the largest recourse over its
    scenarios.

    Every distribution in a Wasserstein ball lives on the tree's
    scenarios, so this bounds the policy's robust cost at any radius, and
    the robust cost reaches it once the radius covers the ball's
    diameter. Overflow does not increase with capacity and the support
    is a product, so the largest recourse is the one at each stage's
    smallest capacity.
    """
    trees = dict(sorted(instance.trees.items()))
    lowest = {key: [[min(m) for m in t.stage_capacities]] for key, t in trees.items()}
    excess = overflow(instance, policy, lowest)
    return first_stage_cost(instance, policy) + instance.recourse_cost * math.fsum(
        float(excess[key][0]) for key in trees
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
            {
                "id": f.id,
                "origin": f.origin,
                "destination": f.destination,
                "sched_dep": f.sched_dep,
                "sched_arr": f.sched_arr,
            }
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


def instance_from_dict(body: dict) -> MaghpInstance:
    """Rebuild an instance. Overflow is priced at cost_air, so a file
    that sets cost_recourse to anything but null is refused rather than
    priced at another rate."""
    if body.get("cost_recourse") is not None:
        raise ValueError(
            "'cost_recourse' must be absent or null, since overflow is priced "
            f"at cost_air; got {body['cost_recourse']!r}"
        )
    flights = tuple(
        Flight(
            id=f["id"],
            origin=f["origin"],
            destination=f["destination"],
            sched_dep=int(f["sched_dep"]),
            sched_arr=int(f["sched_arr"]),
        )
        for f in body["flights"]
    )
    trees = {}
    for tree_body in body.get("trees", []):
        tree = tree_from_dict(tree_body)
        trees[tree.airport, tree.op_type] = tree
    return MaghpInstance(
        airports=tuple(body["airports"]),
        flights=flights,
        connections=tuple(
            FlightConnection(c["predecessor"], c["successor"], int(c["slack"]))
            for c in body["connections"]
        ),
        horizon=int(body["horizon"]),
        cost_ground=float(body["cost_ground"]),
        cost_air=float(body["cost_air"]),
        trees=trees,
    )


def save_instance(path, instance: MaghpInstance) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(instance), indent=1) + "\n")


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
    Path(path).write_text(
        json.dumps(result_to_dict(result, instance), indent=1) + "\n"
    )


def result_from_dict(body: dict) -> SolveResult:
    """Rebuild status, objective, policy and duals from a result file.

    The policy is read from the slots alone; a flight's ground_delay and
    air_delay fields are derived from them and not read back. Of the
    duals, alpha and gamma are read; the per-scenario beta an older file
    carries instead of gamma is ignored, and of the radii an older file
    keys by op type the largest is read."""
    status, objective = body["status"], body["objective"]
    policy = None
    duals = {}
    if "flights" in body:
        entries = body["flights"]
        policy = GroundDelayPolicy(
            {fid: int(e["u_slot"]) for fid, e in entries.items()},
            {fid: int(e["v_slot"]) for fid, e in entries.items()},
        )
        for name in ("alpha", "gamma"):
            if name in body.get("duals", {}):
                duals[name] = {
                    tuple(label.split("/")): value
                    for label, value in body["duals"][name].items()
                }
    epsilon = body.get("epsilon")
    if isinstance(epsilon, dict):
        epsilon = max(epsilon.values(), default=None)
    return SolveResult(
        status=status,
        objective=objective,
        policy=policy,
        duals=duals,
        kind=body.get("model", ""),
        epsilon=None if epsilon is None else float(epsilon),
    )


def load_result(path) -> SolveResult:
    return load_input(path, "result", result_from_dict)
