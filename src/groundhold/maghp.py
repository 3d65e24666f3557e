"""Network ground holding models over capacity scenario trees.

Flights get exactly one departure slot and one arrival slot. Ground
delay (slot minus scheduled departure) costs cost_ground per interval,
airborne delay costs cost_air per interval, and connected flights pass
their delay downstream minus the schedule's built-in slack. Three model
flavors share this first stage:

* deterministic: hard per-interval airport capacities;
* stochastic: queue overflow charged at the recourse unit cost and
  weighted by probability;
* robust: the stochastic model's expectation replaced by the worst
  distribution within a Wasserstein ball of radius epsilon around the
  tree's scenario probabilities, via the dual deterministic equivalent
  (a scalar multiplier and one free dual per empirical scenario, tied
  to each scenario's recourse by one constraint per ordered scenario
  pair).

Both scenario models share one stagewise overflow block instead of
enumerating the tree. Overflow cost is separable per interval, and
interval t's capacity depends only on the atom of its own stage, so per
cell and interval t > 0 there is one variable z[t, c] >= assigned_t - c
for each distinct capacity c of stage(t). The stochastic model prices
z[t, c] at that capacity's stage probability; the robust model sums a
scenario's z terms into one recourse variable Q_j, and its pair rows
read alpha * dist(i, j) + beta_i - Q_j >= 0. Stage probabilities are
summed from the tree's scenarios, so the block is exact for any
scenario list, including atoms that collide after rounding.

Capacity applies to intervals 0..horizon-1; enough unconstrained
overflow periods are appended past the horizon that every instance
stays feasible no matter how much traffic must be pushed out. The first
interval allows no overflow in the stochastic and robust models: one
hard row caps it at its stage's smallest capacity.

A brute-force oracle (inner_worst_case) solves the worst-distribution
LP directly with transportation variables so the dual reformulation can
be cross-checked end to end.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .capacity import ARRIVAL, DEPARTURE, OP_TYPES
from .errors import (
    MissingInputError,
    SolverError,
)
from .pmf import normalize_ground_costs
from .scenario import ScenarioTree, scenario_capacity_profile, tree_from_dict, tree_to_dict
from .solver import BINARY, LinearModel

DEFAULT_TIME_LIMIT = 300.0


@dataclass(frozen=True)
class Flight:
    """One flight leg with scheduled departure/arrival interval indices."""

    id: str
    origin: str
    destination: str
    sched_dep: int
    sched_arr: int
    in_network_origin: bool = True
    in_network_destination: bool = True

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
    cost_recourse: float | None = None

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
        network = set(self.airports)
        for f in self.flights:
            if f.in_network_origin != (f.origin in network):
                raise ValueError(
                    f"flight {f.id}: origin network flag disagrees with airports"
                )
            if f.in_network_destination != (f.destination in network):
                raise ValueError(
                    f"flight {f.id}: destination network flag disagrees with airports"
                )
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
            if airport not in network:
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
        return self.cost_air if self.cost_recourse is None else self.cost_recourse

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

    def departures_from(self, airport: str):
        return [f for f in self.flights if f.origin == airport]

    def arrivals_to(self, airport: str):
        return [f for f in self.flights if f.destination == airport]

    def constrained_keys(self):
        """(airport, op_type) cells that need a capacity profile."""
        keys = set()
        for f in self.flights:
            if f.in_network_origin:
                keys.add((f.origin, DEPARTURE))
            if f.in_network_destination:
                keys.add((f.destination, ARRIVAL))
        return sorted(keys)


@dataclass(frozen=True)
class GroundDelayPolicy:
    """First-stage slot choices with their implied delays."""

    u_slot: dict
    v_slot: dict
    ground_delay: dict
    air_delay: dict


@dataclass
class SolveResult:
    status: str
    objective: float | None
    policy: GroundDelayPolicy | None
    duals: dict = field(default_factory=dict)
    kind: str = ""
    epsilon: dict = field(default_factory=dict)


@dataclass
class ModelBundle:
    """A built model plus the variable maps needed to read it back."""

    kind: str
    model: LinearModel
    instance: MaghpInstance
    u_index: dict
    v_index: dict
    g_index: dict
    a_index: dict
    alpha_index: dict = field(default_factory=dict)
    beta_index: dict = field(default_factory=dict)
    epsilon: dict = field(default_factory=dict)


def _build_first_stage(instance: MaghpInstance, model: LinearModel):
    """Shared slot binaries, delay variables and coupling constraints."""
    total = instance.total_periods()
    u_index, v_index, g_index, a_index = {}, {}, {}, {}
    for f in instance.flights:
        for t in range(f.sched_dep, total - f.flight_time):
            u_index[f.id, t] = model.add_variable(kind=BINARY)
        for t in range(f.sched_arr, total):
            v_index[f.id, t] = model.add_variable(kind=BINARY)
        g_index[f.id] = model.add_variable(objective=instance.cost_ground)
        a_index[f.id] = model.add_variable(objective=instance.cost_air)

        u_terms = [(u_index[f.id, t], 1.0) for t in range(f.sched_dep, total - f.flight_time)]
        v_terms = [(v_index[f.id, t], 1.0) for t in range(f.sched_arr, total)]
        model.add_linear_constraint(u_terms, "=", 1.0)
        model.add_linear_constraint(v_terms, "=", 1.0)
        # ground delay is the chosen departure slot minus schedule
        model.add_linear_constraint(
            [(g_index[f.id], 1.0)]
            + [
                (u_index[f.id, t], -float(t))
                for t in range(f.sched_dep, total - f.flight_time)
            ],
            "=",
            -float(f.sched_dep),
        )
        # airborne delay is whatever arrival lateness ground delay missed
        terms = [(a_index[f.id], 1.0)]
        terms += [(v_index[f.id, t], -float(t)) for t in range(f.sched_arr, total)]
        terms += [(u_index[f.id, t], float(t)) for t in range(f.sched_dep, total - f.flight_time)]
        model.add_linear_constraint(terms, "=", float(f.sched_dep - f.sched_arr))

    for c in instance.connections:
        pred = instance.flight(c.predecessor)
        succ = instance.flight(c.successor)
        if not (pred.in_network_destination and succ.in_network_origin):
            continue
        # delay propagation: the successor absorbs the predecessor's
        # total delay beyond the scheduled slack
        model.add_linear_constraint(
            [
                (g_index[succ.id], 1.0),
                (g_index[pred.id], -1.0),
                (a_index[pred.id], -1.0),
            ],
            ">=",
            -float(c.slack),
        )
    return total, u_index, v_index, g_index, a_index


def _slot_terms(instance: MaghpInstance, u_index: dict, v_index: dict) -> dict:
    """Per (airport, op_type), the slot binaries landing on each interval
    of the horizon, in flight order; one pass over the slot maps. Cells
    no flight uses read as empty intervals."""
    horizon = instance.horizon
    cells: dict = defaultdict(lambda: [[] for _ in range(horizon)])
    for index, endpoint, op_type in (
        (u_index, "origin", DEPARTURE),
        (v_index, "destination", ARRIVAL),
    ):
        for (fid, t), var in index.items():
            if t < horizon:
                key = (getattr(instance.flight(fid), endpoint), op_type)
                cells[key][t].append((var, 1.0))
    return cells


def build_det(instance: MaghpInstance, fixed_capacities: dict) -> ModelBundle:
    """Hard-capacity MILP over given per-interval capacity profiles.

    fixed_capacities maps (airport, op_type) to a horizon-length count
    sequence; cells without an entry are unconstrained.
    """
    model = LinearModel()
    _, u_index, v_index, g_index, a_index = _build_first_stage(instance, model)
    slots = _slot_terms(instance, u_index, v_index)
    for (airport, op_type), profile in sorted(fixed_capacities.items()):
        if len(profile) != instance.horizon:
            raise ValueError(
                f"capacity profile for {airport}/{op_type} must cover the horizon"
            )
        for t, terms in enumerate(slots[airport, op_type]):
            if terms:
                model.add_linear_constraint(terms, "<=", float(profile[t]))
    return ModelBundle("det", model, instance, u_index, v_index, g_index, a_index)


def _require_trees(instance: MaghpInstance) -> list:
    keys = instance.constrained_keys()
    missing = [k for k in keys if k not in instance.trees]
    if missing:
        raise MissingInputError(f"no scenario tree for {missing}")
    return keys


def stage_capacities(tree: ScenarioTree) -> tuple[dict, ...]:
    """Per stage, each distinct capacity mapped to its probability.

    Probabilities are summed from tree.scenarios per (stage, capacity),
    not read from stage_pmfs, so the marginals stay exact for trees
    loaded from hand-written files and for atoms that collide after
    rounding. Capacities come in ascending order.
    """
    marginals: list[dict] = [{} for _ in range(tree.time_clusters.num_stages)]
    for vector, prob in tree.scenarios:
        for stage, capacity in enumerate(vector):
            marginals[stage][capacity] = marginals[stage].get(capacity, 0.0) + prob
    return tuple(dict(sorted(m.items())) for m in marginals)


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
    marginals = stage_capacities(tree)
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
    _, u_index, v_index, g_index, a_index = _build_first_stage(instance, model)
    slots = _slot_terms(instance, u_index, v_index)
    for key in keys:
        _overflow_block(model, instance, slots[key], instance.trees[key], True)
    return ModelBundle("sp", model, instance, u_index, v_index, g_index, a_index)


def scenario_distance_matrix(tree: ScenarioTree) -> np.ndarray:
    """Pairwise Euclidean distances between scenario vectors, scaled so
    the largest distance is 1 (left at zero for degenerate trees)."""
    vectors = np.asarray(tree.vectors, dtype=float)
    diff = vectors[:, None, :] - vectors[None, :, :]
    distances = np.sqrt((diff**2).sum(axis=2))
    if distances.max() <= 0.0:
        return distances
    return normalize_ground_costs(distances)


def _epsilon_by_op(epsilon) -> dict:
    if isinstance(epsilon, dict):
        radii = {op: float(epsilon[op]) for op in OP_TYPES}
    else:
        radii = {op: float(epsilon) for op in OP_TYPES}
    for op, value in radii.items():
        if value < 0:
            raise ValueError(f"epsilon for {op} must be non-negative")
    return radii


def build_dr(instance: MaghpInstance, epsilon) -> ModelBundle:
    """Dual deterministic equivalent of the Wasserstein-robust model.

    epsilon is a single radius or a mapping per op_type. Per capacity
    cell the model carries one multiplier alpha >= 0 (objective weight
    epsilon), one free dual beta per empirical scenario (weighted by its
    probability), the stagewise overflow block shared with build_sp
    (unpriced), one recourse variable Q_j per support scenario tied by
    one row to the recourse unit times the sum of z over j's stage
    atoms, and alpha * dist(i, j) + beta_i - Q_j >= 0 for every ordered
    scenario pair (i, j).
    """
    radii = _epsilon_by_op(epsilon)
    keys = _require_trees(instance)
    model = LinearModel()
    _, u_index, v_index, g_index, a_index = _build_first_stage(instance, model)
    slots = _slot_terms(instance, u_index, v_index)
    alpha_index, beta_index = {}, {}
    unit = instance.recourse_cost
    for key in keys:
        tree = instance.trees[key]
        distances = scenario_distance_matrix(tree)
        alpha = alpha_index[key] = model.add_variable(objective=radii[key[1]])
        betas = []
        for i, prob in enumerate(tree.probabilities):
            betas.append(model.add_variable(objective=prob, lower=-np.inf))
            beta_index[key + (i,)] = betas[-1]
        z_index = _overflow_block(model, instance, slots[key], tree, False)
        stages = tree.time_clusters.stage_index
        recourse = []
        for vector in tree.vectors:
            q = model.add_variable()
            recourse.append(q)
            terms = [(q, 1.0)]
            for t in range(1, instance.horizon):
                z = z_index.get((t, vector[stages[t]]))
                if z is not None:
                    terms.append((z, -unit))
            model.add_linear_constraint(terms, "=", 0.0)
        for i, beta in enumerate(betas):
            for j, q in enumerate(recourse):
                model.add_linear_constraint(
                    [(alpha, float(distances[i, j])), (beta, 1.0), (q, -1.0)],
                    ">=",
                    0.0,
                )
    return ModelBundle(
        "dr",
        model,
        instance,
        u_index,
        v_index,
        g_index,
        a_index,
        alpha_index,
        beta_index,
        epsilon=radii,
    )


def solve(bundle: ModelBundle, time_limit: float = DEFAULT_TIME_LIMIT) -> SolveResult:
    """Run the solver and read the solution back into domain terms.

    The reported objective is re-derived from the extracted solution and
    must agree within 1e-6 relative; a disagreement means the variable
    maps and the model went out of sync and raises SolverError.
    """
    solution = bundle.model.minimize(time_limit=time_limit)
    if solution.status != "optimal":
        return SolveResult(
            solution.status,
            solution.objective,
            None,
            kind=bundle.kind,
            epsilon=dict(bundle.epsilon),
        )

    values = solution.values
    instance = bundle.instance
    slots = ({}, {})
    for index, chosen in zip((bundle.u_index, bundle.v_index), slots):
        for (fid, t), var in index.items():
            # first slot with the largest value, as max() over the slots would pick
            if fid not in chosen or values[var] > values[index[fid, chosen[fid]]]:
                chosen[fid] = t
    u_slot, v_slot = slots
    ground = {f.id: u_slot[f.id] - f.sched_dep for f in instance.flights}
    air = {
        f.id: v_slot[f.id] - f.sched_arr - ground[f.id] for f in instance.flights
    }
    policy = GroundDelayPolicy(u_slot, v_slot, ground, air)

    duals = {}
    if bundle.kind == "dr":
        duals["alpha"] = {
            key: float(values[var]) for key, var in bundle.alpha_index.items()
        }
        beta: dict = {}
        for (airport, op_type, i), var in bundle.beta_index.items():
            beta.setdefault((airport, op_type), {})[i] = float(values[var])
        duals["beta"] = beta

    recomputed = first_stage_cost(instance, policy)
    if bundle.kind == "sp":
        recomputed += expected_recourse_cost(policy, instance)
    elif bundle.kind == "dr":
        for key in bundle.alpha_index:
            airport, op_type = key
            recomputed += bundle.epsilon[op_type] * duals["alpha"][key]
            probs = instance.trees[key].probabilities
            recomputed += math.fsum(
                p * duals["beta"][key][i] for i, p in enumerate(probs)
            )
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
        epsilon=dict(bundle.epsilon),
    )


def extract_policy(result: SolveResult) -> GroundDelayPolicy:
    if result.status != "optimal" or result.policy is None:
        raise SolverError(f"no policy available for status {result.status!r}")
    return result.policy


def first_stage_cost(instance: MaghpInstance, policy: GroundDelayPolicy) -> float:
    return math.fsum(
        instance.cost_ground * policy.ground_delay[f.id]
        + instance.cost_air * policy.air_delay[f.id]
        for f in instance.flights
    )


def assigned_counts(
    instance: MaghpInstance, policy: GroundDelayPolicy, airport: str, op_type: str
) -> np.ndarray:
    """Flights the policy puts on each capacity-constrained interval."""
    counts = np.zeros(instance.horizon)
    if op_type == DEPARTURE:
        for f in instance.departures_from(airport):
            t = policy.u_slot[f.id]
            if t < instance.horizon:
                counts[t] += 1
    else:
        for f in instance.arrivals_to(airport):
            t = policy.v_slot[f.id]
            if t < instance.horizon:
                counts[t] += 1
    return counts


def overflow(counts, capacities) -> np.ndarray:
    """Queue overflow max(counts - capacities, 0) summed over the last
    axis: one interval profile, or one row per sample."""
    return np.maximum(np.asarray(counts) - np.asarray(capacities), 0.0).sum(axis=-1)


def recourse_cost(
    instance: MaghpInstance,
    policy: GroundDelayPolicy,
    tree: ScenarioTree,
    vector,
) -> float:
    """Queue-overflow cost of one realized capacity vector, closed form."""
    counts = assigned_counts(instance, policy, tree.airport, tree.op_type)
    profile = scenario_capacity_profile(tree, vector)
    return instance.recourse_cost * float(overflow(counts, profile))


def expected_recourse_cost(policy: GroundDelayPolicy, instance: MaghpInstance) -> float:
    """Probability-weighted recourse over every tree's scenarios.

    Closed form in stage-atom terms: per interval, the overflow above
    each capacity of its stage times that capacity's probability. For a
    policy solved by the stochastic model this equals the model's
    objective minus its first-stage cost.
    """
    total = 0.0
    for key in sorted(instance.trees):
        tree = instance.trees[key]
        counts = assigned_counts(instance, policy, *key)
        for segment, atoms in zip(tree.time_clusters.segments, stage_capacities(tree)):
            capacities = np.array(list(atoms), dtype=float)
            probs = np.array(list(atoms.values()))
            total += float(probs @ overflow(counts[list(segment)], capacities[:, None]))
    return instance.recourse_cost * total


def inner_worst_case(
    policy: GroundDelayPolicy,
    instance: MaghpInstance,
    tree: ScenarioTree,
    epsilon: float,
) -> float:
    """Worst expected recourse cost over the Wasserstein ball, by LP.

    Maximizes sum_j q_j * Q_j over distributions q reachable from the
    tree's probabilities within transport budget epsilon, using explicit
    transportation variables; the q are the coupling's column sums. This
    is the primal the robust model dualizes, so strong duality ties the
    two together exactly.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    q_cost = [
        recourse_cost(instance, policy, tree, vector) for vector in tree.vectors
    ]
    distances = scenario_distance_matrix(tree)
    n = tree.num_scenarios
    model = LinearModel()
    plan = {
        (i, j): model.add_variable(objective=-q_cost[j])
        for i in range(n)
        for j in range(n)
    }
    for i, prob in enumerate(tree.probabilities):
        model.add_linear_constraint(
            [(plan[i, j], 1.0) for j in range(n)], "=", prob
        )
    model.add_linear_constraint(
        [(plan[i, j], float(distances[i, j])) for i in range(n) for j in range(n)],
        "<=",
        float(epsilon),
    )
    solution = model.minimize()
    if not solution.ok:
        raise SolverError(
            f"worst-case LP ended with status {solution.status}"
        )
    return -float(solution.objective)


def best_capacity_profiles(instance: MaghpInstance) -> dict:
    """Per cell, the support scenario with the largest time-weighted
    total capacity, expanded to a per-interval profile."""
    profiles = {}
    for key, tree in sorted(instance.trees.items()):
        lengths = [len(seg) for seg in tree.time_clusters.segments]
        best = max(
            range(tree.num_scenarios),
            key=lambda s: (
                sum(l * c for l, c in zip(lengths, tree.vectors[s])),
                -s,
            ),
        )
        profiles[key] = scenario_capacity_profile(tree, tree.vectors[best])
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
        "cost_recourse": instance.cost_recourse,
        "trees": [tree_to_dict(t) for _, t in sorted(instance.trees.items())],
    }


def instance_from_dict(body: dict) -> MaghpInstance:
    network = set(body["airports"])
    flights = tuple(
        Flight(
            id=f["id"],
            origin=f["origin"],
            destination=f["destination"],
            sched_dep=int(f["sched_dep"]),
            sched_arr=int(f["sched_arr"]),
            in_network_origin=f["origin"] in network,
            in_network_destination=f["destination"] in network,
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
        cost_recourse=body.get("cost_recourse"),
    )


def save_instance(path, instance: MaghpInstance) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(instance), indent=1) + "\n")


def _load(path, what: str, from_dict):
    """from_dict applied to a JSON file; a missing field or a value of the
    wrong shape raises MissingInputError naming the file."""
    body = json.loads(Path(path).read_text())
    try:
        return from_dict(body)
    except KeyError as exc:
        raise MissingInputError(f"{what} file {path} is missing {exc}") from exc
    except (AttributeError, TypeError) as exc:
        raise MissingInputError(f"{what} file {path} is malformed: {exc}") from exc


def load_instance(path) -> MaghpInstance:
    return _load(path, "instance", instance_from_dict)


def result_to_dict(result: SolveResult, instance: MaghpInstance) -> dict:
    body = {
        "status": result.status,
        "objective": result.objective,
        "model": result.kind,
        "epsilon": {op: e for op, e in sorted(result.epsilon.items())},
    }
    if result.policy is not None:
        body["flights"] = {
            f.id: {
                "u_slot": result.policy.u_slot[f.id],
                "v_slot": result.policy.v_slot[f.id],
                "ground_delay": result.policy.ground_delay[f.id],
                "air_delay": result.policy.air_delay[f.id],
            }
            for f in instance.flights
        }
        if result.duals:
            body["duals"] = {
                "alpha": {
                    f"{a}/{o}": value
                    for (a, o), value in sorted(result.duals["alpha"].items())
                },
                "beta": {
                    f"{a}/{o}": [beta[i] for i in sorted(beta)]
                    for (a, o), beta in sorted(result.duals["beta"].items())
                },
            }
    return body


def save_result(path, result: SolveResult, instance: MaghpInstance) -> None:
    Path(path).write_text(
        json.dumps(result_to_dict(result, instance), indent=1) + "\n"
    )


def result_from_dict(body: dict) -> SolveResult:
    """Rebuild status, objective, policy and duals from a result file.

    Files written before the per-scenario second-stage grid was dropped
    still carry a "second_stage" key; it is ignored.
    """
    status, objective = body["status"], body["objective"]
    policy = None
    duals = {}
    if "flights" in body:
        entries = body["flights"]
        policy = GroundDelayPolicy(
            {fid: int(e["u_slot"]) for fid, e in entries.items()},
            {fid: int(e["v_slot"]) for fid, e in entries.items()},
            {fid: int(e["ground_delay"]) for fid, e in entries.items()},
            {fid: int(e["air_delay"]) for fid, e in entries.items()},
        )
        if "duals" in body:
            duals["alpha"] = {
                tuple(label.split("/")): value
                for label, value in body["duals"]["alpha"].items()
            }
            duals["beta"] = {
                tuple(label.split("/")): dict(enumerate(values))
                for label, values in body["duals"]["beta"].items()
            }
    return SolveResult(
        status=status,
        objective=objective,
        policy=policy,
        duals=duals,
        kind=body.get("model", ""),
        epsilon={op: float(e) for op, e in body.get("epsilon", {}).items()},
    )


def load_result(path) -> SolveResult:
    return _load(path, "result", result_from_dict)
