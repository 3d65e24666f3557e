"""Independent computations the tests hold the library against.

The scenario-enumerating extensive forms are the stochastic and robust
builders as first written: one overflow variable per (scenario,
interval), and in the robust model one row per ordered scenario pair
carrying every one of those variables. They are exact but grow with the
number of scenarios rather than the number of stage atoms, so the
library builds the stagewise equivalent and the tests check the two
against each other.

aggregated_first_stage is the first stage as first written: one ground
and one air delay variable per flight, each defined by one row over all
of the flight's slots, and one row per connection over those delay sums.
It is exact but its relaxation is weak, so it takes branch and bound;
the library's per-interval wait rows must give the same optima.

The LP oracles solve by linear programming what the library computes in
closed form or by duality: the Wasserstein distance on the line
(wasserstein_lp), one sample's queue-overflow recourse
(lp_second_stage_cost), and the worst expected recourse over a
Wasserstein ball (inner_worst_case), the primal the robust model
dualizes.
cross_entropy is the training loss, used to check that training lowers
it. minibatch_descent is the MLP training loop as first written, one
fancy-indexed batch and fresh arrays per step, whose weights the
library's loop over one flat parameter buffer must reproduce to the
bit. looped_histograms is the empirical predictor's training as first
written, one round() per feature and one count per row, whose buckets
the library's array keys and bincount must reproduce exactly.
point_prediction and tolerance_interval are one PMF's mode and
tolerance set as first written, one Python sort per PMF, which the
library's array ranking in prediction.evaluate must reproduce.
looped_aggregate_intervals is the interval binning as first written,
one record at a time in Python, which the library's array version must
reproduce exactly.
scanned_best_capacity_profiles and scanned_support_worst_case are the
det profiles and the support worst case as first written, each a scan
over every scenario, which the library's reads of each stage's largest
and smallest capacity must reproduce exactly.
expected_recourse_cost and pair_regret are the recourse of a frozen
policy as solve() first checked it, over every scenario and every
scenario pair under scenario_distance_matrix; the library's per-stage
recomputation must match both.
scenario_capacity_profile expands one scenario to a capacity per
interval, the form these scenario-by-scenario oracles price.
fixpoint_total_periods is the overflow horizon as first written, every
connection relaxed until nothing changes, which the library's single
ordered pass must reproduce.
choice_capacities is the out-of-sample draw as first written, one
Generator.choice call per stage and the cells' columns stacked, whose
samples and dtype the library's draws must reproduce. broadcast_overflow is a frozen
policy's queue overflow as first written, every interval's excess over
its stage's capacity summed per sample; the library's per-stage tables
must reproduce it to the bit, and the oracles here that price a policy
scenario by scenario use it. looped_stage_overflow is a cell's stage
table summed one interval and one capacity at a time, which the
library's one sum over each stage's intervals must reproduce exactly.
rowwise_det, rowwise_sp and rowwise_dr are the builders as first
written, one add_variables call per variable and one add_row per row;
the library's block appends must hand HiGHS the same arrays. add_row
appends one row given as (variable, coefficient) terms, a sense and a
right-hand side, as every oracle model here does.
looked_up_average is the segment average as first written, every
member asked for every capacity of the union, whose weights the
library's one pass over each member must reproduce to the bit;
weight_of reads one capacity's weight of a PMF, 0 off its support.
"""

from __future__ import annotations

import math

import numpy as np

from groundhold.capacity import DELAYED_FLIGHT_MINUTES, DEPARTURE, IntervalStats
from groundhold.errors import SolverError
from groundhold.maghp import (
    ModelBundle,
    MaghpInstance,
    _build_first_stage,
    _cell_loads,
    _diameter,
    _radius,
    _require_trees,
    assigned_counts,
    first_stage_cost,
)
from groundhold.evaluation import shifted_representatives
from groundhold.pmf import Pmf, make_pmf
from groundhold.prediction import _softmax, predict_pmf
from groundhold.solver import LinearModel


def add_row(model: LinearModel, terms, sense: str, rhs: float) -> None:
    """Append the row sum(coef * var) <sense> rhs, sense one of '<=',
    '=' and '>=', through model.add_rows."""
    if sense not in ("<=", "=", ">="):
        raise ValueError(f"unknown constraint sense {sense!r}")
    rhs = float(rhs)
    cols, vals = zip(*terms) if terms else ((), ())
    model.add_rows(
        [0] * len(cols),
        cols,
        vals,
        [rhs if sense in ("=", ">=") else -np.inf],
        [rhs if sense in ("=", "<=") else np.inf],
    )


def aggregated_first_stage(instance: MaghpInstance, model: LinearModel, airborne: bool):
    """Slot binaries with aggregate delay rows; returns the departure and
    arrival slot maps, as maghp._build_first_stage does. Airborne delay
    is planned whatever airborne reads, so the stochastic and robust
    models built on it can land a flight late."""
    total = instance.total_periods()
    u_index, v_index, ground, air = {}, {}, {}, {}
    for f in instance.flights:
        departures = range(f.sched_dep, total - f.flight_time)
        arrivals = range(f.sched_arr, total)
        for t in departures:
            u_index[f.id, t] = model.add_variables([0.0], True)
        for t in arrivals:
            v_index[f.id, t] = model.add_variables([0.0], True)
        ground[f.id] = model.add_variables([instance.cost_ground])
        air[f.id] = model.add_variables([instance.cost_air])
        add_row(model, [(u_index[f.id, t], 1.0) for t in departures], "=", 1.0)
        add_row(model, [(v_index[f.id, t], 1.0) for t in arrivals], "=", 1.0)
        # ground delay is the chosen departure slot minus schedule
        add_row(
            model,
            [(ground[f.id], 1.0)] + [(u_index[f.id, t], -float(t)) for t in departures],
            "=",
            -float(f.sched_dep),
        )
        # airborne delay is whatever arrival lateness ground delay missed
        terms = [(air[f.id], 1.0)]
        terms += [(v_index[f.id, t], -float(t)) for t in arrivals]
        terms += [(u_index[f.id, t], float(t)) for t in departures]
        add_row(model, terms, "=", float(f.sched_dep - f.sched_arr))

    for c in instance.delay_connections():
        add_row(
            model,
            [
                (ground[c.successor], 1.0),
                (ground[c.predecessor], -1.0),
                (air[c.predecessor], -1.0),
            ],
            ">=",
            -float(c.slack),
        )
    return u_index, v_index


def fixpoint_total_periods(instance: MaghpInstance) -> int:
    """Horizon plus overflow periods, found by relaxing every connection
    in file order until no flight's latest departure moves."""
    latest = {f.id: max(f.sched_dep, instance.horizon) for f in instance.flights}
    for _ in range(len(instance.flights)):
        changed = False
        for c in instance.connections:
            pred = instance.flight(c.predecessor)
            succ = instance.flight(c.successor)
            need = latest[pred.id] + succ.sched_dep - pred.sched_dep - c.slack
            if need > latest[succ.id]:
                latest[succ.id] = need
                changed = True
        if not changed:
            break
    else:
        raise ValueError("connection graph contains a cycle")
    return max(latest[f.id] + f.flight_time for f in instance.flights) + 1


def _assigned_terms(instance, u_index, v_index, airport, op_type, t):
    if op_type == DEPARTURE:
        return [
            (u_index[f.id, t], 1.0)
            for f in instance.flights
            if f.origin == airport and (f.id, t) in u_index
        ]
    return [
        (v_index[f.id, t], 1.0)
        for f in instance.flights
        if f.destination == airport and (f.id, t) in v_index
    ]


def scenario_capacity_profile(tree, vector) -> list[int]:
    """Expand a stage-capacity vector to one capacity per interval."""
    clusters = tree.time_clusters
    if len(vector) != clusters.num_stages:
        raise ValueError(
            f"vector has {len(vector)} stages, tree has {clusters.num_stages}"
        )
    return [int(vector[k]) for k in clusters.stage_index]


def _scenario_overflow(model, instance, u_index, v_index, key, tree, weight):
    """One overflow variable per (scenario, interval > 0), priced at
    weight(probability); interval 0 is a hard row per scenario."""
    airport, op_type = key
    y_index = {}
    for s, (vector, prob) in enumerate(tree.scenarios):
        profile = scenario_capacity_profile(tree, vector)
        for t in range(instance.horizon):
            terms = _assigned_terms(instance, u_index, v_index, airport, op_type, t)
            if t > 0:
                y = model.add_variables([weight(prob)])
                y_index[s, t] = y
                terms = terms + [(y, -1.0)]
            if terms:
                add_row(model, terms, "<=", float(profile[t]))
    return y_index


def enumerated_sp(instance: MaghpInstance) -> ModelBundle:
    """Extensive-form two-stage model, one recourse block per scenario."""
    keys = _require_trees(instance)
    model = LinearModel()
    u_index, v_index = _build_first_stage(instance, model, airborne=False)
    unit = instance.recourse_cost
    for key in keys:
        _scenario_overflow(
            model, instance, u_index, v_index, key, instance.trees[key],
            lambda prob: prob * unit,
        )
    return ModelBundle("sp", model, instance, u_index, v_index)


def enumerated_dr(instance: MaghpInstance, epsilon) -> ModelBundle:
    """Dual deterministic equivalent with every pair row carrying the
    support scenario's whole recourse sum."""
    radius = _radius(epsilon)
    keys = _require_trees(instance)
    model = LinearModel()
    u_index, v_index = _build_first_stage(instance, model, airborne=False)
    alpha_index = {}
    unit = instance.recourse_cost
    for key in keys:
        tree = instance.trees[key]
        distances = scenario_distance_matrix(tree)
        alpha = alpha_index[key] = model.add_variables([radius])
        # beta_i >= 0 follows from the (i, i) pair row: beta_i >= unit * sum y
        betas = [model.add_variables([prob]) for prob in tree.probabilities]
        y_index = _scenario_overflow(
            model, instance, u_index, v_index, key, tree, lambda prob: 0.0
        )
        n = tree.num_scenarios
        for i in range(n):
            for j in range(n):
                terms = [(alpha, float(distances[i, j])), (betas[i], 1.0)]
                terms += [
                    (y_index[j, t], -unit) for t in range(1, instance.horizon)
                ]
                add_row(model, terms, ">=", 0.0)
    return ModelBundle(
        "dr",
        model,
        instance,
        u_index,
        v_index,
        alpha_index=alpha_index,
        epsilon=radius,
    )


def wasserstein_lp(p, q, cost) -> tuple[float, np.ndarray]:
    """Transportation LP between two finite distributions.

    p and q are Pmf or plain weight sequences; cost[i][j] is the ground
    cost of moving mass from atom i of p to atom j of q. Returns
    (optimal value, coupling matrix). The coupling's row sums match p's
    weights and column sums match q's.
    """
    mu = p.weights_array if isinstance(p, Pmf) else np.asarray(p, dtype=float)
    nu = q.weights_array if isinstance(q, Pmf) else np.asarray(q, dtype=float)
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.shape != (len(mu), len(nu)):
        raise ValueError(
            f"cost matrix shape {c.shape} does not match ({len(mu)}, {len(nu)})"
        )
    if np.any(c < 0):
        raise ValueError("ground costs must be non-negative")

    m, n = c.shape
    model = LinearModel()
    index = np.arange(m * n).reshape(m, n)
    for i in range(m):
        for j in range(n):
            model.add_variables([c[i, j]])
    for i in range(m):
        add_row(model, [(int(index[i, j]), 1.0) for j in range(n)], "=", mu[i])
    for j in range(n):
        add_row(model, [(int(index[i, j]), 1.0) for i in range(m)], "=", nu[j])
    solution = model.minimize()
    if solution.status != "optimal":
        raise SolverError(f"transportation LP ended with status {solution.status}")
    coupling = np.maximum(solution.values.reshape(m, n), 0.0)
    return float(solution.objective), coupling


def inner_worst_case(policy, instance: MaghpInstance, tree, epsilon: float) -> float:
    """Worst expected recourse cost over the Wasserstein ball, by LP.

    Maximizes sum_j q_j * Q_j over distributions q reachable from the
    tree's probabilities within transport budget epsilon, using explicit
    transportation variables; the q are the coupling's column sums. This
    is the primal the robust model dualizes, so strong duality ties the
    two together exactly.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    key = (tree.airport, tree.op_type)
    excess = broadcast_overflow(instance, policy, {key: tree.vectors})[key]
    q_cost = excess * instance.recourse_cost
    distances = scenario_distance_matrix(tree)
    n = tree.num_scenarios
    model = LinearModel()
    plan = {
        (i, j): model.add_variables([-q_cost[j]])
        for i in range(n)
        for j in range(n)
    }
    for i, prob in enumerate(tree.probabilities):
        add_row(model, [(plan[i, j], 1.0) for j in range(n)], "=", prob)
    add_row(
        model,
        [(plan[i, j], float(distances[i, j])) for i in range(n) for j in range(n)],
        "<=",
        float(epsilon),
    )
    solution = model.minimize()
    if solution.status != "optimal":
        raise SolverError(
            f"worst-case LP ended with status {solution.status}"
        )
    return -float(solution.objective)


def lp_second_stage_cost(policy, instance: MaghpInstance, sample: dict) -> float:
    """One sample's recourse cost by LP instead of the closed form.

    sample maps (airport, op_type) to a single stage-capacity vector.
    evaluate_policy must agree with it to within solver tolerance.
    """
    model = LinearModel()
    for key in sorted(sample):
        stages = list(instance.trees[key].time_clusters.stage_index)
        profile = np.array(sample[key])[stages]
        assigned = assigned_counts(instance, policy)[key]
        for t in range(instance.horizon):
            y = model.add_variables([instance.recourse_cost])
            add_row(model, [(y, 1.0)], ">=", float(assigned[t] - profile[t]))
    solution = model.minimize()
    if solution.status != "optimal":
        raise SolverError(f"evaluation LP ended with status {solution.status}")
    return float(solution.objective)


def minibatch_descent(params, normalized, onehot, rng, config) -> None:
    """The plain minibatch loop prediction._descend must match bit for
    bit; updates params in place."""
    w1, b1, w2, b2 = (params[k] for k in ("w1", "b1", "w2", "b2"))
    n = len(onehot)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            x, y = normalized[batch], onehot[batch]
            pre = x @ w1 + b1
            hid = np.maximum(pre, 0.0)
            probs = _softmax(hid @ w2 + b2)
            # average cross-entropy gradient over the minibatch
            g_logits = (probs - y) / len(batch)
            g_w2 = hid.T @ g_logits
            g_b2 = g_logits.sum(axis=0)
            g_hid = (g_logits @ w2.T) * (pre > 0)
            g_w1 = x.T @ g_hid
            g_b1 = g_hid.sum(axis=0)
            w1 -= config.learning_rate * g_w1
            b1 -= config.learning_rate * g_b1
            w2 -= config.learning_rate * g_w2
            b2 -= config.learning_rate * g_b2


def looped_histograms(normalized, labels, classes):
    """The empirical model's params from its normalized training rows:
    per one-decimal bucket, in order of first appearance, its label
    histogram, and the histogram of all labels."""
    buckets = {}
    overall = np.zeros(classes)
    for row, label in zip(normalized, labels):
        key = tuple(round(float(v), 1) for v in row)
        if key not in buckets:
            buckets[key] = np.zeros(classes)
        buckets[key][label] += 1
        overall[label] += 1
    return {
        "buckets": {k: v / v.sum() for k, v in buckets.items()},
        "overall": overall / overall.sum(),
    }


def weight_of(p: Pmf, value: int) -> float:
    """p's weight at value, 0 if value is off its support."""
    return dict(zip(p.support, p.weights)).get(value, 0.0)


def looked_up_average(members: list[Pmf]) -> Pmf:
    """The average of members over the union of their supports, each
    capacity's weight one math.fsum over every member's weight there,
    0 where a member lacks it."""
    support = sorted({s for p in members for s in p.support})
    weights = [math.fsum(weight_of(p, s) for p in members) / len(members) for s in support]
    return make_pmf(support, weights)


def _by_likelihood(p: Pmf) -> list:
    """p's (weight, value) pairs by decreasing weight, the smaller value
    first on ties."""
    return sorted(zip(p.weights, p.support), key=lambda t: (-t[0], t[1]))


def point_prediction(p: Pmf) -> int:
    """The most likely capacity, the smaller one on ties."""
    return _by_likelihood(p)[0][1]


def tolerance_interval(p: Pmf, level: float = 0.9) -> frozenset:
    """Support values by decreasing probability (the smaller value first
    on ties), taken until their running sum reaches level - 1e-9, or all
    of them if it never does."""
    chosen, total = [], 0.0
    for weight, value in _by_likelihood(p):
        chosen.append(value)
        total += weight
        if total >= level - 1e-9:
            break
    return frozenset(chosen)


def cross_entropy(model, features, labels) -> float:
    """Mean negative log-likelihood of the labels under the model."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    total = 0.0
    for x, z in zip(features, labels):
        p = predict_pmf(model, x)
        total -= math.log(max(p.weights[z], 1e-300))
    return total / len(labels)


def looped_aggregate_intervals(records, num_intervals, interval_minutes=15.0):
    """aggregate_intervals one record at a time, keeping a list of delays
    per bin; the same stats, and the same error for the same record."""
    groups = {}
    for rec in records:
        groups.setdefault((rec.airport, rec.op_type), []).append(rec)

    def bin_of(minute, what, rec):
        b = int(minute // interval_minutes)
        if not 0 <= b < num_intervals:
            raise ValueError(
                f"{what} time {minute} of {rec.airport} {rec.op_type} record "
                f"is outside the {num_intervals}-interval horizon"
            )
        return b

    stats = []
    for (airport, op_type), recs in sorted(groups.items()):
        throughput = [0] * num_intervals
        demand = [0] * num_intervals
        delays = [[] for _ in range(num_intervals)]
        delayed = [0] * num_intervals
        for rec in recs:
            demand[bin_of(rec.scheduled_minute, "scheduled", rec)] += 1
            b = bin_of(rec.actual_minute, "actual", rec)
            throughput[b] += 1
            delay = rec.actual_minute - rec.scheduled_minute
            delays[b].append(max(0.0, delay))
            if delay > DELAYED_FLIGHT_MINUTES:
                delayed[b] += 1
        for t in range(num_intervals):
            avg = math.fsum(delays[t]) / len(delays[t]) if delays[t] else 0.0
            stats.append(
                IntervalStats(
                    airport, op_type, t, throughput[t], demand[t], avg, delayed[t]
                )
            )
    return stats


def scanned_best_capacity_profiles(instance: MaghpInstance) -> dict:
    """Per cell, the scenario with the largest time-weighted total
    capacity, the first on ties, expanded to a per-interval profile."""
    profiles = {}
    for key, tree in sorted(instance.trees.items()):
        lengths = [len(seg) for seg in tree.time_clusters.segments]
        best = max(
            range(tree.num_scenarios),
            key=lambda s: (sum(l * c for l, c in zip(lengths, tree.vectors[s])), -s),
        )
        profiles[key] = scenario_capacity_profile(tree, tree.vectors[best])
    return profiles


def scanned_support_worst_case(policy, instance: MaghpInstance) -> float:
    """First-stage cost plus, per tree, the largest recourse over all of
    its scenarios."""
    trees = dict(sorted(instance.trees.items()))
    excess = broadcast_overflow(instance, policy, {key: t.vectors for key, t in trees.items()})
    return first_stage_cost(instance, policy) + instance.recourse_cost * math.fsum(
        float(excess[key].max()) for key in trees
    )


def scenario_distance_matrix(tree) -> np.ndarray:
    """Pairwise L1 distances between scenario vectors over the tree's
    diameter D (left at zero when D is 0), summed one stage at a time
    so memory stays O(n^2)."""
    vectors = np.asarray(tree.vectors, dtype=float)
    distances = np.zeros((len(vectors), len(vectors)))
    for column in vectors.T:
        step = np.subtract.outer(column, column)
        distances += np.abs(step, out=step)
    diameter = _diameter(tree.stage_capacities)
    if diameter > 0.0:
        distances /= diameter
    return distances


def expected_recourse_cost(policy, instance: MaghpInstance) -> float:
    """Probability-weighted recourse over every tree's scenarios: each
    scenario's overflow at its probability."""
    trees = dict(sorted(instance.trees.items()))
    excess = broadcast_overflow(instance, policy, {key: t.vectors for key, t in trees.items()})
    return instance.recourse_cost * math.fsum(
        float(np.dot(tree.probabilities, excess[key])) for key, tree in trees.items()
    )


def pair_regret(policy, instance: MaghpInstance, key, alpha: float) -> float:
    """One cell's robust recourse at multiplier alpha, less epsilon *
    alpha, over every scenario pair: sum_i p_i max_j (Q_j - alpha *
    dist(i, j)), Q_j the recourse of scenario j."""
    tree = instance.trees[key]
    excess = broadcast_overflow(instance, policy, {key: tree.vectors})[key]
    regret = instance.recourse_cost * excess - alpha * scenario_distance_matrix(tree)
    return float(np.dot(tree.probabilities, regret.max(axis=1)))


def choice_capacities(trees: dict, spec) -> dict:
    """Per-stage capacity samples drawn by Generator.choice, one call per
    stage, from the same generator as evaluation.resample_capacities."""
    samples = {}
    for idx, key in enumerate(sorted(trees)):
        rng = np.random.default_rng([spec.seed, int(round(spec.reduction * 1e9)), idx])
        columns = [
            rng.choice(pmf.support_array, size=spec.sample_count, p=pmf.weights_array)
            for pmf in shifted_representatives(trees[key], spec)
        ]
        samples[key] = np.column_stack(columns).astype(int)
    return samples


def broadcast_overflow(instance: MaghpInstance, policy, capacities: dict) -> dict:
    """Per cell, one value per row of stage capacities: max(assigned_t -
    capacity_t, 0) summed over the horizon, each row expanded to one
    capacity per interval."""
    counts = assigned_counts(instance, policy)
    excess = {}
    for key, rows in capacities.items():
        stages = list(instance.trees[key].time_clusters.stage_index)
        profiles = np.asarray(rows)[:, stages]
        excess[key] = np.maximum(counts[key] - profiles, 0.0).sum(axis=1)
    return excess


def looped_stage_overflow(instance: MaghpInstance, policy, keys) -> dict:
    """Per cell of keys, the table G[s, c] = sum over t in stage s of
    max(assigned_t - c, 0) for c = 0..top, top the cell's largest count,
    one interval and one capacity at a time."""
    counts = assigned_counts(instance, policy)
    tables = {}
    for key in keys:
        clusters = instance.trees[key].time_clusters
        top = int(max(counts[key], default=0))
        table = np.zeros((clusters.num_stages, top + 1))
        for t, stage in enumerate(clusters.stage_index):
            for c in range(top + 1):
                table[stage, c] += max(counts[key][t] - c, 0.0)
        tables[key] = table
    return tables


def _rowwise_side(instance: MaghpInstance, model: LinearModel, first, weight):
    """maghp._slot_block one variable and one row at a time, with each
    flight's slots from first(f) on; returns the slot map and, per
    flight id, its waits."""
    total = instance.total_periods()
    index, waits = {}, {}
    for f in instance.flights:
        times = range(first(f), first(f) + total - f.sched_arr)
        chosen = [model.add_variables([0.0], True) for _ in times]
        index.update(((f.id, t), var) for t, var in zip(times, chosen))
        chain = waits[f.id] = [model.add_variables([weight]) for _ in chosen[1:]]
        add_row(model, [(var, 1.0) for var in chosen], "=", 1.0)
        for k, wait in enumerate(chain):
            terms = [(wait, 1.0), (chosen[k + 1], -1.0)]
            if k + 1 < len(chain):
                terms.append((chain[k + 1], -1.0))
            add_row(model, terms, "=", 0.0)
    return index, waits


def _rowwise_first_stage(instance: MaghpInstance, model: LinearModel, airborne: bool):
    """maghp._build_first_stage one variable and one row at a time."""
    if airborne:
        ground_weight = instance.cost_ground - instance.cost_air
        u_index, x = _rowwise_side(instance, model, lambda f: f.sched_dep, ground_weight)
        v_index, y = _rowwise_side(instance, model, lambda f: f.sched_arr, instance.cost_air)
        for f in instance.flights:
            for departed, landed in zip(x[f.id], y[f.id]):
                add_row(model, [(landed, 1.0), (departed, -1.0)], ">=", 0.0)
    else:
        u_index, x = _rowwise_side(instance, model, lambda f: f.sched_dep, instance.cost_ground)
        # each flight lands a flight time after it leaves
        v_index = {
            (fid, t + instance.flight(fid).flight_time): var for (fid, t), var in u_index.items()
        }
        y = x

    for c in instance.delay_connections():
        departed, landed = x[c.successor], y[c.predecessor]
        for k in range(c.slack, len(landed)):
            if k - c.slack < len(departed):
                add_row(model, [(departed[k - c.slack], 1.0), (landed[k], -1.0)], ">=", 0.0)
            else:
                add_row(model, [(landed[k], 1.0)], "<=", 0.0)
    return u_index, v_index


def _rowwise_slot_terms(instance: MaghpInstance, u_index: dict, v_index: dict) -> dict:
    cells: dict = {}
    for key, t, var in _cell_loads(instance, u_index.items(), v_index.items()):
        cells.setdefault(key, [[] for _ in range(instance.horizon)])[t].append((var, 1.0))
    return cells


def rowwise_det(instance: MaghpInstance, fixed_capacities: dict) -> ModelBundle:
    """maghp.build_det one variable and one row at a time."""
    model = LinearModel()
    u_index, v_index = _rowwise_first_stage(instance, model, airborne=True)
    slots = _rowwise_slot_terms(instance, u_index, v_index)
    empty = [[] for _ in range(instance.horizon)]
    for key, profile in sorted(fixed_capacities.items()):
        for t, terms in enumerate(slots.get(key, empty)):
            if terms:
                add_row(model, terms, "<=", float(profile[t]))
    return ModelBundle("det", model, instance, u_index, v_index)


def rowwise_sp(instance: MaghpInstance) -> ModelBundle:
    """maghp.build_sp one variable and one row at a time."""
    keys = _require_trees(instance)
    model = LinearModel()
    u_index, v_index = _rowwise_first_stage(instance, model, airborne=False)
    slots = _rowwise_slot_terms(instance, u_index, v_index)
    unit = instance.recourse_cost
    z_index = {}
    for key in keys:
        tree = instance.trees[key]
        marginals = tree.stage_capacities
        stages = tree.time_clusters.stage_index
        z = z_index[key] = {}
        for t, terms in enumerate(slots.get(key, [[] for _ in range(instance.horizon)])):
            atoms = marginals[stages[t]]
            if t == 0:
                floor = min(atoms)
                if terms and len(terms) > floor:
                    add_row(model, terms, "<=", float(floor))
                continue
            for capacity, prob in atoms.items():
                if len(terms) <= capacity:
                    continue
                var = z[t, capacity] = model.add_variables([prob * unit])
                add_row(model, terms + [(var, -1.0)], "<=", float(capacity))
    return ModelBundle("sp", model, instance, u_index, v_index, z_index)


def rowwise_dr(instance: MaghpInstance, epsilon) -> ModelBundle:
    """maghp.build_dr one variable and one row at a time."""
    radius = _radius(epsilon)
    bundle = rowwise_sp(instance)
    model, unit = bundle.model, instance.recourse_cost
    alphas = {}
    for key, z in bundle.z_index.items():
        tree = instance.trees[key]
        marginals = tree.stage_capacities
        diameter = _diameter(marginals)
        alpha = alphas[key] = model.add_variables([radius])
        for segment, atoms in zip(tree.time_clusters.segments, marginals):
            lo, *above = atoms
            for a in above:
                premium = model.add_variables([atoms[a]])
                terms = [(premium, 1.0), (alpha, (a - lo) / diameter)]
                terms += [(z[t, lo], -unit) for t in segment if (t, lo) in z]
                terms += [(z[t, a], unit) for t in segment if (t, a) in z]
                add_row(model, terms, ">=", 0.0)
    return ModelBundle(
        "dr", model, instance, bundle.u_index, bundle.v_index, bundle.z_index, alphas, radius
    )
