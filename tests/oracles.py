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
sorted_tolerance_set is the tolerance set as first written, one Python
sort per PMF, which the library's array ranking must reproduce.
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
    _diameter,
    _radius,
    _require_trees,
    assigned_counts,
    first_stage_cost,
    overflow,
)
from groundhold.pmf import Pmf
from groundhold.prediction import _softmax, predict_pmf
from groundhold.solver import BINARY, LinearModel


def aggregated_first_stage(instance: MaghpInstance, model: LinearModel):
    """Slot binaries with aggregate delay rows; returns the departure and
    arrival slot maps, as maghp._build_first_stage does."""
    total = instance.total_periods()
    u_index, v_index, ground, air = {}, {}, {}, {}
    for f in instance.flights:
        departures = range(f.sched_dep, total - f.flight_time)
        arrivals = range(f.sched_arr, total)
        for t in departures:
            u_index[f.id, t] = model.add_variable(kind=BINARY)
        for t in arrivals:
            v_index[f.id, t] = model.add_variable(kind=BINARY)
        ground[f.id] = model.add_variable(objective=instance.cost_ground)
        air[f.id] = model.add_variable(objective=instance.cost_air)
        model.add_linear_constraint([(u_index[f.id, t], 1.0) for t in departures], "=", 1.0)
        model.add_linear_constraint([(v_index[f.id, t], 1.0) for t in arrivals], "=", 1.0)
        # ground delay is the chosen departure slot minus schedule
        model.add_linear_constraint(
            [(ground[f.id], 1.0)] + [(u_index[f.id, t], -float(t)) for t in departures],
            "=",
            -float(f.sched_dep),
        )
        # airborne delay is whatever arrival lateness ground delay missed
        terms = [(air[f.id], 1.0)]
        terms += [(v_index[f.id, t], -float(t)) for t in arrivals]
        terms += [(u_index[f.id, t], float(t)) for t in departures]
        model.add_linear_constraint(terms, "=", float(f.sched_dep - f.sched_arr))

    for c in instance.delay_connections():
        model.add_linear_constraint(
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
                y = model.add_variable(objective=weight(prob))
                y_index[s, t] = y
                terms = terms + [(y, -1.0)]
            if terms:
                model.add_linear_constraint(terms, "<=", float(profile[t]))
    return y_index


def enumerated_sp(instance: MaghpInstance) -> ModelBundle:
    """Extensive-form two-stage model, one recourse block per scenario."""
    keys = _require_trees(instance)
    model = LinearModel()
    u_index, v_index = _build_first_stage(instance, model)
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
    u_index, v_index = _build_first_stage(instance, model)
    alpha_index = {}
    unit = instance.recourse_cost
    for key in keys:
        tree = instance.trees[key]
        distances = scenario_distance_matrix(tree)
        alpha = alpha_index[key] = model.add_variable(objective=radius)
        # beta_i >= 0 follows from the (i, i) pair row: beta_i >= unit * sum y
        betas = [model.add_variable(objective=prob) for prob in tree.probabilities]
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
                model.add_linear_constraint(terms, ">=", 0.0)
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
            model.add_variable(objective=c[i, j])
    for i in range(m):
        model.add_linear_constraint(
            [(int(index[i, j]), 1.0) for j in range(n)], "=", mu[i]
        )
    for j in range(n):
        model.add_linear_constraint(
            [(int(index[i, j]), 1.0) for i in range(m)], "=", nu[j]
        )
    solution = model.minimize()
    if not solution.ok:
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
    q_cost = overflow(instance, policy, {key: tree.vectors})[key] * instance.recourse_cost
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
            y = model.add_variable(objective=instance.recourse_cost)
            model.add_linear_constraint(
                [(y, 1.0)], ">=", float(assigned[t] - profile[t])
            )
    solution = model.minimize()
    if not solution.ok:
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


def sorted_tolerance_set(p: Pmf, level: float) -> frozenset:
    """Support values by decreasing probability (the smaller value first
    on ties), taken until their running sum reaches level - 1e-9."""
    chosen, total = [], 0.0
    for weight, value in sorted(zip(p.weights, p.support), key=lambda t: (-t[0], t[1])):
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
            delay = rec.delay_minutes
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
    excess = overflow(instance, policy, {key: t.vectors for key, t in trees.items()})
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
    excess = overflow(instance, policy, {key: t.vectors for key, t in trees.items()})
    return instance.recourse_cost * math.fsum(
        float(np.dot(tree.probabilities, excess[key])) for key, tree in trees.items()
    )


def pair_regret(policy, instance: MaghpInstance, key, alpha: float) -> float:
    """One cell's robust recourse at multiplier alpha, less epsilon *
    alpha, over every scenario pair: sum_i p_i max_j (Q_j - alpha *
    dist(i, j)), Q_j the recourse of scenario j."""
    tree = instance.trees[key]
    excess = overflow(instance, policy, {key: tree.vectors})[key]
    regret = instance.recourse_cost * excess - alpha * scenario_distance_matrix(tree)
    return float(np.dot(tree.probabilities, regret.max(axis=1)))
