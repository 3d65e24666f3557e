"""Independent computations the tests hold the library against.

The scenario-enumerating extensive forms are the stochastic and robust
builders as first written: one overflow variable per (scenario,
interval), and in the robust model one row per ordered scenario pair
carrying every one of those variables. They are exact but grow with the
number of scenarios rather than the number of stage atoms, so the
library builds the stagewise equivalent and the tests check the two
against each other.

The LP oracles solve by linear programming what the library computes in
closed form: the Wasserstein distance on the line (wasserstein_lp) and
one sample's queue-overflow recourse (lp_second_stage_cost).
cross_entropy is the training loss, used to check that training lowers
it.
"""

from __future__ import annotations

import math

import numpy as np

from groundhold.capacity import DEPARTURE
from groundhold.errors import DimensionMismatchError, SolverError
from groundhold.maghp import (
    ModelBundle,
    MaghpInstance,
    _build_first_stage,
    _epsilon_by_op,
    _require_trees,
    assigned_counts,
    scenario_distance_matrix,
)
from groundhold.pmf import Pmf
from groundhold.prediction import predict_pmf
from groundhold.scenario import scenario_capacity_profile
from groundhold.solver import LinearModel


def _assigned_terms(instance, u_index, v_index, airport, op_type, t):
    if op_type == DEPARTURE:
        return [
            (u_index[f.id, t], 1.0)
            for f in instance.departures_from(airport)
            if (f.id, t) in u_index
        ]
    return [
        (v_index[f.id, t], 1.0)
        for f in instance.arrivals_to(airport)
        if (f.id, t) in v_index
    ]


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
    _, u_index, v_index, g_index, a_index = _build_first_stage(instance, model)
    unit = instance.recourse_cost
    for key in keys:
        _scenario_overflow(
            model, instance, u_index, v_index, key, instance.trees[key],
            lambda prob: prob * unit,
        )
    return ModelBundle("sp", model, instance, u_index, v_index, g_index, a_index)


def enumerated_dr(instance: MaghpInstance, epsilon) -> ModelBundle:
    """Dual deterministic equivalent with every pair row carrying the
    support scenario's whole recourse sum."""
    radii = _epsilon_by_op(epsilon)
    keys = _require_trees(instance)
    model = LinearModel()
    _, u_index, v_index, g_index, a_index = _build_first_stage(instance, model)
    alpha_index, beta_index = {}, {}
    unit = instance.recourse_cost
    for key in keys:
        tree = instance.trees[key]
        distances = scenario_distance_matrix(tree)
        alpha = alpha_index[key] = model.add_variable(objective=radii[key[1]])
        betas = [
            model.add_variable(objective=prob, lower=-np.inf)
            for prob in tree.probabilities
        ]
        for i, beta in enumerate(betas):
            beta_index[key + (i,)] = beta
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
        g_index,
        a_index,
        alpha_index=alpha_index,
        beta_index=beta_index,
        epsilon=radii,
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
        raise DimensionMismatchError(
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


def lp_second_stage_cost(policy, instance: MaghpInstance, sample: dict) -> float:
    """One sample's recourse cost by LP instead of the closed form.

    sample maps (airport, op_type) to a single stage-capacity vector.
    evaluate_policy must agree with it to within solver tolerance.
    """
    model = LinearModel()
    for key in sorted(sample):
        airport, op_type = key
        stages = list(instance.trees[key].time_clusters.stage_index)
        profile = np.array(sample[key])[stages]
        assigned = assigned_counts(instance, policy, airport, op_type)
        for t in range(instance.horizon):
            y = model.add_variable(objective=instance.recourse_cost)
            model.add_linear_constraint(
                [(y, 1.0)], ">=", float(assigned[t] - profile[t])
            )
    solution = model.minimize()
    if not solution.ok:
        raise SolverError(f"evaluation LP ended with status {solution.status}")
    return float(solution.objective)


def cross_entropy(model, features, labels) -> float:
    """Mean negative log-likelihood of the labels under the model."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    total = 0.0
    for x, z in zip(features, labels):
        p = predict_pmf(model, x)
        total -= math.log(max(p.weights[z], 1e-300))
    return total / len(labels)
