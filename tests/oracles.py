"""Scenario-enumerating extensive forms, kept as differential oracles.

These are the stochastic and robust builders as first written: one
overflow variable per (scenario, interval), and in the robust model one
row per ordered scenario pair carrying every one of those variables.
They are exact but grow with the number of scenarios rather than the
number of stage atoms, so the library builds the stagewise equivalent
and the tests check the two against each other.
"""

from __future__ import annotations

import numpy as np

from groundhold.capacity import DEPARTURE
from groundhold.maghp import (
    ModelBundle,
    MaghpInstance,
    _build_first_stage,
    _epsilon_by_op,
    _require_trees,
    scenario_distance_matrix,
)
from groundhold.scenario import scenario_capacity_profile
from groundhold.solver import new_model


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
    model = new_model()
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
    model = new_model()
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
