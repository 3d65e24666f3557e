"""Correctness checks the workloads run on their outputs.

Each check recomputes what the program reported by an independent route
(numpy from the raw inputs, one CSV column from another) or tests a
property the method must have. No check
compares against a stored copy of earlier output. Every function
returns a list of failure messages; an empty list means the outputs
passed.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from collections import defaultdict

import numpy as np

REL_TOL = 1e-6


def _close(a, b, rel=REL_TOL, abs_tol=1e-9):
    return abs(a - b) <= max(abs_tol, rel * max(1.0, abs(a), abs(b)))


# ---------------------------------------------------------------------------
# forecast


def reference_observations(records, num_intervals, interval_minutes, alpha,
                           delay_threshold, min_delayed, percentile):
    """The three saturation rules applied with numpy to the raw records.

    Returns (cells, observations): cells maps (airport, op_type) to the
    per-interval throughput, demand, mean clipped delay and delayed
    count; observations maps (airport, op_type, interval) to
    (capacity, criteria, delay_margin), where delay_margin is the mean
    delay's distance from its threshold.
    """
    by_cell = defaultdict(list)
    for r in records:
        by_cell[r.airport, r.op_type].append((r.scheduled_minute, r.actual_minute))
    cells, observations = {}, {}
    for key in sorted(by_cell):
        times = np.asarray(by_cell[key], dtype=float)
        sched_bin = np.floor_divide(times[:, 0], interval_minutes).astype(int)
        act_bin = np.floor_divide(times[:, 1], interval_minutes).astype(int)
        delay = times[:, 1] - times[:, 0]
        throughput = np.bincount(act_bin, minlength=num_intervals)
        demand = np.bincount(sched_bin, minlength=num_intervals)
        delay_sum = np.bincount(act_bin, weights=np.maximum(delay, 0.0),
                                minlength=num_intervals)
        delayed = np.bincount(act_bin, weights=(delay > 5.0).astype(float),
                              minlength=num_intervals).astype(int)
        avg = np.divide(delay_sum, throughput, out=np.zeros(num_intervals),
                        where=throughput > 0)
        cells[key] = (throughput, demand, avg, delayed)
        ordered = np.sort(throughput)
        threshold = ordered[math.ceil(percentile * len(ordered)) - 1]
        for t in range(num_intervals):
            hit = set()
            if threshold > 0 and throughput[t] >= threshold:
                hit.add("throughput")
            if demand[t] > 0 and throughput[t] / demand[t] <= alpha:
                hit.add("demand")
            if avg[t] >= delay_threshold and delayed[t] >= min_delayed:
                hit.add("delay")
            margin = abs(avg[t] - delay_threshold) if delayed[t] >= min_delayed else math.inf
            if hit or margin < 1e-9:
                observations[key + (t,)] = (int(throughput[t]), frozenset(hit), margin)
    return cells, observations


def check_capacity(records, stats, observations, params):
    failures = []
    n = len(records)
    if sum(s.throughput for s in stats) != n:
        failures.append(f"capacity: total throughput != {n} records")
    if sum(s.scheduled_demand for s in stats) != n:
        failures.append(f"capacity: total scheduled demand != {n} records")
    cells, expected = reference_observations(records, **params)
    for s in stats:
        tp, dem, avg, delayed = cells[s.airport, s.op_type]
        t = s.interval
        if (s.throughput, s.scheduled_demand, s.delayed_count) != (tp[t], dem[t], delayed[t]) \
                or not _close(s.avg_delay, avg[t], rel=1e-12):
            failures.append(f"capacity: stats of {s.airport}/{s.op_type}/{t} differ from numpy")
            break
    got = {(o.airport, o.op_type, o.interval): (o.capacity, o.criteria) for o in observations}
    for key in sorted(set(got) | set(expected)):
        want = expected.get(key)
        if want is not None and want[2] < 1e-9:
            continue  # mean delay sits on its threshold: either answer is right
        if want is None or got.get(key) != want[:2]:
            failures.append(f"capacity: observation {key} is {got.get(key)}, numpy gives {want}")
            break
    return failures


def reference_mlp_pmfs(model, features):
    """Forward pass of the softmax MLP in one batched numpy expression."""
    span = model.feature_hi - model.feature_lo
    z = np.where(span > 0, (features - model.feature_lo) / np.where(span > 0, span, 1.0), 0.0)
    hid = np.maximum(z @ model.params["w1"] + model.params["b1"], 0.0)
    logits = hid @ model.params["w2"] + model.params["b2"]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def metrics_from_pmfs(pmfs, truths, level):
    """RMSE, MAE, PICP and MPIW by their definitions: the point forecast is
    the mode (smaller capacity on ties), the tolerance set takes values
    by decreasing probability until the mass reaches the level."""
    errors, covered, widths = [], 0, []
    for pmf, truth in zip(pmfs, truths):
        w = np.asarray(pmf.weights)
        s = np.asarray(pmf.support)
        errors.append(s[int(np.argmax(w))] - truth)
        order = np.lexsort((s, -w))
        mass = np.cumsum(w[order])
        size = int(np.searchsorted(mass, level - 1e-9)) + 1
        chosen = s[order[:size]]
        covered += int(truth in chosen)
        widths.append(size)
    errors = np.asarray(errors, dtype=float)
    return {
        "rmse": float(np.sqrt(np.mean(errors**2))),
        "mae": float(np.mean(np.abs(errors))),
        "picp": covered / len(truths),
        "mpiw": float(np.mean(widths)),
        "count": len(truths),
    }


def check_prediction(held_out_pmfs, truths, reported, level):
    """reported maps a model kind to its PredictionMetrics; held_out_pmfs
    maps it to the PMFs predict_pmf gives for the held-out rows."""
    failures = []
    for kind, metrics in sorted(reported.items()):
        want = metrics_from_pmfs(held_out_pmfs[kind], truths, level)
        for name, value in want.items():
            if not _close(getattr(metrics, name), value, rel=1e-12):
                failures.append(
                    f"prediction: {kind} {name} {getattr(metrics, name)} != recomputed {value}"
                )
    return failures


def check_pmfs(series_pmfs, model, series_features):
    failures = []
    for key, pmfs in sorted(series_pmfs.items()):
        for t, pmf in enumerate(pmfs):
            w = np.asarray(pmf.weights)
            if np.any(w < 0) or abs(math.fsum(pmf.weights) - 1.0) > 1e-9:
                failures.append(f"pmf: {key} interval {t} has no unit mass")
                break
        want = reference_mlp_pmfs(model, series_features[key])
        got = np.array([pmf.weights for pmf in pmfs])
        if got.shape != want.shape or not np.allclose(got, want, rtol=1e-9, atol=1e-12):
            failures.append(f"pmf: {key} PMFs differ from the numpy forward pass")
    return failures


def check_trees(trees, series_pmfs, change_points):
    failures = []
    for key, tree in sorted(trees.items()):
        stages = tree.stage_pmfs
        combos = list(itertools.product(*(s.atoms for s in stages)))
        if len(combos) != tree.num_scenarios:
            failures.append(f"scenario: {key} has {tree.num_scenarios} scenarios, stages give {len(combos)}")
            continue
        for (vector, prob), combo in zip(tree.scenarios, combos):
            if tuple(vector) != tuple(s for s, _ in combo) or not _close(
                prob, math.prod(p for _, p in combo), rel=1e-12, abs_tol=1e-15
            ):
                failures.append(f"scenario: {key} scenario {vector} does not multiply out to its stage atoms")
                break
        if abs(math.fsum(tree.probabilities) - 1.0) > 1e-9:
            failures.append(f"scenario: {key} probabilities do not sum to 1")
        clusters = tree.time_clusters
        if len(clusters.segments) != change_points + 1:
            failures.append(f"scenario: {key} has {len(clusters.segments)} stages")
        for k, (stage, rep, seg) in enumerate(zip(stages, clusters.representatives, clusters.segments)):
            mean_rep = float(np.dot(rep.support, rep.weights))
            if abs(stage.mean() - mean_rep) > 0.5 + 1e-9:
                failures.append(f"scenario: {key} stage {k} atom mean {stage.mean()} is off its representative's {mean_rep}")
            members = [series_pmfs[key][t] for t in seg]
            width = max(max(p.support) for p in members + [rep]) + 1
            dense = np.zeros(width)
            for p in members:
                dense[list(p.support)] += p.weights
            dense /= len(members)
            rep_dense = np.zeros(width)
            rep_dense[list(rep.support)] = rep.weights
            if not np.allclose(dense, rep_dense, atol=1e-12):
                failures.append(f"scenario: {key} stage {k} representative is not its segment's average")
    return failures


# ---------------------------------------------------------------------------
# sweep


def _read_csv(body):
    return list(csv.DictReader(io.StringIO(body.decode(), newline="")))


def check_sweep(files, epsilons, reductions, sample_count, unit):
    """files maps report/samples/curve to the bytes one sweep wrote."""
    failures = []
    report = _read_csv(files["report"])
    samples = _read_csv(files["samples"])
    curve = _read_csv(files["curve"])
    if [float(r["reduction"]) for r in report] != sorted(reductions):
        failures.append("sweep: report rows do not match the reduction levels")
    per_draw = defaultdict(list)
    for row in samples:
        per_draw[float(row["reduction"]), row["model"]].append(float(row["second_stage_cost"]))
    for row in report:
        r = float(row["reduction"])
        for model in ("det", "sp", "dr"):
            costs = per_draw.get((r, model), [])
            overflow = float(row[f"{model}_departure_overflow"]) + float(row[f"{model}_arrival_overflow"])
            if len(costs) != sample_count:
                failures.append(f"sweep: {len(costs)} samples for {model} at {r}")
            elif abs(float(np.mean(costs)) - unit * overflow) > 1e-5 * max(1.0, unit * overflow):
                failures.append(
                    f"sweep: mean sample cost of {model} at {r} is {np.mean(costs)}, "
                    f"overflow columns give {unit * overflow}"
                )
        dr_cost = float(row["dr_cost"])
        for base in ("det", "sp"):
            cost = float(row[f"{base}_cost"])
            want = 0.0 if abs(cost) < 1e-12 else 100.0 * (cost - dr_cost) / cost
            if abs(float(row[f"pct_vs_{base}"]) - want) > 1.5e-3:
                failures.append(f"sweep: pct_vs_{base} at {r} is {row[f'pct_vs_{base}']}, costs give {want:.3f}")
        if not any(abs(float(row["epsilon_star"]) - e) <= 1e-9 * max(1.0, e) for e in epsilons):
            failures.append(f"sweep: epsilon_star {row['epsilon_star']} at {r} is not a swept radius")
    sp = [float(r["objective"]) for r in curve if r["model"] == "sp"]
    dr = sorted((float(r["epsilon"]), float(r["objective"])) for r in curve if r["model"] == "dr")
    if [e for e, _ in dr] != sorted(epsilons):
        failures.append("sweep: curve radii do not match the swept radii")
    for (e0, v0), (e1, v1) in zip(dr, dr[1:]):
        if v1 < v0 - 2e-6:
            failures.append(f"sweep: in-sample objective falls from {v0} at {e0:g} to {v1} at {e1:g}")
    if dr and dr[0][0] == 0.0 and (len(sp) != 1 or abs(dr[0][1] - sp[0]) > max(2e-6, REL_TOL * abs(sp[0]))):
        failures.append(f"sweep: dr at radius 0 ({dr[0][1]}) differs from sp ({sp})")
    return failures
