"""Out-of-sample policy evaluation under capacity distribution shifts.

The testing distribution is built by shifting each scenario tree's
stage representatives toward lower capacity: an LP finds new stage
weights whose mean drops by the requested fraction while every weight
stays within a multiplicative band of its original value. Capacity
samples drawn from the shifted representatives then price a frozen
first-stage policy by the same queue-overflow recourse the stochastic
model uses, and a radius sweep reports how the deterministic,
stochastic and robust policies compare per shift level.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .capacity import ARRIVAL, DEPARTURE
from .errors import InfeasibleReductionError, SolverError
from .maghp import (
    GroundDelayPolicy,
    MaghpInstance,
    assigned_counts,
    best_capacity_profiles,
    build_det,
    build_dr,
    build_sp,
    expected_recourse_cost,
    extract_policy,
    first_stage_cost,
    overflow,
    solve,
)
from .pmf import Pmf, pmf_mean
from .solver import LinearModel

MEAN_TOL = 1e-8


@dataclass(frozen=True)
class ReductionSpec:
    """How to degrade the capacity distribution for testing.

    reduction is the fractional drop in mean capacity, band the allowed
    relative change of each probability weight.
    """

    reduction: float
    band: float = 1.0
    sample_count: int = 100
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.reduction < 1.0:
            raise ValueError("reduction must lie in [0, 1)")
        if self.band < 0.0:
            raise ValueError("band must be non-negative")
        if self.sample_count < 1:
            raise ValueError("sample_count must be positive")


def reduce_distribution(p: Pmf, reduction: float, band: float) -> Pmf:
    """Reweight p so its mean falls to (1 - reduction) times the original.

    Solves a small LP that pushes probability toward low capacities,
    keeping each weight within the band and summing to one. Raises
    InfeasibleReductionError when the band cannot reach the target mean
    (a point mass, say, cannot lose mean at all).
    """
    if not 0.0 <= reduction < 1.0:
        raise ValueError("reduction must lie in [0, 1)")
    if band < 0.0:
        raise ValueError("band must be non-negative")
    if reduction == 0.0:
        return p
    target = (1.0 - reduction) * pmf_mean(p)
    lows = [max(0.0, (1.0 - band) * w) for w in p.weights]
    highs = [(1.0 + band) * w for w in p.weights]

    model = LinearModel()
    for value, lo, hi in zip(p.support, lows, highs):
        model.add_variable(objective=float(value), lower=lo, upper=hi)
    n = len(p)
    model.add_linear_constraint([(i, 1.0) for i in range(n)], "=", 1.0)
    model.add_linear_constraint(
        [(i, float(v)) for i, v in enumerate(p.support)], ">=", target
    )
    solution = model.minimize()
    if solution.status == "infeasible" or (
        solution.ok and solution.objective > target + MEAN_TOL
    ):
        achieved = solution.objective if solution.ok else None
        raise InfeasibleReductionError(
            f"cannot cut the mean of {p.support} by {reduction:.0%} within a "
            f"band of {band} (closest achievable mean: {achieved})"
        )
    if not solution.ok:
        raise SolverError(f"reduction LP ended with status {solution.status}")

    weights = [min(max(x, lo), hi) for x, lo, hi in zip(solution.values, lows, highs)]
    weights = _repair_simplex(weights, lows, highs)
    return Pmf(p.support, tuple(weights))


def _repair_simplex(weights, lows, highs):
    """Nudge clipped LP weights so they sum to exactly one, staying in band."""
    residual = 1.0 - math.fsum(weights)
    order = range(len(weights))
    if residual > 0:
        ranked = sorted(order, key=lambda i: highs[i] - weights[i], reverse=True)
        for i in ranked:
            bump = min(residual, highs[i] - weights[i])
            weights[i] += bump
            residual = 1.0 - math.fsum(weights)
            if residual <= 0:
                break
    elif residual < 0:
        ranked = sorted(order, key=lambda i: weights[i] - lows[i], reverse=True)
        for i in ranked:
            drop = min(-residual, weights[i] - lows[i])
            weights[i] -= drop
            residual = 1.0 - math.fsum(weights)
            if residual >= 0:
                break
    return weights


def shifted_representatives(tree, spec: ReductionSpec) -> list[Pmf]:
    return [
        reduce_distribution(rep, spec.reduction, spec.band)
        for rep in tree.time_clusters.representatives
    ]


def resample_capacities(trees: dict, spec: ReductionSpec) -> dict:
    """Draw per-stage capacity samples from the shifted representatives.

    Returns, per (airport, op_type), an integer array with one row per
    sample and one column per time segment. Draws are deterministic in
    (seed, reduction, cell index) so every policy faces the same samples
    at a given shift level while levels stay independent.
    """
    samples = {}
    for idx, key in enumerate(sorted(trees)):
        tree = trees[key]
        shifted = shifted_representatives(tree, spec)
        rng = np.random.default_rng(
            [spec.seed, int(round(spec.reduction * 1e9)), idx]
        )
        columns = [
            rng.choice(pmf.support_array, size=spec.sample_count, p=pmf.weights_array)
            for pmf in shifted
        ]
        samples[key] = np.column_stack(columns).astype(int)
    return samples


@dataclass
class PolicyEvaluation:
    first_stage: float
    per_sample: np.ndarray
    overflow_by_op: dict = field(default_factory=dict)

    @property
    def mean_second_stage(self) -> float:
        return float(self.per_sample.mean())

    @property
    def total(self) -> float:
        return self.first_stage + self.mean_second_stage


def evaluate_policy(
    policy: GroundDelayPolicy, instance: MaghpInstance, samples: dict
) -> PolicyEvaluation:
    """Price a frozen policy against drawn capacity samples.

    Second-stage cost is closed form: overflow beyond the sampled
    capacity at each constrained interval, at the recourse unit cost.
    """
    sizes = {m.shape[0] for m in samples.values()}
    if len(sizes) != 1:
        raise ValueError("sample sets disagree on sample count")
    n = sizes.pop()
    per_sample = np.zeros(n)
    overflow_by_op = {DEPARTURE: 0.0, ARRIVAL: 0.0}
    unit = instance.recourse_cost
    for key, matrix in sorted(samples.items()):
        airport, op_type = key
        stages = list(instance.trees[key].time_clusters.stage_index)
        assigned = assigned_counts(instance, policy, airport, op_type)
        excess = overflow(assigned, matrix[:, stages])
        per_sample += unit * excess
        overflow_by_op[op_type] += float(excess.mean())
    return PolicyEvaluation(first_stage_cost(instance, policy), per_sample, overflow_by_op)


@dataclass
class ReductionRow:
    reduction: float
    det_cost: float
    sp_cost: float
    dr_costs: dict
    eps_star: float
    dr_cost: float
    pct_vs_det: float
    pct_vs_sp: float
    overflow: dict
    per_sample: dict


@dataclass
class SensitivityReport:
    day: str
    epsilons: tuple
    sample_count: int
    band: float
    seed: int
    det_objective: float
    sp_objective: float
    in_sample: dict
    rows: list


def _pct_drop(base: float, value: float) -> float:
    if abs(base) < 1e-12:
        return 0.0
    return 100.0 * (base - value) / base


def epsilon_sweep(
    instance: MaghpInstance,
    epsilons,
    reductions,
    spec: ReductionSpec,
    day: str = "fixture",
) -> SensitivityReport:
    """Solve det/sp/dr once, then price all three per shift level.

    The deterministic baseline fixes capacities at each cell's best
    support scenario. Every policy at a given shift level is priced on
    identical samples; the reported robust cost per level is the best
    radius's cost, ties going to the smaller radius.
    """
    epsilons = tuple(sorted(set(float(e) for e in epsilons)))
    if not epsilons:
        raise ValueError("need at least one radius to sweep")

    det_result = solve(build_det(instance, best_capacity_profiles(instance)))
    sp_result = solve(build_sp(instance))
    policies = {"det": extract_policy(det_result), "sp": extract_policy(sp_result)}
    in_sample = {}
    dr_policies = {}
    for eps in epsilons:
        result = solve(build_dr(instance, eps))
        in_sample[eps] = result.objective
        dr_policies[eps] = extract_policy(result)

    rows = []
    for r in sorted(set(float(r) for r in reductions)):
        level_spec = replace(spec, reduction=r)
        samples = resample_capacities(instance.trees, level_spec)
        det_eval = evaluate_policy(policies["det"], instance, samples)
        sp_eval = evaluate_policy(policies["sp"], instance, samples)
        dr_evals = {
            eps: evaluate_policy(dr_policies[eps], instance, samples)
            for eps in epsilons
        }
        dr_costs = {eps: ev.total for eps, ev in dr_evals.items()}
        eps_star = min(epsilons, key=lambda e: (dr_costs[e], e))
        best = dr_evals[eps_star]
        overflow_means = {}
        per_sample = {}
        for label, ev in (("det", det_eval), ("sp", sp_eval), ("dr", best)):
            per_sample[label] = ev.per_sample
            for op, value in ev.overflow_by_op.items():
                overflow_means[label, op] = value
        rows.append(
            ReductionRow(
                reduction=r,
                det_cost=det_eval.total,
                sp_cost=sp_eval.total,
                dr_costs=dr_costs,
                eps_star=eps_star,
                dr_cost=best.total,
                pct_vs_det=_pct_drop(det_eval.total, best.total),
                pct_vs_sp=_pct_drop(sp_eval.total, best.total),
                overflow=overflow_means,
                per_sample=per_sample,
            )
        )
    return SensitivityReport(
        day=day,
        epsilons=epsilons,
        sample_count=spec.sample_count,
        band=spec.band,
        seed=spec.seed,
        det_objective=det_result.objective,
        sp_objective=sp_result.objective,
        in_sample=in_sample,
        rows=rows,
    )


# ---------------------------------------------------------------------------
# report files

_REPORT_COLUMNS = [
    "day",
    "reduction",
    "det_cost",
    "sp_cost",
    "dr_cost",
    "pct_vs_det",
    "pct_vs_sp",
    "epsilon_star",
    "det_departure_overflow",
    "det_arrival_overflow",
    "sp_departure_overflow",
    "sp_arrival_overflow",
    "dr_departure_overflow",
    "dr_arrival_overflow",
]


def write_report_csv(path, report: SensitivityReport) -> None:
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_REPORT_COLUMNS)
        for row in report.rows:
            writer.writerow(
                [
                    report.day,
                    f"{row.reduction:g}",
                    f"{row.det_cost:.6f}",
                    f"{row.sp_cost:.6f}",
                    f"{row.dr_cost:.6f}",
                    f"{row.pct_vs_det:.3f}",
                    f"{row.pct_vs_sp:.3f}",
                    f"{row.eps_star:g}",
                ]
                + [
                    f"{row.overflow[model, op]:.6f}"
                    for model in ("det", "sp", "dr")
                    for op in (DEPARTURE, ARRIVAL)
                ]
            )


def write_sample_costs_csv(path, report: SensitivityReport) -> None:
    """Per-sample second-stage costs, for auditing the averages."""
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["day", "reduction", "model", "sample", "second_stage_cost"])
        for row in report.rows:
            for model in ("det", "sp", "dr"):
                for i, cost in enumerate(row.per_sample[model]):
                    writer.writerow(
                        [report.day, f"{row.reduction:g}", model, i, f"{cost:.6f}"]
                    )


def write_in_sample_csv(path, report: SensitivityReport) -> None:
    """The robust in-sample objective per radius, with sp at radius zero
    as the reference row."""
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["model", "epsilon", "objective"])
        writer.writerow(["det", "", f"{report.det_objective:.6f}"])
        writer.writerow(["sp", "", f"{report.sp_objective:.6f}"])
        for eps in report.epsilons:
            writer.writerow(["dr", f"{eps:g}", f"{report.in_sample[eps]:.6f}"])
