"""Out-of-sample policy evaluation under capacity distribution shifts.

The testing distribution is built by shifting each scenario tree's
stage representatives toward lower capacity: probability moves from the
highest capacities to the lowest, each weight staying within a
multiplicative band of its original value, until the mean has dropped
by the requested fraction. Mass only moves downward, so the order-1
Wasserstein distance of the shift equals its mean drop. Capacity
samples drawn from the shifted representatives by Generator.choice
then price a frozen first-stage policy by the same queue-overflow
recourse the stochastic model uses, and a radius sweep reports how the
deterministic, stochastic and robust policies compare per shift level.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .capacity import ARRIVAL, DEPARTURE
from .config import write_csv
from .errors import InfeasibleReductionError
from .maghp import (
    GroundDelayPolicy,
    MaghpInstance,
    SolveResult,
    _radius,
    best_capacity_profiles,
    build_det,
    build_dr,
    build_sp,
    extract_policy,
    first_stage_cost,
    overflow,
    solve,
    support_worst_case,
)
from .pmf import MASS_TOL, Pmf, as_real, pmf_mean


def _level(reduction) -> float:
    """reduction as a shift level: a real number (pmf.as_real) in [0, 1)."""
    level = as_real(reduction)
    if not 0.0 <= level < 1.0:
        raise ValueError("reduction must lie in [0, 1)")
    return level


def _check_shift(reduction, band: float) -> None:
    _level(reduction)
    if not 0.0 <= band < math.inf:
        raise ValueError("band must be finite and non-negative")


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
        _check_shift(self.reduction, self.band)
        if self.sample_count < 1:
            raise ValueError("sample_count must be positive")


def reduce_distribution(p: Pmf, reduction: float, band: float) -> Pmf:
    """Reweight p so its mean falls to (1 - reduction) times the original.

    Two pointers start on the lowest and the highest support; mass moves
    from the high one to the low one until the target mean is reached,
    and a pointer whose weight hits its band limit (1 -/+ band times its
    original weight) is set exactly to that limit and moves inward. The
    result is first-order dominated by p, so its order-1 Wasserstein
    distance to p equals the mean drop. Raises InfeasibleReductionError
    when the pointers meet first (a point mass, say, cannot lose mean at
    all); the message gives the lowest mean the band allows.
    """
    _check_shift(reduction, band)
    if reduction == 0.0:
        return p
    weights = list(p.weights)
    lows = [max(0.0, (1.0 - band) * w) for w in weights]
    highs = [(1.0 + band) * w for w in weights]
    gap = reduction * pmf_mean(p)
    lo, hi = 0, len(p) - 1
    while gap > MASS_TOL and lo < hi:
        step = p.support[hi] - p.support[lo]
        give, take = weights[hi] - lows[hi], highs[lo] - weights[lo]
        move = min(gap / step, give, take)
        weights[hi] -= move
        weights[lo] += move
        gap -= move * step
        if move == give:
            weights[hi] = lows[hi]
            hi -= 1
        if move == take:
            weights[lo] = highs[lo]
            lo += 1
    # a mean within MASS_TOL of the target counts as reached, so a target
    # on the band's lowest mean is not lost to rounding
    if gap > MASS_TOL:
        lowest = math.fsum(w * v for w, v in zip(weights, p.support))
        raise InfeasibleReductionError(
            f"cannot cut the mean of {p.support} by {reduction:.0%} within a "
            f"band of {band} (closest achievable mean: {lowest!r})"
        )
    return Pmf(p.support, tuple(weights))


def shifted_representatives(tree, spec: ReductionSpec) -> list[Pmf]:
    return [
        reduce_distribution(rep, spec.reduction, spec.band)
        for rep in tree.time_clusters.representatives
    ]


def resample_capacities(trees: dict, spec: ReductionSpec) -> dict:
    """Draw per-stage capacity samples from the shifted representatives.

    Returns, per (airport, op_type), an integer array with one row per
    sample and one column per time segment: the transpose of the cell's
    stage-major draws, each stage drawing in turn by Generator.choice
    from one generator. Draws are deterministic in (seed, reduction,
    cell index) so every policy faces the same samples at a given shift
    level while levels stay independent.
    """
    samples = {}
    for idx, key in enumerate(sorted(trees)):
        rng = np.random.default_rng([spec.seed, int(round(spec.reduction * 1e9)), idx])
        samples[key] = np.array([
            rng.choice(pmf.support, spec.sample_count, p=pmf.weights)
            for pmf in shifted_representatives(trees[key], spec)
        ]).T
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

    Second-stage cost is the closed-form overflow beyond the sampled
    capacities (maghp.overflow) at the recourse unit cost. Samples that
    leave out a constrained cell, or whose cells disagree on the sample
    count, raise ValueError.
    """
    missing = [key for key in instance.constrained_keys() if key not in samples]
    if missing:
        raise ValueError(f"no capacity samples for {missing}")
    sizes = {m.shape[0] for m in samples.values()}
    if len(sizes) != 1:
        raise ValueError("sample sets disagree on sample count")
    per_sample = np.zeros(sizes.pop())
    overflow_by_op = {DEPARTURE: 0.0, ARRIVAL: 0.0}
    for (_, op_type), excess in sorted(overflow(instance, policy, samples).items()):
        per_sample += instance.recourse_cost * excess
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
    det_objective: float
    sp_objective: float
    in_sample: dict
    rows: list


def _pct_drop(base: float, value: float) -> float:
    if abs(base) < 1e-12:
        return 0.0
    return 100.0 * (base - value) / base


def _ascending(values, parse, empty: str) -> tuple:
    """The distinct values parse reads, in ascending order. No values
    raise ValueError(empty); a string is refused, not read by letter,
    and so is a single number or anything else that is not iterable."""
    try:
        items = None if isinstance(values, str) else iter(values)
    except TypeError:
        items = None
    if items is None:
        raise ValueError(f"expected a list of numbers, got {values!r}")
    # adding 0.0 turns -0.0 into 0.0, so the reports never print "-0"
    distinct = {parse(value) + 0.0 for value in items}
    if not distinct:
        raise ValueError(empty)
    return tuple(sorted(distinct))


def sweep_radii(values) -> tuple:
    """Distinct sweep radii in ascending order, with -0.0 read as 0.0.

    Raises ValueError for an empty list or a radius maghp._radius
    rejects."""
    return _ascending(values, _radius, "need at least one radius to sweep")


def sweep_levels(values) -> tuple:
    """Distinct reduction levels in ascending order, with -0.0 read as
    0.0, as sweep_radii reads radii.

    Raises ValueError for an empty list or a level _level rejects."""
    return _ascending(values, _level, "need at least one reduction level")


def _saturated(result: SolveResult, instance: MaghpInstance) -> bool:
    """True when an optimal robust objective already reaches its policy's
    support worst case, within solve()'s own 1e-6 guard."""
    objective = result.objective
    bound = support_worst_case(result.policy, instance)
    return objective >= bound - 1e-6 * max(1.0, abs(objective))


def epsilon_sweep(
    instance: MaghpInstance,
    epsilons,
    reductions,
    spec: ReductionSpec,
    day: str = "fixture",
) -> SensitivityReport:
    """Solve det/sp/dr once, then price all three per shift level.

    Radii go in ascending order, and a radius runs the solver only when
    no earlier result already certifies its robust optimum:

    * At radius 0 the Wasserstein ball holds only the tree's own
      distribution, so the robust model is the stochastic one and the sp
      solve gives its objective and policy.
    * For any policy the robust cost does not decrease with the radius
      and never exceeds the policy's support worst case S
      (maghp.support_worst_case). So once an optimal robust objective at
      radius e1, with policy p, reaches S(p) (up to solve()'s 1e-6), at
      every larger radius e2 each policy costs at least the optimum at
      e1, while p costs at most S(p): p stays optimal, at the same
      objective, and every larger radius reuses that result. The sp
      result, as the radius-0 optimum, can certify too.

    Each radius that needs a solve gets its own build_dr model. The
    deterministic baseline fixes capacities at each cell's best support
    scenario. Every policy at a given shift level is priced on identical
    samples, once per distinct policy; the reported robust cost per
    level is the best radius's cost, ties going to the smaller radius.
    An empty or bad list of radii or levels raises ValueError before
    any model is solved.
    """
    epsilons = sweep_radii(epsilons)
    reductions = sweep_levels(reductions)

    det_result = solve(build_det(instance, best_capacity_profiles(instance)))
    sp_result = solve(build_sp(instance))
    policies = {"det": extract_policy(det_result), "sp": extract_policy(sp_result)}
    in_sample = {}
    dr_policies = {}
    certified = None
    for eps in epsilons:
        if eps == 0.0:
            result = sp_result
        elif certified is not None:
            result = certified
        else:
            result = solve(build_dr(instance, eps))
        in_sample[eps] = result.objective
        dr_policies[eps] = extract_policy(result)
        if certified is None and _saturated(result, instance):
            certified = result

    rows = []
    for r in reductions:
        samples = resample_capacities(instance.trees, replace(spec, reduction=r))
        scored = {}

        def score(policy):
            if id(policy) not in scored:
                scored[id(policy)] = evaluate_policy(policy, instance, samples)
            return scored[id(policy)]

        dr_costs = {eps: score(dr_policies[eps]).total for eps in epsilons}
        eps_star = min(epsilons, key=lambda e: (dr_costs[e], e))
        evals = {label: score(p) for label, p in {**policies, "dr": dr_policies[eps_star]}.items()}
        det, sp, dr = (ev.total for ev in evals.values())
        rows.append(ReductionRow(
            reduction=r, det_cost=det, sp_cost=sp, dr_costs=dr_costs, eps_star=eps_star,
            dr_cost=dr, pct_vs_det=_pct_drop(det, dr), pct_vs_sp=_pct_drop(sp, dr),
            overflow={(label, op): value for label, ev in evals.items()
                      for op, value in ev.overflow_by_op.items()},
            per_sample={label: ev.per_sample for label, ev in evals.items()},
        ))
    return SensitivityReport(
        day=day,
        epsilons=epsilons,
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
    write_csv(path, _REPORT_COLUMNS, (
        [report.day, f"{row.reduction:g}"]
        + [f"{cost:.6f}" for cost in (row.det_cost, row.sp_cost, row.dr_cost)]
        + [f"{row.pct_vs_det:.3f}", f"{row.pct_vs_sp:.3f}", f"{row.eps_star:g}"]
        + [f"{row.overflow[model, op]:.6f}"
           for model in ("det", "sp", "dr") for op in (DEPARTURE, ARRIVAL)]
        for row in report.rows
    ))


def write_sample_costs_csv(path, report: SensitivityReport) -> None:
    """Per-sample second-stage costs, for auditing the averages.

    The bytes are those of csv.writer writing one row per sample. The
    fields shared by a (reduction, model) block go through csv.writer
    once, so a day name that needs quoting is quoted, and the block's
    sample and cost fields, which never need quoting, are formatted in
    one join. Costs are the recourse unit times integer overflow counts,
    so a block holds few distinct values: each distinct float (told
    apart by its bits, so 0.0 and -0.0 stay distinct) is formatted once.
    """
    heads: list[str] = []
    with Path(path).open("w", newline="") as handle:
        csv.writer(handle).writerow(
            ["day", "reduction", "model", "sample", "second_stage_cost"]
        )
        for row in report.rows:
            for model in ("det", "sp", "dr"):
                line = io.StringIO()
                csv.writer(line).writerow([report.day, f"{row.reduction:g}", model, ""])
                prefix = line.getvalue().removesuffix("\r\n")
                costs = np.asarray(row.per_sample[model], dtype=float)
                heads.extend(f"{i}," for i in range(len(heads), len(costs)))
                bits, which = np.unique(costs.view(np.int64), return_inverse=True)
                text = [f"{cost:.6f}\r\n" for cost in bits.view(float).tolist()]
                handle.write(
                    "".join([f"{prefix}{head}{text[k]}" for head, k in zip(heads, which.tolist())])
                )


def write_in_sample_csv(path, report: SensitivityReport) -> None:
    """The robust in-sample objective per radius, with sp at radius zero
    as the reference row."""
    write_csv(path, ["model", "epsilon", "objective"], [
        ["det", "", f"{report.det_objective:.6f}"],
        ["sp", "", f"{report.sp_objective:.6f}"],
        *(["dr", f"{eps:g}", f"{report.in_sample[eps]:.6f}"] for eps in report.epsilons),
    ])
