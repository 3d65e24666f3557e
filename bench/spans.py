"""Span recorder for the traced benchmark run.

The recorder wraps the package's public functions at the names their
callers look them up by (``groundhold.evaluation.solve`` is the binding
``epsilon_sweep`` calls, ``groundhold.solver.milp`` the one
``LinearModel.minimize`` calls), so no file of the package changes. Each
call becomes a span with a name, start, end and parent; spans stay in
memory until the run writes them out. Hooks attach counts (model sizes,
node counts, rows) to the span of the call that produced them.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import groundhold.capacity as capacity
import groundhold.cli as cli
import groundhold.evaluation as evaluation
import groundhold.prediction as prediction
import groundhold.scenario as scenario
import groundhold.solver as solver


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans while installed; install() and uninstall() swap the
    wrapped attributes in and out."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, owner, attr, name, hook=None):
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            spans.append(Span(label, stack[-1] if stack else None, time.perf_counter()))
            index = len(spans) - 1
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index].end = time.perf_counter()
            if hook is not None:
                hook(self, index, args, kwargs, result)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self):
        w = self._wrap
        w(capacity, "aggregate_intervals", "capacity.aggregate", _count_records)
        w(capacity, "estimate_capacities", "capacity.estimate", _count_observations)
        w(prediction, "train", _train_name, _count_train_rows)
        w(prediction, "evaluate", "prediction.evaluate", _count_evaluated_rows)
        w(prediction, "predict_pmf", "prediction.predict")
        w(scenario, "wasserstein_1d", "pmf.wasserstein_1d")
        w(scenario, "cluster_time_series", "scenario.cluster")
        w(scenario, "build_scenario_tree", "scenario.tree", _count_tree)
        for kind in ("det", "sp", "dr"):
            w(evaluation, f"build_{kind}", f"maghp.build_{kind}", _count_model_scenarios)
        w(evaluation, "solve", _solve_name)
        w(solver.LinearModel, "minimize", "solver.minimize")
        w(solver, "milp", "solver.highs", _count_milp)
        w(cli, "epsilon_sweep", "evaluation.sweep")
        w(evaluation, "reduce_distribution", "evaluation.reduce")
        w(evaluation, "resample_capacities", "evaluation.resample", _count_samples)
        w(evaluation, "evaluate_policy", "evaluation.evaluate_policy")
        w(cli, "load_instance", "cli.load_instance")
        for writer in ("write_report_csv", "write_sample_costs_csv", "write_in_sample_csv"):
            w(cli, writer, "cli.write", _count_bytes)
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def ancestor(self, index: int, prefix: str):
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name.startswith(prefix):
                return self.spans[parent]
            parent = self.spans[parent].parent
        return None

    def dump(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "parent": s.parent, "start": s.start,
                    "end": s.end, "counts": s.counts,
                }) + "\n")


def _train_name(args, kwargs):
    config = args[2] if len(args) > 2 else kwargs["config"]
    return f"prediction.train_{config.kind}"


def _solve_name(args, kwargs):
    bundle = args[0] if args else kwargs["bundle"]
    return f"maghp.solve_{bundle.kind}"


def _count_records(rec, i, args, kwargs, result):
    rec.spans[i].counts["records"] = len(args[0])


def _count_observations(rec, i, args, kwargs, result):
    rec.spans[i].counts["observations"] = len(result)


def _count_train_rows(rec, i, args, kwargs, result):
    rec.spans[i].counts["rows"] = len(args[1])


def _count_evaluated_rows(rec, i, args, kwargs, result):
    rec.spans[i].counts["rows"] = result.count


def _count_tree(rec, i, args, kwargs, result):
    rec.spans[i].counts["scenarios"] = result.num_scenarios


def _count_model_scenarios(rec, i, args, kwargs, result):
    instance = result.instance
    rec.spans[i].counts["scenarios"] = sum(
        instance.trees[key].num_scenarios for key in instance.constrained_keys()
    )


def _count_milp(rec, i, args, kwargs, result):
    counts = rec.spans[i].counts
    counts["vars"] = len(args[0])
    matrices = [c.A for c in kwargs.get("constraints") or ()]
    counts["rows"] = sum(a.shape[0] for a in matrices)
    counts["nnz"] = sum(a.nnz for a in matrices)
    counts["nodes"] = int(result.mip_node_count or 0)
    counts["nonoptimal"] = int(result.status != 0)
    solve = rec.ancestor(i, "maghp.solve_")
    if solve is not None:
        counts["model"] = solve.name.rsplit("_", 1)[1]


def _count_samples(rec, i, args, kwargs, result):
    rec.spans[i].counts["samples"] = sum(m.shape[0] for m in result.values())


def _count_bytes(rec, i, args, kwargs, result):
    rec.spans[i].counts["bytes"] = os.path.getsize(args[0])
