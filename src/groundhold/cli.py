"""Command line pipeline: estimate, predict, reduce-scenarios, solve,
evaluate, sweep.

Every subcommand reads one JSON config (its own section plus the shared
seed), writes its outputs atomically, and prints a one-line summary.
Exit codes: 0 on success, 1 when the domain rejects the inputs or a
solve fails, 2 for configuration problems.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .capacity import (
    OP_TYPES,
    aggregate_intervals,
    estimate_capacities,
    read_operation_records,
    write_capacity_observations,
    write_interval_stats,
)
from .config import atomic_output, load_config, require, section_for, typed
from .errors import ConfigError, GroundholdError
from .evaluation import (
    ReductionSpec,
    epsilon_sweep,
    evaluate_policy,
    resample_capacities,
    write_in_sample_csv,
    write_report_csv,
    write_sample_costs_csv,
)
from .maghp import (
    DEFAULT_TIME_LIMIT,
    best_capacity_profiles,
    build_det,
    build_dr,
    build_sp,
    extract_policy,
    load_instance,
    load_result,
    save_result,
    solve,
)
from .prediction import (
    TrainingConfig,
    evaluate,
    save_model,
    temporal_split,
    train,
)
from .pmf import load_pmf_series
from .scenario import build_scenario_tree, cluster_time_series, save_trees


def _out_path(args, section, name):
    if args.out:
        return args.out
    return require(section, "out", name)


def cmd_estimate(config, args):
    section = section_for(config, "estimate")
    records = read_operation_records(
        require(section, "records", "estimate"),
        time_format=section.get("time_format", "minutes"),
        horizon_start=section.get("horizon_start"),
    )
    num_intervals = typed(section, "num_intervals", int, "estimate")
    interval_minutes = typed(section, "interval_minutes", float, "estimate", 15.0)
    stats = aggregate_intervals(records, num_intervals, interval_minutes)
    observations = estimate_capacities(
        stats,
        alpha=typed(section, "alpha", float, "estimate", 0.8),
        delay_threshold_minutes=typed(
            section, "delay_threshold_minutes", float, "estimate", 15.0
        ),
        min_delayed=typed(section, "min_delayed", int, "estimate", 2),
        percentile=typed(section, "percentile", float, "estimate", 0.9),
    )
    out = _out_path(args, section, "estimate")
    with atomic_output(out) as temp:
        write_capacity_observations(temp, observations)
    if "stats_out" in section:
        with atomic_output(section["stats_out"]) as temp:
            write_interval_stats(temp, stats)
    print(
        f"estimate: {len(observations)} capacity observations from "
        f"{len(records)} records -> {out}"
    )
    return 0


def _read_training_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or "label" not in header:
            raise ConfigError(f"training file {path} needs a 'label' column")
        label_at = header.index("label")
        features, labels = [], []
        for row in reader:
            labels.append(int(row[label_at]))
            features.append(
                [float(v) for i, v in enumerate(row) if i != label_at]
            )
    return np.asarray(features), np.asarray(labels)


def cmd_predict(config, args):
    section = section_for(config, "predict")
    features, labels = _read_training_csv(require(section, "training", "predict"))
    split_train, split_val, split_test = temporal_split(
        len(labels),
        train_frac=typed(section, "train_frac", float, "predict", 10 / 12),
        val_frac=typed(section, "val_frac", float, "predict", 1 / 12),
    )
    held_out = split_test if len(split_test) else split_val
    training = TrainingConfig(
        kind=section.get("kind", "mlp"),
        max_capacity=section.get("max_capacity"),
        hidden_units=typed(section, "hidden_units", int, "predict", 32),
        learning_rate=typed(section, "learning_rate", float, "predict", 1e-4),
        epochs=typed(section, "epochs", int, "predict", 300),
        batch_size=typed(section, "batch_size", int, "predict", 16),
        seed=int(config.get("seed", 0)),
    )
    model = train(features[split_train], labels[split_train], training)
    metrics = evaluate(
        model,
        features[held_out],
        labels[held_out],
        level=typed(section, "level", float, "predict", 0.9),
    )
    out = _out_path(args, section, "predict")
    with atomic_output(out) as temp:
        save_model(temp, model)
    if "metrics_out" in section:
        body = {
            "rmse": metrics.rmse,
            "mae": metrics.mae,
            "picp": metrics.picp,
            "mpiw": metrics.mpiw,
            "count": metrics.count,
        }
        with atomic_output(section["metrics_out"]) as temp:
            with open(temp, "w") as fh:
                json.dump(body, fh, indent=1)
                fh.write("\n")
    print(
        f"predict: {training.kind} model on {len(split_train)} rows, "
        f"held-out rmse {metrics.rmse:.3f} picp {metrics.picp:.3f} -> {out}"
    )
    return 0


def cmd_reduce_scenarios(config, args):
    section = section_for(config, "reduce-scenarios")
    cells = require(section, "cells", "reduce-scenarios")
    change_points = typed(section, "change_points", int, "reduce-scenarios")
    clusters = typed(section, "clusters_per_stage", int, "reduce-scenarios")
    trees = []
    for cell in cells:
        series = load_pmf_series(require(cell, "series", "reduce-scenarios cell"))
        clustering = cluster_time_series(series, change_points)
        trees.append(
            build_scenario_tree(
                clustering,
                clusters,
                airport=require(cell, "airport", "reduce-scenarios cell"),
                op_type=require(cell, "op_type", "reduce-scenarios cell"),
                clamp=bool(section.get("clamp", False)),
            )
        )
    out = _out_path(args, section, "reduce-scenarios")
    with atomic_output(out) as temp:
        save_trees(temp, trees)
    sizes = ", ".join(str(t.num_scenarios) for t in trees)
    print(f"reduce-scenarios: {len(trees)} trees ({sizes} scenarios) -> {out}")
    return 0


def _parse_epsilon(value):
    """One radius, or a mapping with a radius for every op type."""
    try:
        if isinstance(value, dict):
            return {op: float(value[op]) for op in OP_TYPES}
        return float(value)
    except KeyError as exc:
        raise ConfigError(f"solve config 'epsilon' has no radius for {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"solve config 'epsilon': {exc}") from exc


def cmd_solve(config, args):
    section = section_for(config, "solve")
    instance = load_instance(require(section, "instance", "solve"))
    kind = args.model or section.get("model", "sp")
    if kind not in ("det", "sp", "dr"):
        raise ConfigError(f"unknown model kind {kind!r}")
    if kind == "det":
        if "capacities" in section:
            fixed = {
                tuple(label.split("/")): profile
                for label, profile in section["capacities"].items()
            }
        else:
            fixed = best_capacity_profiles(instance)
        bundle = build_det(instance, fixed)
    elif kind == "sp":
        bundle = build_sp(instance)
    else:
        epsilon = (
            args.epsilon
            if args.epsilon is not None
            else _parse_epsilon(require(section, "epsilon", "solve"))
        )
        bundle = build_dr(instance, epsilon)
    time_limit = (
        args.time_limit
        if args.time_limit is not None
        else typed(section, "time_limit", float, "solve", DEFAULT_TIME_LIMIT)
    )
    result = solve(bundle, time_limit=time_limit)
    out = _out_path(args, section, "solve")
    with atomic_output(out) as temp:
        save_result(temp, result, instance)
    objective = "none" if result.objective is None else f"{result.objective:.6f}"
    print(f"solve: {kind} status {result.status} objective {objective} -> {out}")
    return 0 if result.status == "optimal" else 1


def cmd_evaluate(config, args):
    section = section_for(config, "evaluate")
    instance = load_instance(require(section, "instance", "evaluate"))
    result = load_result(require(section, "result", "evaluate"))
    policy = extract_policy(result)
    spec = ReductionSpec(
        reduction=typed(section, "reduction", float, "evaluate"),
        band=typed(section, "band", float, "evaluate", 1.0),
        sample_count=typed(section, "sample_count", int, "evaluate", 100),
        seed=int(config.get("seed", 0)),
    )
    samples = resample_capacities(instance.trees, spec)
    evaluation = evaluate_policy(policy, instance, samples)
    body = {
        "reduction": spec.reduction,
        "band": spec.band,
        "sample_count": spec.sample_count,
        "seed": spec.seed,
        "first_stage": evaluation.first_stage,
        "mean_second_stage": evaluation.mean_second_stage,
        "total": evaluation.total,
        "overflow_by_op": dict(sorted(evaluation.overflow_by_op.items())),
    }
    out = _out_path(args, section, "evaluate")
    with atomic_output(out) as temp:
        with open(temp, "w") as fh:
            json.dump(body, fh, indent=1)
            fh.write("\n")
    print(
        f"evaluate: reduction {spec.reduction:g} total {evaluation.total:.6f} -> {out}"
    )
    return 0


def cmd_sweep(config, args):
    section = section_for(config, "sweep")
    instance = load_instance(require(section, "instance", "sweep"))
    epsilons = (
        args.epsilons
        if args.epsilons is not None
        else require(section, "epsilons", "sweep")
    )
    reductions = require(section, "reductions", "sweep")
    spec = ReductionSpec(
        reduction=0.0,
        band=typed(section, "band", float, "sweep", 1.0),
        sample_count=typed(section, "sample_count", int, "sweep", 100),
        seed=int(config.get("seed", 0)),
    )
    report = epsilon_sweep(
        instance,
        epsilons,
        reductions,
        spec,
        day=str(section.get("day", "fixture")),
    )
    out = _out_path(args, section, "sweep")
    with atomic_output(out) as temp:
        write_report_csv(temp, report)
    if "samples_out" in section:
        with atomic_output(section["samples_out"]) as temp:
            write_sample_costs_csv(temp, report)
    if "curve_out" in section:
        with atomic_output(section["curve_out"]) as temp:
            write_in_sample_csv(temp, report)
    print(
        f"sweep: {len(report.rows)} reduction levels x {len(report.epsilons)} "
        f"radii -> {out}"
    )
    return 0


COMMANDS = {
    "estimate": cmd_estimate,
    "predict": cmd_predict,
    "reduce-scenarios": cmd_reduce_scenarios,
    "solve": cmd_solve,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groundhold",
        description="Airport capacity estimation and ground holding pipeline.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, handler in COMMANDS.items():
        sub = commands.add_parser(name, help=handler.__doc__)
        sub.add_argument("--config", required=True, help="JSON config file")
        sub.add_argument("--seed", type=int, help="override the config seed")
        sub.add_argument("--out", help="override the section's output path")
        if name == "solve":
            sub.add_argument("--model", choices=("det", "sp", "dr"))
            sub.add_argument("--epsilon", type=float, help="ambiguity radius")
            sub.add_argument("--time-limit", type=float, dest="time_limit")
        if name == "sweep":
            sub.add_argument(
                "--epsilons", type=float, nargs="+", help="radius grid override"
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config["seed"] = args.seed
        return COMMANDS[args.command](config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GroundholdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
