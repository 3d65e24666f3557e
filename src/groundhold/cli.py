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
import math
import sys
from dataclasses import replace
from datetime import datetime

import numpy as np

from .capacity import (
    aggregate_intervals,
    estimate_capacities,
    read_operation_records,
    write_capacity_observations,
    write_interval_stats,
)
from .config import atomic_output, csv_rows, load_config, parse_cell, require, section_for, typed
from .errors import ConfigError, GroundholdError, MissingInputError
from .evaluation import (
    ReductionSpec,
    epsilon_sweep,
    evaluate_policy,
    resample_capacities,
    sweep_radii,
    write_in_sample_csv,
    write_report_csv,
    write_sample_costs_csv,
)
from .maghp import (
    _radius,
    best_capacity_profiles,
    build_det,
    build_dr,
    build_sp,
    extract_policy,
    flight_delays,
    load_instance,
    load_result,
    save_result,
    solve,
)
from .prediction import (
    EMPIRICAL,
    MLP,
    TrainingConfig,
    evaluate,
    save_model,
    temporal_split,
    train,
)
from .pmf import load_pmf_series
from .scenario import build_scenario_tree, cluster_time_series, save_trees


def _settings(section, context, **kinds):
    """The keys of kinds that the section sets, each read by typed with
    its kind; a key the section leaves out keeps the library's default."""
    return {
        key: typed(section, key, kind, context) for key, kind in kinds.items() if key in section
    }


def _shift_spec(seed, section, context, reduction):
    """The section's shift settings; a value ReductionSpec rejects is a
    config error."""
    shift = _settings(section, context, band=_number, sample_count=int)
    try:
        return ReductionSpec(reduction, seed=seed, **shift)
    except ValueError as exc:
        raise ConfigError(f"{context} config: {exc}") from exc


def _number(value):
    """A JSON number, an int or a float but not a bool or a string, as a
    float."""
    if type(value) not in (int, float):
        raise ValueError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"must be finite, got {value!r}") from None


def _numbers(value):
    """A list of JSON numbers, each as a float."""
    if not isinstance(value, list):
        raise ValueError(f"expected a list of numbers, got {value!r}")
    return [_number(v) for v in value]


def _refuse_unread(section, context, key, mode_key, mode, reader):
    """Raise ConfigError when the section sets key but its mode_key is
    mode rather than reader, the only mode that reads key."""
    if key in section and mode != reader:
        raise ConfigError(
            f"{context} config {key!r}: read only when {mode_key!r} is {reader!r}, "
            f"not {mode!r}"
        )


def _time_limit(value):
    """A solver time limit in seconds, which must be greater than 0."""
    limit = _number(value)
    if not limit > 0:
        raise ValueError(f"must be greater than 0, got {value!r}")
    return limit


def _finite(value):
    """A finite number."""
    number = _number(value)
    if not math.isfinite(number):
        raise ValueError(f"must be finite, got {value!r}")
    return number


def _positive(value):
    """A finite number greater than 0."""
    number = _finite(value)
    if not number > 0:
        raise ValueError(f"must be greater than 0, got {value!r}")
    return number


def _level(value):
    """A level or fraction in (0, 1]."""
    level = _number(value)
    if not 0 < level <= 1:
        raise ValueError(f"must be in (0, 1], got {value!r}")
    return level


def _timestamp(value):
    """An ISO 8601 timestamp, passed on as written."""
    datetime.fromisoformat(value)
    return value


def _one_of(*choices):
    """A parser accepting exactly one of choices."""

    def parse(value):
        if value not in choices:
            expected = ", ".join(repr(c) for c in choices)
            raise ValueError(f"expected one of {expected}, got {value!r}")
        return value

    return parse


def _count(minimum):
    """A parser for a count: a JSON integer (not a bool) of at least
    minimum."""

    def parse(value):
        if type(value) is not int or value < minimum:
            raise ValueError(f"expected an integer of at least {minimum}, got {value!r}")
        return value

    return parse


def _cells(value):
    """A list of objects."""
    if not (isinstance(value, list) and all(isinstance(c, dict) for c in value)):
        raise ValueError(f"expected a list of objects, got {value!r}")
    return value


def _path(value):
    """A file path, written as a string."""
    if not isinstance(value, str):
        raise ValueError(f"expected a file path, got {value!r}")
    return value


def cmd_estimate(section, seed):
    """Estimate capacity observations from operation records."""
    out = typed(section, "out", _path, "estimate")
    stats_out = typed(section, "stats_out", _path, "estimate", None)
    num_intervals = typed(section, "num_intervals", _count(1), "estimate")
    grid = _settings(section, "estimate", interval_minutes=_positive)
    time_format = typed(
        section, "time_format", _one_of("minutes", "iso8601"), "estimate", "minutes"
    )
    _refuse_unread(section, "estimate", "horizon_start", "time_format", time_format, "iso8601")
    criteria = _settings(
        section,
        "estimate",
        alpha=_finite,
        delay_threshold_minutes=_finite,
        min_delayed=int,
        percentile=_level,
    )
    horizon_start = None
    if time_format == "iso8601":
        horizon_start = typed(section, "horizon_start", _timestamp, "estimate")
    records = read_operation_records(
        typed(section, "records", _path, "estimate"),
        time_format=time_format,
        horizon_start=horizon_start,
    )
    stats = aggregate_intervals(records, num_intervals, **grid)
    observations = estimate_capacities(stats, **criteria)
    with atomic_output(out) as temp:
        write_capacity_observations(temp, observations)
    if stats_out is not None:
        with atomic_output(stats_out) as temp:
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
            raise MissingInputError(f"training file {path} has no 'label' column")
        label_at = header.index("label")
        features, labels = [], []
        for line, row in csv_rows(reader, header, path, "training"):
            labels.append(parse_cell(int, row[label_at], path, "training", line, "label"))
            features.append(
                [
                    parse_cell(float, v, path, "training", line, header[i])
                    for i, v in enumerate(row)
                    if i != label_at
                ]
            )
    return np.asarray(features), np.asarray(labels)


def cmd_predict(section, seed):
    """Train a capacity predictor and score it on held-out rows."""
    out = typed(section, "out", _path, "predict")
    metrics_out = typed(section, "metrics_out", _path, "predict", None)
    train_frac = typed(section, "train_frac", _level, "predict", 10 / 12)
    val_frac = typed(section, "val_frac", _finite, "predict", 1 / 12)
    if not (val_frac >= 0 and train_frac + val_frac <= 1):
        raise ConfigError(
            f"predict config 'val_frac': must be in [0, 1 - train_frac], got {val_frac!r}"
        )
    training = TrainingConfig(
        seed=seed,
        **_settings(
            section,
            "predict",
            kind=_one_of(MLP, EMPIRICAL),
            max_capacity=_count(0),
            hidden_units=_count(1),
            learning_rate=_positive,
            epochs=_count(0),
            batch_size=_count(1),
        ),
    )
    coverage = _settings(section, "predict", level=_level)
    features, labels = _read_training_csv(typed(section, "training", _path, "predict"))
    split_train, split_val, split_test = temporal_split(len(labels), train_frac, val_frac)
    held_out = split_test if len(split_test) else split_val
    model = train(features[split_train], labels[split_train], training)
    metrics = evaluate(model, features[held_out], labels[held_out], **coverage)
    with atomic_output(out) as temp:
        save_model(temp, model)
    if metrics_out is not None:
        body = {
            "rmse": metrics.rmse,
            "mae": metrics.mae,
            "picp": metrics.picp,
            "mpiw": metrics.mpiw,
            "count": metrics.count,
        }
        with atomic_output(metrics_out) as temp:
            with open(temp, "w") as fh:
                json.dump(body, fh, indent=1)
                fh.write("\n")
    print(
        f"predict: {training.kind} model on {len(split_train)} rows, "
        f"held-out rmse {metrics.rmse:.3f} picp {metrics.picp:.3f} -> {out}"
    )
    return 0


def cmd_reduce_scenarios(section, seed):
    """Reduce forecast PMF series to scenario trees."""
    out = typed(section, "out", _path, "reduce-scenarios")
    cells = typed(section, "cells", _cells, "reduce-scenarios")
    change_points = typed(section, "change_points", _count(0), "reduce-scenarios")
    clusters = typed(section, "clusters_per_stage", _count(1), "reduce-scenarios")
    context = "reduce-scenarios cell"
    paths = [typed(c, "series", _path, context) for c in cells]
    labels = [(require(c, "airport", context), require(c, "op_type", context)) for c in cells]
    trees = []
    for path, (airport, op_type) in zip(paths, labels):
        clustering = cluster_time_series(load_pmf_series(path), change_points)
        trees.append(build_scenario_tree(clustering, clusters, airport=airport, op_type=op_type))
    with atomic_output(out) as temp:
        save_trees(temp, trees)
    sizes = ", ".join(str(t.num_scenarios) for t in trees)
    print(f"reduce-scenarios: {len(trees)} trees ({sizes} scenarios) -> {out}")
    return 0


def _det_capacities(raw, instance):
    """The solve section's det profiles keyed (airport, op_type). Each
    label must name a constrained cell "airport/op_type" and each profile
    be a list of horizon-many finite numbers, else ConfigError."""
    cells = {f"{airport}/{op}": (airport, op) for airport, op in instance.constrained_keys()}
    if not isinstance(raw, dict):
        raise ConfigError(f"solve config 'capacities': expected an object, got {raw!r}")
    fixed = {}
    for label, profile in raw.items():
        context = f"solve config 'capacities' {label!r}"
        if label not in cells:
            raise ConfigError(f"{context}: expected one of {', '.join(cells)}")
        if not (
            isinstance(profile, list)
            and len(profile) == instance.horizon
            and all(type(c) in (int, float) and math.isfinite(c) for c in profile)
        ):
            raise ConfigError(f"{context}: expected {instance.horizon} finite numbers")
        fixed[cells[label]] = profile
    return fixed


def cmd_solve(section, seed):
    """Solve the det, sp or dr ground holding model of an instance."""
    out = typed(section, "out", _path, "solve")
    kind = typed(section, "model", _one_of("det", "sp", "dr"), "solve", "sp")
    limit = _settings(section, "solve", time_limit=_time_limit)
    _refuse_unread(section, "solve", "epsilon", "model", kind, "dr")
    _refuse_unread(section, "solve", "capacities", "model", kind, "det")
    if kind == "dr":
        epsilon = typed(section, "epsilon", _radius, "solve")
    instance = load_instance(typed(section, "instance", _path, "solve"))
    if kind == "det":
        if "capacities" in section:
            fixed = _det_capacities(section["capacities"], instance)
        else:
            fixed = best_capacity_profiles(instance)
        bundle = build_det(instance, fixed)
    elif kind == "sp":
        bundle = build_sp(instance)
    else:
        bundle = build_dr(instance, epsilon)
    result = solve(bundle, **limit)
    with atomic_output(out) as temp:
        save_result(temp, result, instance)
    objective = "none" if result.objective is None else f"{result.objective:.6f}"
    print(f"solve: {kind} status {result.status} objective {objective} -> {out}")
    return 0 if result.status == "optimal" else 1


def _checked_policy(path, instance):
    """The policy of the result file at path, checked to fit instance:
    every flight has slots, departs no earlier than scheduled and
    arrives no earlier than its departure plus its flight time, and a
    successor departing from a network airport is held at least the
    delay its predecessor passes on beyond the connection's slack.
    Raises MissingInputError naming the file and the flight(s)."""
    policy = extract_policy(load_result(path))
    for f in instance.flights:
        if f.id not in policy.u_slot:
            fault = "has no slots"
        elif policy.u_slot[f.id] < f.sched_dep:
            fault = f"departs at {policy.u_slot[f.id]}, before its schedule {f.sched_dep}"
        elif policy.v_slot[f.id] < policy.u_slot[f.id] + f.flight_time:
            fault = (
                f"arrives at {policy.v_slot[f.id]}, before its departure "
                f"{policy.u_slot[f.id]} plus flight time {f.flight_time}"
            )
        else:
            continue
        raise MissingInputError(f"result file {path}: flight {f.id} {fault}")
    delays = flight_delays(instance, policy)
    for c in instance.delay_connections():
        held = delays[c.successor][0]
        passed_on = sum(delays[c.predecessor]) - c.slack
        if held < passed_on:
            raise MissingInputError(
                f"result file {path}: flight {c.successor} is held {held} intervals, "
                f"less than the {passed_on} its predecessor {c.predecessor} passes on "
                f"beyond slack {c.slack}"
            )
    return policy


def cmd_evaluate(section, seed):
    """Price a solved policy on resampled capacities."""
    result_path = typed(section, "result", _path, "evaluate")
    out = typed(section, "out", _path, "evaluate")
    reduction = typed(section, "reduction", _number, "evaluate")
    spec = _shift_spec(seed, section, "evaluate", reduction)
    instance = load_instance(typed(section, "instance", _path, "evaluate"))
    policy = _checked_policy(result_path, instance)
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
    with atomic_output(out) as temp:
        with open(temp, "w") as fh:
            json.dump(body, fh, indent=1)
            fh.write("\n")
    print(
        f"evaluate: reduction {spec.reduction:g} total {evaluation.total:.6f} -> {out}"
    )
    return 0


def cmd_sweep(section, seed):
    """Compare det, sp and dr policies over radii and reduction levels."""
    out = typed(section, "out", _path, "sweep")
    samples_out = typed(section, "samples_out", _path, "sweep", None)
    curve_out = typed(section, "curve_out", _path, "sweep", None)
    day = _settings(section, "sweep", day=str)
    epsilons = typed(section, "epsilons", sweep_radii, "sweep")
    spec = _shift_spec(seed, section, "sweep", 0.0)
    reductions = typed(
        section,
        "reductions",
        lambda levels: [replace(spec, reduction=r).reduction for r in _numbers(levels)],
        "sweep",
    )
    instance = load_instance(typed(section, "instance", _path, "sweep"))
    report = epsilon_sweep(instance, epsilons, reductions, spec, **day)
    with atomic_output(out) as temp:
        write_report_csv(temp, report)
    if samples_out is not None:
        with atomic_output(samples_out) as temp:
            write_sample_costs_csv(temp, report)
    if curve_out is not None:
        with atomic_output(curve_out) as temp:
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

#: the keys each command's section may set; main refuses any other
KEYS = {
    "estimate": (
        "records num_intervals out interval_minutes time_format horizon_start alpha"
        " delay_threshold_minutes min_delayed percentile stats_out"
    ).split(),
    "predict": (
        "training out kind hidden_units learning_rate epochs batch_size max_capacity"
        " train_frac val_frac level metrics_out"
    ).split(),
    "reduce-scenarios": "cells change_points clusters_per_stage out".split(),
    "solve": "instance out model epsilon capacities time_limit".split(),
    "evaluate": "instance result reduction out band sample_count".split(),
    "sweep": (
        "instance epsilons reductions out band sample_count day samples_out curve_out"
    ).split(),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groundhold",
        description="Airport capacity estimation and ground holding pipeline.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, handler in COMMANDS.items():
        sub = commands.add_parser(name, help=handler.__doc__, argument_default=argparse.SUPPRESS)
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
    """Run one command. Each flag given, but --config and --seed, sets the
    section key of its name, which is then read like one from the file."""
    flags = vars(build_parser().parse_args(argv))
    command = flags.pop("command")
    try:
        config = load_config(flags.pop("config"))
        seed = flags.pop("seed", config.get("seed", 0))
        section = {**section_for(config, command, KEYS[command]), **flags}
        return COMMANDS[command](section, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (GroundholdError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
