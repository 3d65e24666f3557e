"""Command line pipeline: estimate, predict, reduce-scenarios, solve,
evaluate, sweep.

Every subcommand reads one JSON config (its own section plus the shared
seed). main parses the section once, through the command's entries in
KEYS, and hands the command the parsed values. The command returns its
outputs as (path, writer, *args) entries, a one-line summary and its
exit code; main commits every output whose path is set in one step
(config.write_outputs), then prints the summary and the out path.
The CSV inputs (records, training rows) are read through
config.read_csv. Exit codes: 0 on success, 1 when the domain rejects
the inputs, an output cannot be written or a solve fails, 2 for
configuration problems, two outputs on one file among them.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

import numpy as np

from .capacity import (
    OP_TYPES,
    aggregate_intervals,
    estimate_capacities,
    read_operation_records,
    write_capacity_observations,
    write_interval_stats,
)
from .config import (
    OPTIONAL,
    Key,
    check_seed,
    count,
    file_path,
    finite,
    fraction,
    json_object,
    load_config,
    number,
    one_of,
    parse_section,
    positive,
    read_csv,
    timestamp,
    write_json,
    write_outputs,
)
from .errors import ConfigError, GroundholdError, MissingInputError
from .evaluation import (
    ReductionSpec,
    epsilon_sweep,
    evaluate_policy,
    resample_capacities,
    sweep_levels,
    sweep_radii,
    write_in_sample_csv,
    write_report_csv,
    write_sample_costs_csv,
)
from .maghp import (
    _radius,
    _require_trees,
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
from .pmf import as_whole, load_pmf_series
from .scenario import build_scenario_tree, cluster_time_series, save_trees


def _given(values, *keys):
    """The values of those keys the section set, for a library call whose
    own defaults stand in for the rest."""
    return {key: values[key] for key in keys if key in values}


def _shift_spec(values, seed, context, reduction):
    """The section's shift settings; a value ReductionSpec rejects is a
    config error."""
    try:
        return ReductionSpec(reduction, seed=seed, **_given(values, "band", "sample_count"))
    except ValueError as exc:
        raise ConfigError(f"{context} config: {exc}") from exc


def _time_limit(value):
    """A solver time limit in seconds, which must be greater than 0."""
    limit = number(value)
    if not limit > 0:
        raise ValueError(f"must be greater than 0, got {value!r}")
    return limit


def _cells(value):
    """A list of objects."""
    if not (isinstance(value, list) and all(isinstance(c, dict) for c in value)):
        raise ValueError(f"expected a list of objects, got {value!r}")
    return value


def cmd_estimate(values, seed):
    """Estimate capacity observations from operation records."""
    records = read_operation_records(
        values["records"],
        time_format=values["time_format"],
        horizon_start=values.get("horizon_start"),
    )
    stats = aggregate_intervals(
        records, values["num_intervals"], **_given(values, "interval_minutes")
    )
    observations = estimate_capacities(
        stats,
        **_given(values, "alpha", "delay_threshold_minutes", "min_delayed", "percentile"),
    )
    summary = f"estimate: {len(observations)} capacity observations from {len(records)} records"
    return [
        (values["out"], write_capacity_observations, observations),
        (values["stats_out"], write_interval_stats, stats),
    ], summary, 0


def _feature(text):
    """A training feature cell: a finite number."""
    return finite(float(text))


def _label(text, cap):
    """A training label cell: a whole number of at least 0 and, given
    cap, at most cap."""
    label = as_whole(int(text))
    if cap is not None and label > cap:
        raise ValueError(f"label {label} exceeds max capacity {cap} set by 'max_capacity'")
    return label


def _read_training_csv(path, cap=None):
    """The feature and label arrays of a training file: its label column,
    each label at most cap if given, and every other column, a feature,
    in header order. A file with no rows or no feature column raises
    MissingInputError naming it."""
    rows = list(read_csv(path, "training", {"label": lambda text: _label(text, cap)}, _feature))
    if not rows:
        raise MissingInputError(f"training file {path} has no rows")
    if len(rows[0]) == 1:
        raise MissingInputError(f"training file {path} has no feature columns")
    return np.asarray([row[1:] for row in rows]), np.asarray([row[0] for row in rows])


def cmd_predict(values, seed):
    """Train a capacity predictor and score it on held-out rows."""
    train_frac, val_frac = values["train_frac"], values["val_frac"]
    if not (val_frac >= 0 and train_frac + val_frac <= 1):
        raise ConfigError(
            f"predict config 'val_frac': must be in [0, 1 - train_frac], got {val_frac!r}"
        )
    training = TrainingConfig(
        seed=seed,
        **_given(
            values, "kind", "max_capacity", "hidden_units", "learning_rate", "epochs", "batch_size"
        ),
    )
    features, labels = _read_training_csv(values["training"], training.max_capacity)
    split_train, split_val, split_test = temporal_split(len(labels), train_frac, val_frac)
    held_out = split_test if len(split_test) else split_val
    for part, rows in (("training", split_train), ("held-out", held_out)):
        if not len(rows):
            raise MissingInputError(
                f"training file {values['training']} has {len(labels)} rows: train_frac "
                f"{train_frac:g} and val_frac {val_frac:g} leave no {part} rows"
            )
    model = train(features[split_train], labels[split_train], training)
    metrics = evaluate(model, features[held_out], labels[held_out], **_given(values, "level"))
    summary = (
        f"predict: {training.kind} model on {len(split_train)} rows, "
        f"held-out rmse {metrics.rmse:.3f} picp {metrics.picp:.3f}"
    )
    return [
        (values["out"], save_model, model),
        (values["metrics_out"], write_json, asdict(metrics)),
    ], summary, 0


def cmd_reduce_scenarios(values, seed):
    """Reduce forecast PMF series to scenario trees."""
    cells = {}
    for body in values["cells"]:
        cell = parse_section(body, CELL_KEYS, "reduce-scenarios cell")
        label = (cell["airport"], cell["op_type"])
        if label in cells:
            raise ConfigError(f"reduce-scenarios config 'cells': two cells for {'/'.join(label)}")
        cells[label] = cell["series"]
    trees = []
    for (airport, op_type), series in cells.items():
        clustering = cluster_time_series(load_pmf_series(series), values["change_points"])
        trees.append(
            build_scenario_tree(
                clustering, values["clusters_per_stage"], airport=airport, op_type=op_type
            )
        )
    sizes = ", ".join(str(t.num_scenarios) for t in trees)
    summary = f"reduce-scenarios: {len(trees)} trees ({sizes} scenarios)"
    return [(values["out"], save_trees, trees)], summary, 0


def _det_capacities(raw, instance):
    """The solve section's det profiles keyed (airport, op_type). Each
    label must name a constrained cell "airport/op_type" and each profile
    be a list of horizon-many capacities, whole numbers of at least 0
    (as_whole), else ConfigError."""
    cells = {f"{airport}/{op}": (airport, op) for airport, op in instance.constrained_keys()}
    fixed = {}
    for label, profile in raw.items():
        context = f"solve config 'capacities' {label!r}"
        if label not in cells:
            raise ConfigError(f"{context}: expected one of {', '.join(cells)}")
        refusal = ConfigError(
            f"{context}: expected {instance.horizon} whole numbers of at least 0"
        )
        if not isinstance(profile, list) or len(profile) != instance.horizon:
            raise refusal
        try:
            fixed[cells[label]] = [as_whole(c) for c in profile]
        except ValueError:
            raise refusal from None
    return fixed


def cmd_solve(values, seed):
    """Solve the det, sp or dr ground holding model of an instance."""
    kind = values["model"]
    instance = load_instance(values["instance"])
    if kind == "det":
        if "capacities" in values:
            fixed = _det_capacities(values["capacities"], instance)
        else:
            fixed = best_capacity_profiles(instance)
        bundle = build_det(instance, fixed)
    elif kind == "sp":
        bundle = build_sp(instance)
    else:
        bundle = build_dr(instance, values["epsilon"])
    result = solve(bundle, **_given(values, "time_limit"))
    objective = "none" if result.objective is None else f"{result.objective:.6f}"
    summary = f"solve: {kind} status {result.status} objective {objective}"
    code = 0 if result.status == "optimal" else 1
    return [(values["out"], save_result, result, instance)], summary, code


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


def cmd_evaluate(values, seed):
    """Price a solved policy on resampled capacities."""
    spec = _shift_spec(values, seed, "evaluate", values["reduction"])
    instance = load_instance(values["instance"])
    _require_trees(instance)
    policy = _checked_policy(values["result"], instance)
    samples = resample_capacities(instance.trees, spec)
    evaluation = evaluate_policy(policy, instance, samples)
    body = {
        **asdict(spec),
        "first_stage": evaluation.first_stage,
        "mean_second_stage": evaluation.mean_second_stage,
        "total": evaluation.total,
        "overflow_by_op": dict(sorted(evaluation.overflow_by_op.items())),
    }
    summary = f"evaluate: reduction {spec.reduction:g} total {evaluation.total:.6f}"
    return [(values["out"], write_json, body)], summary, 0


def cmd_sweep(values, seed):
    """Compare det, sp and dr policies over radii and reduction levels."""
    spec = _shift_spec(values, seed, "sweep", 0.0)
    instance = load_instance(values["instance"])
    report = epsilon_sweep(
        instance, values["epsilons"], values["reductions"], spec, **_given(values, "day")
    )
    summary = f"sweep: {len(report.rows)} reduction levels x {len(report.epsilons)} radii"
    return [
        (values["out"], write_report_csv, report),
        (values["samples_out"], write_sample_costs_csv, report),
        (values["curve_out"], write_in_sample_csv, report),
    ], summary, 0


COMMANDS = {
    "estimate": cmd_estimate,
    "predict": cmd_predict,
    "reduce-scenarios": cmd_reduce_scenarios,
    "solve": cmd_solve,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
}

MODELS = ("det", "sp", "dr")
_OUT = Key("out", file_path, flag={"help": "override the section's output path"})

#: each command's section keys in the order they are checked; main
#: refuses any other key
KEYS = {
    "estimate": (
        _OUT,
        Key("stats_out", file_path, None),
        Key("num_intervals", count(1)),
        Key("interval_minutes", positive, OPTIONAL),
        Key("time_format", one_of("minutes", "iso8601"), "minutes"),
        Key("alpha", finite, OPTIONAL),
        Key("delay_threshold_minutes", finite, OPTIONAL),
        Key("min_delayed", count(0), OPTIONAL),
        Key("percentile", fraction, OPTIONAL),
        Key("horizon_start", timestamp, mode=("time_format", "iso8601")),
        Key("records", file_path),
    ),
    "predict": (
        _OUT,
        Key("metrics_out", file_path, None),
        Key("train_frac", fraction, 10 / 12),
        Key("val_frac", finite, 1 / 12),
        Key("kind", one_of(MLP, EMPIRICAL), MLP),
        Key("max_capacity", count(0), OPTIONAL),
        Key("hidden_units", count(1), OPTIONAL, mode=("kind", MLP)),
        Key("learning_rate", positive, OPTIONAL, mode=("kind", MLP)),
        Key("epochs", count(0), OPTIONAL, mode=("kind", MLP)),
        Key("batch_size", count(1), OPTIONAL, mode=("kind", MLP)),
        Key("level", fraction, OPTIONAL),
        Key("training", file_path),
    ),
    "reduce-scenarios": (
        _OUT,
        Key("cells", _cells),
        Key("change_points", count(0)),
        Key("clusters_per_stage", count(1)),
    ),
    "solve": (
        _OUT,
        Key("model", one_of(*MODELS), "sp", flag={"choices": MODELS}),
        Key("time_limit", _time_limit, OPTIONAL, flag={"type": float}),
        Key("epsilon", _radius, mode=("model", "dr"),
            flag={"type": float, "help": "ambiguity radius"}),
        Key("capacities", json_object, OPTIONAL, mode=("model", "det")),
        Key("instance", file_path),
    ),
    "evaluate": (
        Key("result", file_path),
        _OUT,
        Key("reduction", number),
        Key("band", number, OPTIONAL),
        Key("sample_count", int, OPTIONAL),
        Key("instance", file_path),
    ),
    "sweep": (
        _OUT,
        Key("samples_out", file_path, None),
        Key("curve_out", file_path, None),
        Key("day", str, OPTIONAL),
        Key("epsilons", sweep_radii,
            flag={"type": float, "nargs": "+", "help": "radius grid override"}),
        Key("band", number, OPTIONAL),
        Key("sample_count", int, OPTIONAL),
        Key("reductions", sweep_levels),
        Key("instance", file_path),
    ),
}

#: the keys of each reduce-scenarios cell
CELL_KEYS = (
    Key("series", file_path),
    Key("airport", str),
    Key("op_type", one_of(*OP_TYPES)),
)


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
        for key in KEYS[name]:
            if key.flag is not None:
                flag = "--" + key.name.replace("_", "-")
                sub.add_argument(flag, dest=key.name, **key.flag)
    return parser


def main(argv=None) -> int:
    """Run one command and write its outputs. Each flag given, but
    --config and --seed, sets the section key of its name, which is then
    read like one from the file. The summary is printed only once every
    output is written."""
    flags = vars(build_parser().parse_args(argv))
    command = flags.pop("command")
    try:
        config = load_config(flags.pop("config"))
        for name in config:
            if name not in COMMANDS and name != "seed":
                raise ConfigError(
                    f"unknown config section {name!r}; expected one of "
                    f"{', '.join(COMMANDS)} or seed"
                )
        seed = check_seed(flags.pop("seed", config.get("seed", 0)))
        if command not in config:
            raise ConfigError(f"config has no {command!r} section")
        values = parse_section({**config[command], **flags}, KEYS[command], command)
        outputs, summary, code = COMMANDS[command](values, seed)
        write_outputs(outputs)
        print(f"{summary} -> {values['out']}")
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (GroundholdError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
