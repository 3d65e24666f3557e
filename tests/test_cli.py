"""End-to-end runs of the command line pipeline."""

import csv
import json
import math

import pytest
from test_maghp import flight, single_stage_tree, two_airport_instance

from groundhold.capacity import (
    read_capacity_observations,
    write_operation_records,
)
from groundhold.cli import main
from groundhold.config import load_config
from groundhold.errors import ConfigError
from groundhold.fixtures import bucket_training_data, synthetic_records
from groundhold.maghp import (
    FlightConnection,
    MaghpInstance,
    first_stage_cost,
    load_result,
    save_instance,
)
from groundhold.pmf import make_pmf, save_pmf_series
from groundhold.prediction import load_model
from groundhold.scenario import load_trees


def write_config(tmp_path, body, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def three_airport_instance():
    """Rotation A -> B -> C -> A with two extra contenders at A."""
    net = ("A", "B", "C")
    flights = (
        flight("f1", "A", "B", 0, 1, net),
        flight("f2", "A", "B", 0, 1, net),
        flight("f3", "B", "C", 1, 2, net),
        flight("f4", "C", "A", 2, 3, net),
    )
    connections = (
        FlightConnection("f1", "f3", 0),
        FlightConnection("f3", "f4", 0),
    )
    trees = {
        ("A", "departure"): single_stage_tree(
            "A", "departure", 4, [(1, 0.5), (2, 0.5)]
        ),
        ("B", "arrival"): single_stage_tree(
            "B", "arrival", 4, [(1, 0.4), (2, 0.6)]
        ),
        ("B", "departure"): single_stage_tree(
            "B", "departure", 4, [(0, 0.3), (1, 0.7)]
        ),
        ("C", "arrival"): single_stage_tree(
            "C", "arrival", 4, [(1, 0.5), (2, 0.5)]
        ),
        ("C", "departure"): single_stage_tree("C", "departure", 4, [(1, 1.0)]),
        ("A", "arrival"): single_stage_tree("A", "arrival", 4, [(1, 1.0)]),
    }
    return MaghpInstance(
        airports=net,
        flights=flights,
        connections=connections,
        horizon=4,
        cost_ground=1.0,
        cost_air=3.0,
        trees=trees,
    )


def test_estimate_round_trip(tmp_path):
    records_path = tmp_path / "records.csv"
    write_operation_records(records_path, synthetic_records(seed=0))
    out = tmp_path / "observations.csv"
    config = write_config(
        tmp_path,
        {
            "seed": 0,
            "estimate": {
                "records": str(records_path),
                "num_intervals": 48,
                "out": str(out),
            },
        },
    )
    assert main(["estimate", "--config", config]) == 0
    observations = read_capacity_observations(out)
    assert observations
    assert all(o.airport == "DEMO" for o in observations)
    assert any(o.op_type == "departure" for o in observations)
    assert any(o.op_type == "arrival" for o in observations)


def test_estimate_out_flag_overrides_section(tmp_path):
    records_path = tmp_path / "records.csv"
    write_operation_records(records_path, synthetic_records(seed=0))
    section_out = tmp_path / "unused.csv"
    flag_out = tmp_path / "observations.csv"
    config = write_config(
        tmp_path,
        {
            "estimate": {
                "records": str(records_path),
                "num_intervals": 48,
                "out": str(section_out),
            }
        },
    )
    assert main(["estimate", "--config", config, "--out", str(flag_out)]) == 0
    assert flag_out.exists()
    assert not section_out.exists()


def test_predict_writes_model_and_metrics(tmp_path):
    features, labels = bucket_training_data(seed=1, count=240)
    training_path = tmp_path / "training.csv"
    with open(training_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["f0", "f1", "f2", "label"])
        for row, label in zip(features, labels):
            writer.writerow([*row, label])
    model_out = tmp_path / "model.json"
    metrics_out = tmp_path / "metrics.json"
    config = write_config(
        tmp_path,
        {
            "seed": 5,
            "predict": {
                "training": str(training_path),
                "kind": "empirical",
                "out": str(model_out),
                "metrics_out": str(metrics_out),
            },
        },
    )
    assert main(["predict", "--config", config]) == 0
    model = load_model(model_out)
    assert model.kind == "empirical"
    metrics = json.loads(metrics_out.read_text())
    assert set(metrics) == {"rmse", "mae", "picp", "mpiw", "count"}
    assert metrics["count"] == 20
    assert 0.0 <= metrics["picp"] <= 1.0


def test_reduce_scenarios_builds_trees(tmp_path):
    early = make_pmf([4, 8], [0.5, 0.5])
    late = make_pmf([2, 5], [0.6, 0.4])
    dep_path = tmp_path / "dep.json"
    arr_path = tmp_path / "arr.json"
    save_pmf_series(dep_path, [early] * 4 + [late] * 4)
    save_pmf_series(arr_path, [late] * 4 + [early] * 4)
    out = tmp_path / "trees.json"
    config = write_config(
        tmp_path,
        {
            "seed": 5,
            "reduce-scenarios": {
                "cells": [
                    {
                        "airport": "A",
                        "op_type": "departure",
                        "series": str(dep_path),
                    },
                    {
                        "airport": "A",
                        "op_type": "arrival",
                        "series": str(arr_path),
                    },
                ],
                "change_points": 1,
                "clusters_per_stage": 2,
                "out": str(out),
            },
        },
    )
    assert main(["reduce-scenarios", "--config", config]) == 0
    trees = load_trees(out)
    assert [(t.airport, t.op_type) for t in trees] == [
        ("A", "departure"),
        ("A", "arrival"),
    ]
    for tree in trees:
        assert len(tree.stage_pmfs) == 2
        assert tree.num_scenarios == 4
        assert tree.time_clusters.boundaries == (4,)


def test_solve_dr_result_recomputes_from_file(tmp_path):
    instance = three_airport_instance()
    instance_path = tmp_path / "instance.json"
    save_instance(instance_path, instance)
    out = tmp_path / "result.json"
    config = write_config(
        tmp_path,
        {
            "solve": {
                "instance": str(instance_path),
                "model": "dr",
                "epsilon": 0.05,
                "out": str(out),
            }
        },
    )
    assert main(["solve", "--config", config]) == 0
    body = json.loads(out.read_text())
    assert body["status"] == "optimal"
    assert body["model"] == "dr"

    result = load_result(out)
    base = first_stage_cost(instance, result.policy)
    dual_part = 0.0
    for label, alpha in body["duals"]["alpha"].items():
        airport, op_type = label.split("/")
        probs = instance.trees[(airport, op_type)].probabilities
        betas = body["duals"]["beta"][label]
        dual_part += body["epsilon"][op_type] * alpha
        dual_part += math.fsum(p * b for p, b in zip(probs, betas))
    recomputed = base + dual_part
    assert abs(recomputed - body["objective"]) <= 1e-6 * max(
        1.0, abs(body["objective"])
    )


def test_solve_det_with_explicit_capacities(tmp_path):
    instance = two_airport_instance()
    instance_path = tmp_path / "instance.json"
    save_instance(instance_path, instance)
    out = tmp_path / "result.json"
    config = write_config(
        tmp_path,
        {
            "solve": {
                "instance": str(instance_path),
                "model": "det",
                "capacities": {
                    "A/departure": [2, 2, 2],
                    "B/arrival": [3, 3, 3],
                },
                "out": str(out),
            }
        },
    )
    assert main(["solve", "--config", config]) == 0
    body = json.loads(out.read_text())
    assert body["status"] == "optimal"
    assert body["model"] == "det"
    assert body["objective"] >= 0.0


def test_solve_then_evaluate(tmp_path):
    instance = two_airport_instance()
    instance_path = tmp_path / "instance.json"
    save_instance(instance_path, instance)
    result_path = tmp_path / "result.json"
    eval_path = tmp_path / "evaluation.json"
    config = write_config(
        tmp_path,
        {
            "seed": 3,
            "solve": {
                "instance": str(instance_path),
                "model": "sp",
                "out": str(result_path),
            },
            "evaluate": {
                "instance": str(instance_path),
                "result": str(result_path),
                "reduction": 0.1,
                "sample_count": 40,
                "out": str(eval_path),
            },
        },
    )
    assert main(["solve", "--config", config]) == 0
    assert main(["evaluate", "--config", config]) == 0
    body = json.loads(eval_path.read_text())
    assert body["seed"] == 3
    assert body["sample_count"] == 40
    assert body["total"] == pytest.approx(
        body["first_stage"] + body["mean_second_stage"]
    )
    assert set(body["overflow_by_op"]) <= {"departure", "arrival"}


def test_seed_flag_overrides_config(tmp_path):
    instance = two_airport_instance()
    instance_path = tmp_path / "instance.json"
    save_instance(instance_path, instance)
    result_path = tmp_path / "result.json"
    eval_path = tmp_path / "evaluation.json"
    config = write_config(
        tmp_path,
        {
            "seed": 3,
            "solve": {
                "instance": str(instance_path),
                "model": "sp",
                "out": str(result_path),
            },
            "evaluate": {
                "instance": str(instance_path),
                "result": str(result_path),
                "reduction": 0.1,
                "sample_count": 40,
                "out": str(eval_path),
            },
        },
    )
    assert main(["solve", "--config", config]) == 0
    assert main(["evaluate", "--config", config, "--seed", "11"]) == 0
    assert json.loads(eval_path.read_text())["seed"] == 11


def test_sweep_zero_radius_matches_sp(tmp_path):
    instance = two_airport_instance()
    instance_path = tmp_path / "instance.json"
    save_instance(instance_path, instance)
    report_path = tmp_path / "report.csv"
    curve_path = tmp_path / "curve.csv"
    config = write_config(
        tmp_path,
        {
            "seed": 0,
            "sweep": {
                "instance": str(instance_path),
                "epsilons": [0.5],
                "reductions": [0.1, 0.2],
                "sample_count": 60,
                "out": str(report_path),
                "curve_out": str(curve_path),
            },
        },
    )
    assert main(["sweep", "--config", config, "--epsilons", "0"]) == 0
    with open(report_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["reduction"] for row in rows] == ["0.1", "0.2"]
    for row in rows:
        assert abs(float(row["dr_cost"]) - float(row["sp_cost"])) <= 1e-6
        assert float(row["pct_vs_sp"]) == pytest.approx(0.0, abs=1e-3)
        assert float(row["epsilon_star"]) == 0.0
    with open(curve_path, newline="") as fh:
        curve = list(csv.DictReader(fh))
    sp_row = next(r for r in curve if r["model"] == "sp")
    dr_row = next(r for r in curve if r["model"] == "dr")
    assert float(dr_row["objective"]) == pytest.approx(
        float(sp_row["objective"]), rel=1e-6
    )


def test_outputs_are_idempotent(tmp_path):
    instance = two_airport_instance()
    instance_path = tmp_path / "instance.json"
    save_instance(instance_path, instance)
    result_path = tmp_path / "result.json"
    report_path = tmp_path / "report.csv"
    config = write_config(
        tmp_path,
        {
            "seed": 0,
            "solve": {
                "instance": str(instance_path),
                "model": "sp",
                "out": str(result_path),
            },
            "sweep": {
                "instance": str(instance_path),
                "epsilons": [0.0, 0.1],
                "reductions": [0.1],
                "sample_count": 30,
                "out": str(report_path),
            },
        },
    )
    assert main(["solve", "--config", config]) == 0
    first_result = result_path.read_bytes()
    assert main(["solve", "--config", config]) == 0
    assert result_path.read_bytes() == first_result

    assert main(["sweep", "--config", config]) == 0
    first_report = report_path.read_bytes()
    assert main(["sweep", "--config", config]) == 0
    assert report_path.read_bytes() == first_report


def test_malformed_config_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert main(["solve", "--config", str(path)]) == 2


def test_unknown_section_exits_2(tmp_path):
    config = write_config(tmp_path, {"seed": 1, "mystery": {}})
    assert main(["solve", "--config", config]) == 2


def test_missing_required_key_exits_2(tmp_path):
    config = write_config(tmp_path, {"solve": {}})
    assert main(["solve", "--config", config]) == 2


def test_missing_input_file_exits_1(tmp_path):
    config = write_config(
        tmp_path,
        {
            "solve": {
                "instance": str(tmp_path / "absent.json"),
                "out": str(tmp_path / "result.json"),
            }
        },
    )
    assert main(["solve", "--config", config]) == 1


def test_infeasible_reduction_exits_1(tmp_path):
    net = ("A", "B")
    instance = MaghpInstance(
        airports=net,
        flights=(flight("f1", "A", "B", 0, 1, net),),
        connections=(),
        horizon=2,
        cost_ground=1.0,
        cost_air=2.0,
        trees={
            ("A", "departure"): single_stage_tree(
                "A", "departure", 2, [(2, 1.0)]
            ),
            ("B", "arrival"): single_stage_tree("B", "arrival", 2, [(2, 1.0)]),
        },
    )
    instance_path = tmp_path / "instance.json"
    save_instance(instance_path, instance)
    result_path = tmp_path / "result.json"
    config = write_config(
        tmp_path,
        {
            "solve": {
                "instance": str(instance_path),
                "model": "sp",
                "out": str(result_path),
            },
            "evaluate": {
                "instance": str(instance_path),
                "result": str(result_path),
                "reduction": 0.3,
                "sample_count": 20,
                "out": str(tmp_path / "evaluation.json"),
            },
        },
    )
    assert main(["solve", "--config", config]) == 0
    assert main(["evaluate", "--config", config]) == 1


MALFORMED = {
    "epsilon without departure": (
        "solve",
        {"model": "dr", "epsilon": {"arrival": 0.1}},
        2,
        "departure",
    ),
    "instance without flights": ("solve", {"instance": "bare.json"}, 1, "flights"),
    "instance given as result": (
        "evaluate",
        {"result": "instance.json", "reduction": 0.1},
        1,
        "instance.json",
    ),
    "sample count not a number": (
        "sweep",
        {"epsilons": [0.1], "reductions": [0.1], "sample_count": "many"},
        2,
        "sample_count",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_names_the_field(tmp_path, capsys, case):
    command, section, code, named = MALFORMED[case]
    instance_path = tmp_path / "instance.json"
    save_instance(instance_path, two_airport_instance())
    bare = json.loads(instance_path.read_text())
    del bare["flights"]
    (tmp_path / "bare.json").write_text(json.dumps(bare))
    section = {
        "instance": str(instance_path),
        "out": str(tmp_path / "out"),
        **section,
    }
    for key in ("instance", "result"):
        if key in section:
            section[key] = str(tmp_path / section[key])
    config = write_config(tmp_path, {command: section})
    assert main([command, "--config", config]) == code
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err


def test_config_round_trips(tmp_path):
    body = {
        "seed": 4,
        "solve": {"instance": "a.json", "model": "dr", "epsilon": 0.1},
        "sweep": {"epsilons": [0.0, 0.5], "reductions": [0.1]},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(body, indent=1, sort_keys=True) + "\n")
    loaded = load_config(path)
    assert loaded == body
    again = tmp_path / "again.json"
    again.write_text(json.dumps(loaded, indent=1, sort_keys=True) + "\n")
    assert load_config(again) == body


def test_seed_must_be_integer(tmp_path):
    config = write_config(tmp_path, {"seed": "zero", "solve": {}})
    with pytest.raises(ConfigError):
        load_config(config)
    assert main(["solve", "--config", config]) == 2
