"""End-to-end runs of the command line pipeline."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_maghp import flight, single_stage_tree, two_airport_instance

from fixtures import (
    bucket_training_data,
    network_day,
    save_pmf_series,
    stress_instance,
    synthetic_records,
    with_listed_scenarios,
    write_operation_records,
)
from groundhold.capacity import read_capacity_observations, read_operation_records
from groundhold.cli import KEYS, _read_training_csv, build_parser, main
from groundhold.config import REQUIRED, load_config, parse_section
from groundhold.errors import ConfigError, MissingInputError
from groundhold.maghp import (
    FlightConnection,
    MaghpInstance,
    best_capacity_profiles,
    build_det,
    first_stage_cost,
    load_instance,
    load_result,
    save_instance,
    save_result,
    solve,
)
from groundhold.pmf import make_pmf
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
        flight("f1", "A", "B", 0, 1),
        flight("f2", "A", "B", 0, 1),
        flight("f3", "B", "C", 1, 2),
        flight("f4", "C", "A", 2, 3),
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


def test_training_reader_skips_blank_lines(tmp_path):
    """A blank line in a training file is passed over, as in the records
    and observations files: the model and metrics are those of the file
    without it."""
    features, labels = bucket_training_data(seed=1, count=240)
    lines = ["f0,f1,f2,label", *(",".join(map(str, [*r, y])) for r, y in zip(features, labels))]
    (tmp_path / "plain.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "blank.csv").write_text("\n".join([*lines[:2], "", *lines[2:]]) + "\n")
    written = []
    for name in ("plain", "blank"):
        section = {
            "training": str(tmp_path / f"{name}.csv"),
            "kind": "empirical",
            "out": str(tmp_path / f"{name}-model.json"),
            "metrics_out": str(tmp_path / f"{name}-metrics.json"),
        }
        assert main(["predict", "--config", write_config(tmp_path, {"predict": section})]) == 0
        written.append([Path(section[key]).read_bytes() for key in ("out", "metrics_out")])
    assert written[0] == written[1]


#: for each CSV reader, a file whose line 2 has a bad cell in the column
#: it parses last and whose line 3 has one in the column it parses first
BAD_CELLS_IN_TWO_ROWS = {
    "records": (
        read_operation_records,
        "airport,op_type,scheduled_time,actual_time\nA,arival,0,1\nA,departure,x,1\n",
        "records file {} line 2, column 'op_type'",
    ),
    "observations": (
        read_capacity_observations,
        "airport,op_type,interval,capacity,criteria\nA,arrival,3,4,fog\nA,arival,3,4,demand\n",
        "capacity observations file {} line 2, column 'criteria'",
    ),
    "training": (
        _read_training_csv,
        "f0,f1,label\n0.5,nan,1\n0.5,1,x\n",
        "training file {} line 2, column 'f1'",
    ),
}


@pytest.mark.parametrize("reader", sorted(BAD_CELLS_IN_TWO_ROWS))
def test_csv_readers_name_the_first_bad_row(tmp_path, reader):
    """A bad cell is reported in row order before column order: the
    earlier row's is named, though it lies in a later column."""
    read, text, named = BAD_CELLS_IN_TWO_ROWS[reader]
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(MissingInputError) as refusal:
        read(path)
    assert str(refusal.value).startswith(named.format(path))


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
    # a trees file holds each tree's stage atoms, not their product
    assert not any("scenarios" in body for body in json.loads(out.read_text()))
    trees = load_trees(out)
    assert [(t.airport, t.op_type) for t in trees] == [
        ("A", "departure"),
        ("A", "arrival"),
    ]
    for tree in trees:
        assert len(tree.stage_pmfs) == 2
        assert tree.num_scenarios == 4
        assert tree.time_clusters.boundaries == (4,)


def test_reduce_scenarios_keeps_a_stage_with_fewer_atoms_than_k(tmp_path):
    """A stage whose representative has fewer atoms than
    clusters_per_stage keeps the atoms it has."""
    early = make_pmf([3, 6, 9], [0.3, 0.4, 0.3])
    late = make_pmf([4, 8], [0.5, 0.5])
    series = tmp_path / "series.json"
    save_pmf_series(series, [early] * 4 + [late] * 4)
    out = tmp_path / "trees.json"
    config = write_config(
        tmp_path,
        {
            "reduce-scenarios": {
                "cells": [{"airport": "A", "op_type": "departure", "series": str(series)}],
                "change_points": 1,
                "clusters_per_stage": 3,
                "out": str(out),
            },
        },
    )
    assert main(["reduce-scenarios", "--config", config]) == 0
    (tree,) = load_trees(out)
    assert [len(stage) for stage in tree.stage_pmfs] == [3, 2]
    assert tree.num_scenarios == 6
    assert tree.stage_pmfs[1].supports == (4, 8)


FORECAST_THEN_SOLVE = """
import json, sys
import groundhold
from groundhold.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

codes = {c: main([c, "--config", "config.json"]) for c in ("estimate", "predict", "reduce-scenarios")}
before = scipy_modules()
codes["solve"] = main(["solve", "--config", "config.json"])
print(json.dumps({"codes": codes, "before": before, "after": bool(scipy_modules())}))
"""


def test_forecast_commands_never_load_scipy(tmp_path):
    """estimate, predict and reduce-scenarios run without importing
    scipy; a solve in the same process then loads it and works."""
    write_operation_records(tmp_path / "records.csv", synthetic_records(seed=0))
    features, labels = bucket_training_data(seed=1, count=120)
    with open(tmp_path / "training.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["f0", "f1", "f2", "label"])
        writer.writerows([*row, label] for row, label in zip(features, labels))
    save_pmf_series(tmp_path / "dep.json", [make_pmf([4, 8], [0.5, 0.5])] * 4)
    save_instance(tmp_path / "instance.json", two_airport_instance())
    write_config(
        tmp_path,
        {
            "seed": 5,
            "estimate": {"records": "records.csv", "num_intervals": 48, "out": "obs.csv"},
            "predict": {
                "training": "training.csv",
                "kind": "mlp",
                "epochs": 2,
                "out": "model.json",
                "metrics_out": "metrics.json",
            },
            "reduce-scenarios": {
                "cells": [{"airport": "A", "op_type": "departure", "series": "dep.json"}],
                "change_points": 0,
                "clusters_per_stage": 2,
                "out": "trees.json",
            },
            "solve": {"instance": "instance.json", "model": "sp", "out": "result.json"},
        },
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run(
        [sys.executable, "-c", FORECAST_THEN_SOLVE],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
    )
    seen = json.loads(run.stdout.splitlines()[-1])
    assert seen == {
        "codes": {"estimate": 0, "predict": 0, "reduce-scenarios": 0, "solve": 0},
        "before": [],
        "after": True,
    }
    assert json.loads((tmp_path / "result.json").read_text())["status"] == "optimal"


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
        marginals = instance.trees[(airport, op_type)].stage_capacities
        gammas = body["duals"]["gamma"][label]
        dual_part += body["epsilon"] * alpha
        dual_part += math.fsum(
            atoms[a] * g for atoms, stage in zip(marginals, gammas) for a, g in stage
        )
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


def test_sweep_flag_reads_negative_zero_as_zero(tmp_path):
    instance_path = tmp_path / "instance.json"
    save_instance(instance_path, two_airport_instance())
    report_path = tmp_path / "report.csv"
    curve_path = tmp_path / "curve.csv"
    config = write_config(
        tmp_path,
        {
            "seed": 0,
            "sweep": {
                "instance": str(instance_path),
                "epsilons": [0.5],
                "reductions": [0.1],
                "sample_count": 20,
                "out": str(report_path),
                "curve_out": str(curve_path),
            },
        },
    )
    assert main(["sweep", "--config", config, "--epsilons", "-0", "0.1"]) == 0
    with open(curve_path, newline="") as fh:
        radii = [row["epsilon"] for row in csv.DictReader(fh) if row["model"] == "dr"]
    assert radii == ["0", "0.1"]
    with open(report_path, newline="") as fh:
        assert [row["epsilon_star"] for row in csv.DictReader(fh)] in (["0"], ["0.1"])


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


#: each command's optional outputs
OPTIONAL_OUTPUTS = {
    "estimate": ("stats_out",),
    "predict": ("metrics_out",),
    "sweep": ("samples_out", "curve_out"),
}


def _pipeline_sections():
    """One section per command, with no output set, reading the inputs
    that _write_pipeline_inputs writes in the working directory; evaluate
    prices solve's result, solve.out."""
    return {
        "estimate": {"records": "records.csv", "num_intervals": 48},
        "predict": {"training": "training.csv", "kind": "empirical"},
        "reduce-scenarios": {
            "cells": [{"series": "series.json", "airport": "A", "op_type": "departure"}],
            "change_points": 1,
            "clusters_per_stage": 2,
        },
        "solve": {"instance": "instance.json", "model": "sp"},
        "evaluate": {
            "instance": "instance.json",
            "result": "solve.out",
            "reduction": 0.1,
            "sample_count": 20,
        },
        "sweep": {
            "instance": "instance.json",
            "epsilons": [0.0, 0.1],
            "reductions": [0.1],
            "sample_count": 20,
        },
    }


def _write_pipeline_inputs():
    """Records, training rows, a PMF series and the benchmark's sweep day."""
    write_operation_records("records.csv", synthetic_records(seed=0))
    features, labels = bucket_training_data(seed=1, count=240)
    with open("training.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["f0", "f1", "f2", "label"])
        writer.writerows([*row, label] for row, label in zip(features, labels))
    early, late = make_pmf([4, 8], [0.5, 0.5]), make_pmf([2, 5], [0.6, 0.4])
    save_pmf_series("series.json", [early] * 4 + [late] * 4)
    save_instance("instance.json", network_day(0))


def _run_pipeline(config, capsys):
    """Run the six commands on config in pipeline order; each one's exit
    code and standard output."""
    capsys.readouterr()
    runs = {}
    for command in KEYS:
        code = main([command, "--config", config])
        runs[command] = code, capsys.readouterr().out
    return runs


def _sections_with_every_output():
    """_pipeline_sections with every output set, each to
    <command>.<key>, and the list of those paths."""
    sections = _pipeline_sections()
    for command, section in sections.items():
        section["out"] = f"{command}.out"
        section.update({key: f"{command}.{key}" for key in OPTIONAL_OUTPUTS.get(command, ())})
    outputs = [path for section in sections.values() for key, path in section.items()
               if key.endswith("out")]
    return sections, outputs


def test_main_writes_every_output_then_the_summary(tmp_path, monkeypatch, capsys):
    """The write loop in main. All six commands, run twice with every
    optional output set, write the same bytes and print the same summary.
    With the optional outputs unset, each writes its out file and nothing
    else. A solve stopped by its time limit still writes its result and
    exits 1. An output that cannot be written leaves the summary
    unprinted."""
    monkeypatch.chdir(tmp_path)
    _write_pipeline_inputs()
    (full, outputs), bare = _sections_with_every_output(), _pipeline_sections()
    for command in KEYS:
        bare[command]["out"] = f"bare-{command}.out"
    config = write_config(tmp_path, {"seed": 3, **full})
    runs = []
    for _ in range(2):
        summaries = _run_pipeline(config, capsys)
        runs.append((summaries, {path: Path(path).read_bytes() for path in outputs}))
    assert runs[0] == runs[1]
    for command, (code, summary) in runs[0][0].items():
        assert (code, summary.split(" -> ")[1]) == (0, f"{command}.out\n")

    bare_config = write_config(tmp_path, {"seed": 3, **bare}, "bare.json")
    before = set(os.listdir())
    assert {code for code, _ in _run_pipeline(bare_config, capsys).values()} == {0}
    assert set(os.listdir()) - before == {f"bare-{command}.out" for command in KEYS}

    limited = ["--model", "dr", "--epsilon", "0.1", "--time-limit", "1e-9", "--out", "limit.json"]
    assert main(["solve", "--config", config, *limited]) == 1
    assert capsys.readouterr().out == "solve: dr status time_limit objective none -> limit.json\n"
    assert load_result("limit.json").status == "time_limit"

    # the curve, written last, under a parent that is a file, then the
    # report, written first, under a missing directory: each run names
    # the output, not its temp file, replaces none of its outputs,
    # creates no directory and leaves no temp file behind
    kept = {path: Path(path).read_bytes() for path in ("sweep.out", "sweep.samples_out")}
    blocked = dict(full["sweep"])
    before = sorted(os.listdir())
    for key, target in (("curve_out", "records.csv/curve.csv"), ("out", "newdir/report.csv")):
        blocked[key] = target
        config = write_config(tmp_path, {"sweep": blocked}, "x.json")
        assert main(["sweep", "--config", config]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert {path: Path(path).read_bytes() for path in kept} == kept
        assert sorted(os.listdir()) == sorted({*before, "x.json"})


def test_outputs_get_the_mode_of_a_new_file(tmp_path, monkeypatch, capsys):
    """Under umask 022 every output of the six commands is mode 0644,
    readable by all, as a file the writer made in place would be."""
    monkeypatch.chdir(tmp_path)
    _write_pipeline_inputs()
    sections, outputs = _sections_with_every_output()
    config = write_config(tmp_path, {"seed": 3, **sections})
    umask = os.umask(0o022)
    try:
        assert {code for code, _ in _run_pipeline(config, capsys).values()} == {0}
    finally:
        os.umask(umask)
    assert len(outputs) == 10
    assert {path: os.stat(path).st_mode & 0o777 for path in outputs} == dict.fromkeys(
        outputs, 0o644
    )


#: every setting the CLI leaves to a library default, written out at it
DEFAULTS_WRITTEN_OUT = {
    "estimate": {
        "interval_minutes": 15.0,
        "time_format": "minutes",
        "alpha": 0.8,
        "delay_threshold_minutes": 15.0,
        "min_delayed": 2,
        "percentile": 0.9,
    },
    "predict": {
        "train_frac": 10 / 12,
        "val_frac": 1 / 12,
        "kind": "mlp",
        "hidden_units": 32,
        "learning_rate": 1e-4,
        "epochs": 300,
        "batch_size": 16,
        "level": 0.9,
    },
    "sweep": {"band": 1.0, "sample_count": 100},
}


def _minimal_section(command, tmp_path):
    """The command's required settings and the names of its outputs."""
    if command == "estimate":
        records = tmp_path / "records.csv"
        write_operation_records(records, synthetic_records(seed=0))
        return {"records": str(records), "num_intervals": 48}, ("out", "stats_out")
    if command == "predict":
        training = tmp_path / "training.csv"
        features, labels = bucket_training_data(seed=1, count=240)
        with open(training, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["f0", "f1", "f2", "label"])
            writer.writerows([*row, label] for row, label in zip(features, labels))
        return {"training": str(training)}, ("out", "metrics_out")
    instance = tmp_path / "instance.json"
    save_instance(instance, two_airport_instance())
    section = {"instance": str(instance), "epsilons": [0.0, 0.1], "reductions": [0.1]}
    return section, ("out", "samples_out", "curve_out")


@pytest.mark.parametrize("command", sorted(DEFAULTS_WRITTEN_OUT))
def test_written_out_defaults_change_no_output(tmp_path, command):
    """A section that writes out every default gives the same bytes as
    one that leaves them to the library. max_capacity is left out: its
    default, the largest training label, has no written form."""
    section, outputs = _minimal_section(command, tmp_path)
    written = {}
    for name, settings in (("minimal", {}), ("defaults", DEFAULTS_WRITTEN_OUT[command])):
        paths = [tmp_path / f"{name}-{key}" for key in outputs]
        body = {**section, **settings, **{k: str(p) for k, p in zip(outputs, paths)}}
        config = write_config(tmp_path, {"seed": 3, command: body}, f"{name}.json")
        assert main([command, "--config", config]) == 0
        written[name] = [p.read_bytes() for p in paths]
    assert written["minimal"] == written["defaults"]


def test_malformed_config_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert main(["solve", "--config", str(path)]) == 2


@pytest.mark.parametrize(
    "text,named",
    [
        (None, "config error: cannot read config"),
        ("[1, 2]", "config error: config root must be an object"),
        ('{"solve": [1]}', "config error: section 'solve' must be an object"),
        ('{"sweep": {}}', "config error: config has no 'solve' section"),
    ],
    ids=["unreadable", "list root", "list section", "no section for the command"],
)
def test_config_of_the_wrong_shape_exits_2(tmp_path, capsys, text, named):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    assert main(["solve", "--config", str(path)]) == 2
    assert named in capsys.readouterr().err


def test_solve_det_without_capacities_takes_each_stage_s_largest(tmp_path):
    """det without capacities solves against best_capacity_profiles."""
    instance_path = tmp_path / "instance.json"
    save_instance(instance_path, stress_instance())
    instance = load_instance(instance_path)
    config = write_config(
        tmp_path,
        {"solve": {"instance": str(instance_path), "model": "det", "out": str(tmp_path / "r")}},
    )
    assert main(["solve", "--config", config]) == 0
    expected = solve(build_det(instance, best_capacity_profiles(instance)))
    save_result(tmp_path / "expected", expected, instance)
    assert (tmp_path / "r").read_bytes() == (tmp_path / "expected").read_bytes()


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


def test_tree_segment_entries_read_as_whole_numbers(tmp_path):
    """A segment entry written 1.0 is interval 1: the tree loads and
    solves as the one that writes 1."""
    save_instance(tmp_path / "instance.json", stress_instance())
    body = json.loads((tmp_path / "instance.json").read_text())
    assert body["trees"][0]["segments"][0][1] == 1
    body["trees"][0]["segments"][0][1] = 1.0
    (tmp_path / "float.json").write_text(json.dumps(body))
    for name in ("instance", "float"):
        section = {
            "instance": str(tmp_path / f"{name}.json"),
            "model": "sp",
            "out": str(tmp_path / f"{name}-out.json"),
        }
        assert main(["solve", "--config", write_config(tmp_path, {"solve": section})]) == 0
    solved = (tmp_path / "float-out.json").read_bytes()
    assert solved == (tmp_path / "instance-out.json").read_bytes()


def test_tree_off_its_product_support_exits_1(tmp_path, capsys):
    """An instance file whose tree lists its scenarios, as files written
    before trees were stored as their stages did, with the vectors in
    another order than the product of its stage supports is rejected,
    naming the file."""
    instance_path = tmp_path / "instance.json"
    save_instance(instance_path, stress_instance())
    body = json.loads(instance_path.read_text())
    body["trees"][0] = with_listed_scenarios(body["trees"][0])
    scenarios = body["trees"][0]["scenarios"]
    scenarios[0][0], scenarios[1][0] = scenarios[1][0], scenarios[0][0]
    instance_path.write_text(json.dumps(body))
    out = tmp_path / "result.json"
    config = write_config(
        tmp_path, {"solve": {"instance": str(instance_path), "model": "dr",
                             "epsilon": 0.1, "out": str(out)}}
    )
    assert main(["solve", "--config", config]) == 1
    err = capsys.readouterr().err
    assert f"instance file {instance_path}" in err
    assert "product of the stage supports" in err
    assert not out.exists()


def test_infeasible_reduction_exits_1(tmp_path):
    net = ("A", "B")
    instance = MaghpInstance(
        airports=net,
        flights=(flight("f1", "A", "B", 0, 1),),
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


def _solved_sp(tmp_path):
    """A config that solves sp on two_airport_instance and evaluates the
    result, after the solve has run; returns (config, result path,
    evaluation path)."""
    instance_path = tmp_path / "instance.json"
    save_instance(instance_path, two_airport_instance())
    result_path = tmp_path / "result.json"
    eval_path = tmp_path / "evaluation.json"
    config = write_config(
        tmp_path,
        {
            "solve": {"instance": str(instance_path), "model": "sp", "out": str(result_path)},
            "evaluate": {
                "instance": str(instance_path),
                "result": str(result_path),
                "reduction": 0.2,
                "sample_count": 30,
                "out": str(eval_path),
            },
        },
    )
    assert main(["solve", "--config", config]) == 0
    return config, result_path, eval_path


def test_evaluate_reads_the_slots_not_the_delay_fields(tmp_path):
    """A result file's delay fields are derived from its slots, so a
    file whose delays disagree with its slots evaluates exactly like
    the consistent file."""
    config, result_path, eval_path = _solved_sp(tmp_path)
    assert main(["evaluate", "--config", config]) == 0
    consistent = eval_path.read_bytes()
    body = json.loads(result_path.read_text())
    body["flights"]["f0"]["ground_delay"] += 50
    body["flights"]["f3"]["air_delay"] = -7
    result_path.write_text(json.dumps(body))
    assert main(["evaluate", "--config", config]) == 0
    assert eval_path.read_bytes() == consistent


def test_evaluate_refuses_an_old_per_op_radius(tmp_path, capsys):
    """A result file's radius is one number or null. An older dr result
    file keyed it by op type; that file is refused, naming it."""
    config, result_path, eval_path = _solved_sp(tmp_path)
    assert main(["solve", "--config", config, "--model", "dr", "--epsilon", "0.05"]) == 0
    body = json.loads(result_path.read_text())
    assert body["epsilon"] == 0.05
    body["epsilon"] = {"arrival": 0.05, "departure": 0.05}
    result_path.write_text(json.dumps(body, indent=1) + "\n")
    assert main(["evaluate", "--config", config]) == 1
    err = capsys.readouterr().err
    assert f"result file {result_path} is malformed: expected a real number, got {{" in err
    assert not eval_path.exists()


def _drop_f0(flights):
    del flights["f0"]


def _depart_f3_early(flights):
    # f3 is scheduled to depart in interval 1
    flights["f3"]["u_slot"] = 0


def _land_f0_early(flights):
    flights["f0"]["v_slot"] = flights["f0"]["u_slot"]


@pytest.mark.parametrize(
    "fault,named",
    [
        (_drop_f0, "flight f0 has no slots"),
        (_depart_f3_early, "flight f3 departs at 0, before its schedule 1"),
        (_land_f0_early, "flight f0 arrives at"),
    ],
    ids=["missing flight", "early departure", "early arrival"],
)
def test_evaluate_rejects_a_result_that_does_not_fit(tmp_path, capsys, fault, named):
    config, result_path, eval_path = _solved_sp(tmp_path)
    body = json.loads(result_path.read_text())
    fault(body["flights"])
    result_path.write_text(json.dumps(body))
    capsys.readouterr()
    assert main(["evaluate", "--config", config]) == 1
    err = capsys.readouterr().err
    assert f"result file {result_path}: {named}" in err
    assert not eval_path.exists()


@pytest.mark.parametrize("kept", [slice(1, None), slice(0, 0)], ids=["one tree out", "no trees"])
def test_evaluate_refuses_an_instance_without_every_tree(tmp_path, capsys, kept):
    """evaluate prices every constrained cell, so an instance that lacks
    a cell's tree exits 1 naming the cells, as sweep and sp's solve do,
    rather than pricing the cell at zero."""
    config, result_path, eval_path = _solved_sp(tmp_path)
    instance_path = tmp_path / "instance.json"
    body = json.loads(instance_path.read_text())
    trees, body["trees"] = body["trees"], body["trees"][kept]
    left_out = sorted((t["airport"], t["op_type"]) for t in trees if t not in body["trees"])
    instance_path.write_text(json.dumps(body))
    capsys.readouterr()
    assert main(["evaluate", "--config", config]) == 1
    assert f"error: no scenario tree for {left_out}" in capsys.readouterr().err
    assert not eval_path.exists()


def test_evaluate_rejects_a_result_that_breaks_a_connection(tmp_path, capsys):
    """Holding a00 five more intervals while its successor ca0 (slack 1,
    departing from network airport C) goes back on schedule is a policy
    no model could return: evaluate exits 1 naming both flights."""
    instance = stress_instance()
    instance_path = tmp_path / "instance.json"
    save_instance(instance_path, instance)
    result_path = tmp_path / "result.json"
    eval_path = tmp_path / "evaluation.json"
    config = write_config(
        tmp_path,
        {
            "solve": {"instance": str(instance_path), "model": "sp", "out": str(result_path)},
            "evaluate": {
                "instance": str(instance_path),
                "result": str(result_path),
                "reduction": 0.2,
                "sample_count": 100,
                "out": str(eval_path),
            },
        },
    )
    assert main(["solve", "--config", config]) == 0
    body = json.loads(result_path.read_text())
    a00 = body["flights"]["a00"]
    a00["u_slot"] += 5
    a00["v_slot"] += 5
    ca0 = instance.flight("ca0")
    body["flights"]["ca0"].update(u_slot=ca0.sched_dep, v_slot=ca0.sched_arr)
    result_path.write_text(json.dumps(body))
    capsys.readouterr()
    assert main(["evaluate", "--config", config]) == 1
    err = capsys.readouterr().err
    assert f"result file {result_path}: flight ca0 is held 0 intervals" in err
    assert "its predecessor a00" in err
    assert not eval_path.exists()


ABSENT_CELL = {"series": "missing.json", "airport": "A", "op_type": "departure"}

#: support and weights of a PMF the library rejects, by series file, and
#: the reason
BAD_SERIES = {
    "negative-weight": ([0, 1], [1.2, -0.2], "negative weight in (1.2, -0.2)"),
    "mass-of-1.1": ([0, 1], [0.5, 0.6], "weights sum to 1.1, not 1"),
    "more-weights-than-support": ([0, 1], [0.5, 0.25, 0.25], "2 support points vs 3 weights"),
    "NaN-weight": ([0, 1], [math.nan, 0.5], "non-finite weight in (nan, 0.5)"),
    "fractional-capacity": (
        [0.7, 1.9],
        [0.5, 0.5],
        "expected a whole number of at least 0, got 0.7",
    ),
    "negative-capacity": (
        [-3, 1],
        [0.5, 0.5],
        "expected a whole number of at least 0, got -3",
    ),
    "boolean-weights": ([0, 1], [True, False], "expected a real number, got True"),
    "string-weight": ([0, 1], ["0.5", 0.5], "expected a real number, got '0.5'"),
}

#: fields the instance and result loaders read as whole numbers, each
#: with a value they refuse rather than truncate
WHOLE_NUMBER_FIELDS = {
    "instance": [("sched_dep", 0.9), ("sched_dep", "2"), ("slack", 1.5), ("horizon", 6.5)],
    "result": [("u_slot", 6.7), ("v_slot", True)],
}

#: fields that name a flight or an airport, each with a value the
#: instance loader refuses because it is not a string
NAME_FIELDS = [
    ("id", 0),
    ("origin", 1),
    ("destination", True),
    ("predecessor", 0),
    ("successor", None),
]

#: fields the instance loader reads as real numbers, each with a value
#: it refuses rather than converts: a cost, or the probability of the
#: first tree's first stage atom or first scenario
REAL_NUMBER_FIELDS = [
    ("cost_ground", True),
    ("cost_air", "3.0"),
    ("stage probability", "0.41"),
    ("scenario probability", "0.41"),
]


def _with_field(body: dict, field: str, value) -> dict:
    """A copy of an instance or result body with field set to value: a
    top-level key, or the field of the first flight or connection."""
    body = json.loads(json.dumps(body))
    if field in body:
        body[field] = value
    elif field in ("slack", "predecessor", "successor"):
        body["connections"][0][field] = value
    elif isinstance(body["flights"], list):
        body["flights"][0][field] = value
    else:
        next(iter(body["flights"].values()))[field] = value
    return body


MALFORMED = {
    "epsilon given as an object": (
        "solve",
        {"model": "dr", "epsilon": {"departure": 0.1, "arrival": 0.1}},
        2,
        "'epsilon'",
    ),
    "instance without flights": ("solve", {"instance": "bare.json"}, 1, "flights"),
    "instance with an empty flight list": (
        "solve",
        {"instance": "no-flights.json"},
        1,
        "instance file no-flights.json is malformed: an instance needs at least one flight",
    ),
    "sweep of an instance with an empty flight list": (
        "sweep",
        {"epsilons": [0.1], "reductions": [0.1], "instance": "no-flights.json"},
        1,
        "instance file no-flights.json is malformed: an instance needs at least one flight",
    ),
    # a key the command does not read is refused before any file is read
    "misspelled sweep key": (
        "sweep",
        {"epsilons": [0.1], "reductions": [0.1], "sample_cont": 7},
        2,
        "unknown key 'sample_cont'",
    ),
    "misspelled estimate key": (
        "estimate",
        {"records": "missing.csv", "num_intervals": 4, "percentil": 0.5},
        2,
        "unknown key 'percentil'",
    ),
    "removed clamp key": (
        "reduce-scenarios",
        {"cells": [ABSENT_CELL], "change_points": 1, "clusters_per_stage": 1, "clamp": 2},
        2,
        "unknown key 'clamp'",
    ),
    # path keys and day must be strings, checked before any file is read
    "samples_out not a path": (
        "sweep",
        {"epsilons": [0.1], "reductions": [0.1], "samples_out": 5},
        2,
        "'samples_out'",
    ),
    "out not a path": ("solve", {"out": 5}, 2, "'out'"),
    "instance not a path": ("solve", {"instance": 5}, 2, "'instance'"),
    "day not a string": (
        "sweep",
        {"epsilons": [0.1], "reductions": [0.1], "day": [1, 2]},
        2,
        "'day'",
    ),
    "unknown model kind": ("solve", {"model": "bogus"}, 2, "'model'"),
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
    "horizon not a number": ("solve", {"instance": "typo.json"}, 1, "typo.json"),
    "cells not a list": (
        "reduce-scenarios",
        {"cells": 5, "change_points": 1, "clusters_per_stage": 1},
        2,
        "reduce-scenarios config 'cells': expected a list of objects, got 5",
    ),
    "cell not an object": (
        "reduce-scenarios",
        {"cells": [5], "change_points": 1, "clusters_per_stage": 1},
        2,
        "reduce-scenarios config 'cells': expected a list of objects, got [5]",
    ),
    "series not a path": (
        "reduce-scenarios",
        {
            "cells": [{"series": 3, "airport": "A", "op_type": "departure"}],
            "change_points": 1,
            "clusters_per_stage": 1,
        },
        2,
        "reduce-scenarios cell config 'series': expected a file path, got 3",
    ),
    "series entry without weights": (
        "reduce-scenarios",
        {
            "cells": [{"series": "series.json", "airport": "A", "op_type": "departure"}],
            "change_points": 1,
            "clusters_per_stage": 1,
        },
        1,
        "series.json",
    ),
    **{
        f"series entry with {name}": (
            "reduce-scenarios",
            {
                "cells": [{"series": f"{name}.json", "airport": "A", "op_type": "departure"}],
                "change_points": 1,
                "clusters_per_stage": 1,
            },
            1,
            f"PMF series file {name}.json is malformed: {reason}",
        )
        for name, (_, _, reason) in BAD_SERIES.items()
    },
    "tree representative with a negative weight": (
        "solve",
        {"instance": "negative-tree.json"},
        1,
        "instance file negative-tree.json is malformed: negative weight in (1.2, -0.2)",
    ),
    "tree representative with a NaN weight": (
        "solve",
        {"instance": "nan-tree.json"},
        1,
        "instance file nan-tree.json is malformed: non-finite weight in (nan, 1.0)",
    ),
    "tree capacity not a whole number": (
        "solve",
        {"instance": "fractional-tree.json"},
        1,
        "instance file fractional-tree.json is malformed: expected a whole number "
        "of at least 0, got 0.6",
    ),
    **{
        f"{field} {value!r}": (
            "solve",
            {"instance": f"{field}-{value}.json"},
            1,
            f"instance file {field}-{value}.json is malformed: expected a whole number "
            f"of at least 0, got {value!r}",
        )
        for field, value in WHOLE_NUMBER_FIELDS["instance"]
    },
    **{
        f"{field} {value!r}": (
            "evaluate",
            {"result": f"{field}-{value}.json", "reduction": 0.1},
            1,
            f"result file {field}-{value}.json is malformed: expected a whole number "
            f"of at least 0, got {value!r}",
        )
        for field, value in WHOLE_NUMBER_FIELDS["result"]
    },
    **{
        f"{field} {value!r}": (
            "solve",
            {"instance": f"{field}-{value}.json"},
            1,
            f"instance file {field}-{value}.json is malformed: expected a real number, "
            f"got {value!r}",
        )
        for field, value in REAL_NUMBER_FIELDS
    },
    **{
        f"{field} {value!r}": (
            "solve",
            {"instance": f"{field}-{value}.json"},
            1,
            f"instance file {field}-{value}.json is malformed: {field!r} must be a string, "
            f"got {value!r}",
        )
        for field, value in NAME_FIELDS
    },
    "airports given as one string": (
        "solve",
        {"instance": "airports-string.json"},
        1,
        "instance file airports-string.json is malformed: 'airports' must be a list of "
        "strings, got 'ABC'",
    ),
    "airports entry not a string": (
        "solve",
        {"instance": "airports-entry.json"},
        1,
        "instance file airports-entry.json is malformed: 'airports' must be a list of "
        "strings, got ['A', 'B', 3]",
    ),
    "connection that names no flight": (
        "solve",
        {"instance": "no-flight.json"},
        1,
        "instance file no-flight.json is malformed: connection NOPE->ca0 names no flight",
    ),
    "tree segment entry not a whole number": (
        "solve",
        {"instance": "segment-1.5.json"},
        1,
        "instance file segment-1.5.json is malformed: expected a whole number "
        "of at least 0, got 1.5",
    ),
    "tree boundary given as a boolean": (
        "solve",
        {"instance": "boundary-true.json"},
        1,
        "instance file boundary-true.json is malformed: expected a whole number "
        "of at least 0, got True",
    ),
    "tree with more stages than time segments": (
        "solve",
        {"instance": "extra-stage.json"},
        1,
        "instance file extra-stage.json is malformed: stage count 3 does not match "
        "the 2 time segments",
    ),
    "tree with fewer stages than time segments": (
        "solve",
        {"instance": "missing-stage.json"},
        1,
        "instance file missing-stage.json is malformed: stage count 1 does not match "
        "the 2 time segments",
    ),
    "instance that sets cost_recourse": (
        "solve",
        {"instance": "recourse.json"},
        1,
        "instance file recourse.json is malformed: 'cost_recourse'",
    ),
    "records without actual_time": (
        "estimate",
        {"records": "short.csv", "num_intervals": 4},
        1,
        "short.csv has no 'actual_time'",
    ),
    "iso8601 without horizon_start": (
        "estimate",
        {"records": "absent.csv", "num_intervals": 4, "time_format": "iso8601"},
        2,
        "horizon_start",
    ),
    "horizon_start not a timestamp": (
        "estimate",
        {
            "records": "absent.csv",
            "num_intervals": 4,
            "time_format": "iso8601",
            "horizon_start": "noon",
        },
        2,
        "horizon_start",
    ),
    "actual_time not a number": (
        "estimate",
        {"records": "zz.csv", "num_intervals": 4},
        1,
        "zz.csv line 2, column 'actual_time'",
    ),
    "records op_type misspelled": (
        "estimate",
        {"records": "arival.csv", "num_intervals": 4},
        1,
        "records file arival.csv line 3, column 'op_type': "
        "op_type must be one of ('arrival', 'departure'), got 'arival'",
    ),
    "records row longer than the header": (
        "estimate",
        {"records": "long-row.csv", "num_intervals": 4},
        1,
        "records file long-row.csv line 3 has 5 fields, its header 4",
    ),
    "records row shorter than the header": (
        "estimate",
        {"records": "short-row.csv", "num_intervals": 4},
        1,
        "records file short-row.csv line 2 has 3 fields, its header 4",
    ),
    "label not an integer": (
        "predict",
        {"training": "labels.csv"},
        1,
        "labels.csv line 2, column 'label'",
    ),
    "negative label": (
        "predict",
        {"training": "negative-label.csv"},
        1,
        "training file negative-label.csv line 3, column 'label': expected a whole number "
        "of at least 0, got -2",
    ),
    "training file without a header": (
        "predict",
        {"training": "empty.csv"},
        1,
        "training file empty.csv has no 'label' column",
    ),
    "training file without a label column": (
        "predict",
        {"training": "unlabelled.csv"},
        1,
        "training file unlabelled.csv has no 'label' column",
    ),
    "training file with two label columns": (
        "predict",
        {"training": "two-labels.csv"},
        1,
        "training file two-labels.csv repeats the 'label' column",
    ),
    "records header repeating a column": (
        "estimate",
        {"records": "r.csv", "num_intervals": 4},
        1,
        "records file r.csv repeats the 'airport' column",
    ),
    "training feature nan": (
        "predict",
        {"training": "t.csv"},
        1,
        "training file t.csv line 7, column 'f0': must be finite, got nan",
    ),
    "training feature minus infinity": (
        "predict",
        {"training": "minus-inf.csv"},
        1,
        "training file minus-inf.csv line 3, column 'f1': must be finite, got -inf",
    ),
    "training file with only a label column": (
        "predict",
        {"training": "l.csv"},
        1,
        "training file l.csv has no feature columns",
    ),
    "training file with only a label column, empirical": (
        "predict",
        {"training": "l.csv", "kind": "empirical"},
        1,
        "training file l.csv has no feature columns",
    ),
    "training file with a header and no rows": (
        "predict",
        {"training": "e.csv"},
        1,
        "training file e.csv has no rows",
    ),
    "training file too short for train_frac": (
        "predict",
        {"training": "one-row.csv"},
        1,
        "training file one-row.csv has 1 rows: train_frac 0.833333 and val_frac 0.0833333 "
        "leave no training rows",
    ),
    "training split with no held-out rows": (
        "predict",
        {"training": "twelve.csv", "train_frac": 1, "val_frac": 0},
        1,
        "training file twelve.csv has 12 rows: train_frac 1 and val_frac 0 leave no "
        "held-out rows",
    ),
    "records file not UTF-8": (
        "estimate",
        {"records": "latin-1.csv", "num_intervals": 4},
        1,
        "error: records file latin-1.csv is not UTF-8 text",
    ),
    "training header not UTF-8": (
        "predict",
        {"training": "latin-1-header.csv"},
        1,
        "error: training file latin-1-header.csv is not UTF-8 text",
    ),
    "two outputs on one file": (
        "sweep",
        {"epsilons": [0.0], "reductions": [0.1], "sample_count": 5, "samples_out": "./out"},
        2,
        "config error: two outputs go to one file, out",
    ),
    "negative epsilon": ("solve", {"model": "dr", "epsilon": -0.1}, 2, "epsilon"),
    "epsilon given as a boolean": ("solve", {"model": "dr", "epsilon": True}, 2, "'epsilon'"),
    "epsilon not a number": ("solve", {"model": "dr", "epsilon": "nan"}, 2, "epsilon"),
    "band not finite": (
        "sweep",
        {"epsilons": [0.1], "reductions": [0.1], "band": "nan"},
        2,
        "band",
    ),
    "negative band": (
        "evaluate",
        {"result": "result.json", "reduction": 0.1, "band": -1},
        2,
        "band",
    ),
    "sample count zero": (
        "sweep",
        {"epsilons": [0.1], "reductions": [0.1], "sample_count": 0},
        2,
        "sample_count",
    ),
    "reduction entry out of range": (
        "sweep",
        {"epsilons": [0.1], "reductions": [0.1, 1.5]},
        2,
        "'reductions'",
    ),
    "reduction entry not a number": (
        "sweep",
        {"epsilons": [0.1], "reductions": ["x"]},
        2,
        "'reductions'",
    ),
    "reductions given as one number": (
        "sweep",
        {"epsilons": [0.1], "reductions": 0.1},
        2,
        "expected a list of numbers, got 0.1",
    ),
    "epsilons given as one number": (
        "sweep",
        {"epsilons": 0.1, "reductions": [0.1]},
        2,
        "expected a list of numbers, got 0.1",
    ),
    "evaluate reduction out of range": (
        "evaluate",
        {"result": "result.json", "reduction": 1.5},
        2,
        "reduction",
    ),
    "negative sweep radius": (
        "sweep",
        {"epsilons": [0.1, -0.1], "reductions": [0.1]},
        2,
        "'epsilons'",
    ),
    "infinite sweep radius": (
        "sweep",
        {"epsilons": [0.1, "inf"], "reductions": [0.1]},
        2,
        "'epsilons'",
    ),
    "sweep radius too large for a float": (
        "sweep",
        {"epsilons": [10**400], "reductions": [0.1]},
        2,
        "sweep config 'epsilons': radius must be a finite non-negative number",
    ),
    "reductions given as a string": (
        "sweep",
        {"epsilons": [0.1], "reductions": "0.1"},
        2,
        "sweep config 'reductions': expected a list of numbers, got '0.1'",
    ),
    "epsilons given as a string": (
        "sweep",
        {"epsilons": "0.1", "reductions": [0.1]},
        2,
        "sweep config 'epsilons': expected a list of numbers, got '0.1'",
    ),
    "reduction entry too large for a float": (
        "sweep",
        {"epsilons": [0.1], "reductions": [10**400]},
        2,
        "sweep config 'reductions': reduction must lie in [0, 1)",
    ),
    "empty sweep radius list": (
        "sweep",
        {"epsilons": [], "reductions": [0.1], "instance": "missing.json"},
        2,
        "'epsilons'",
    ),
    "negative time limit": ("solve", {"time_limit": -1}, 2, "time_limit"),
    "time limit not a number": ("solve", {"time_limit": "nan"}, 2, "time_limit"),
    "zero time limit": ("solve", {"time_limit": 0}, 2, "time_limit"),
    "fractional sample count": (
        "sweep",
        {"epsilons": [0.1], "reductions": [0.1], "sample_count": 2.7},
        2,
        "sample_count",
    ),
    "boolean sample count": (
        "evaluate",
        {"result": "result.json", "reduction": 0.1, "sample_count": True},
        2,
        "sample_count",
    ),
    "fractional change points": (
        "reduce-scenarios",
        {"cells": [], "change_points": 1.5, "clusters_per_stage": 1},
        2,
        "change_points",
    ),
    # the reduce-scenarios counts are checked before the series file,
    # which is absent here, is read
    "zero clusters per stage": (
        "reduce-scenarios",
        {"cells": [ABSENT_CELL], "change_points": 1, "clusters_per_stage": 0},
        2,
        "clusters_per_stage",
    ),
    "negative clusters per stage": (
        "reduce-scenarios",
        {"cells": [ABSENT_CELL], "change_points": 1, "clusters_per_stage": -2},
        2,
        "clusters_per_stage",
    ),
    "negative change points": (
        "reduce-scenarios",
        {"cells": [ABSENT_CELL], "change_points": -1, "clusters_per_stage": 1},
        2,
        "change_points",
    ),
    # the estimate grid and criteria are checked before the records
    # file, which is absent here, is read
    "zero interval minutes": (
        "estimate",
        {"records": "missing.csv", "num_intervals": 4, "interval_minutes": 0},
        2,
        "interval_minutes",
    ),
    "interval minutes not a number": (
        "estimate",
        {"records": "missing.csv", "num_intervals": 4, "interval_minutes": "nan"},
        2,
        "interval_minutes",
    ),
    "negative interval minutes": (
        "estimate",
        {"records": "missing.csv", "num_intervals": 4, "interval_minutes": -15},
        2,
        "interval_minutes",
    ),
    "zero intervals": (
        "estimate",
        {"records": "missing.csv", "num_intervals": 0},
        2,
        "num_intervals",
    ),
    "negative intervals": (
        "estimate",
        {"records": "missing.csv", "num_intervals": -3},
        2,
        "num_intervals",
    ),
    "fractional intervals": (
        "estimate",
        {"records": "missing.csv", "num_intervals": 4.5},
        2,
        "num_intervals",
    ),
    "alpha not a number": (
        "estimate",
        {"records": "missing.csv", "num_intervals": 4, "alpha": "nan"},
        2,
        "alpha",
    ),
    "percentile not a number": (
        "estimate",
        {"records": "missing.csv", "num_intervals": 4, "percentile": "nan"},
        2,
        "percentile",
    ),
    "percentile above one": (
        "estimate",
        {"records": "missing.csv", "num_intervals": 4, "percentile": 1.5},
        2,
        "percentile",
    ),
    "delay threshold not a number": (
        "estimate",
        {"records": "missing.csv", "num_intervals": 4, "delay_threshold_minutes": "nan"},
        2,
        "delay_threshold_minutes",
    ),
    "negative min delayed": (
        "estimate",
        {"records": "missing.csv", "num_intervals": 4, "min_delayed": -1},
        2,
        "estimate config 'min_delayed': expected an integer of at least 0, got -1",
    ),
    "unknown time format": (
        "estimate",
        {"records": "missing.csv", "num_intervals": 4, "time_format": "hours"},
        2,
        "time_format",
    ),
    # the predict settings are checked before the training file, which
    # is absent here, is read
    "train fraction above one": (
        "predict",
        {"training": "missing.csv", "train_frac": 2.0},
        2,
        "train_frac",
    ),
    "zero hidden units": (
        "predict",
        {"training": "missing.csv", "hidden_units": 0},
        2,
        "hidden_units",
    ),
    "zero batch size": (
        "predict",
        {"training": "missing.csv", "batch_size": 0},
        2,
        "batch_size",
    ),
    "unknown predictor kind": (
        "predict",
        {"training": "missing.csv", "kind": "bogus"},
        2,
        "kind",
    ),
    "prediction level above one": (
        "predict",
        {"training": "missing.csv", "level": 1.5},
        2,
        "level",
    ),
    "learning rate not a number": (
        "predict",
        {"training": "missing.csv", "learning_rate": "nan"},
        2,
        "learning_rate",
    ),
    "negative validation fraction": (
        "predict",
        {"training": "missing.csv", "val_frac": -1},
        2,
        "val_frac",
    ),
    "fractions over one together": (
        "predict",
        {"training": "missing.csv", "train_frac": 0.9, "val_frac": 0.2},
        2,
        "val_frac",
    ),
    "negative epochs": (
        "predict",
        {"training": "missing.csv", "epochs": -1},
        2,
        "epochs",
    ),
    "negative max capacity": (
        "predict",
        {"training": "missing.csv", "max_capacity": -2},
        2,
        "predict config 'max_capacity': expected an integer of at least 0, got -2",
    ),
    "label above max capacity": (
        "predict",
        {"training": "high.csv", "max_capacity": 2},
        1,
        "label 3 exceeds max capacity 2 set by 'max_capacity'",
    ),
    "label above max capacity on line 3": (
        "predict",
        {"training": "high-line-3.csv", "max_capacity": 2},
        1,
        "training file high-line-3.csv line 3, column 'label': label 3 exceeds max capacity 2 "
        "set by 'max_capacity'",
    ),
    # det capacities must name a constrained cell and cover the horizon
    "capacity label for an unused cell": (
        "solve",
        {"model": "det", "capacities": {"A/arrival": [1, 1, 1]}},
        2,
        "'capacities' 'A/arrival'",
    ),
    "capacity label without a slash": (
        "solve",
        {"model": "det", "capacities": {"A": [1, 1, 1]}},
        2,
        "'capacities' 'A'",
    ),
    "capacity entry not a number": (
        "solve",
        {"model": "det", "capacities": {"A/departure": [1, "x", 1]}},
        2,
        "'capacities' 'A/departure'",
    ),
    "capacity profile too short": (
        "solve",
        {"model": "det", "capacities": {"B/arrival": [1, 1]}},
        2,
        "'capacities' 'B/arrival'",
    ),
    "capacity entry not finite": (
        "solve",
        {"model": "det", "capacities": {"B/arrival": [1, 1, float("inf")]}},
        2,
        "'capacities' 'B/arrival'",
    ),
    "fractional capacity entry": (
        "solve",
        {"model": "det", "capacities": {"A/departure": [2, 2.5, 2]}},
        2,
        "solve config 'capacities' 'A/departure'",
    ),
    "negative capacity entry": (
        "solve",
        {"model": "det", "capacities": {"B/arrival": [3, -1, 3]}},
        2,
        "solve config 'capacities' 'B/arrival'",
    ),
    "empty reduction list": (
        "sweep",
        {"epsilons": [0.1], "reductions": []},
        2,
        "sweep config 'reductions': need at least one reduction level",
    ),
    "instance with two trees for one cell": (
        "solve",
        {"instance": "two-trees.json"},
        1,
        "instance file two-trees.json is malformed: two trees for cell A/departure",
    ),
    "tree with an unknown op type": (
        "solve",
        {"instance": "arival-tree.json"},
        1,
        "instance file arival-tree.json is malformed: unknown op_type 'arival' in trees",
    ),
    "tree at an unknown airport": (
        "solve",
        {"instance": "airport-z-tree.json"},
        1,
        "instance file airport-z-tree.json is malformed: tree attached to unknown airport 'Z'",
    ),
    # the cells are checked before any series file, absent here, is read
    "cell airport not a string": (
        "reduce-scenarios",
        {
            "cells": [{**ABSENT_CELL, "airport": 5}],
            "change_points": 1,
            "clusters_per_stage": 1,
        },
        2,
        "reduce-scenarios cell config 'airport': expected str, got 5",
    ),
    "cell op_type misspelled": (
        "reduce-scenarios",
        {
            "cells": [{**ABSENT_CELL, "op_type": "arival"}],
            "change_points": 1,
            "clusters_per_stage": 1,
        },
        2,
        "reduce-scenarios cell config 'op_type': expected one of 'arrival', 'departure', "
        "got 'arival'",
    ),
    "unknown cell key": (
        "reduce-scenarios",
        {
            "cells": [{**ABSENT_CELL, "weight": 1}],
            "change_points": 1,
            "clusters_per_stage": 1,
        },
        2,
        "reduce-scenarios cell config: unknown key 'weight'",
    ),
    "two cells for one airport and op_type": (
        "reduce-scenarios",
        {
            "cells": [ABSENT_CELL, {**ABSENT_CELL, "series": "other.json"}],
            "change_points": 1,
            "clusters_per_stage": 1,
        },
        2,
        "reduce-scenarios config 'cells': two cells for A/departure",
    ),
}


def _restaged(tree, stages):
    """A tree body with its stage atoms replaced by stages and its
    scenarios listed over them, so only the stage count is off."""
    return with_listed_scenarios({**tree, "stages": stages})


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_names_the_field(tmp_path, monkeypatch, capsys, case):
    command, section, code, named = MALFORMED[case]
    monkeypatch.chdir(tmp_path)
    save_instance("instance.json", two_airport_instance())
    body = json.loads(Path("instance.json").read_text())
    Path("typo.json").write_text(json.dumps({**body, "horizon": "x"}))
    Path("recourse.json").write_text(json.dumps({**body, "cost_recourse": 5.0}))
    trees = json.loads(json.dumps(body["trees"]))
    trees[0]["representatives"][0] = {"support": [1, 2], "weights": [1.2, -0.2]}
    Path("negative-tree.json").write_text(json.dumps({**body, "trees": trees}))
    trees[0]["representatives"][0] = {"support": [1, 2], "weights": [math.nan, 1.0]}
    Path("nan-tree.json").write_text(json.dumps({**body, "trees": trees}))
    Path("no-flights.json").write_text(json.dumps({**body, "flights": [], "connections": []}))
    del body["flights"]
    Path("bare.json").write_text(json.dumps(body))
    save_instance("stress.json", stress_instance())
    stress = json.loads(Path("stress.json").read_text())
    first, *rest = stress["trees"]
    for name, stages in (
        ("extra-stage", first["stages"] + first["stages"][-1:]),
        ("missing-stage", first["stages"][:1]),
    ):
        trees = [_restaged(first, stages), *rest]
        Path(f"{name}.json").write_text(json.dumps({**stress, "trees": trees}))
    # the A/departure tree's stage-one capacity 0, in its atom and every
    # scenario, read as 0.6
    fractional = json.loads(json.dumps(stress["trees"]))
    fractional[1] = with_listed_scenarios(fractional[1])
    stage = fractional[1]["stages"][0]
    assert stage[0][0] == 0
    stage[0][0] = 0.6
    for vector, _ in fractional[1]["scenarios"]:
        vector[0] = 0.6 if vector[0] == 0 else vector[0]
    Path("fractional-tree.json").write_text(json.dumps({**stress, "trees": fractional}))
    segment = json.loads(json.dumps(stress))
    segment["trees"][0]["segments"][0][1] = 1.5
    Path("segment-1.5.json").write_text(json.dumps(segment))
    twice = {**stress, "trees": [*stress["trees"], stress["trees"][1]]}
    Path("two-trees.json").write_text(json.dumps(twice))
    for name, field, value in (
        ("arival-tree", "op_type", "arival"),
        ("airport-z-tree", "airport", "Z"),
    ):
        bad = json.loads(json.dumps(stress))
        bad["trees"][0][field] = value
        Path(f"{name}.json").write_text(json.dumps(bad))
    boundary = json.loads(json.dumps(stress))
    boundary["trees"][0]["boundaries"][0] = True
    Path("boundary-true.json").write_text(json.dumps(boundary))
    schedule = {
        f.id: {"u_slot": f.sched_dep, "v_slot": f.sched_arr} for f in stress_instance().flights
    }
    bodies = {
        "instance": stress,
        "result": {"status": "optimal", "objective": 0.0, "model": "det", "flights": schedule},
    }
    for kind, fields in WHOLE_NUMBER_FIELDS.items():
        for field, value in fields:
            bad = _with_field(bodies[kind], field, value)
            Path(f"{field}-{value}.json").write_text(json.dumps(bad))
    for field, value in NAME_FIELDS:
        Path(f"{field}-{value}.json").write_text(json.dumps(_with_field(stress, field, value)))
    Path("airports-string.json").write_text(json.dumps({**stress, "airports": "ABC"}))
    Path("airports-entry.json").write_text(json.dumps({**stress, "airports": ["A", "B", 3]}))
    no_flight = _with_field(stress, "predecessor", "NOPE")
    Path("no-flight.json").write_text(json.dumps(no_flight))
    for field, value in REAL_NUMBER_FIELDS:
        bad = json.loads(json.dumps(stress))
        if field == "stage probability":
            bad["trees"][0]["stages"][0][0][1] = value
        elif field == "scenario probability":
            bad["trees"][0] = with_listed_scenarios(bad["trees"][0])
            bad["trees"][0]["scenarios"][0][1] = value
        else:
            bad[field] = value
        Path(f"{field}-{value}.json").write_text(json.dumps(bad))
    good = {"support": [0, 1], "weights": [0.5, 0.5]}
    Path("series.json").write_text(json.dumps([good, {"support": [0, 1]}]))
    for name, (support, weights, _) in BAD_SERIES.items():
        bad = {"support": support, "weights": weights}
        Path(f"{name}.json").write_text(json.dumps([good, bad, good]))
    Path("short.csv").write_text("airport,op_type,scheduled_time\nA,departure,0\n")
    records_header = "airport,op_type,scheduled_time,actual_time\n"
    Path("zz.csv").write_text(records_header + "A,departure,0,zz\n")
    Path("arival.csv").write_text(records_header + "A,departure,0,1\nA,arival,2,3\n")
    Path("long-row.csv").write_text(records_header + "A,departure,0,1\nB,departure,5,6,99\n")
    Path("short-row.csv").write_text(records_header + "A,departure,0\n")
    Path("labels.csv").write_text("f0,label\n0.5,x\n")
    Path("negative-label.csv").write_text("f0,label\n0.5,1\n0.5,-2\n" + "0.5,1\n" * 10)
    Path("high.csv").write_text("f0,label\n" + "0.5,3\n" * 12)
    Path("high-line-3.csv").write_text("f0,label\n0.5,1\n0.5,3\n" + "0.5,1\n" * 10)
    Path("empty.csv").write_text("")
    Path("unlabelled.csv").write_text("f0,f1\n0.5,3\n")
    Path("two-labels.csv").write_text("f0,label,label\n0.5,1,2\n")
    Path("r.csv").write_text(records_header.replace("\n", ",airport\n") + "A,departure,0,1,B\n")
    rows = [f"{i / 10},{i % 3}\n" for i in range(60)]
    rows[5] = "nan,1\n"
    Path("t.csv").write_text("f0,label\n" + "".join(rows))
    Path("minus-inf.csv").write_text("f0,f1,label\n0.5,1,2\n0.5,-inf,2\n")
    Path("l.csv").write_text("label\n" + "1\n" * 12)
    Path("e.csv").write_text("f0,f1,label\n")
    Path("one-row.csv").write_text("f0,label\n0.5,1\n")
    Path("twelve.csv").write_text("f0,label\n" + "0.5,1\n" * 12)
    latin_1 = records_header + "Orl\xe9,departure,0,1\n"
    Path("latin-1.csv").write_bytes(latin_1.encode("latin-1"))
    Path("latin-1-header.csv").write_bytes("f\xe9,label\n0.5,1\n".encode("latin-1"))
    if command in ("solve", "evaluate", "sweep"):
        section = {"instance": "instance.json", **section}
    config = write_config(tmp_path, {command: {"out": "out", **section}})
    assert main([command, "--config", config]) == code
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err
    assert not Path("out").exists()


def test_readme_config_and_sections_match_the_declared_keys():
    """README's example config passes the section check, and each
    command's bullet under "Subcommand sections" names every key it
    reads: the keys it always needs before "; optional", the others
    after it."""
    usage = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    usage = usage.split("## CLI usage", 1)[1]
    example = json.loads(usage.split("```json\n", 1)[1].split("```", 1)[0])
    assert set(example) - {"seed"}
    for command in set(example) - {"seed"}:
        parse_section(example[command], KEYS[command], command)
    listing = usage.split("Subcommand sections:", 1)[1].split("\n## ", 1)[0]
    bullets = {bullet.split("`", 2)[1]: bullet for bullet in listing.split("\n- ")[1:]}
    assert set(bullets) == set(KEYS)
    for command, keys in KEYS.items():
        required, _, optional = bullets[command].split(":", 1)[1].partition("; optional")
        for key in keys:
            always = key.default is REQUIRED and key.mode is None
            listed = (f"`{key.name}`" in required, f"`{key.name}`" in optional)
            assert listed == (always, not always), (command, key.name)


def test_help_describes_every_subcommand(monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    lines = build_parser().format_help().splitlines()
    for name in ("estimate", "predict", "reduce-scenarios", "solve", "evaluate", "sweep"):
        (line,) = [line for line in lines if line.split()[:1] == [name]]
        assert line.split()[1:], name


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
    for seed in ("zero", True, -1):
        config = write_config(tmp_path, {"seed": seed, "solve": {}})
        with pytest.raises(ConfigError):
            load_config(config)
        assert main(["solve", "--config", config]) == 2


def test_seed_flag_must_be_at_least_0(tmp_path, monkeypatch, capsys):
    """A negative seed is a config error, not numpy's error from the
    first draw."""
    monkeypatch.chdir(tmp_path)
    save_instance("instance.json", two_airport_instance())
    section = {"instance": "instance.json", "epsilons": [0.0], "reductions": [0.1], "out": "out"}
    config = write_config(tmp_path, {"sweep": section})
    assert main(["sweep", "--config", config, "--seed", "-1"]) == 2
    assert "config error: seed must be an integer of at least 0" in capsys.readouterr().err
    assert not Path("out").exists()


@pytest.mark.parametrize("limit", ["-1", "nan", "0"])
def test_time_limit_flag_must_be_positive(tmp_path, monkeypatch, capsys, limit):
    monkeypatch.chdir(tmp_path)
    save_instance("instance.json", two_airport_instance())
    config = write_config(tmp_path, {"solve": {"instance": "instance.json", "out": "out"}})
    assert main(["solve", "--config", config, "--time-limit", limit]) == 2
    assert "time_limit" in capsys.readouterr().err
    assert not Path("out").exists()


#: one key of each number kind: (command, key, an accepted JSON int, the
#: rest of a section whose input file is absent)
NUMBER_KEYS = {
    "finite": ("estimate", "alpha", 1, {"records": "missing.csv", "num_intervals": 4}),
    "positive": (
        "estimate", "interval_minutes", 15, {"records": "missing.csv", "num_intervals": 4}
    ),
    "level": ("predict", "level", 1, {"training": "missing.csv"}),
    "time limit": ("solve", "time_limit", 5, {"instance": "missing.json"}),
    "number": (
        "evaluate", "reduction", 0, {"instance": "missing.json", "result": "missing.json"}
    ),
    "band": (
        "sweep", "band", 1, {"instance": "missing.json", "epsilons": [0.1], "reductions": [0.1]}
    ),
    "list of numbers": (
        "sweep", "reductions", [0], {"instance": "missing.json", "epsilons": [0.1]}
    ),
}


@pytest.mark.parametrize("kind", sorted(NUMBER_KEYS))
def test_number_keys_take_only_json_numbers(tmp_path, monkeypatch, capsys, kind):
    """A string or a boolean is refused with exit 2 naming the key; a
    JSON int gets past the config check to the absent input file."""
    command, key, accepted, rest = NUMBER_KEYS[kind]
    monkeypatch.chdir(tmp_path)
    wrap = (lambda v: [v]) if isinstance(accepted, list) else (lambda v: v)
    for value in ("0.1", True, False):
        config = write_config(tmp_path, {command: {"out": "out", **rest, key: wrap(value)}})
        assert main([command, "--config", config]) == 2, value
        err = capsys.readouterr().err
        assert f"{command} config {key!r}" in err, value
        assert "Traceback" not in err
    config = write_config(tmp_path, {command: {"out": "out", **rest, key: accepted}})
    assert main([command, "--config", config]) == 1
    assert "config error" not in capsys.readouterr().err
    assert not Path("out").exists()


#: a key set where the section's mode does not read it: (command,
#: section, the flags that set the mode, the key)
UNREAD_KEYS = {
    "epsilon without dr": ("solve", {"model": "sp", "epsilon": 0.3}, [], "epsilon"),
    "epsilon flag without dr": ("solve", {}, ["--model", "det", "--epsilon", "0.1"], "epsilon"),
    "capacities without det": (
        "solve", {"model": "dr", "epsilon": 0.1, "capacities": {"A/departure": [1, 1, 1]}}, [],
        "capacities",
    ),
    "horizon_start without iso8601": (
        "estimate",
        {"records": "absent.csv", "num_intervals": 4, "horizon_start": "2024-01-01T00:00"},
        [],
        "horizon_start",
    ),
    **{
        f"{key} without mlp": (
            "predict", {"training": "absent.csv", "kind": "empirical", key: value}, [], key
        )
        for key, value in (
            ("hidden_units", 8), ("learning_rate", 0.1), ("epochs", 3), ("batch_size", 4)
        )
    },
}


@pytest.mark.parametrize("case", sorted(UNREAD_KEYS))
def test_a_key_the_mode_does_not_read_exits_2(tmp_path, monkeypatch, capsys, case):
    command, section, flags, key = UNREAD_KEYS[case]
    monkeypatch.chdir(tmp_path)
    save_instance("instance.json", two_airport_instance())
    if command == "solve":
        section = {"instance": "instance.json", **section}
    config = write_config(tmp_path, {command: {"out": "out", **section}})
    assert main([command, "--config", config, *flags]) == 2
    err = capsys.readouterr().err
    assert f"{command} config {key!r}: read only when" in err
    assert "Traceback" not in err
    assert not Path("out").exists()
