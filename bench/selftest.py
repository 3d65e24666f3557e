"""The benchmark's own test: every workload at a tiny size, and every
check shown to reject a deliberately corrupted output.

    python3 bench/selftest.py          # or: python -m pytest bench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts the package on sys.path)
import checks  # noqa: E402
from groundhold.pmf import make_pmf  # noqa: E402

TINY = {
    "forecast": dict(days=3, rows=300, held_out=100, epochs=2),
    "sweep": dict(flights=8, horizon=8, stages=2, atoms=2, epsilons=[0.0, 0.1, 0.5],
                  reductions=[0.1, 0.3], samples=50),
}


def _workdir(name):
    path = run.WORK / f"selftest-{name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _workload(name, seed=3):
    w = run.WORKLOADS[name](seed, _workdir(name), TINY[name])
    w.setup()
    return w, w.round(lambda: None)


def test_forecast_checks_reject_corruption():
    w, out = _workload("forecast")
    assert w.check(out) == []

    first = out["observations"][0]
    moved = dict(out, observations=[dataclasses.replace(first, capacity=first.capacity + 1)]
                 + out["observations"][1:])
    assert any(f.startswith("capacity: observation") for f in w.check(moved))

    busier = [dataclasses.replace(out["stats"][0], throughput=out["stats"][0].throughput + 1)]
    messages = w.check(dict(out, stats=busier + out["stats"][1:]))
    assert any("total throughput" in f for f in messages)
    assert any("differ from numpy" in f for f in messages)

    metrics = dict(out["metrics"])
    metrics["mlp"] = dataclasses.replace(metrics["mlp"], rmse=metrics["mlp"].rmse + 1e-6)
    assert any(f.startswith("prediction:") for f in w.check(dict(out, metrics=metrics)))

    key = sorted(out["pmfs"])[0]
    heavy = SimpleNamespace(support=out["pmfs"][key][0].support,
                            weights=tuple(2 * x for x in out["pmfs"][key][0].weights))
    pmfs = {**out["pmfs"], key: [heavy] + out["pmfs"][key][1:]}
    assert any("unit mass" in f for f in checks.check_pmfs(pmfs, out["models"]["mlp"], w.series))

    flipped = out["pmfs"][key][0]
    flipped = dataclasses.replace(flipped, weights=flipped.weights[::-1], support=flipped.support)
    pmfs = {**out["pmfs"], key: [flipped] + out["pmfs"][key][1:]}
    assert any("forward pass" in f for f in checks.check_pmfs(pmfs, out["models"]["mlp"], w.series))

    tree = out["trees"][key]
    (v0, p0), (v1, p1) = tree.scenarios[0], tree.scenarios[-1]
    swapped = dataclasses.replace(
        tree, scenarios=((v0, p1),) + tree.scenarios[1:-1] + ((v1, p0),)
    )
    trees = {**out["trees"], key: swapped}
    assert any("multiply out" in f for f in w.check(dict(out, trees=trees)))

    clusters = tree.time_clusters
    far = make_pmf([clusters.representatives[0].support[-1] + 5], [1.0])
    shifted = dataclasses.replace(
        tree,
        time_clusters=dataclasses.replace(
            clusters, representatives=(far,) + clusters.representatives[1:]
        ),
    )
    messages = w.check(dict(out, trees={**out["trees"], key: shifted}))
    assert any("is off its representative" in f for f in messages)
    assert any("not its segment's average" in f for f in messages)


def _edit_csv(body, row, column, value):
    lines = body.decode().splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    cells[header.index(column)] = value
    lines[row] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


def test_sweep_checks_reject_corruption():
    w, files = _workload("sweep")
    assert w.check(files) == []
    # the in-process round writes what a `groundhold sweep` process writes
    proc = subprocess.run(
        [sys.executable, "-m", "groundhold.cli", "sweep", "--config", str(w.config)],
        env=dict(os.environ, PYTHONPATH=str(run.SRC)), capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert {name: path.read_bytes() for name, path in w.paths.items()} == files

    edits = [
        ("samples", 1, "second_stage_cost", "99.000000", "mean sample cost"),
        ("report", 1, "pct_vs_det", "12.345", "pct_vs_det"),
        ("report", 1, "epsilon_star", "0.07", "epsilon_star"),
        ("curve", 5, "objective", "0.000001", "in-sample objective falls"),
        ("curve", 3, "objective", "-1", "radius 0"),
    ]
    for name, row, column, value, message in edits:
        edited = dict(files, **{name: _edit_csv(files[name], row, column, value)})
        assert any(message in f for f in w.check(edited)), (name, column)


def test_failed_sweep_and_changed_outputs_are_caught():
    sweep = run.Run("sweep", 3, 0, _workdir("failing"), TINY["sweep"])
    sweep.w.setup()
    sweep.w.config = sweep.w.work / "missing.json"
    sweep.one_round()
    assert (sweep.attempted, sweep.failed) == (1, 1)
    sweep.finish()
    assert sweep.failures == ["no round completed"]

    changing = run.Run("sweep", 3, 0, _workdir("changing"), TINY["sweep"])
    changing.w.setup()
    changing.one_round()
    changing.signatures.add("an output no round of this seed gave")
    changing.finish()
    assert any("outputs differ between rounds" in f for f in changing.failures)


def test_runs_report_every_metric():
    for name in sorted(run.WORKLOADS):
        plain = run.Run(name, 5, 0, _workdir(f"run-{name}"), TINY[name])
        values = plain.untraced()
        assert plain.failures == [] and plain.failed == 0, plain.failures
        assert set(values) == set(run.END_TO_END) and all(v > 0 for v in values.values())

        traced = run.Run(name, 5, 0, _workdir(f"trace-{name}"), TINY[name])
        layers = traced.traced(run.WORK / f"selftest-{name}.jsonl")
        assert traced.failures == [], traced.failures
        assert set(layers) == set(run.PER_LAYER_UNITS)
        assert layers["trace.count_mismatches"] == 0
        touched = {
            "forecast": ("capacity.records", "prediction.pmfs", "pmf.wasserstein_1d_calls",
                         "scenario.scenarios"),
            "sweep": ("evaluation.reduce_calls", "evaluation.samples_drawn", "cli.output_bytes",
                      "solver.calls", "maghp.dr_nnz", "maghp.sp_rows", "maghp.scenarios"),
        }[name]
        assert all(layers[k] > 0 for k in touched), {k: layers[k] for k in touched}
        if name == "forecast":
            assert layers["solver.calls"] == 0 and layers["maghp.scenarios"] == 0


def test_benchmark_json_lists_every_metric():
    body = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in body["workloads"]] == sorted(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in body["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in body["per_layer"]} == run.PER_LAYER_UNITS


def test_refuses_to_run_without_the_package():
    bare = _workdir("bare")
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip(), proc.stdout


def main():
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    for path in run.WORK.glob("selftest-*"):
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink()
    print(json.dumps({"passed": len(tests)}))


if __name__ == "__main__":
    main()
