#!/usr/bin/env python3
"""Layered benchmark for groundhold.

    python3 bench/run.py --workload forecast|sweep --seed N \\
        --seconds S --trace 0|1

Each run repeats whole rounds of the workload for ``--seconds`` seconds
and reports their mean wall time. Before each round it sets the inputs
up from the seed again, timing each set-up (their mean is
``setup_s``), and at the end it checks the outputs of the last round. With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced rounds and prints the per-layer metrics
built from the traced rounds' spans, plus the tracing overhead. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. See bench/README.md.
"""

from __future__ import annotations

import os

# one BLAS thread: the benchmark runs in one process with one thread, well
# within the box's two cores, and a single thread keeps timings steady
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# each round's set-up is repeated until this much time has passed, so a
# set-up of a few milliseconds still gives its mean some sixty samples
SETUP_BUDGET_S = 0.05


def _import_package():
    if not (SRC / "groundhold" / "__init__.py").is_file():
        sys.exit(f"bench: no groundhold package under {SRC}; run from a checkout")
    sys.path[:0] = [str(SRC), str(BENCH)]


_import_package()

import checks  # noqa: E402
import gen  # noqa: E402
import groundhold.capacity as capacity  # noqa: E402
import groundhold.cli as cli  # noqa: E402
import groundhold.maghp as maghp  # noqa: E402
import groundhold.prediction as prediction  # noqa: E402
import groundhold.scenario as scenario  # noqa: E402
from spans import Recorder  # noqa: E402

# ---------------------------------------------------------------------------
# workloads

ESTIMATE = dict(alpha=0.8, delay_threshold=15.0, min_delayed=2, percentile=0.9)


class Forecast:
    """Records in memory -> capacity observations -> MLP and empirical
    predictors -> PMFs for six cells -> six scenario trees."""

    name = "forecast"
    ops = 18  # aggregate, estimate, 2 trains, 2 evaluates, 6 PMF series, 6 trees
    SIZE = dict(days=28, rows=3000, held_out=600, epochs=60, max_capacity=14,
                change_points=2, atoms=3)

    def __init__(self, seed, work, size=None):
        self.seed, self.work = seed, work
        self.size = dict(self.SIZE, **(size or {}))

    def setup(self):
        s = self.size
        self.records, self.horizon = gen.generate_records(self.seed, s["days"])
        features, labels, self.series = gen.generate_training(
            self.seed, s["rows"] + s["held_out"], s["max_capacity"]
        )
        cut = s["rows"]
        self.train_x, self.train_y = features[:cut], labels[:cut]
        self.test_x, self.test_y = features[cut:], labels[cut:]

    def round(self, progress):
        s = self.size
        out = {}
        out["stats"] = capacity.aggregate_intervals(self.records, self.horizon, gen.INTERVAL_MINUTES)
        progress()
        out["observations"] = capacity.estimate_capacities(
            out["stats"],
            alpha=ESTIMATE["alpha"],
            delay_threshold_minutes=ESTIMATE["delay_threshold"],
            min_delayed=ESTIMATE["min_delayed"],
            percentile=ESTIMATE["percentile"],
        )
        progress()
        models = {}
        for kind in ("mlp", "empirical"):
            config = prediction.TrainingConfig(
                kind=kind, max_capacity=s["max_capacity"], hidden_units=32,
                learning_rate=0.02, epochs=s["epochs"], batch_size=16, seed=self.seed,
            )
            models[kind] = prediction.train(self.train_x, self.train_y, config)
            progress()
        out["models"] = models
        out["metrics"] = {}
        for kind, model in models.items():
            out["metrics"][kind] = prediction.evaluate(model, self.test_x, self.test_y, level=0.9)
            progress()
        out["pmfs"] = {}
        for key, rows in sorted(self.series.items()):
            out["pmfs"][key] = [prediction.predict_pmf(models["mlp"], x) for x in rows]
            progress()
        out["trees"] = {}
        for key, pmfs in sorted(out["pmfs"].items()):
            clustering = scenario.cluster_time_series(pmfs, s["change_points"])
            out["trees"][key] = scenario.build_scenario_tree(
                clustering, s["atoms"], airport=key[0], op_type=key[1]
            )
            progress()
        return out

    def check(self, out):
        s = self.size
        params = dict(num_intervals=self.horizon, interval_minutes=gen.INTERVAL_MINUTES, **ESTIMATE)
        failures = checks.check_capacity(self.records, out["stats"], out["observations"], params)
        held_out = {
            kind: [prediction.predict_pmf(model, x) for x in self.test_x]
            for kind, model in out["models"].items()
        }
        failures += checks.check_prediction(held_out, self.test_y, out["metrics"], 0.9)
        failures += checks.check_pmfs(out["pmfs"], out["models"]["mlp"], self.series)
        failures += checks.check_trees(out["trees"], out["pmfs"], s["change_points"])
        return failures

    def signature(self, out):
        return {
            "observations": len(out["observations"]),
            "metrics": {kind: repr(m) for kind, m in sorted(out["metrics"].items())},
            "trees": [repr(tree.scenarios) for _, tree in sorted(out["trees"].items())],
        }


class Sweep:
    """One ``groundhold sweep`` command, run in this process through
    ``groundhold.cli.main``: it reads the config and instance files, solves
    det, sp and one dr model per radius, prices every policy on each
    reduction level's draws and writes the three CSVs. In-process rounds
    leave out interpreter start-up and imports: in a separate process
    those added 0.2 s to 1.6 s to a round of about 4.5 s on a shared
    2-core VM, which made the round time the noisiest of the benchmark."""

    name = "sweep"
    ops = 1
    SIZE = dict(day_seed=0, flights=14, horizon=12, stages=3, atoms=3,
                epsilons=[0.0, 0.02, 0.05, 0.1, 0.2, 0.5],
                reductions=[0.1, 0.2, 0.3, 0.4, 0.5], samples=2000)

    def __init__(self, seed, work, size=None):
        self.seed, self.work = seed, work
        self.size = dict(self.SIZE, **(size or {}))
        self.paths = {name: work / f"sweep-{name}.csv" for name in ("report", "samples", "curve")}

    def setup(self):
        s = self.size
        day = gen.network_day(s["day_seed"], s["flights"], s["horizon"], s["stages"], s["atoms"])
        instance_path = self.work / "sweep-instance.json"
        maghp.save_instance(instance_path, day)
        self.config = self.work / "sweep-config.json"
        self.config.write_text(json.dumps({
            "seed": self.seed,
            "sweep": {
                "instance": str(instance_path),
                "epsilons": s["epsilons"],
                "reductions": s["reductions"],
                "band": gen.SWEEP_BAND,
                "sample_count": s["samples"],
                "day": "bench",
                "out": str(self.paths["report"]),
                "samples_out": str(self.paths["samples"]),
                "curve_out": str(self.paths["curve"]),
            },
        }, indent=1) + "\n")
        self.unit = maghp.load_instance(instance_path).recourse_cost

    def round(self, progress):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["sweep", "--config", str(self.config)])
        if code != 0:
            raise RuntimeError(f"groundhold sweep returned code {code}")
        progress()
        return {name: path.read_bytes() for name, path in self.paths.items()}

    def check(self, files):
        s = self.size
        return checks.check_sweep(files, s["epsilons"], s["reductions"], s["samples"], self.unit)

    def signature(self, files):
        return {name: hashlib.sha256(body).hexdigest() for name, body in sorted(files.items())}


WORKLOADS = {w.name: w for w in (Forecast, Sweep)}


# ---------------------------------------------------------------------------
# per-layer metrics from spans

TIMES = {
    "capacity.aggregate_s": "capacity.aggregate",
    "capacity.estimate_s": "capacity.estimate",
    "prediction.train_mlp_s": "prediction.train_mlp",
    "prediction.train_empirical_s": "prediction.train_empirical",
    "prediction.evaluate_s": "prediction.evaluate",
    "pmf.wasserstein_1d_s": "pmf.wasserstein_1d",
    "scenario.cluster_s": "scenario.cluster",
    "scenario.tree_s": "scenario.tree",
    "maghp.build_det_s": "maghp.build_det",
    "maghp.build_sp_s": "maghp.build_sp",
    "maghp.build_dr_s": "maghp.build_dr",
    "maghp.solve_det_s": "maghp.solve_det",
    "maghp.solve_sp_s": "maghp.solve_sp",
    "maghp.solve_dr_s": "maghp.solve_dr",
    "solver.minimize_s": "solver.minimize",
    "solver.highs_s": "solver.highs",
    "evaluation.reduce_s": "evaluation.reduce",
    "evaluation.evaluate_policy_s": "evaluation.evaluate_policy",
    "cli.load_instance_s": "cli.load_instance",
    "cli.write_s": "cli.write",
}
SELF_TIMES = {
    "maghp.solve_self_s": "maghp.solve_",
    "evaluation.sweep_self_s": "evaluation.sweep",
    "evaluation.resample_s": "evaluation.resample",
}
CALLS = {
    "prediction.pmfs": "prediction.predict",
    "pmf.wasserstein_1d_calls": "pmf.wasserstein_1d",
    "solver.calls": "solver.highs",
    "evaluation.reduce_calls": "evaluation.reduce",
    "evaluation.policies_evaluated": "evaluation.evaluate_policy",
}
SUMS = {
    "capacity.records": ("capacity.aggregate", "records"),
    "capacity.observations": ("capacity.estimate", "observations"),
    "prediction.train_rows": ("prediction.train_", "rows"),
    "prediction.evaluated_rows": ("prediction.evaluate", "rows"),
    "scenario.scenarios": ("scenario.tree", "scenarios"),
    "solver.nodes": ("solver.highs", "nodes"),
    "solver.nonoptimal": ("solver.highs", "nonoptimal"),
    "evaluation.samples_drawn": ("evaluation.resample", "samples"),
    "cli.output_bytes": ("cli.write", "bytes"),
}
MODEL_SIZES = [f"maghp.{k}_{c}" for k in ("det", "sp", "dr") for c in ("vars", "rows", "nnz")]
COUNT_NAMES = list(CALLS) + list(SUMS) + MODEL_SIZES + ["maghp.scenarios"]


def layer_metrics(recorder):
    """Times in seconds and counts of one traced round."""
    spans = recorder.spans
    own = recorder.self_times()
    total, calls = defaultdict(float), Counter()
    for s in spans:
        total[s.name] += s.duration
        calls[s.name] += 1
    out = {name: total[span] for name, span in TIMES.items()}
    for name, prefix in SELF_TIMES.items():
        out[name] = sum(m for s, m in zip(spans, own) if s.name.startswith(prefix))
    out["prediction.predict_s"] = sum(
        s.duration for s in spans
        if s.name == "prediction.predict"
        and (s.parent is None or spans[s.parent].name != "prediction.evaluate")
    )
    out["solver.assemble_s"] = out["solver.minimize_s"] - out["solver.highs_s"]
    for name, span in CALLS.items():
        out[name] = calls[span]
    for name, (prefix, key) in SUMS.items():
        out[name] = sum(s.counts.get(key, 0) for s in spans if s.name.startswith(prefix))
    for name in MODEL_SIZES:
        kind, what = name.split(".")[1].split("_")
        out[name] = max(
            [s.counts[what] for s in spans if s.counts.get("model") == kind], default=0
        )
    out["maghp.scenarios"] = max(
        [s.counts["scenarios"] for s in spans if s.name.startswith("maghp.build_")], default=0
    )
    return out


PER_LAYER_UNITS = {name: "s" for name in list(TIMES) + list(SELF_TIMES)}
PER_LAYER_UNITS.update({name: "count" for name in COUNT_NAMES})
PER_LAYER_UNITS.update({
    "prediction.predict_s": "s", "solver.assemble_s": "s", "trace.overhead_s": "s",
    "cli.output_bytes": "bytes", "trace.spans": "count", "trace.count_mismatches": "count",
})


# ---------------------------------------------------------------------------
# runner


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "groundhold").glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _compare_with_earlier_runs(workload, seed, size, counts):
    """Flag counts that differ from an earlier traced run of the same
    seed, size and source; returns the names that differ."""
    key = hashlib.sha256(json.dumps([workload, seed, size], sort_keys=True).encode())
    store = WORK / "counts" / f"{workload}-{seed}-{key.hexdigest()[:12]}-{_source_digest()}.json"
    if store.exists():
        earlier = json.loads(store.read_text())
        return sorted(k for k in counts if earlier.get(k) != counts[k])
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps(counts, sort_keys=True) + "\n")
    return []


class Run:
    def __init__(self, workload, seed, seconds, work, size=None):
        self.w = WORKLOADS[workload](seed, work, size)
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.last = None
        self.signatures: set[str] = set()
        self.setup_times: list[float] = []

    def setup(self):
        """Set the inputs up, timing each set-up, until ``SETUP_BUDGET_S``
        have passed; the last set-up feeds the next round. Called before
        every round, so the set-up times sample the whole run rather than
        its first moments."""
        spent = 0.0
        while spent < SETUP_BUDGET_S:
            start = time.perf_counter()
            self.w.setup()
            self.setup_times.append(time.perf_counter() - start)
            spent += self.setup_times[-1]

    def one_round(self):
        """Run one round and return its wall time. Keeps only the last
        good output and each round's signature, so memory does not grow
        with the number of rounds."""
        done = []
        start = time.perf_counter()
        try:
            out = self.w.round(lambda: done.append(1))
        except Exception as exc:  # a failed operation is counted, not fatal
            print(f"bench: {self.w.name} round failed: {exc!r}", file=sys.stderr)
            self.attempted += self.w.ops
            self.failed += self.w.ops - len(done)
            return time.perf_counter() - start
        wall = time.perf_counter() - start
        self.attempted += self.w.ops
        self.last = out
        self.signatures.add(json.dumps(self.w.signature(out), sort_keys=True))
        return wall

    def finish(self):
        """Correctness of the last good round, and that every round of
        this run produced the same outputs."""
        if self.last is None:
            self.failures.append("no round completed")
            return
        self.failures += self.w.check(self.last)
        if len(self.signatures) > 1:
            self.failures.append(f"{self.w.name}: outputs differ between rounds of one seed")

    def more_rounds(self, started, rounds):
        """Whether one more round, at the run's pace so far, ends within
        ``seconds`` of ``started``; the first round always runs."""
        now = time.perf_counter()
        return rounds == 0 or now + (now - started) / rounds <= started + self.seconds

    def untraced(self):
        self.w.setup()  # warm-up, untimed
        walls = []
        started = time.perf_counter()
        while self.more_rounds(started, len(walls)):
            self.setup()
            walls.append(self.one_round())
        peak = _peak_rss_mb()  # before the checks allocate their own arrays
        self.finish()
        return {
            # means follow slow drifts in the machine's speed over the whole
            # run more smoothly than medians: over ten runs of each workload
            # they spread 0.10-0.12 for rounds and 0.10-0.11 for set-ups,
            # against 0.10-0.13 and 0.13-0.17 for medians
            "wall_s": statistics.fmean(walls),
            "setup_s": statistics.fmean(self.setup_times),
            "peak_rss_mb": peak,
        }

    def traced(self, spans_out):
        self.w.setup()
        overheads, per_round = [], []
        recorder = None
        started = time.perf_counter()
        while self.more_rounds(started, len(per_round)):
            plain = self.one_round()
            recorder = Recorder().install()
            try:
                wall = self.one_round()
            finally:
                recorder.uninstall()
            overheads.append(wall - plain)
            per_round.append(layer_metrics(recorder))
        self.finish()
        recorder.dump(spans_out)
        first = per_round[0]
        counts = {k: first[k] for k in COUNT_NAMES}
        mismatched = {k for r in per_round[1:] for k in COUNT_NAMES if r[k] != first[k]}
        mismatched |= set(_compare_with_earlier_runs(self.w.name, self.w.seed, self.w.size, counts))
        for name in sorted(mismatched):
            print(f"bench: count {name} differs between runs of seed {self.w.seed}", file=sys.stderr)
        metrics = {
            k: (first[k] if k in counts else statistics.median(r[k] for r in per_round))
            for k in first
        }
        metrics["trace.overhead_s"] = statistics.median(overheads)
        metrics["trace.spans"] = len(recorder.spans)
        metrics["trace.count_mismatches"] = len(mismatched)
        return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(args.workload, args.seed, args.seconds, work)
        if args.trace:
            traces = WORK / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            values = run.traced(traces / f"{args.workload}-{args.seed}.jsonl")
            units = PER_LAYER_UNITS
        else:
            values = run.untraced()
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in run.failures:
        print(f"bench: check failed: {failure}", file=sys.stderr)
    correct = not run.failures
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in sorted(values)},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
