"""Collapse per-interval capacity PMFs into small scenario trees.

A day of 48 predicted PMFs is far too rich to optimize against
directly, so it is reduced in two steps:

1. time clustering: intervals are segmented at the n largest
   interval-to-interval Wasserstein jumps, and each segment is
   represented by the average of its member PMFs;
2. PMF compression: each segment representative is collapsed to K
   atoms by one-dimensional K-means in support space, with cluster
   weights summed (never renormalized) and centroids rounded half-up
   to integer capacities.

The per-stage atoms then combine into a scenario tree whose scenarios
carry product probabilities, one tree per (airport, op_type).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    EmptySeriesError,
    InvalidChangePointCountError,
    ScenarioExplosionError,
    TooFewIntervalsError,
    TooManyClustersError,
)
from .pmf import MASS_TOL, Pmf, make_pmf, wasserstein_1d

#: refuse to enumerate trees beyond this many scenarios unless overridden
DEFAULT_SCENARIO_CAP = 4096


@dataclass(frozen=True)
class TimeClustering:
    """A segmentation of the horizon with one representative PMF per segment.

    boundaries holds the chosen change-point indices; segment k covers
    the intervals from the previous boundary (exclusive) through its own
    boundary (inclusive), so a boundary interval belongs to the segment
    it closes.
    """

    boundaries: tuple[int, ...]
    segments: tuple[tuple[int, ...], ...]
    representatives: tuple[Pmf, ...]

    def __post_init__(self):
        flat = [t for seg in self.segments for t in seg]
        if flat != list(range(len(flat))):
            raise ValueError("segments must partition the horizon in order")
        if len(self.segments) != len(self.representatives):
            raise ValueError("one representative per segment required")

    @property
    def num_intervals(self) -> int:
        return sum(len(seg) for seg in self.segments)

    @property
    def num_stages(self) -> int:
        return len(self.segments)

    @property
    def stage_index(self) -> tuple[int, ...]:
        """The stage (segment index) of every interval, in interval order."""
        return tuple(k for k, seg in enumerate(self.segments) for _ in seg)


@dataclass(frozen=True)
class ReducedPmf:
    """K (capacity, probability) atoms produced by PMF compression.

    Atom probabilities are carried over from the source PMF by plain
    summation, so their total equals the source total; supports are the
    rounded cluster centroids and may collide after rounding.
    """

    atoms: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("a reduced PMF needs at least one atom")
        if any(p < 0 for _, p in self.atoms):
            raise ValueError("atom probabilities must be non-negative")
        total = math.fsum(p for _, p in self.atoms)
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"atom probabilities sum to {total!r}, not 1")

    def __len__(self) -> int:
        return len(self.atoms)

    @property
    def supports(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.atoms)

    @property
    def probabilities(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.atoms)

    def mean(self) -> float:
        return math.fsum(s * p for s, p in self.atoms)


@dataclass(frozen=True)
class ScenarioTree:
    """Stagewise capacity atoms and their full scenario enumeration."""

    airport: str
    op_type: str
    stage_pmfs: tuple[ReducedPmf, ...]
    time_clusters: TimeClustering
    scenarios: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self):
        expected = 1
        for stage in self.stage_pmfs:
            expected *= len(stage)
        if len(self.scenarios) != expected:
            raise ValueError(
                f"{len(self.scenarios)} scenarios, expected {expected}"
            )
        total = math.fsum(p for _, p in self.scenarios)
        if abs(total - 1.0) > 1e-8:
            raise ValueError(f"scenario probabilities sum to {total!r}")

    @property
    def num_scenarios(self) -> int:
        return len(self.scenarios)

    @property
    def probabilities(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.scenarios)

    @property
    def vectors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(v for v, _ in self.scenarios)


def cluster_time_series(pmfs: list[Pmf], n: int) -> TimeClustering:
    """Segment a PMF series at its n largest Wasserstein jumps.

    The jump at index t measures the distance between the PMFs of
    intervals t-1 and t; ties break toward the earlier index. A chosen
    index closes its segment, so segment one runs from interval 0
    through the first boundary inclusive. When the final index is itself
    chosen as a boundary the nominally remaining segment is empty and is
    dropped.
    """
    if not pmfs:
        raise EmptySeriesError("no PMFs to cluster")
    horizon = len(pmfs)
    if horizon < 2:
        raise TooFewIntervalsError("need at least 2 intervals to cluster")
    if not 0 <= n <= horizon - 1:
        raise InvalidChangePointCountError(
            f"change-point count {n} outside [0, {horizon - 1}]"
        )

    jumps = [
        (t, wasserstein_1d(pmfs[t], pmfs[t - 1])) for t in range(1, horizon)
    ]
    ranked = sorted(jumps, key=lambda tw: (-tw[1], tw[0]))
    boundaries = tuple(sorted(t for t, _ in ranked[:n]))

    segments = []
    start = 0
    for c in boundaries:
        segments.append(tuple(range(start, c + 1)))
        start = c + 1
    if start <= horizon - 1:
        segments.append(tuple(range(start, horizon)))

    representatives = tuple(
        average_pmfs([pmfs[t] for t in seg]) for seg in segments
    )
    return TimeClustering(boundaries, tuple(segments), representatives)


def average_pmfs(members: list[Pmf]) -> Pmf:
    """Coordinate-wise average over the union support (missing = 0)."""
    if not members:
        raise EmptySeriesError("cannot average zero PMFs")
    support = sorted({s for p in members for s in p.support})
    weights = [
        math.fsum(p.weight_at(s) for p in members) / len(members)
        for s in support
    ]
    return make_pmf(support, weights)


def _quantile_centers(support, weights, k):
    """Initial centers at the (j + 0.5)/k weighted quantiles, deduplicated."""
    total = math.fsum(weights)
    cumulative = list(itertools.accumulate(w / total for w in weights))
    centers = []
    for j in range(k):
        level = (j + 0.5) / k
        idx = next(i for i, c in enumerate(cumulative) if c >= level - 1e-12)
        if support[idx] not in centers:
            centers.append(float(support[idx]))
    # a heavy atom can swallow several quantile levels; refill with the
    # support points farthest from the centers picked so far
    while len(centers) < k:
        farthest = max(
            (s for s in support if s not in centers),
            key=lambda s: (min(abs(s - c) for c in centers), -s),
        )
        centers.append(float(farthest))
    return sorted(centers)


def compress_pmf_kmeans(p: Pmf, k: int) -> ReducedPmf:
    """Collapse a PMF to k atoms by weighted 1-D K-means.

    Clusters live in support space; each output atom gets the summed
    probability of its members and the probability-weighted mean
    support rounded half-up. Zero-weight support points carry no mass
    and are ignored. Initialization is by weighted quantiles, so the
    result is deterministic.
    """
    positive = [(s, w) for s, w in zip(p.support, p.weights) if w > 0]
    if k < 1:
        raise ValueError("need at least one cluster")
    if k > len(positive):
        raise TooManyClustersError(
            f"{k} clusters requested but only {len(positive)} atoms carry mass"
        )
    support = [float(s) for s, _ in positive]
    weights = [w for _, w in positive]

    centers = _quantile_centers(support, weights, k)
    assignment = [-1] * len(support)
    for _ in range(100):
        new_assignment = [
            min(range(k), key=lambda j: (abs(s - centers[j]), j))
            for s in support
        ]
        if new_assignment == assignment:
            break
        assignment = new_assignment
        for j in range(k):
            members = [i for i, a in enumerate(assignment) if a == j]
            if members:
                mass = math.fsum(weights[i] for i in members)
                centers[j] = (
                    math.fsum(support[i] * weights[i] for i in members) / mass
                )
            else:
                # revive an empty cluster at the worst-served point
                stray = max(
                    range(len(support)),
                    key=lambda i: (abs(support[i] - centers[assignment[i]]),
                                   -support[i]),
                )
                centers[j] = support[stray]

    clusters: dict[int, list[int]] = {}
    for i, a in enumerate(assignment):
        clusters.setdefault(a, []).append(i)
    atoms = []
    for j, members in sorted(clusters.items()):
        mass = math.fsum(weights[i] for i in members)
        centroid = math.fsum(support[i] * weights[i] for i in members) / mass
        atoms.append((math.floor(centroid + 0.5), mass))
    atoms.sort(key=lambda sp: sp[0])
    return ReducedPmf(tuple(atoms))


def build_scenario_tree(
    clustering: TimeClustering,
    k_per_stage: int,
    airport: str = "",
    op_type: str = "",
    max_scenarios: int = DEFAULT_SCENARIO_CAP,
    clamp: bool = False,
) -> ScenarioTree:
    """Compress each stage representative and enumerate all scenarios.

    With clamp=True a stage whose representative has fewer than
    k_per_stage positive atoms is compressed to what it has instead of
    raising. Scenario probabilities are the products of their stage atom
    probabilities; enumeration order varies the last stage fastest.
    """
    stage_pmfs = []
    for rep in clustering.representatives:
        k = k_per_stage
        if clamp:
            k = min(k, sum(1 for w in rep.weights if w > 0))
        stage_pmfs.append(compress_pmf_kmeans(rep, k))

    count = 1
    for stage in stage_pmfs:
        count *= len(stage)
    if count > max_scenarios:
        raise ScenarioExplosionError(
            f"{count} scenarios exceed the cap of {max_scenarios}"
        )

    scenarios = []
    for combo in itertools.product(*(s.atoms for s in stage_pmfs)):
        vector = tuple(s for s, _ in combo)
        probability = math.prod(p for _, p in combo)
        scenarios.append((vector, probability))

    return ScenarioTree(
        airport=airport,
        op_type=op_type,
        stage_pmfs=tuple(stage_pmfs),
        time_clusters=clustering,
        scenarios=tuple(scenarios),
    )


def scenario_capacity_profile(tree: ScenarioTree, vector) -> list[int]:
    """Expand a stage-capacity vector to one capacity per interval."""
    clusters = tree.time_clusters
    if len(vector) != clusters.num_stages:
        raise ValueError(
            f"vector has {len(vector)} stages, tree has {clusters.num_stages}"
        )
    return [int(vector[k]) for k in clusters.stage_index]


# ---------------------------------------------------------------------------
# JSON files


def tree_to_dict(tree: ScenarioTree) -> dict:
    return {
        "airport": tree.airport,
        "op_type": tree.op_type,
        "boundaries": list(tree.time_clusters.boundaries),
        "segments": [list(seg) for seg in tree.time_clusters.segments],
        "representatives": [
            {"support": list(p.support), "weights": list(p.weights)}
            for p in tree.time_clusters.representatives
        ],
        "stages": [[[s, p] for s, p in stage.atoms] for stage in tree.stage_pmfs],
        "scenarios": [[list(v), p] for v, p in tree.scenarios],
    }


def tree_from_dict(body: dict) -> ScenarioTree:
    clustering = TimeClustering(
        tuple(body["boundaries"]),
        tuple(tuple(seg) for seg in body["segments"]),
        tuple(
            make_pmf(rep["support"], rep["weights"])
            for rep in body["representatives"]
        ),
    )
    return ScenarioTree(
        airport=body["airport"],
        op_type=body["op_type"],
        stage_pmfs=tuple(
            ReducedPmf(tuple((int(s), float(p)) for s, p in stage))
            for stage in body["stages"]
        ),
        time_clusters=clustering,
        scenarios=tuple(
            (tuple(int(x) for x in v), float(p)) for v, p in body["scenarios"]
        ),
    )


def save_trees(path, trees: list[ScenarioTree]) -> None:
    Path(path).write_text(
        json.dumps([tree_to_dict(t) for t in trees], indent=1) + "\n"
    )


def load_trees(path) -> list[ScenarioTree]:
    return [tree_from_dict(d) for d in json.loads(Path(path).read_text())]
