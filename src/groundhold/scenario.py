"""Collapse per-interval capacity PMFs into small scenario trees.

A day of 48 predicted PMFs is far too rich to optimize against
directly, so it is reduced in two steps:

1. time clustering: intervals are segmented at the n largest
   interval-to-interval Wasserstein jumps, and each segment is
   represented by the average of its member PMFs;
2. PMF compression: each segment representative is collapsed to K
   atoms by exact one-dimensional K-means in support space, a dynamic
   program over runs of consecutive support points, with cluster
   weights summed (never renormalized) and centroids rounded half-up
   to integer capacities.

The per-stage atoms then combine into a scenario tree whose scenarios
carry product probabilities, one tree per (airport, op_type). A tree
file stores the stage atoms alone; loading it enumerates their product,
as building the tree does.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

from .config import load_input, write_json
from .pmf import (
    MASS_TOL,
    Pmf,
    as_real,
    as_whole,
    make_pmf,
    pmf_from_dict,
    pmf_to_dict,
    wasserstein_1d,
)

#: refuse to enumerate trees beyond this many scenarios
DEFAULT_SCENARIO_CAP = 4096


def _product(stages) -> tuple[tuple[tuple[int, ...], float], ...]:
    """The scenarios of the stage atoms: every choice of one atom per
    stage, last stage fastest, at the product of its atoms'
    probabilities. More than DEFAULT_SCENARIO_CAP scenarios raise
    ValueError before any is enumerated."""
    count = math.prod(map(len, stages))
    if count > DEFAULT_SCENARIO_CAP:
        raise ValueError(f"{count} scenarios exceed the cap of {DEFAULT_SCENARIO_CAP}")
    vectors = itertools.product(*(stage.supports for stage in stages))
    probabilities = itertools.product(*(stage.probabilities for stage in stages))
    return tuple(zip(vectors, map(math.prod, probabilities)))


@dataclass(frozen=True)
class TimeClustering:
    """A segmentation of the horizon with one representative PMF per segment.

    boundaries holds the chosen change-point indices; segment k covers
    the intervals from the previous boundary (exclusive) through its own
    boundary (inclusive), so a boundary interval belongs to the segment
    it closes. The segments are contiguous, in order and not empty, and
    the boundaries are the last intervals of every segment, or of every
    segment but the last.
    """

    boundaries: tuple[int, ...]
    segments: tuple[tuple[int, ...], ...]
    representatives: tuple[Pmf, ...]

    def __post_init__(self):
        flat = [t for seg in self.segments for t in seg]
        if flat != list(range(len(flat))):
            raise ValueError("segments must partition the horizon in order")
        if not all(self.segments):
            raise ValueError("segments must not be empty")
        ends, boundaries = tuple(seg[-1] for seg in self.segments), tuple(self.boundaries)
        if boundaries not in (ends, ends[:-1]):
            raise ValueError(
                f"boundaries {boundaries} must be the last intervals {ends} "
                "of the segments, or of all but the last"
            )
        if len(self.segments) != len(self.representatives):
            raise ValueError("one representative per segment required")

    @property
    def num_intervals(self) -> int:
        return sum(len(seg) for seg in self.segments)

    @property
    def num_stages(self) -> int:
        return len(self.segments)

    @cached_property
    def stage_index(self) -> tuple[int, ...]:
        """The stage (segment index) of every interval, in interval order."""
        return tuple(k for k, seg in enumerate(self.segments) for _ in seg)


@dataclass(frozen=True)
class ReducedPmf:
    """K (capacity, probability) atoms produced by PMF compression.

    Atom probabilities are carried over from the source PMF by plain
    summation, so their total equals the source total; supports are the
    rounded cluster centroids and may collide after rounding. Each
    capacity must be a whole number of at least 0 (pmf.as_whole) and is
    kept as given.
    """

    atoms: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("a reduced PMF needs at least one atom")
        for capacity, _ in self.atoms:
            as_whole(capacity)
        if any(p < 0 for _, p in self.atoms):
            raise ValueError("atom probabilities must be non-negative")
        total = math.fsum(p for _, p in self.atoms)
        if not abs(total - 1.0) <= MASS_TOL:  # a NaN fails too
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
    """Stagewise capacity atoms and their full scenario enumeration.

    The scenario vectors are the product of the stage supports, last
    stage fastest, and every tree built or loaded here carries the
    product of its stage atoms' probabilities. The models read the
    stage atoms alone (stage_capacities).

    probabilities, vectors and stage_capacities are computed once per
    tree and kept; dataclasses.replace builds a new tree, which computes
    its own."""

    airport: str
    op_type: str
    stage_pmfs: tuple[ReducedPmf, ...]
    time_clusters: TimeClustering
    scenarios: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self):
        segments = self.time_clusters.num_stages
        if len(self.stage_pmfs) != segments:
            raise ValueError(
                f"stage count {len(self.stage_pmfs)} does not match the "
                f"{segments} time segments"
            )
        if self.vectors != tuple(v for v, _ in _product(self.stage_pmfs)):
            raise ValueError(
                "scenario vectors must be the product of the stage supports, "
                "last stage fastest"
            )
        total = math.fsum(p for _, p in self.scenarios)
        if not abs(total - 1.0) <= 1e-8:  # a NaN fails too
            raise ValueError(f"scenario probabilities sum to {total!r}")

    @property
    def num_scenarios(self) -> int:
        return len(self.scenarios)

    @cached_property
    def probabilities(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.scenarios)

    @cached_property
    def vectors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(v for v, _ in self.scenarios)

    @cached_property
    def stage_capacities(self) -> tuple[MappingProxyType, ...]:
        """Per stage, a read-only map of each distinct capacity of its
        atoms to its probability, in ascending capacity. Atoms that
        collide after rounding merge, their probabilities summed."""
        marginals = []
        for stage in self.stage_pmfs:
            merged: dict = {}
            for capacity, prob in stage.atoms:
                merged[capacity] = merged.get(capacity, 0.0) + prob
            marginals.append(MappingProxyType(dict(sorted(merged.items()))))
        return tuple(marginals)


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
        raise ValueError("no PMFs to cluster")
    horizon = len(pmfs)
    if horizon < 2:
        raise ValueError("need at least 2 intervals to cluster")
    if not 0 <= n <= horizon - 1:
        raise ValueError(
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
        raise ValueError("cannot average zero PMFs")
    terms: dict = {}
    for p in members:
        for s, w in zip(p.support, p.weights):
            terms.setdefault(s, []).append(w)
    support = sorted(terms)
    return make_pmf(support, [math.fsum(terms[s]) / len(members) for s in support])


def _optimal_cuts(support, weights, k) -> list[int]:
    """The cuts 0 = c_0 < c_1 < ... < c_k = m that split the m sorted
    points into the k runs c_{j-1}..c_j - 1 of least total weighted sum
    of squares about each run's mean.

    sse[i][j] is the cost of the run i..j - 1, grown one point at a
    time by the weighted mean update, which never divides by a mass
    lost to rounding. best[j][i] is the least cost of j + 1 runs on the
    points from i on. The cuts are read from the left: each is the
    first position whose best completion exceeds the least by at most
    1e-12 times the one-run cost, so a tie goes to the leftmost cut.
    """
    m = len(support)
    sse = [[0.0] * (m + 1) for _ in range(m)]
    for i in range(m):
        mass = mean = cost = 0.0
        for j in range(i, m):
            mass += weights[j]
            delta = support[j] - mean
            mean += delta * weights[j] / mass
            cost += weights[j] * delta * (support[j] - mean)
            sse[i][j + 1] = cost
    best = [[sse[i][m] for i in range(m)]]
    for j in range(1, k):
        best.append([
            min(sse[i][c] + best[j - 1][c] for c in range(i + 1, m - j + 1))
            for i in range(m - j)
        ])
    tolerance = 1e-12 * sse[0][m]
    cuts = [0]
    for j in range(k - 1, 0, -1):
        i = cuts[-1]
        cuts.append(next(
            c for c in range(i + 1, m - j + 1)
            if sse[i][c] + best[j - 1][c] <= best[j][i] + tolerance
        ))
    return cuts + [m]


def compress_pmf_kmeans(p: Pmf, k: int) -> ReducedPmf:
    """Collapse a PMF to k atoms by exact weighted 1-D K-means.

    The support points that carry mass are split into the k clusters
    of least within-cluster weighted sum of squares. Optimal clusters on
    the line are runs of consecutive points, so a dynamic program over
    the cut positions finds them (Wang & Song, Ckmeans.1d.dp, 2011).
    Ties go to the leftmost cuts: among partitions whose costs agree
    within 1e-12 times the PMF's variance, the one with the
    lexicographically smallest cuts wins, so support (0, 2, 4) with
    equal weights splits into {0} and {2, 4} at k = 2.

    Each output atom gets the summed probability of its members and the
    probability-weighted mean support rounded half-up. Zero-weight
    support points carry no mass and are ignored.
    """
    positive = [(s, w) for s, w in zip(p.support, p.weights) if w > 0]
    if k < 1:
        raise ValueError("need at least one cluster")
    if k > len(positive):
        raise ValueError(
            f"{k} clusters requested but only {len(positive)} atoms carry mass"
        )
    support = [float(s) for s, _ in positive]
    weights = [w for _, w in positive]

    cuts = _optimal_cuts(support, weights, k)
    atoms = []
    for lo, hi in zip(cuts, cuts[1:]):
        mass = math.fsum(weights[lo:hi])
        centroid = math.fsum(s * w for s, w in zip(support[lo:hi], weights[lo:hi])) / mass
        atoms.append((math.floor(centroid + 0.5), mass))
    return ReducedPmf(tuple(atoms))


def build_scenario_tree(
    clustering: TimeClustering,
    k_per_stage: int,
    airport: str = "",
    op_type: str = "",
) -> ScenarioTree:
    """Compress each stage representative and enumerate all scenarios.

    Each stage keeps min(k_per_stage, its atoms that carry mass) atoms:
    a representative with no more atoms than that is its own best
    compression. The scenarios are the product of the stage atoms, as
    _product enumerates it, cap included.
    """
    stage_pmfs = tuple(
        compress_pmf_kmeans(rep, min(k_per_stage, sum(1 for w in rep.weights if w > 0)))
        for rep in clustering.representatives
    )
    return ScenarioTree(airport, op_type, stage_pmfs, clustering, _product(stage_pmfs))


# ---------------------------------------------------------------------------
# JSON files


def tree_to_dict(tree: ScenarioTree) -> dict:
    return {
        "airport": tree.airport,
        "op_type": tree.op_type,
        "boundaries": list(tree.time_clusters.boundaries),
        "segments": [list(seg) for seg in tree.time_clusters.segments],
        "representatives": [pmf_to_dict(p) for p in tree.time_clusters.representatives],
        "stages": [[[s, p] for s, p in stage.atoms] for stage in tree.stage_pmfs],
    }


def tree_from_dict(body: dict) -> ScenarioTree:
    """Rebuild a tree from its stage atoms, its scenarios their product.

    A body that also lists scenarios, as files written before trees
    were stored as their stages did, must list exactly that product: its
    entries pass the checks ScenarioTree makes, then any probability
    other than the product's is refused."""
    clustering = TimeClustering(
        tuple(map(as_whole, body["boundaries"])),
        tuple(tuple(map(as_whole, seg)) for seg in body["segments"]),
        tuple(pmf_from_dict(rep) for rep in body["representatives"]),
    )
    stages = tuple(
        ReducedPmf(tuple((as_whole(s), as_real(p)) for s, p in stage)) for stage in body["stages"]
    )
    product = _product(stages)
    listed = product
    if "scenarios" in body:
        listed = tuple((tuple(map(as_whole, v)), as_real(p)) for v, p in body["scenarios"])
    tree = ScenarioTree(body["airport"], body["op_type"], stages, clustering, listed)
    if listed != product:
        raise ValueError(
            "scenario probabilities must be the products of their stage atoms' probabilities"
        )
    return tree


def save_trees(path, trees: list[ScenarioTree]) -> None:
    write_json(path, [tree_to_dict(t) for t in trees])


def load_trees(path) -> list[ScenarioTree]:
    return load_input(path, "trees", lambda body: [tree_from_dict(d) for d in body])
