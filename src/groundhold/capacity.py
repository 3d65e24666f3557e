"""Turn per-flight operation records into airport capacity observations.

Throughput only reveals capacity while an airport is saturated, so each
15-minute interval is kept as an observation only when at least one of
three signals fires:

* throughput  - the interval's throughput reaches the airport's
  saturation threshold (a high percentile of its throughput history);
* demand      - flights were scheduled but the served fraction stayed at
  or below a cut-off, i.e. demand visibly outstripped service;
* delay       - average departure/arrival delay is high and more than a
  handful of flights were actually delayed.

For intervals that qualify, observed capacity := observed throughput.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime

from .errors import (
    EmptySeriesError,
    MissingInputError,
    TimestampOutOfHorizonError,
)

ARRIVAL = "arrival"
DEPARTURE = "departure"
OP_TYPES = (ARRIVAL, DEPARTURE)

CRITERION_THROUGHPUT = "throughput"
CRITERION_DEMAND = "demand"
CRITERION_DELAY = "delay"

#: a flight counts as delayed once it runs more than this many minutes late
DELAYED_FLIGHT_MINUTES = 5.0


@dataclass(frozen=True)
class OperationRecord:
    """One arrival or departure: where, when planned, when flown."""

    airport: str
    op_type: str
    scheduled_minute: float
    actual_minute: float

    def __post_init__(self):
        if self.op_type not in OP_TYPES:
            raise ValueError(f"op_type must be one of {OP_TYPES}")

    @property
    def delay_minutes(self) -> float:
        return self.actual_minute - self.scheduled_minute


@dataclass(frozen=True)
class IntervalStats:
    """Aggregates for one (airport, op_type, interval) cell."""

    airport: str
    op_type: str
    interval: int
    throughput: int
    scheduled_demand: int
    avg_delay: float
    delayed_count: int


@dataclass(frozen=True)
class CapacityObservation:
    """A saturated interval whose throughput is taken as capacity."""

    airport: str
    op_type: str
    interval: int
    capacity: int
    criteria: frozenset


def aggregate_intervals(
    records: list[OperationRecord],
    num_intervals: int,
    interval_minutes: float = 15.0,
) -> list[IntervalStats]:
    """Bin records into fixed intervals per (airport, op_type).

    Throughput counts flights by actual time, scheduled demand by
    scheduled time. Average delay is taken over the flights operated in
    the interval with early operations clipped to zero delay; the
    delayed count uses the raw delay. Both scheduled and actual times
    must land inside [0, num_intervals * interval_minutes).
    """
    groups: dict[tuple[str, str], list[OperationRecord]] = {}
    for rec in records:
        groups.setdefault((rec.airport, rec.op_type), []).append(rec)

    def bin_of(minute: float, what: str, rec: OperationRecord) -> int:
        b = int(minute // interval_minutes)
        if not 0 <= b < num_intervals:
            raise TimestampOutOfHorizonError(
                f"{what} time {minute} of {rec.airport} {rec.op_type} record "
                f"is outside the {num_intervals}-interval horizon"
            )
        return b

    stats = []
    for (airport, op_type), recs in sorted(groups.items()):
        throughput = [0] * num_intervals
        demand = [0] * num_intervals
        delays: list[list[float]] = [[] for _ in range(num_intervals)]
        delayed = [0] * num_intervals
        for rec in recs:
            demand[bin_of(rec.scheduled_minute, "scheduled", rec)] += 1
            b = bin_of(rec.actual_minute, "actual", rec)
            throughput[b] += 1
            delays[b].append(max(0.0, rec.delay_minutes))
            if rec.delay_minutes > DELAYED_FLIGHT_MINUTES:
                delayed[b] += 1
        for t in range(num_intervals):
            avg = math.fsum(delays[t]) / len(delays[t]) if delays[t] else 0.0
            stats.append(
                IntervalStats(
                    airport, op_type, t, throughput[t], demand[t], avg, delayed[t]
                )
            )
    return stats


def saturation_threshold(throughputs, percentile: float = 0.9) -> float:
    """Nearest-rank percentile of a throughput history.

    The value at 1-based rank ceil(percentile * n) of the sorted sample,
    so the result is always an actually observed throughput.
    """
    values = sorted(throughputs)
    if not values:
        raise EmptySeriesError("cannot take a percentile of nothing")
    if not 0.0 < percentile <= 1.0:
        raise ValueError("percentile must be in (0, 1]")
    rank = math.ceil(percentile * len(values))
    return float(values[rank - 1])


def estimate_capacities(
    stats: list[IntervalStats],
    alpha: float = 0.8,
    delay_threshold_minutes: float = 15.0,
    min_delayed: int = 2,
    percentile: float = 0.9,
) -> list[CapacityObservation]:
    """Keep the saturated intervals of an IntervalStats collection.

    alpha is the served-fraction cut-off for the demand criterion:
    throughput / scheduled_demand <= alpha flags the interval. Raising
    alpha can only add observations. The throughput criterion compares
    against the per-(airport, op_type) saturation threshold computed
    from the same stats and is skipped when that threshold is zero.
    """
    groups: dict[tuple[str, str], list[IntervalStats]] = {}
    for s in stats:
        groups.setdefault((s.airport, s.op_type), []).append(s)

    observations = []
    for (airport, op_type), cells in sorted(groups.items()):
        threshold = saturation_threshold(
            [c.throughput for c in cells], percentile
        )
        for cell in sorted(cells, key=lambda c: c.interval):
            hit = set()
            if threshold > 0 and cell.throughput >= threshold:
                hit.add(CRITERION_THROUGHPUT)
            if cell.scheduled_demand > 0 and (
                cell.throughput / cell.scheduled_demand <= alpha
            ):
                hit.add(CRITERION_DEMAND)
            if (
                cell.avg_delay >= delay_threshold_minutes
                and cell.delayed_count >= min_delayed
            ):
                hit.add(CRITERION_DELAY)
            if hit:
                observations.append(
                    CapacityObservation(
                        airport, op_type, cell.interval,
                        cell.throughput, frozenset(hit),
                    )
                )
    return observations


# ---------------------------------------------------------------------------
# CSV interfaces


def read_operation_records(
    path,
    time_format: str = "minutes",
    horizon_start: str | None = None,
) -> list[OperationRecord]:
    """Load records from a CSV with columns airport, op_type,
    scheduled_time, actual_time.

    time_format 'minutes' reads the time columns as minutes from the
    horizon start; 'iso8601' parses timestamps and measures minutes from
    horizon_start, which is then required.
    """
    if time_format not in ("minutes", "iso8601"):
        raise ValueError(f"unknown time format {time_format!r}")
    origin = None
    if time_format == "iso8601":
        if horizon_start is None:
            raise MissingInputError("iso8601 records need a horizon_start")
        origin = datetime.fromisoformat(horizon_start)

    def minutes(text: str) -> float:
        if origin is None:
            return float(text)
        return (datetime.fromisoformat(text) - origin).total_seconds() / 60.0

    records = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            records.append(
                OperationRecord(
                    airport=row["airport"],
                    op_type=row["op_type"],
                    scheduled_minute=minutes(row["scheduled_time"]),
                    actual_minute=minutes(row["actual_time"]),
                )
            )
    return records


def write_operation_records(path, records) -> None:
    """Counterpart of read_operation_records with minute timestamps."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["airport", "op_type", "scheduled_time", "actual_time"])
        for r in records:
            writer.writerow(
                [r.airport, r.op_type, repr(r.scheduled_minute), repr(r.actual_minute)]
            )


def write_capacity_observations(path, observations) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["airport", "op_type", "interval", "capacity", "criteria"])
        for o in observations:
            writer.writerow(
                [o.airport, o.op_type, o.interval, o.capacity,
                 "+".join(sorted(o.criteria))]
            )


def read_capacity_observations(path) -> list[CapacityObservation]:
    observations = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            observations.append(
                CapacityObservation(
                    airport=row["airport"],
                    op_type=row["op_type"],
                    interval=int(row["interval"]),
                    capacity=int(row["capacity"]),
                    criteria=frozenset(
                        c for c in row["criteria"].split("+") if c
                    ),
                )
            )
    return observations


def write_interval_stats(path, stats) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["airport", "op_type", "interval", "throughput",
             "scheduled_demand", "avg_delay", "delayed_count"]
        )
        for s in stats:
            writer.writerow(
                [s.airport, s.op_type, s.interval, s.throughput,
                 s.scheduled_demand, s.avg_delay, s.delayed_count]
            )
