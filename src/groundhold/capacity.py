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

import math
from dataclasses import dataclass, fields
from datetime import datetime
from operator import attrgetter

import numpy as np

from .config import read_csv, write_csv
from .errors import MissingInputError
from .pmf import as_whole

ARRIVAL = "arrival"
DEPARTURE = "departure"
OP_TYPES = (ARRIVAL, DEPARTURE)

CRITERION_THROUGHPUT = "throughput"
CRITERION_DEMAND = "demand"
CRITERION_DELAY = "delay"
CRITERIA = (CRITERION_THROUGHPUT, CRITERION_DEMAND, CRITERION_DELAY)

RECORD_COLUMNS = ("airport", "op_type", "scheduled_time", "actual_time")
OBSERVATION_COLUMNS = ("airport", "op_type", "interval", "capacity", "criteria")

#: a flight counts as delayed once it runs more than this many minutes late
DELAYED_FLIGHT_MINUTES = 5.0


def _slot_setters(cls) -> tuple:
    """The __set__ of each of cls's field slots, in field order.

    The record types fill their slots through these: the __init__ that
    dataclass generates for a frozen class calls object.__setattr__ once
    per field, which nearly doubles the cost of building a record.
    """
    return tuple(getattr(cls, f.name).__set__ for f in fields(cls))


def _op_type_error(op_type) -> ValueError:
    return ValueError(f"op_type must be one of {OP_TYPES}, got {op_type!r}")


def _op_type(text: str) -> str:
    """text, which must be 'arrival' or 'departure'."""
    if text not in OP_TYPES:
        raise _op_type_error(text)
    return text


@dataclass(frozen=True, slots=True, init=False)
class OperationRecord:
    """One arrival or departure: where, when planned, when flown."""

    airport: str
    op_type: str
    scheduled_minute: float
    actual_minute: float

    def __init__(
        self, airport: str, op_type: str, scheduled_minute: float, actual_minute: float
    ):
        if op_type not in OP_TYPES:
            raise _op_type_error(op_type)
        set_airport, set_op_type, set_scheduled, set_actual = _RECORD_SETTERS
        set_airport(self, airport)
        set_op_type(self, op_type)
        set_scheduled(self, scheduled_minute)
        set_actual(self, actual_minute)


@dataclass(frozen=True, slots=True, init=False)
class IntervalStats:
    """Aggregates for one (airport, op_type, interval) cell."""

    airport: str
    op_type: str
    interval: int
    throughput: int
    scheduled_demand: int
    avg_delay: float
    delayed_count: int

    def __init__(
        self,
        airport: str,
        op_type: str,
        interval: int,
        throughput: int,
        scheduled_demand: int,
        avg_delay: float,
        delayed_count: int,
    ):
        (
            set_airport, set_op_type, set_interval, set_throughput,
            set_demand, set_avg_delay, set_delayed,
        ) = _STATS_SETTERS
        set_airport(self, airport)
        set_op_type(self, op_type)
        set_interval(self, interval)
        set_throughput(self, throughput)
        set_demand(self, scheduled_demand)
        set_avg_delay(self, avg_delay)
        set_delayed(self, delayed_count)


@dataclass(frozen=True, slots=True, init=False)
class CapacityObservation:
    """A saturated interval whose throughput is taken as capacity."""

    airport: str
    op_type: str
    interval: int
    capacity: int
    criteria: frozenset

    def __init__(
        self, airport: str, op_type: str, interval: int, capacity: int, criteria: frozenset
    ):
        set_airport, set_op_type, set_interval, set_capacity, set_criteria = (
            _OBSERVATION_SETTERS
        )
        set_airport(self, airport)
        set_op_type(self, op_type)
        set_interval(self, interval)
        set_capacity(self, capacity)
        set_criteria(self, criteria)


_RECORD_SETTERS = _slot_setters(OperationRecord)
_STATS_SETTERS = _slot_setters(IntervalStats)
_OBSERVATION_SETTERS = _slot_setters(CapacityObservation)


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
    must land inside [0, num_intervals * interval_minutes), else a
    ValueError names the first record, in sorted (airport, op_type)
    group order, that does not; a non-finite or non-positive
    interval_minutes or num_intervals < 1 also raises ValueError.
    """
    if not 0 < interval_minutes < math.inf:
        raise ValueError(
            f"interval_minutes must be finite and positive, got {interval_minutes}"
        )
    if num_intervals < 1:
        raise ValueError(f"num_intervals must be at least 1, got {num_intervals}")
    groups: dict[tuple[str, str], list[OperationRecord]] = {}
    for rec in records:
        groups.setdefault((rec.airport, rec.op_type), []).append(rec)

    stats = []
    for (airport, op_type), recs in sorted(groups.items()):
        scheduled = np.fromiter((r.scheduled_minute for r in recs), float, len(recs))
        actual = np.fromiter((r.actual_minute for r in recs), float, len(recs))
        with np.errstate(invalid="ignore"):  # an infinite time bins to NaN
            scheduled_bins = np.floor_divide(scheduled, interval_minutes)
            actual_bins = np.floor_divide(actual, interval_minutes)
        scheduled_out = ~((scheduled_bins >= 0) & (scheduled_bins < num_intervals))
        actual_out = ~((actual_bins >= 0) & (actual_bins < num_intervals))
        out = scheduled_out | actual_out
        if out.any():
            # the first bad record, its scheduled time checked before its actual
            k = int(out.argmax())
            if scheduled_out[k]:
                what, minute = "scheduled", recs[k].scheduled_minute
            else:
                what, minute = "actual", recs[k].actual_minute
            raise ValueError(
                f"{what} time {minute} of {airport} {op_type} record "
                f"is outside the {num_intervals}-interval horizon"
            )
        scheduled_bins = scheduled_bins.astype(np.int64)
        actual_bins = actual_bins.astype(np.int64)
        delay = actual - scheduled
        demand = np.bincount(scheduled_bins, minlength=num_intervals).tolist()
        throughput = np.bincount(actual_bins, minlength=num_intervals).tolist()
        delayed = np.bincount(
            actual_bins[delay > DELAYED_FLIGHT_MINUTES], minlength=num_intervals
        ).tolist()
        # early operations count as zero delay, as max(0.0, delay) does
        order = np.argsort(actual_bins, kind="stable")
        clipped = np.where(delay > 0.0, delay, 0.0)[order].tolist()
        start = 0
        for t in range(num_intervals):
            count = throughput[t]
            avg = math.fsum(clipped[start : start + count]) / count if count else 0.0
            start += count
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
        raise ValueError("cannot take a percentile of nothing")
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
    horizon_start, which is then required. A missing or repeated column,
    a row whose field count differs from the header's, an op_type other
    than 'arrival' or 'departure' or a time that does not parse raises
    MissingInputError naming the file, and the line and column of the
    first bad cell: a row's scheduled_time, then its actual_time, then
    its op_type.
    """
    if time_format not in ("minutes", "iso8601"):
        raise ValueError(f"unknown time format {time_format!r}")
    minutes = float
    if time_format == "iso8601":
        if horizon_start is None:
            raise MissingInputError("iso8601 records need a horizon_start")
        origin = datetime.fromisoformat(horizon_start)

        def minutes(text: str) -> float:
            return (datetime.fromisoformat(text) - origin).total_seconds() / 60.0

    parsers = {
        "airport": str, "scheduled_time": minutes, "actual_time": minutes, "op_type": _op_type,
    }
    return [
        OperationRecord(airport, op_type, scheduled, actual)
        for airport, scheduled, actual, op_type in read_csv(path, "records", parsers)
    ]


def write_capacity_observations(path, observations) -> None:
    write_csv(path, OBSERVATION_COLUMNS, (
        [o.airport, o.op_type, o.interval, o.capacity, "+".join(sorted(o.criteria))]
        for o in observations
    ))


def _whole(text: str) -> int:
    """A CSV cell such as "3" as a whole number of at least 0."""
    return as_whole(int(text))


def _criteria(text: str) -> frozenset:
    """The criteria of a "+"-joined list such as "demand+throughput"."""
    criteria = text.split("+")
    for criterion in criteria:
        if criterion not in CRITERIA:
            raise ValueError(f"criterion must be one of {CRITERIA}, got {criterion!r}")
    return frozenset(criteria)


def read_capacity_observations(path) -> list[CapacityObservation]:
    """Load observations from a CSV written by write_capacity_observations.

    A missing or repeated column, a row whose field count differs from
    the header's, an interval or capacity that is not a whole number of
    at least 0, an op_type other than 'arrival' or 'departure' or an
    empty or unknown criterion raises MissingInputError naming the file,
    and the line and column of the first bad cell, a row's cells taken
    in column order.
    """
    parsers = dict(zip(OBSERVATION_COLUMNS, (str, _op_type, _whole, _whole, _criteria)))
    return [CapacityObservation(*row) for row in read_csv(path, "capacity observations", parsers)]


def write_interval_stats(path, stats) -> None:
    header = [f.name for f in fields(IntervalStats)]
    write_csv(path, header, map(attrgetter(*header), stats))
