"""Capacity observation rules, from binning to criteria."""

import numpy as np
import pytest

import handcase
from groundhold.capacity import (
    CapacityObservation,
    IntervalStats,
    OperationRecord,
    aggregate_intervals,
    estimate_capacities,
    read_capacity_observations,
    read_operation_records,
    saturation_threshold,
    write_capacity_observations,
)
from groundhold.errors import EmptySeriesError, TimestampOutOfHorizonError


def test_nearest_rank_percentile():
    assert saturation_threshold(range(1, 11)) == 9.0
    assert saturation_threshold([10] * 6) == 10.0
    assert saturation_threshold([7]) == 7.0
    with pytest.raises(EmptySeriesError):
        saturation_threshold([])


def test_aggregate_counts_and_delays():
    recs = [
        OperationRecord("X", "arrival", 0.0, 0.0),
        OperationRecord("X", "arrival", 1.0, 7.0),   # 6 minutes late
        OperationRecord("X", "arrival", 2.0, 22.0),  # lands in bin 1
        OperationRecord("X", "arrival", 40.0, 10.0), # early, clipped
    ]
    stats = aggregate_intervals(recs, num_intervals=3)
    by_interval = {s.interval: s for s in stats}
    s0 = by_interval[0]
    assert s0.throughput == 3
    assert s0.scheduled_demand == 3
    assert s0.avg_delay == pytest.approx(2.0)  # (0 + 6 + 0) / 3
    assert s0.delayed_count == 1
    s1 = by_interval[1]
    assert s1.throughput == 1
    assert s1.scheduled_demand == 0
    assert s1.avg_delay == pytest.approx(20.0)
    assert s1.delayed_count == 1
    assert by_interval[2].throughput == 0


def test_delayed_count_uses_five_minute_cutoff():
    recs = [
        OperationRecord("X", "departure", 0.0, d) for d in (0.0, 6.0, 20.0)
    ]
    stats = aggregate_intervals(recs, num_intervals=2)
    assert sum(s.delayed_count for s in stats) == 2


def test_aggregate_rejects_out_of_horizon():
    with pytest.raises(TimestampOutOfHorizonError):
        aggregate_intervals(
            [OperationRecord("X", "arrival", 0.0, 300.0)], num_intervals=2
        )
    with pytest.raises(TimestampOutOfHorizonError):
        aggregate_intervals(
            [OperationRecord("X", "arrival", -1.0, 3.0)], num_intervals=2
        )


def test_aggregate_empty_records():
    assert aggregate_intervals([], num_intervals=4) == []


def test_hand_case_matches_expected_table():
    """The 12-interval day reproduces its hand-derived observations."""
    stats = aggregate_intervals(handcase.records(), handcase.NUM_INTERVALS)
    assert saturation_threshold(
        [s.throughput for s in stats]
    ) == handcase.EXPECTED_THRESHOLD
    observations = estimate_capacities(stats)
    got = {o.interval: (o.capacity, o.criteria) for o in observations}
    assert got == handcase.EXPECTED
    assert len(observations) / len(stats) == pytest.approx(10 / 12)


def test_capacity_equals_throughput():
    stats = aggregate_intervals(handcase.records(), handcase.NUM_INTERVALS)
    by_interval = {s.interval: s.throughput for s in stats}
    for o in estimate_capacities(stats):
        assert o.capacity == by_interval[o.interval]


def _random_stats(rng, n=40):
    return [
        IntervalStats(
            "Z", "departure", t,
            int(rng.integers(0, 12)),
            int(rng.integers(0, 15)),
            float(rng.uniform(0, 30)),
            int(rng.integers(0, 5)),
        )
        for t in range(n)
    ]


def test_alpha_monotonicity():
    """Raising the served-fraction cut-off never removes observations."""
    rng = np.random.default_rng(21)
    for _ in range(20):
        stats = _random_stats(rng)
        lo = {o.interval for o in estimate_capacities(stats, alpha=0.5)}
        hi = {o.interval for o in estimate_capacities(stats, alpha=0.9)}
        assert lo <= hi


def test_observation_csv_round_trip(tmp_path):
    stats = aggregate_intervals(handcase.records(), handcase.NUM_INTERVALS)
    observations = estimate_capacities(stats)
    path = tmp_path / "observations.csv"
    write_capacity_observations(path, observations)
    assert read_capacity_observations(path) == observations


def test_record_csv_minutes_and_iso(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(
        "airport,op_type,scheduled_time,actual_time\n"
        "AAA,departure,15.0,30.0\n"
    )
    (rec,) = read_operation_records(path)
    assert rec.scheduled_minute == 15.0 and rec.actual_minute == 30.0

    path.write_text(
        "airport,op_type,scheduled_time,actual_time\n"
        "AAA,departure,2024-05-01T09:15:00,2024-05-01T09:30:00\n"
    )
    (rec,) = read_operation_records(
        path, time_format="iso8601", horizon_start="2024-05-01T09:00:00"
    )
    assert rec.scheduled_minute == 15.0 and rec.actual_minute == 30.0
