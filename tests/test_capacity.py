"""Capacity observation rules, from binning to criteria."""

import copy
import dataclasses
import inspect
import pickle

import numpy as np
import pytest

import handcase
from oracles import looped_aggregate_intervals
from groundhold.capacity import (
    ARRIVAL,
    CRITERIA,
    DEPARTURE,
    CapacityObservation,
    IntervalStats,
    OperationRecord,
    aggregate_intervals,
    estimate_capacities,
    read_capacity_observations,
    read_operation_records,
    saturation_threshold,
    write_capacity_observations,
    write_interval_stats,
)
from groundhold.config import write_csv
from groundhold.errors import MissingInputError


def test_nearest_rank_percentile():
    assert saturation_threshold(range(1, 11)) == 9.0
    assert saturation_threshold([10] * 6) == 10.0
    assert saturation_threshold([7]) == 7.0
    with pytest.raises(ValueError, match="cannot take a percentile of nothing"):
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
    with pytest.raises(
        ValueError, match="actual time 300.0 of X arrival record is outside the 2-interval"
    ):
        aggregate_intervals(
            [OperationRecord("X", "arrival", 0.0, 300.0)], num_intervals=2
        )
    with pytest.raises(
        ValueError, match="scheduled time -1.0 of X arrival record is outside the 2-interval"
    ):
        aggregate_intervals(
            [OperationRecord("X", "arrival", -1.0, 3.0)], num_intervals=2
        )


def _seeded_records(seed, count, horizon_minutes):
    """Records over two airports and both op types with fractional
    minutes, some early, some exactly five minutes late, and none in the
    horizon's second quarter, so some bins stay empty."""
    rng = np.random.default_rng(seed)
    scheduled = rng.uniform(0.0, horizon_minutes, count)
    scheduled[::7] = np.floor(scheduled[::7])  # whole minutes, on bin edges too
    delay = rng.normal(4.0, 9.0, count)
    delay[::5] = np.round(delay[::5])  # whole minutes, on the delayed cut-off too
    actual = np.clip(scheduled + delay, 0.0, horizon_minutes - 1e-9)
    airports = rng.choice(["B", "A"], count)
    ops = rng.choice(["departure", "arrival"], count)
    gap = (0.25 * horizon_minutes, 0.5 * horizon_minutes)
    return [
        OperationRecord(str(a), str(o), float(s), float(t))
        for a, o, s, t in zip(airports, ops, scheduled, actual)
        if not (gap[0] <= s < gap[1] or gap[0] <= t < gap[1])
    ]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("interval_minutes", [15.0, 10, 1 / 3])
def test_aggregate_matches_the_record_loop(seed, interval_minutes):
    num_intervals = 12
    horizon = num_intervals * interval_minutes
    records = _seeded_records(seed, 400, horizon)
    stats = aggregate_intervals(records, num_intervals, interval_minutes)
    expected = looped_aggregate_intervals(records, num_intervals, interval_minutes)
    assert repr(stats) == repr(expected)  # same values and the same types
    assert any(s.throughput == 0 for s in stats)


@pytest.mark.parametrize("seed", range(4))
def test_aggregate_names_the_same_out_of_horizon_record(seed):
    """Out-of-horizon times at both ends, scheduled and actual, in each
    group in turn, with two bad records sharing the first group."""
    bad = [
        OperationRecord("A", "arrival", -0.5, 3.0),
        OperationRecord("A", "arrival", 7.0, 500.0),
        OperationRecord("A", "departure", 200.25, 181.5),
        OperationRecord("B", "arrival", 3.0, -1e-9),
        OperationRecord("B", "departure", 4.0, 180.0),
    ]
    rng = np.random.default_rng(100 + seed)
    for first in range(len(bad)):
        records = _seeded_records(seed, 200, 180.0)
        for rec in bad[first:]:
            records.insert(int(rng.integers(len(records) + 1)), rec)
        with pytest.raises(ValueError, match="outside the 12-interval horizon") as looped:
            looped_aggregate_intervals(records, 12)
        with pytest.raises(ValueError, match="outside the 12-interval horizon") as vectorised:
            aggregate_intervals(records, 12)
        assert str(vectorised.value) == str(looped.value)


@pytest.mark.parametrize(
    "num_intervals, interval_minutes",
    [(4, 0.0), (4, -15.0), (4, float("nan")), (4, float("inf")), (0, 15.0), (-3, 15.0)],
)
def test_aggregate_rejects_a_bad_grid(num_intervals, interval_minutes):
    records = [OperationRecord("X", "arrival", 0.0, 1.0)]
    with pytest.raises(ValueError, match="num_intervals|interval_minutes"):
        aggregate_intervals(records, num_intervals, interval_minutes)


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


@pytest.mark.parametrize("seed", range(3))
def test_stats_file_is_the_astuple_rows(tmp_path, seed):
    """write_interval_stats reads each field in place; its file has the
    bytes of one dataclasses.astuple row per cell."""
    stats = aggregate_intervals(_seeded_records(seed, 400, 180.0), 12)
    write_interval_stats(tmp_path / "stats.csv", stats)
    header = [f.name for f in dataclasses.fields(IntervalStats)]
    write_csv(tmp_path / "rows.csv", header, map(dataclasses.astuple, stats))
    assert (tmp_path / "stats.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_observation_csv_round_trip(tmp_path):
    stats = aggregate_intervals(handcase.records(), handcase.NUM_INTERVALS)
    observations = estimate_capacities(stats)
    path = tmp_path / "observations.csv"
    write_capacity_observations(path, observations)
    assert read_capacity_observations(path) == observations


OBSERVATIONS_HEADER = "airport,op_type,interval,capacity,criteria\n"


@pytest.mark.parametrize(
    "text,fault",
    [
        (
            OBSERVATIONS_HEADER + "A,arrival,x,4,throughput\n",
            "line 2, column 'interval': invalid literal for int() with base 10: 'x'",
        ),
        (
            OBSERVATIONS_HEADER + "A,arrival,3,2.5,throughput\n",
            "line 2, column 'capacity': invalid literal for int() with base 10: '2.5'",
        ),
        (
            OBSERVATIONS_HEADER + "A,arrival,3,-4,throughput\n",
            "line 2, column 'capacity': expected a whole number of at least 0, got -4",
        ),
        ("airport,op_type,interval,capacity\nA,arrival,3,4\n", "has no 'criteria' column"),
        (
            OBSERVATIONS_HEADER + "A,arrival,3,4,throughput\nA,arival,5,6,delay,9\n",
            "line 3 has 6 fields, its header 5",
        ),
        (
            OBSERVATIONS_HEADER + "A,arival,5,6,delay\n",
            "line 2, column 'op_type': op_type must be one of ('arrival', 'departure'), "
            "got 'arival'",
        ),
        (
            OBSERVATIONS_HEADER + "A,arrival,3,4,throughput+\n",
            "line 2, column 'criteria': criterion must be one of ('throughput', 'demand', "
            "'delay'), got ''",
        ),
        (
            OBSERVATIONS_HEADER + "A,arrival,3,4,\n",
            "line 2, column 'criteria': criterion must be one of ('throughput', 'demand', "
            "'delay'), got ''",
        ),
        (
            OBSERVATIONS_HEADER + "A,arrival,3,4,demand+speed\n",
            "line 2, column 'criteria': criterion must be one of ('throughput', 'demand', "
            "'delay'), got 'speed'",
        ),
    ],
    ids=[
        "interval not a number",
        "capacity not whole",
        "negative capacity",
        "no criteria column",
        "extra field and misspelled op_type",
        "misspelled op_type",
        "empty criterion",
        "no criterion",
        "unknown criterion",
    ],
)
def test_observation_csv_refuses_a_bad_file_naming_where(tmp_path, text, fault):
    """A malformed observations file raises MissingInputError naming the
    file and the fault; the same rows written by
    write_capacity_observations read back equal."""
    path = tmp_path / "observations.csv"
    path.write_text(text)
    with pytest.raises(MissingInputError) as refused:
        read_capacity_observations(path)
    assert str(refused.value) == f"capacity observations file {path} {fault}"
    observations = [
        CapacityObservation("A", ARRIVAL, 3, 4, frozenset(CRITERIA)),
        CapacityObservation("B", DEPARTURE, 5, 0, frozenset({"delay"})),
    ]
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


def test_record_csv_reads_columns_by_name_and_skips_blank_lines(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(
        "actual_time,tail,airport,scheduled_time,op_type\n"
        "30.0,N1,AAA,15.0,departure\n"
        "\n"
        "50.0,N2,BBB,45.0,arrival\n"
    )
    assert read_operation_records(path) == [
        OperationRecord("AAA", DEPARTURE, 15.0, 30.0),
        OperationRecord("BBB", ARRIVAL, 45.0, 50.0),
    ]


@pytest.mark.parametrize(
    "record",
    [
        OperationRecord("X", DEPARTURE, 10.0, 25.0),
        IntervalStats("X", DEPARTURE, 3, 4, 5, 2.5, 1),
        CapacityObservation("X", ARRIVAL, 3, 4, frozenset({"throughput"})),
    ],
    ids=lambda record: type(record).__name__,
)
def test_record_types_are_slotted_and_frozen(record):
    """The per-record types carry no __dict__, stay frozen and still
    take dataclasses.replace."""
    assert not hasattr(record, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.airport = "Y"
    moved = dataclasses.replace(record, airport="Y")
    assert (moved.airport, record.airport) == ("Y", "X")
    assert dataclasses.astuple(moved)[1:] == dataclasses.astuple(record)[1:]


#: per record type, its field values in order
FIELD_VALUES = {
    OperationRecord: ("X", DEPARTURE, 10.0, 25.0),
    IntervalStats: ("X", DEPARTURE, 3, 4, 5, 2.5, 1),
    CapacityObservation: ("X", ARRIVAL, 3, 4, frozenset({"throughput"})),
}
RECORD_TYPES = pytest.mark.parametrize(
    "cls", list(FIELD_VALUES), ids=lambda cls: cls.__name__
)


def _names(cls):
    return [f.name for f in dataclasses.fields(cls)]


@RECORD_TYPES
def test_record_constructors_take_positions_and_keywords_alike(cls):
    values = FIELD_VALUES[cls]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(_names(cls), values)))
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert repr(by_position) == repr(by_keyword)
    assert dataclasses.astuple(by_position) == values
    assert cls.__match_args__ == tuple(_names(cls))


@RECORD_TYPES
def test_record_constructors_refuse_a_missing_or_an_extra_argument(cls):
    values = FIELD_VALUES[cls]
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(*values, extra=1)


@RECORD_TYPES
def test_records_round_trip_through_pickle_and_deepcopy(cls):
    record = cls(*FIELD_VALUES[cls])
    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(clone) is cls
        assert clone == record and hash(clone) == hash(record)
        assert not hasattr(clone, "__dict__")


@RECORD_TYPES
def test_record_signature_lists_the_fields_in_order(cls):
    assert list(inspect.signature(cls).parameters) == _names(cls)


def test_bad_op_type_is_refused_however_the_record_is_built():
    message = r"^op_type must be one of \('arrival', 'departure'\), got 'arival'$"
    with pytest.raises(ValueError, match=message):
        OperationRecord("X", "arival", 10.0, 25.0)
    with pytest.raises(ValueError, match=message):
        OperationRecord(
            airport="X", op_type="arival", scheduled_minute=10.0, actual_minute=25.0
        )
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(OperationRecord("X", DEPARTURE, 10.0, 25.0), op_type="arival")
