"""Unit tests for CDR records and aggregation."""

import pytest

from repro.datagen.cdr import (
    CallDetailRecord,
    CallType,
    CellDetailListEntry,
    aggregate_records_to_attributes,
)


def _record(start, duration=60, caller="u1", callee="p1", station="bs-1"):
    return CallDetailRecord(
        caller_id=caller,
        callee_id=callee,
        station_id=station,
        start_time_s=start,
        duration_s=duration,
    )


class TestCallDetailRecord:
    def test_construction(self):
        record = _record(10)
        assert record.call_type is CallType.OUTGOING

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            _record(-1)
        with pytest.raises(ValueError):
            _record(0, duration=-5)


class TestCellDetailListEntry:
    def test_construction(self):
        entry = CellDetailListEntry("bs-1", 1.0, 2.0)
        assert entry.station_id == "bs-1"


class TestAggregation:
    def test_counts_calls_per_interval(self):
        records = [_record(10), _record(20), _record(3700)]
        attrs = aggregate_records_to_attributes(records, "u1", 3600, 2)
        assert attrs[0].call_count == 2
        assert attrs[1].call_count == 1

    def test_sums_durations(self):
        records = [_record(0, duration=30), _record(5, duration=45)]
        attrs = aggregate_records_to_attributes(records, "u1", 3600, 1)
        assert attrs[0].call_duration == 75

    def test_counts_distinct_partners(self):
        records = [
            _record(0, callee="a"),
            _record(1, callee="a"),
            _record(2, callee="b"),
        ]
        attrs = aggregate_records_to_attributes(records, "u1", 3600, 1)
        assert attrs[0].partner_count == 2

    def test_ignores_other_callers(self):
        records = [_record(0, caller="someone-else")]
        attrs = aggregate_records_to_attributes(records, "u1", 3600, 1)
        assert attrs[0].call_count == 0

    def test_ignores_records_beyond_horizon(self):
        records = [_record(3600 * 5)]
        attrs = aggregate_records_to_attributes(records, "u1", 3600, 2)
        assert all(a.call_count == 0 for a in attrs)

    def test_returns_requested_interval_count(self):
        attrs = aggregate_records_to_attributes([], "u1", 60, 10)
        assert len(attrs) == 10

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            aggregate_records_to_attributes([], "u1", 0, 1)
        with pytest.raises(ValueError):
            aggregate_records_to_attributes([], "u1", 60, 0)
