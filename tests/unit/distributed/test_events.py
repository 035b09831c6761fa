"""Unit tests for the virtual-clock event loop and the transcript rendering."""

import pytest

from repro.distributed.events import EventLoop, TranscriptEntry, transcript_to_bytes


def _recorder():
    """A callback that appends ``(fire_time, *args)`` to the returned list."""
    fired = []

    def record(time_s, *args):
        fired.append((time_s, *args))

    return fired, record


class TestEventLoop:
    def test_events_fire_in_time_order(self):
        loop = EventLoop()
        fired, record = _recorder()
        for time_s, label in [(3.0, "c"), (1.0, "a"), (2.5, "b")]:
            loop.schedule(time_s, record, label)
        loop.run()
        assert fired == [(1.0, "a"), (2.5, "b"), (3.0, "c")]

    def test_equal_time_events_fire_in_scheduling_order(self):
        loop = EventLoop()
        fired, record = _recorder()
        for label in range(6):
            loop.schedule(1.0, record, label)
        loop.run()
        assert [label for _, label in fired] == list(range(6))

    def test_event_scheduled_in_the_past_fires_at_the_current_clock(self):
        loop = EventLoop()
        fired, record = _recorder()

        def reschedule_backwards(time_s):
            record(time_s, "first")
            loop.schedule(1.0, record, "late")

        loop.schedule(5.0, reschedule_backwards)
        loop.run()
        assert fired == [(5.0, "first"), (5.0, "late")]
        assert loop.now == 5.0

    def test_extra_args_reach_the_callback(self):
        loop = EventLoop()
        fired, record = _recorder()
        payload = object()
        loop.schedule(0.5, record, "frame", 3, payload)
        loop.schedule(0.75, record)
        loop.run()
        assert fired == [(0.5, "frame", 3, payload), (0.75,)]

    def test_callbacks_may_schedule_further_events(self):
        loop = EventLoop()
        fired, record = _recorder()

        def chain(time_s, remaining):
            record(time_s, remaining)
            if remaining:
                loop.schedule(time_s + 1.0, chain, remaining - 1)

        loop.schedule(0.0, chain, 2)
        assert loop.run() == 2.0
        assert fired == [(0.0, 2), (1.0, 1), (2.0, 0)]

    def test_reset_drops_pending_events(self):
        loop = EventLoop()
        fired, record = _recorder()
        loop.schedule(1.0, record, "dropped")
        loop.reset()
        assert loop.run() == 0.0
        assert fired == []

    def test_reset_rewinds_the_clock_to_the_given_time(self):
        loop = EventLoop()
        fired, record = _recorder()
        loop.schedule(4.0, record)
        loop.run()
        loop.reset(2.0)
        assert loop.now == 2.0
        # Scheduling before the rewound clock still never travels backwards.
        loop.schedule(1.0, record, "after-reset")
        loop.run()
        assert fired == [(4.0,), (2.0, "after-reset")]

    def test_run_returns_the_final_virtual_time(self):
        loop = EventLoop()
        _fired, record = _recorder()
        assert loop.run() == 0.0
        loop.schedule(0.75, record)
        loop.schedule(0.25, record)
        assert loop.run() == 0.75
        assert loop.now == 0.75


def reference_render(entry: TranscriptEntry) -> str:
    """A row's rendering as an f-string: what the format string replaced."""
    return (
        f"{entry.sequence} t={entry.time_s!r} {entry.event} "
        f"frame={entry.frame_id} attempt={entry.attempt} "
        f"{entry.sender}->{entry.recipient} kind={entry.kind} bytes={entry.size_bytes}"
    )


ROWS = [
    TranscriptEntry(0, 0.0, "phase", 0, 0, "data-center", "*", "uplink", 0),
    TranscriptEntry(1, -0.0, "send", 1, 1, "bs-0", "data-center", "match_report", 9),
    TranscriptEntry(2, 1e300, "deliver", 2, 3, "bs-ü", "région-7", "control", 10**19),
    TranscriptEntry(3, 5e-324, "drop", 12345678901234567890, 2, "站-1", "ß", "x", 1),
    TranscriptEntry(4, 0.1 + 0.2, "retransmit", 7, 99, "a b", "c->d", "k=v", -1),
    TranscriptEntry(
        98765432109876543210, 123456.789e10, "timeout", 3, 1, "", "", "", 2**70
    ),
    TranscriptEntry(5, float("inf"), "corrupt", 4, 1, "s", "r", "k", 0),
]


class TestTranscriptRendering:
    @pytest.mark.parametrize("row", ROWS, ids=[str(row.sequence) for row in ROWS])
    def test_a_row_renders_as_the_f_string_did(self, row):
        assert row.render() == reference_render(row)

    def test_a_transcript_is_its_rows_joined(self):
        expected = "\n".join(reference_render(row) for row in ROWS).encode("utf-8")
        assert transcript_to_bytes(ROWS) == expected
        assert transcript_to_bytes(tuple(ROWS)) == expected
        assert transcript_to_bytes([]) == b""
