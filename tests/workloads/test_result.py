"""The streaming aggregation layer in isolation."""

import pytest
from fractions import Fraction

from repro.workloads.result import (
    RoundMetrics,
    StreamingStat,
    WorkloadAggregator,
)


def _metrics(index: int, **overrides: object) -> RoundMetrics:
    fields = dict(
        round_index=index,
        query_count=4,
        active_station_count=3,
        joined=(),
        left=(),
        downlink_bytes=100 * (index + 1),
        uplink_bytes=10,
        precision=1.0,
        recall=1.0,
        latency_s=0.1 * (index + 1),
        goodput_fraction=1.0,
        retransmit_count=0,
        lost_station_count=0,
        batch_refreshed=index == 0,
    )
    fields.update(overrides)
    return RoundMetrics(**fields)


class TestStreamingStat:
    def test_summary_tracks_running_aggregates(self):
        stat = StreamingStat()
        for value in (5.0, 1.0, 3.0):
            stat.push(value)
        summary = stat.summary()
        assert summary.count == 3
        assert summary.total == 9.0
        assert summary.mean == 3.0
        assert summary.minimum == 1.0
        assert summary.maximum == 5.0

    def test_nearest_rank_percentiles(self):
        stat = StreamingStat()
        for value in range(1, 101):  # 1..100
            stat.push(float(value))
        assert stat.percentile(50) == 50.0
        assert stat.percentile(90) == 90.0
        assert stat.percentile(99) == 99.0
        assert stat.percentile(100) == 100.0
        assert stat.percentile(1) == 1.0

    def test_percentile_of_a_single_value_is_that_value(self):
        stat = StreamingStat()
        stat.push(7.0)
        summary = stat.summary()
        assert summary.p50 == summary.p90 == summary.p99 == 7.0

    def test_empty_stream_rejects_queries(self):
        stat = StreamingStat()
        with pytest.raises(ValueError):
            stat.summary()
        with pytest.raises(ValueError):
            stat.percentile(50)

    def test_percentile_bounds_validated(self):
        stat = StreamingStat()
        stat.push(1.0)
        with pytest.raises(ValueError):
            stat.percentile(0)
        with pytest.raises(ValueError):
            stat.percentile(101)

    def test_interleaved_reads_stay_correct(self):
        # Reads force a lazy re-sort; pushes after a read must be folded into
        # the next read, repeatedly.
        stat = StreamingStat()
        for value in (9.0, 2.0):
            stat.push(value)
        assert stat.percentile(50) == 2.0
        stat.push(1.0)
        assert stat.summary().minimum == 1.0
        assert stat.percentile(100) == 9.0
        stat.push(11.0)
        assert stat.percentile(100) == 11.0
        assert stat.summary().count == 4

    def test_hundred_thousand_values_push_fast_and_rank_exactly(self):
        # Regression guard for the old O(n) insort push (quadratic overall)
        # and the float nearest-rank formula (can misrank at large counts).
        import random
        import time

        count = 100_000
        values = [float(v) for v in range(count)]
        random.Random(7).shuffle(values)
        stat = StreamingStat()
        start = time.perf_counter()
        for value in values:
            stat.push(value)
        summary = stat.summary()
        elapsed = time.perf_counter() - start
        # The insort implementation takes minutes here; the amortized one is
        # well under a second — 5s leaves room for slow CI machines.
        assert elapsed < 5.0
        assert summary.count == count
        assert summary.minimum == 0.0
        assert summary.maximum == float(count - 1)
        # Exact nearest-rank against the definition: rank = ceil(n*q/100).
        ordered = sorted(values)
        for q in (1, 50, 90, 99, 100):
            rank = -(-count * q // 100)
            assert stat.percentile(q) == ordered[rank - 1]
        # Fractional percentiles: the rank is computed in exact rational
        # arithmetic, so an exact-decimal q lands exactly on its boundary
        # (29.3% of 100k = rank 29300, no float rounding involved) ...
        assert stat.percentile(Fraction("29.3")) == ordered[29300 - 1]
        # ... and a float q means its *decimal* face value, not its binary
        # expansion: float 29.3 is slightly above decimal 29.3, and the old
        # Fraction(q) conversion let that push the ceiling one rank too far.
        assert stat.percentile(29.3) == ordered[29300 - 1]
        assert stat.percentile(99.9) == stat.percentile(Fraction("99.9"))
        assert stat.percentile(99.9) == ordered[99900 - 1]

    def test_float_percentiles_match_their_decimal_fractions_at_boundaries(self):
        # Boundary sweep at a large count: every one-decimal float percentile
        # agrees with its exact decimal Fraction — the satellite bugfix claim.
        count = 10_000
        stat = StreamingStat()
        for value in range(count):
            stat.push(float(value))
        for tenths in range(1, 1001):  # 0.1 .. 100.0
            q = tenths / 10.0
            assert stat.percentile(q) == stat.percentile(Fraction(tenths, 10))

    def test_percentile_rejects_non_numeric_and_non_finite_q(self):
        stat = StreamingStat()
        stat.push(1.0)
        with pytest.raises(TypeError):
            stat.percentile("50")
        with pytest.raises(TypeError):
            stat.percentile(True)
        with pytest.raises(ValueError):
            stat.percentile(float("nan"))
        with pytest.raises(ValueError):
            stat.percentile(float("inf"))

    def test_total_uses_compensated_summation(self):
        # A naive running float sum loses the small terms entirely under
        # catastrophic cancellation; Neumaier compensation keeps them.
        import math

        stat = StreamingStat()
        values = [1.0, 1e100, 1.0, -1e100] * 2_500
        for value in values:
            stat.push(value)
        assert stat.total == math.fsum(values) == 5_000.0
        summary = stat.summary()
        assert summary.total == 5_000.0
        assert summary.mean == 5_000.0 / len(values)

    def test_long_stream_total_does_not_drift(self):
        # 100k pushes of a non-representable value: the compensated total
        # matches fsum exactly (the naive running sum drifts measurably, which
        # moved the reported mean on long workloads).
        import math

        stat = StreamingStat()
        values = [0.1] * 100_000
        for value in values:
            stat.push(value)
        assert stat.total == math.fsum(values)
        naive = 0.0
        for value in values:
            naive += value
        assert naive != math.fsum(values)  # the bug this guards against


class TestWorkloadAggregator:
    def _aggregator(self) -> WorkloadAggregator:
        return WorkloadAggregator(
            scenario="demo",
            seed=7,
            drive="simulation",
            method="wbf",
            fault_profile="none",
        )

    def test_streams_fold_round_by_round(self):
        aggregator = self._aggregator()
        aggregator.add_round(_metrics(0), b"round-zero")
        first = aggregator.snapshot()
        aggregator.add_round(_metrics(1), b"round-one")
        second = aggregator.snapshot()
        assert first["bytes"].count == 1
        assert second["bytes"].count == 2
        assert second["bytes"].maximum > first["bytes"].maximum

    def test_rounds_must_arrive_in_order(self):
        aggregator = self._aggregator()
        aggregator.add_round(_metrics(0), b"")
        with pytest.raises(ValueError, match="in order"):
            aggregator.add_round(_metrics(2), b"")

    def test_finish_requires_at_least_one_round(self):
        with pytest.raises(ValueError, match="no rounds"):
            self._aggregator().finish()

    def test_result_totals_and_payload(self):
        aggregator = self._aggregator()
        aggregator.add_round(_metrics(0), b"alpha")
        aggregator.add_round(_metrics(1, retransmit_count=3), b"beta")
        result = aggregator.finish()
        assert result.total_bytes == 110 + 210
        assert result.total_queries == 8
        assert result.transcript_bytes() == (
            b"== round 0 ==\nalpha\n== round 1 ==\nbeta\n"
        )
        payload = result.to_payload()
        assert payload["totals"]["retransmits"] == 3
        assert payload["cumulative"]["latency_s"]["p50"] == 0.1

    def test_closed_loop_payload_has_no_open_loop_fields(self):
        # Closed-loop payload rows must stay byte-identical to the committed
        # benchmark baselines: the open-loop-only RoundMetrics fields are
        # stripped and no "phases" key appears.
        aggregator = self._aggregator()
        aggregator.add_round(_metrics(0), b"alpha")
        payload = aggregator.finish().to_payload()
        assert "phases" not in payload
        for row in payload["rounds"]:
            assert "phase" not in row
            assert "arrival_s" not in row
            assert "queue_delay_s" not in row
            assert "compute_time_s" not in row

    def test_phase_windows_fold_rounds_and_freeze(self):
        aggregator = self._aggregator()
        aggregator.begin_phase("plateau", offered_qps=2.0, duration_s=2.0, start_s=0.0)
        aggregator.add_round(
            _metrics(0, phase="plateau", arrival_s=0.5, queue_delay_s=0.0,
                     latency_s=0.1),
            b"a",
        )
        aggregator.add_round(
            _metrics(1, phase="plateau", arrival_s=1.0, queue_delay_s=0.2,
                     latency_s=0.3),
            b"b",
        )
        aggregator.begin_phase("drain", offered_qps=0.0, duration_s=1.0, start_s=2.0)
        result = aggregator.finish()
        plateau, drain = result.phases
        assert plateau.label == "plateau"
        assert plateau.arrival_count == 2
        assert plateau.offered_qps == 2.0
        # Completions (0.6, 1.3) fit inside the 2s wall: achieved = 2/2.
        assert plateau.achieved_qps == 1.0
        assert plateau.latency.maximum == 0.3
        assert plateau.queue_delay.maximum == 0.2
        assert drain.arrival_count == 0
        assert drain.latency is None and drain.queue_delay is None
        assert drain.achieved_qps == 0.0

    def test_achieved_qps_plateaus_when_completions_spill_past_the_wall(self):
        aggregator = self._aggregator()
        aggregator.begin_phase("spike", offered_qps=4.0, duration_s=1.0, start_s=0.0)
        # Four arrivals inside 1s whose last completion lands at t=2.0: the
        # window is judged over the 2s spill span, so achieved halves.
        for index in range(4):
            aggregator.add_round(
                _metrics(index, phase="spike", arrival_s=0.2 * (index + 1),
                         queue_delay_s=0.3 * index, latency_s=0.3 * index + 0.3),
                b"t",
            )
        (window,) = aggregator.finish().phases
        assert window.offered_qps == 4.0
        assert window.achieved_qps == pytest.approx(4.0 / 2.0)

    def test_open_loop_payload_carries_phases_and_round_fields(self):
        aggregator = self._aggregator()
        aggregator.begin_phase("plateau", offered_qps=1.0, duration_s=1.0)
        aggregator.add_round(
            _metrics(0, phase="plateau", arrival_s=0.5, queue_delay_s=0.1), b"a"
        )
        payload = aggregator.finish().to_payload()
        (phase_payload,) = payload["phases"]
        assert phase_payload["label"] == "plateau"
        assert phase_payload["arrival_count"] == 1
        assert phase_payload["latency"]["count"] == 1
        (row,) = payload["rounds"]
        assert row["phase"] == "plateau"
        assert row["arrival_s"] == 0.5
        assert row["queue_delay_s"] == 0.1
        assert "compute_time_s" not in row
