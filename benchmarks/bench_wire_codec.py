"""Microbenchmarks of the binary wire codec.

Measures encode/decode throughput for the artifacts the simulated environment
actually ships — the Figure-4-scale WBF dissemination batch and a station's
match-report upload — plus the zlib-compressed variant.  The broadcast path additionally exercises
``encode_cached``: the simulator encodes one artifact per *round*, not per
station, and this benchmark keeps that O(1) re-send property honest.

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_wire_codec.py
"""

from fractions import Fraction

from conftest import write_json_result

from repro import wire
from repro.core.config import DIMatchingConfig
from repro.core.encoder import PatternEncoder
from repro.core.protocol import MatchReport
from repro.distributed.messages import Message, MessageKind
from repro.timeseries.pattern import LocalPattern
from repro.timeseries.query import QueryPattern

QUERY_COUNT = 12
REPORT_COUNT = 500


def _queries() -> list[QueryPattern]:
    queries = []
    for index in range(QUERY_COUNT):
        values_a = [(index + offset) % 5 for offset in range(24)]
        values_b = [(index * 3 + offset) % 4 for offset in range(24)]
        queries.append(
            QueryPattern(
                f"query-{index:04d}",
                [
                    LocalPattern(f"user-{index}", values_a, "s1"),
                    LocalPattern(f"user-{index}", values_b, "s2"),
                ],
            )
        )
    return queries


def _batch():
    config = DIMatchingConfig(sample_count=12, epsilon=1)
    return PatternEncoder(config).encode_batch(_queries())


def _reports() -> list[MatchReport]:
    return [
        MatchReport(
            user_id=f"user-{index:05d}",
            station_id="station-7",
            weight=Fraction(index % 13 + 1, 17),
            query_id=f"query-{index % QUERY_COUNT:04d}",
        )
        for index in range(REPORT_COUNT)
    ]


def test_encode_dissemination_batch(benchmark):
    batch = _batch()

    data = benchmark(lambda: wire.encode(batch))
    assert data[:4] == wire.MAGIC


def test_decode_dissemination_batch(benchmark):
    data = wire.encode(_batch())

    decoded = benchmark(lambda: wire.decode(data))
    assert decoded.query_count == QUERY_COUNT


def test_encode_dissemination_batch_compressed(benchmark):
    batch = _batch()

    data = benchmark(lambda: wire.encode(batch, compress=True))
    assert wire.decode(data) == batch


def test_broadcast_reuses_cached_encoding(benchmark):
    """One round's broadcast: N station messages sharing one encoded artifact."""
    batch = _batch()
    stations = [f"station-{index}" for index in range(64)]
    wire.encode_cached(batch)  # warm, as after the first send

    def broadcast() -> int:
        total = 0
        for station in stations:
            message = Message("data-center", station, MessageKind.FILTER_DISSEMINATION, batch)
            total += message.size_bytes()
        return total

    total = benchmark(broadcast)
    assert total >= 64 * len(wire.encode_cached(batch))


def test_encode_report_upload(benchmark):
    reports = _reports()

    data = benchmark(lambda: wire.encode(reports))
    assert len(data) > REPORT_COUNT  # at least a byte per report, clearly more


def test_decode_report_upload(benchmark):
    data = wire.encode(_reports())

    decoded = benchmark(lambda: wire.decode(data))
    assert len(decoded) == REPORT_COUNT


def test_write_machine_readable_sizes(benchmark):
    """Persist the deterministic encoded sizes as BENCH_wire_codec.json."""
    batch = _batch()
    reports = _reports()

    plain = benchmark(lambda: wire.encode(batch))
    compressed = wire.encode(batch, compress=True)
    report_bytes = wire.encode(reports)
    payload = {
        "query_count": QUERY_COUNT,
        "report_count": REPORT_COUNT,
        "batch_bytes": len(plain),
        "batch_bytes_zlib": len(compressed),
        "report_upload_bytes": len(report_bytes),
        "bytes_per_report": len(report_bytes) / REPORT_COUNT,
    }
    path = write_json_result("wire_codec", payload)
    assert path.name == "BENCH_wire_codec.json"
    assert len(compressed) < len(plain)
