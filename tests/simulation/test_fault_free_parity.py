"""Fault-free parity: the all-zero plan reproduces the legacy model exactly.

The event-driven transport replaced a closed-form accountant (downlink = max
over per-station transfers, uplink = sum at the shared ingress, bytes = real
wire encodings).  Under the fault-free plan the two must agree *byte-for-byte
and bit-for-bit*: identical communication bytes, identical simulated
transmission times (float-exact, not approximate), identical match results as
a direct in-process protocol execution.  This pins the acceptance criterion
that today's Figure-4 numbers survive the transport swap unchanged.
"""

import pytest

from repro.baselines.bf_matching import BloomFilterProtocol
from repro.baselines.naive import NaiveProtocol
from repro.cluster import Cluster
from repro.core.dimatching import DIMatchingProtocol
from repro.distributed.messages import Message, MessageKind
from repro.distributed.network import NetworkConfig

from .conftest import environment_for


def _protocol(method, config):
    if method == "naive":
        return NaiveProtocol(epsilon=config.epsilon)
    if method == "bf":
        return BloomFilterProtocol(config)
    return DIMatchingProtocol(config)


def _legacy_model(method, env):
    """The pre-transport closed-form accounting, recomputed from scratch."""
    network_config = NetworkConfig()
    protocol = _protocol(method, env.config)
    artifact = protocol.encode(list(env.queries))
    stations = [
        (station_id, env.dataset.local_patterns_at(station_id))
        for station_id in env.dataset.station_ids
        if len(env.dataset.local_patterns_at(station_id))
    ]
    kind = MessageKind.FILTER_DISSEMINATION if artifact is not None else MessageKind.CONTROL
    downlink_sizes = [
        Message("data-center", station_id, kind, artifact).size_bytes()
        for station_id, _patterns in stations
    ]
    uplink_sizes = []
    all_reports = []
    for station_id, patterns in stations:
        reports = protocol.station_match(station_id, patterns, artifact)
        message = Message(station_id, "data-center", MessageKind.MATCH_REPORT, reports)
        uplink_sizes.append(message.size_bytes())
        all_reports.extend(reports)
    results = protocol.aggregate(all_reports, None)
    transmission = max(
        network_config.transfer_time_s(size) for size in downlink_sizes
    ) + sum(network_config.transfer_time_s(size) for size in uplink_sizes)
    return {
        "downlink_bytes": sum(downlink_sizes),
        "uplink_bytes": sum(uplink_sizes),
        "message_count": len(downlink_sizes) + len(uplink_sizes),
        "transmission_time_s": transmission,
        "report_count": len(all_reports),
        "results": results,
    }


@pytest.mark.parametrize("method", ["naive", "bf", "wbf"])
def test_zero_fault_plan_reproduces_legacy_numbers_exactly(method):
    env = environment_for(31)
    legacy = _legacy_model(method, env)
    outcome = Cluster.adopt(env.dataset, fault_plan="none", net_seed=0).drive(
        _protocol(method, env.config), list(env.queries)
    )
    assert outcome.costs.downlink_bytes == legacy["downlink_bytes"]
    assert outcome.costs.uplink_bytes == legacy["uplink_bytes"]
    assert outcome.costs.message_count == legacy["message_count"]
    # Bit-identical virtual time, not approximately equal: the event loop's
    # float arithmetic must match the closed form operation for operation.
    assert outcome.costs.transmission_time_s == legacy["transmission_time_s"]
    assert outcome.costs.report_count == legacy["report_count"]
    assert outcome.results == legacy["results"]


def test_fault_free_round_has_clean_reliability_ledger(reference_outcome):
    costs = reference_outcome.costs
    assert costs.retransmit_count == 0
    assert costs.dropped_frame_count == 0
    assert costs.duplicate_frame_count == 0
    assert costs.corrupt_frame_count == 0
    assert costs.lost_station_count == 0
    assert costs.goodput_fraction == 1.0


def test_fault_free_transcript_is_one_send_one_deliver_per_message(reference_outcome):
    events = [entry.event for entry in reference_outcome.transcript]
    assert events.count("send") == reference_outcome.costs.message_count
    assert events.count("deliver") == reference_outcome.costs.message_count
    assert set(events) <= {"phase", "send", "deliver"}
