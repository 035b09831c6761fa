"""Unit tests for the node classes."""

import pytest

from repro.baselines.naive import NaiveProtocol
from repro.core.config import DIMatchingConfig
from repro.core.dimatching import DIMatchingProtocol
from repro.distributed.basestation import BaseStationNode
from repro.distributed.datacenter import DATA_CENTER_NODE_ID, DataCenterNode
from repro.distributed.messages import Message, MessageKind
from repro.distributed.node import Node
from repro.timeseries.pattern import LocalPattern, PatternSet
from repro.timeseries.query import QueryPattern


def _query():
    return QueryPattern("q", [LocalPattern("alice", [1, 2, 3, 4], "bs-1")])


class TestNode:
    def test_receive_appends_to_inbox(self):
        node = Node("n1")
        message = Message("other", "n1", MessageKind.CONTROL)
        node.receive(message)
        assert node.inbox == [message]

    def test_receive_rejects_misaddressed_message(self):
        node = Node("n1")
        with pytest.raises(ValueError, match="addressed"):
            node.receive(Message("other", "n2", MessageKind.CONTROL))

    def test_clear_inbox(self):
        node = Node("n1")
        node.receive(Message("x", "n1", MessageKind.CONTROL))
        node.clear_inbox()
        assert node.inbox == []

    def test_repr(self):
        assert "n1" in repr(Node("n1"))


class TestBaseStationNode:
    def test_holds_patterns(self):
        patterns = PatternSet([LocalPattern("u", [1, 2, 3, 4], "bs-1")])
        station = BaseStationNode("bs-1", patterns)
        assert station.stored_pattern_count == 1

    def test_rejects_non_pattern_set(self):
        with pytest.raises(TypeError):
            BaseStationNode("bs-1", [LocalPattern("u", [1], "bs-1")])

    def test_station_patterns_match_with_wbf_protocol(self):
        protocol = DIMatchingProtocol(DIMatchingConfig(sample_count=4))
        artifact = protocol.encode([_query()])
        patterns = PatternSet([LocalPattern("alice", [1, 2, 3, 4], "bs-1")])
        station = BaseStationNode("bs-1", patterns)
        reports = protocol.station_match(station.node_id, station.patterns, artifact)
        assert [r.user_id for r in reports] == ["alice"]


class TestDataCenterNode:
    def test_default_id(self):
        assert DataCenterNode().node_id == DATA_CENTER_NODE_ID

    def test_the_protocol_runs_encode_and_aggregate(self):
        # The center node is an inbox; callers run both phases on the protocol.
        center = DataCenterNode()
        assert not hasattr(center, "encode") and not hasattr(center, "aggregate")
        protocol = NaiveProtocol(epsilon=0)
        assert protocol.encode([_query()]) is None
        results = protocol.aggregate([LocalPattern("alice", [1, 2, 3, 4], "bs-1")], k=None)
        assert results.user_ids() == ["alice"]

    def test_reports_grouped_by_sender_in_arrival_order(self):
        center = DataCenterNode()
        first = LocalPattern("alice", [1, 2, 3, 4], "bs-1")
        second = LocalPattern("bob", [5, 6, 7, 8], "bs-2")
        third = LocalPattern("carol", [1, 2, 3, 4], "bs-1")
        for sender, report in (("bs-1", first), ("bs-2", second), ("bs-1", third)):
            center.receive(
                Message(
                    sender, center.node_id, MessageKind.MATCH_REPORT, payload=[report]
                )
            )
        # Empty report lists still register the station as having reported.
        center.receive(
            Message("bs-3", center.node_id, MessageKind.MATCH_REPORT, payload=[])
        )
        # Non-report traffic is ignored entirely.
        center.receive(Message("bs-4", center.node_id, MessageKind.CONTROL))
        grouped = center.reports_by_sender()
        assert grouped == {"bs-1": [first, third], "bs-2": [second], "bs-3": []}

    def test_non_list_match_report_payload_raises(self):
        # A MATCH_REPORT whose payload is not a list is a protocol violation:
        # it must surface like transport corruption, never be coerced to "no
        # reports" (which would silently shrink the aggregation input).
        from repro.wire.errors import WireFormatError

        center = DataCenterNode()
        center.receive(
            Message(
                "bs-1",
                center.node_id,
                MessageKind.MATCH_REPORT,
                payload={"user": "alice"},
            )
        )
        with pytest.raises(WireFormatError, match="bs-1.*dict payload"):
            center.reports_by_sender()

    def test_none_match_report_payload_raises(self):
        from repro.wire.errors import WireFormatError

        center = DataCenterNode()
        center.receive(
            Message("bs-9", center.node_id, MessageKind.MATCH_REPORT, payload=None)
        )
        with pytest.raises(WireFormatError, match="NoneType"):
            center.reports_by_sender()
