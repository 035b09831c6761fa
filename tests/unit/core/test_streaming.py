"""Unit tests for the continuous (incremental) matching session."""

import warnings

import pytest

from repro.baselines.bf_matching import BloomFilterProtocol
from repro.core.config import DIMatchingConfig
from repro.core.dimatching import DIMatchingProtocol
from repro.core.streaming import ContinuousMatchingSession
from repro.timeseries.pattern import LocalPattern, PatternSet
from repro.timeseries.query import QueryPattern


def _query():
    return QueryPattern(
        "q0",
        [
            LocalPattern("alice", [1, 0, 2, 0], "bs-1"),
            LocalPattern("alice", [0, 3, 0, 4], "bs-2"),
        ],
    )


@pytest.fixture()
def session():
    return ContinuousMatchingSession(
        DIMatchingProtocol(DIMatchingConfig(sample_count=4)), [_query()]
    )


class TestConstruction:
    def test_encodes_once_at_construction(self, session):
        assert session.artifact is not None
        assert session.queries[0].query_id == "q0"
        assert session.update_count == 0

    def test_rejects_non_protocol(self):
        with pytest.raises(TypeError):
            ContinuousMatchingSession("wbf", [_query()])

    def test_rejects_empty_queries(self):
        with pytest.raises(ValueError):
            ContinuousMatchingSession(DIMatchingProtocol(), [])

    def test_plain_constructor_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            session = ContinuousMatchingSession(
                DIMatchingProtocol(DIMatchingConfig(sample_count=4)), [_query()]
            )
        assert session.update_count == 0


class TestUpdates:
    def test_update_station_produces_reports(self, session):
        count = session.update_station(
            "bs-1", PatternSet([LocalPattern("bob", [1, 0, 2, 0], "bs-1")])
        )
        assert count == 1
        assert session.station_ids == ["bs-1"]
        assert session.matching_runs == 1

    def test_results_refresh_as_stations_report(self, session):
        session.update_station(
            "bs-1", PatternSet([LocalPattern("bob", [1, 0, 2, 0], "bs-1")])
        )
        partial = session.current_results()
        assert partial.user_ids() == ["bob"]
        assert partial.users[0].score < 1.0

        session.update_station(
            "bs-2", PatternSet([LocalPattern("bob", [0, 3, 0, 4], "bs-2")])
        )
        complete = session.current_results()
        assert complete.users[0].score == 1.0

    def test_update_replaces_previous_station_state(self, session):
        session.update_station(
            "bs-1", PatternSet([LocalPattern("bob", [1, 0, 2, 0], "bs-1")])
        )
        # The user's data at bs-1 changes to something unrelated: the old report must
        # not linger.
        session.update_station(
            "bs-1", PatternSet([LocalPattern("bob", [9, 9, 9, 9], "bs-1")])
        )
        assert session.current_results().user_ids() == []

    def test_only_updated_station_is_rematched(self, session):
        session.update_station(
            "bs-1", PatternSet([LocalPattern("bob", [1, 0, 2, 0], "bs-1")])
        )
        session.update_station(
            "bs-2", PatternSet([LocalPattern("bob", [0, 3, 0, 4], "bs-2")])
        )
        runs_before = session.matching_runs
        session.update_station(
            "bs-2", PatternSet([LocalPattern("bob", [0, 3, 0, 4], "bs-2")])
        )
        assert session.matching_runs == runs_before + 1

    def test_remove_station(self, session):
        session.update_station(
            "bs-1", PatternSet([LocalPattern("bob", [1, 3, 2, 4], "bs-1")])
        )
        session.remove_station("bs-1")
        assert session.current_results().user_ids() == []

    def test_rejects_non_pattern_set(self, session):
        with pytest.raises(TypeError):
            session.update_station("bs-1", [LocalPattern("bob", [1, 0, 2, 0], "bs-1")])

    def test_top_k_cutoff(self, session):
        for index in range(3):
            session.update_station(
                f"bs-{index}",
                PatternSet([LocalPattern(f"user-{index}", [1, 3, 2, 4], f"bs-{index}")]),
            )
        assert len(session.current_results(k=2)) == 2


class TestWireDeltas:
    def test_updates_mark_stations_dirty_in_order(self, session):
        session.update_station("bs-2", PatternSet([LocalPattern("bob", [0, 3, 0, 4], "bs-2")]))
        session.update_station("bs-1", PatternSet([LocalPattern("bob", [1, 0, 2, 0], "bs-1")]))
        assert session.dirty_station_ids == ("bs-2", "bs-1")

    def test_no_updates_means_empty_delta(self, session):
        from repro.distributed.network import SimulatedNetwork
        from repro.distributed.node import Node

        center = Node("data-center")
        session.update_station("bs-1", PatternSet([LocalPattern("alice", [1, 0, 2, 0], "bs-1")]))
        session.ship_deltas(SimulatedNetwork(), center)
        shipped = session.delta_bytes_shipped
        assert session.ship_deltas(SimulatedNetwork(), center) == {}
        assert session.delta_bytes_shipped == shipped
        assert len(center.inbox) == 1

    def test_removed_station_is_not_shipped(self, session):
        from repro.distributed.network import SimulatedNetwork
        from repro.distributed.node import Node

        center = Node("data-center")
        session.update_station("bs-1", PatternSet([LocalPattern("alice", [1, 0, 2, 0], "bs-1")]))
        session.remove_station("bs-1")
        assert session.ship_deltas(SimulatedNetwork(), center) == {}
        assert center.inbox == []


class TestShipDeltas:
    def _dirty_session(self, session):
        session.update_station(
            "bs-1", PatternSet([LocalPattern("alice", [1, 0, 2, 0], "bs-1")])
        )
        session.update_station(
            "bs-2", PatternSet([LocalPattern("alice", [0, 3, 0, 4], "bs-2")])
        )
        return session

    def test_deltas_cross_the_wire_into_the_center(self, session):
        from repro.distributed.network import SimulatedNetwork
        from repro.distributed.node import Node

        self._dirty_session(session)
        center = Node("data-center")
        network = SimulatedNetwork()
        delivered = session.ship_deltas(network, center)
        assert set(delivered) == {"bs-1", "bs-2"}
        assert session.dirty_station_ids == ()
        assert session.delta_bytes_shipped == sum(len(d) for d in delivered.values())
        # The center decoded real report payloads off the wire.
        senders = {message.sender for message in center.inbox}
        assert senders == {"bs-1", "bs-2"}
        for message in center.inbox:
            assert [r.user_id for r in message.payload] == ["alice"]

    def test_strict_failure_marks_delivered_stations_clean_before_raising(self, session):
        from repro.distributed.events import RoundTimeoutError
        from repro.distributed.faults import FaultPlan
        from repro.distributed.network import NetworkConfig, SimulatedNetwork
        from repro.distributed.node import Node

        self._dirty_session(session)
        center = Node("data-center")
        # Seed 0 blacks out bs-1 past the retry horizon while bs-2 delivers,
        # so the strict gather raises after one station already landed.
        network = SimulatedNetwork(
            NetworkConfig(max_attempts=2),
            fault_plan=FaultPlan(
                blackout_probability=0.5, blackout_start_s=0.0, blackout_end_s=60.0
            ),
            seed=0,
        )
        with pytest.raises(RoundTimeoutError):
            session.ship_deltas(network, center)
        assert {message.sender for message in center.inbox} == {"bs-2"}
        # The delivered station is clean; only the failed one retries, so the
        # center can never receive bs-2's reports twice (exactly-once).
        assert set(session.dirty_station_ids) == {"bs-1"}
        delivered = session.ship_deltas(SimulatedNetwork(), center)
        assert set(delivered) == {"bs-1"}
        assert [message.sender for message in center.inbox].count("bs-2") == 1

    def test_timed_out_station_stays_dirty_for_the_next_shipment(self, session):
        from repro.distributed.faults import FaultPlan
        from repro.distributed.network import NetworkConfig, SimulatedNetwork
        from repro.distributed.node import Node

        self._dirty_session(session)
        center = Node("data-center")
        black_hole = SimulatedNetwork(
            NetworkConfig(max_attempts=2),
            fault_plan=FaultPlan(drop_probability=1.0),
            allow_partial=True,
        )
        assert session.ship_deltas(black_hole, center) == {}
        assert set(session.dirty_station_ids) == {"bs-1", "bs-2"}
        # A healthy network later retries and drains the dirty set.
        delivered = session.ship_deltas(SimulatedNetwork(), center)
        assert set(delivered) == {"bs-1", "bs-2"}
        assert session.dirty_station_ids == ()


class TestWithOtherProtocols:
    def test_works_with_plain_bf_protocol(self):
        session = ContinuousMatchingSession(
            BloomFilterProtocol(DIMatchingConfig(sample_count=4)), [_query()]
        )
        session.update_station(
            "bs-1", PatternSet([LocalPattern("bob", [1, 3, 2, 4], "bs-1")])
        )
        assert session.current_results().user_ids() == ["bob"]

    def test_repr(self, session):
        assert "ContinuousMatchingSession" in repr(session)


class TestReplaceQueries:
    def _bob_query(self):
        return QueryPattern(
            "q1",
            [
                LocalPattern("bob", [2, 0, 1, 0], "bs-1"),
                LocalPattern("bob", [0, 1, 0, 2], "bs-2"),
            ],
        )

    def test_rotation_rematches_every_known_station(self, session):
        session.update_station(
            "bs-1", PatternSet([LocalPattern("bob", [2, 0, 1, 0], "bs-1")])
        )
        session.update_station(
            "bs-2", PatternSet([LocalPattern("bob", [0, 1, 0, 2], "bs-2")])
        )
        # Drain the dirty set, as the facade does after shipping.
        session.mark_delivered(dict.fromkeys(session.dirty_station_ids, 0))
        runs_before = session.matching_runs
        session.replace_queries([self._bob_query()])
        assert session.batch_encodings == 2
        assert session.matching_runs == runs_before + 2
        # Every station is dirty again: the rotation must be re-shipped.
        assert set(session.dirty_station_ids) == {"bs-1", "bs-2"}
        assert session.current_results().user_ids() == ["bob"]
        assert session.queries[0].query_id == "q1"

    def test_removed_stations_stay_removed_across_rotations(self, session):
        session.update_station(
            "bs-1", PatternSet([LocalPattern("bob", [2, 0, 1, 0], "bs-1")])
        )
        session.remove_station("bs-1")
        session.replace_queries([self._bob_query()])
        assert session.station_ids == []
        assert session.dirty_station_ids == ()

    def test_rejects_empty_batch(self, session):
        with pytest.raises(ValueError):
            session.replace_queries([])
