"""Simulated distributed mobile environment.

Models the paper's deployment: one data-center node and ``l`` base-station nodes
connected by bandwidth-limited links.  The simulator drives any
:class:`~repro.core.protocol.MatchingProtocol` through its encode → station-match →
aggregate phases over a deterministic event-driven transport with seeded fault
injection (:mod:`repro.distributed.network`, :mod:`repro.distributed.faults`),
while accounting for communication volume, storage and time — exactly what
Figure 4 reports, plus the reliability metrics (retransmits, goodput) the
fault model adds.
"""

from repro.distributed.basestation import BaseStationNode
from repro.distributed.datacenter import DataCenterNode
from repro.distributed.events import (
    EventLoop,
    RoundTimeoutError,
    TranscriptEntry,
    TransportError,
    transcript_to_bytes,
)
from repro.distributed.executor import MatchingOutcome, ShardedStationRunner
from repro.distributed.faults import (
    FAULT_PROFILES,
    FaultInjector,
    FaultPlan,
    resolve_fault_plan,
)
from repro.distributed.messages import Message, MessageKind
from repro.distributed.metrics import CostReport
from repro.distributed.network import (
    FrameStats,
    NetworkConfig,
    PhaseOutcome,
    SimulatedNetwork,
)
from repro.distributed.node import Node
from repro.distributed.simulator import RoundOptions, SimulationOutcome

__all__ = [
    "BaseStationNode",
    "DataCenterNode",
    "EventLoop",
    "RoundTimeoutError",
    "TranscriptEntry",
    "TransportError",
    "transcript_to_bytes",
    "MatchingOutcome",
    "ShardedStationRunner",
    "FAULT_PROFILES",
    "FaultInjector",
    "FaultPlan",
    "resolve_fault_plan",
    "Message",
    "MessageKind",
    "CostReport",
    "FrameStats",
    "NetworkConfig",
    "PhaseOutcome",
    "SimulatedNetwork",
    "Node",
    "RoundOptions",
    "SimulationOutcome",
]
