"""A phase given as ``Frames`` against the same phase as ``(Message, receiver)`` pairs.

The router and the delta session hand each transport phase one
:class:`~repro.distributed.transport.base.Frames`, columns with no
:class:`~repro.distributed.messages.Message` per frame; ``broadcast`` and
``gather`` still take a list of pairs, which they turn into columns once.
Each phase below is run three ways, each on a fresh transport with its own
receivers: as ``Frames`` and as pairs on the simulated transport, and as
pairs on :class:`~tests.property.test_phase_oracle.ReferenceNetwork`, the
per-message engine the columns replaced.  All three must leave the same
transcript bytes, ``frame_stats()``, delivered payloads in both directions,
phase outcomes or raised errors, byte and message counts, and receivers'
inboxes: over 0 to 1,000 frames of mixed kinds, repeated links and absent
receivers, on the fault-free one pass and under every fault
profile.  A refused payload is compared between the two simulated paths (the
reference predates refusals), on both engines.

Nothing here imports ``repro.datagen``, so the file runs without NumPy.
"""

import random
from fractions import Fraction

import pytest

from repro.core.protocol import MatchReport
from repro.core.wbf import WeightedBloomFilter
from repro.distributed.faults import FAULT_PROFILES
from repro.distributed.messages import Message, MessageKind
from repro.distributed.network import NetworkConfig, SimulatedNetwork
from repro.distributed.node import Node
from repro.distributed.transport.base import Frames
from repro.wire.errors import UnsupportedWireTypeError

from .test_phase_oracle import ReferenceNetwork
from ..unit.distributed.test_unencodable_payloads import UNENCODABLE


def _artifact(seed: int, items: int) -> WeightedBloomFilter:
    wbf = WeightedBloomFilter(256, 3, seed=seed, backend="python")
    for item in range(items):
        wbf.add(item, (f"q{item % 3}", Fraction(1, 1 + item % 4)))
    return wbf


#: Two artifacts, so a phase can carry runs of different shared payloads.
ARTIFACTS = (_artifact(3, 30), _artifact(8, 5))


def _reports(index: int) -> list:
    return [
        MatchReport(f"u{user}", f"bs-{index}", Fraction(1, 2 + user), f"q{user % 2}")
        for user in range(index % 4)
    ]


def _specs(direction: str, count: int, seed: int, bad: object = None, at: int = -1):
    """``count`` frames of mixed kinds, some on repeated links.

    Each spec is ``(sender, recipient, kind, payload, has_receiver)``; the
    frame at ``at`` carries ``bad`` instead.
    """
    rng = random.Random(seed)
    specs = []
    for index in range(count):
        station = f"bs-{rng.randrange(max(1, count - count // 8))}"
        kind = rng.choice(list(MessageKind))
        if kind is MessageKind.MATCH_REPORT:
            payload = _reports(index)
        elif kind is MessageKind.FILTER_DISSEMINATION:
            # Runs of one artifact, as a broadcast sends them.
            payload = ARTIFACTS[(index // 5) % 2]
        else:
            payload = None
        if index == at:
            payload = bad
        sender, recipient = ("dc", station) if direction == "downlink" else (station, "dc")
        specs.append((sender, recipient, kind, payload, rng.random() < 0.9))
    return specs


def _build(specs, as_frames: bool):
    """Fresh receivers and the phase's sends, as ``Frames`` or as pairs."""
    nodes: dict[str, Node] = {}
    sends = Frames() if as_frames else []
    for sender, recipient, kind, payload, has_receiver in specs:
        receiver = nodes.setdefault(recipient, Node(recipient)) if has_receiver else None
        if as_frames:
            sends.add(sender, recipient, kind, payload, receiver)
        else:
            sends.append((Message(sender, recipient, kind, payload), receiver))
    return sends, nodes


def _observe(network_cls, phases, as_frames, config=None, plan=None, seed=0, partial=False):
    """Everything a caller can see of a transport after running ``phases``."""
    network = network_cls(config, fault_plan=plan, seed=seed, allow_partial=partial)
    outcomes, inboxes = [], []
    for direction, specs in phases:
        sends, nodes = _build(specs, as_frames)
        run = network.broadcast if direction == "downlink" else network.gather
        try:
            outcomes.append(run(sends))
        except Exception as error:  # compared, type and all, across paths
            outcomes.append(
                (
                    type(error),
                    str(error),
                    getattr(error, "failed_transfers", None),
                    getattr(error, "delivered_ids", None),
                )
            )
        inboxes.append({name: node.inbox for name, node in nodes.items()})
    return {
        "transcript": network.transcript_bytes(),
        "stats": network.frame_stats(),
        "bytes": (network.downlink_bytes, network.uplink_bytes, network.message_count),
        "time": network.transmission_time_s(),
        "delivered": (
            network.delivered_payloads("downlink"),
            network.delivered_payloads("uplink"),
        ),
        "outcomes": outcomes,
        "inboxes": inboxes,
    }


def _assert_same(phases, reference=True, **network_args):
    got = _observe(SimulatedNetwork, phases, True, **network_args)
    paths = [("pairs", _observe(SimulatedNetwork, phases, False, **network_args))]
    if reference:
        paths.append(("reference", _observe(ReferenceNetwork, phases, False, **network_args)))
    for label, want in paths:
        for key in want:
            assert got[key] == want[key], (label, key)
    return got


def _round_trip(count: int, seed: int):
    return [
        ("downlink", _specs("downlink", count, seed)),
        ("uplink", _specs("uplink", count, seed + 1)),
        ("downlink", _specs("downlink", count // 2, seed + 2)),
    ]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("count", [0, 1, 2, 17, 128, 1000])
def test_fault_free_phases(count, seed):
    got = _assert_same(_round_trip(count, seed))
    stats = got["stats"]
    assert stats.frames_sent == stats.frames_delivered == count + count + count // 2
    assert stats.retransmit_count == 0


@pytest.mark.parametrize("partial", [False, True])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("profile", sorted(FAULT_PROFILES))
def test_every_fault_profile(profile, seed, partial):
    # Two attempts make lossy profiles exhaust transfers, so failed stations
    # and raised timeouts are compared too.
    for attempts in (8, 2):
        _assert_same(
            _round_trip(24, seed),
            config=NetworkConfig(max_attempts=attempts),
            plan=FAULT_PROFILES[profile],
            seed=seed,
            partial=partial,
        )


@pytest.mark.parametrize("plan", ["none", "chaos"])
@pytest.mark.parametrize("direction", ["downlink", "uplink"])
@pytest.mark.parametrize("bad", sorted(UNENCODABLE))
def test_a_refused_payload(bad, direction, plan):
    # The refused phase raises before sending; the next phase runs normally.
    phases = [
        (direction, _specs(direction, 9, 4, bad=UNENCODABLE[bad](), at=3)),
        ("uplink", _specs("uplink", 6, 5)),
    ]
    got = _assert_same(phases, reference=False, plan=plan, seed=3)
    error_type, _text, _failed, _delivered = got["outcomes"][0]
    assert error_type is UnsupportedWireTypeError
    assert got["bytes"][2] == 3 + 6


def test_frames_of_pairs_are_the_same_columns():
    specs = _specs("downlink", 40, 9)
    frames, _ = _build(specs, True)
    pairs, _ = _build(specs, False)
    adapted = Frames.of(pairs)
    assert Frames.of(frames) is frames
    for column in ("senders", "recipients", "kinds", "payloads"):
        assert getattr(adapted, column) == getattr(frames, column), column
    assert [r is None for r in adapted.receivers] == [r is None for r in frames.receivers]
    assert adapted.blocks() == frames.blocks() == [m.payload_wire() for m, _ in pairs]


def test_a_broadcast_encodes_its_artifact_once():
    frames = Frames()
    for index in range(50):
        frames.add("dc", f"bs-{index}", MessageKind.FILTER_DISSEMINATION, ARTIFACTS[0], None)
    blocks = frames.blocks()
    assert all(block is blocks[0] for block in blocks)
    assert frames.blocks() is blocks


def test_refused_blocks_keep_the_frames_before():
    frames = Frames()
    for payload in ([], ARTIFACTS[0], object(), []):
        frames.add("bs-1", "dc", MessageKind.MATCH_REPORT, payload, None)
    with pytest.raises(UnsupportedWireTypeError):
        frames.blocks()
    assert frames.encoded_count == 2
