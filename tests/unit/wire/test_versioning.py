"""One wire header version: the codec writes version 1 and refuses every other.

The header's version octet is the codec's alone.  No message, frame column,
inbox, tier map, tier cost or topology spec carries a version, no encode or
decode call takes one, and a frame whose header names any version but 1 is
refused with a typed :class:`WireFormatError` wherever bytes enter the
program: the codec, the envelope decode and both node receive paths.  The
version-2 frames an earlier build wrote (an empty and a filled extension
block between header and body) stay here as refusal inputs.

Nothing here imports ``repro.datagen``, so the file runs without NumPy.
"""

import dataclasses
import inspect
from fractions import Fraction

import pytest

from repro import wire
from repro.core.protocol import MatchReport
from repro.core.wbf import WeightedBloomFilter
from repro.distributed.messages import Message, MessageKind
from repro.distributed.metrics import TierCost
from repro.distributed.node import Node
from repro.distributed.transport.base import Frames
from repro.topology import TopologySpec
from repro.topology.tiers import Region, TierMap
from repro.wire import WIRE_VERSION, WireFormatError, codec

#: One weighted report, the canonical artifact of the uplink hop.
GOLDEN_V1 = "44494d57010009010103027131027331027531020100010203"

#: Frames an earlier build wrote at header version 2: the same report with an
#: empty extension block, the report with a 7-byte extension block, and a
#: filter large enough to take the payload decode cache's path
#: (:func:`v2_filter` at version 2).
GOLDEN_V2 = {
    "report": "44494d5702000900010103027131027331027531020100010203",
    "report-extension": (
        "44494d570200090707686f703d3432010103027131027331027531020100010203"
    ),
    "filter": (
        "44494d57020002008002030a0c00c04002180040400440120001040202842001000000"
        "880800e200c80000200a030802050271310702010802050271310702020802050271"
        "310702030102010201010102010002000201000101010101000102010201010100010"
        "0010001020101010201010102010101010102010101020100010001010102010101000100"
    ),
}


def golden_reports() -> list[MatchReport]:
    return [
        MatchReport(
            user_id="u1", station_id="s1", weight=Fraction(1, 3), query_id="q1"
        )
    ]


def v2_filter() -> WeightedBloomFilter:
    wbf = WeightedBloomFilter(256, 3, seed=5, backend="python")
    for item in range(12):
        wbf.add(item, ("q1", Fraction(1, 1 + item % 3)))
    return wbf


def small_wbf() -> WeightedBloomFilter:
    wbf = WeightedBloomFilter(64, 3, seed=5, backend="python")
    wbf.add("item", ("q1", Fraction(1, 2)))
    return wbf


class TestVersionOne:
    def test_the_golden_report_frame_is_byte_stable(self):
        assert wire.encode(golden_reports()).hex() == GOLDEN_V1
        assert wire.decode(bytes.fromhex(GOLDEN_V1)) == golden_reports()

    @pytest.mark.parametrize("compress", [False, True])
    def test_every_writer_emits_version_1(self, compress):
        message = Message("dc", "bs-1", MessageKind.FILTER_DISSEMINATION, small_wbf())
        for frame in (
            wire.encode(golden_reports(), compress=compress),
            wire.encode(message, compress=compress),
            message.to_wire(compress=compress),
            wire.encode_cached(message.payload),
            message.payload_wire(),
        ):
            assert frame[4] == WIRE_VERSION == 1

    def test_a_version_2_frame_is_the_version_1_frame_plus_its_extension_block(self):
        # Why the refusal matters: a version-1 reader of these bytes would
        # take the extension length for the first body byte.
        v1 = wire.encode(v2_filter())
        v2 = bytes.fromhex(GOLDEN_V2["filter"])
        assert v2[:4] == v1[:4] and v2[5:7] == v1[5:7] and v2[8:] == v1[7:]
        assert (v1[4], v2[4], v2[7]) == (1, 2, 0)


class TestOneFormat:
    """Only the codec knows the header version."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Message("a", "b", MessageKind.CONTROL),
            Frames,
            lambda: Node("n"),
            lambda: Region("region-0", "aggregator-0", ("s0",)),
            lambda: TierMap(regions=(), has_trunk=False),
            lambda: TierCost("trunk"),
            TopologySpec,
        ],
        ids=["Message", "Frames", "Node", "Region", "TierMap", "TierCost", "TopologySpec"],
    )
    def test_no_carrier_has_a_version_field_or_column(self, build):
        instance = build()
        cls = type(instance)
        names = set(vars(cls)) | set(getattr(cls, "__slots__", ()))
        names |= set(getattr(instance, "__dict__", {}))
        if dataclasses.is_dataclass(cls):
            names |= {field.name for field in dataclasses.fields(cls)}
        assert not [name for name in names if "version" in name]

    @pytest.mark.parametrize(
        "function, parameters",
        [
            (wire.encode, ["obj", "compress"]),
            (wire.decode, ["data", "backend"]),
            (wire.encode_cached, ["obj"]),
            (codec.encode_cached_at, ["obj", "revision"]),
        ],
        ids=["encode", "decode", "encode_cached", "encode_cached_at"],
    )
    def test_codec_calls_take_no_version(self, function, parameters):
        assert list(inspect.signature(function).parameters) == parameters

    @pytest.mark.parametrize(
        "name",
        ["WIRE_VERSION_EXT", "SUPPORTED_WIRE_VERSIONS", "negotiate_wire_version"],
    )
    def test_the_negotiation_names_are_gone(self, name):
        assert name not in wire.__all__
        assert not hasattr(wire, name)
        assert not hasattr(codec, name)

    def test_the_frame_reader_gives_no_version(self):
        message = Message("dc", "bs-1", MessageKind.MATCH_REPORT, golden_reports())
        payload = message.payload_wire()
        head = codec.envelope_head("dc", "bs-1", message.kind, len(payload))
        assert codec.read_frame(head, payload) == (
            "dc", "bs-1", MessageKind.MATCH_REPORT, golden_reports(),
        )
        assert not hasattr(codec, "decode_frame")

    def test_the_hot_path_switches_are_gone(self):
        import repro.core.matcher as matcher

        assert not hasattr(codec, "PAYLOAD_DECODE_CACHE_ENABLED")
        assert not hasattr(WeightedBloomFilter, "MASK_INDEX_ENABLED")
        assert not hasattr(matcher, "_intersect_rows")
        assert not hasattr(matcher.BaseStationMatcher, "_candidate_rows")

    @pytest.mark.parametrize(
        "knob",
        [{"wire_version": 2}, {"legacy_regions": ("region-0",)}],
        ids=lambda knob: next(iter(knob)),
    )
    def test_a_topology_names_no_version(self, knob):
        with pytest.raises(TypeError):
            TopologySpec(kind="two-tier", regions=2, **knob)


class TestEncodeCache:
    """One encoding per artifact, keyed by its identity alone."""

    def test_none_encodes_like_the_plain_encoder(self):
        assert wire.encode_cached(None) == wire.encode(None)
        assert wire.encode_cached(None) is wire.encode_cached(None)

    def test_an_artifact_is_cached_once(self):
        wbf = small_wbf()
        first = wire.encode_cached(wbf)
        assert first == wire.encode(wbf)
        assert wire.encode_cached(wbf) is first
        assert codec._ENCODE_CACHE[id(wbf)][2] is first


def _envelope(payload: bytes, version: int = WIRE_VERSION) -> tuple[bytes, bytes]:
    """A canonical envelope head for ``payload``, with its header octet at ``version``."""
    head = bytearray(
        codec.envelope_head("dc", "bs-1", MessageKind.FILTER_DISSEMINATION, len(payload))
    )
    head[4] = version
    return bytes(head), payload


def _receive_wire(node: Node, head: bytes, payload: bytes) -> None:
    node.receive_wire(head + payload)


def _receive_frame(node: Node, head: bytes, payload: bytes) -> None:
    node.receive_frame(head, payload)


NODE_PATHS = [_receive_wire, _receive_frame]


class TestOtherVersionsAreRefused:
    @pytest.mark.parametrize("frame", sorted(GOLDEN_V2))
    def test_decode_refuses_a_version_2_frame(self, frame):
        with pytest.raises(WireFormatError, match="unsupported wire version 2"):
            wire.decode(bytes.fromhex(GOLDEN_V2[frame]))

    @pytest.mark.parametrize("frame", sorted(GOLDEN_V2))
    def test_an_envelope_refuses_a_version_2_payload(self, frame):
        head, payload = _envelope(bytes.fromhex(GOLDEN_V2[frame]))
        with pytest.raises(WireFormatError, match="unsupported wire version 2"):
            Message.from_wire(head + payload)

    @pytest.mark.parametrize("path", NODE_PATHS, ids=lambda path: path.__name__[1:])
    @pytest.mark.parametrize("frame", sorted(GOLDEN_V2))
    def test_a_node_refuses_a_version_2_payload(self, frame, path):
        node = Node("bs-1")
        head, payload = _envelope(bytes.fromhex(GOLDEN_V2[frame]))
        codec.clear_payload_decode_cache()
        with pytest.raises(WireFormatError, match="unsupported wire version 2"):
            path(node, head, payload)
        assert node.inbox == []
        assert not codec._PAYLOAD_DECODE_CACHE

    @pytest.mark.parametrize("path", NODE_PATHS, ids=lambda path: path.__name__[1:])
    def test_a_node_refuses_a_version_2_envelope(self, path):
        node = Node("bs-1")
        head, payload = _envelope(bytes.fromhex(GOLDEN_V1), version=2)
        with pytest.raises(WireFormatError, match="unsupported wire version 2"):
            path(node, head, payload)
        assert node.inbox == []
        # The same bytes under a version-1 header are delivered.
        path(node, *_envelope(bytes.fromhex(GOLDEN_V1)))
        assert node.inbox[0].payload == golden_reports()

    def test_decode_refuses_every_version_octet_but_1(self):
        frame = bytearray(bytes.fromhex(GOLDEN_V1))
        for version in range(256):
            frame[4] = version
            if version == WIRE_VERSION:
                assert wire.decode(bytes(frame)) == golden_reports()
                continue
            with pytest.raises(WireFormatError, match=f"unsupported wire version {version} "):
                wire.decode(bytes(frame))
