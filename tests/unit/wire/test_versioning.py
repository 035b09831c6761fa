"""Wire-version skew: golden v2 fixtures, old-reader rejection, negotiation.

Version 2 is the forward-compatible header revision: byte-identical to
version 1 except for the version octet and a uvarint-prefixed extension
block between the 7-byte header and the body.  The fixtures here pin both
shapes exactly, and the negotiation tests pin the rolling-upgrade rule the
topology layer builds on — every hop speaks the *lowest* version any party
advertises, so one pre-upgrade station keeps its whole region on version 1
while the trunk above it already writes version 2.
"""

from fractions import Fraction

import pytest

from repro import wire
from repro.core.protocol import MatchReport
from repro.topology import TopologySpec, build_tier_map
from repro.wire import (
    SUPPORTED_WIRE_VERSIONS,
    WIRE_VERSION,
    WIRE_VERSION_EXT,
    WireFormatError,
    negotiate_wire_version,
)

#: One weighted report, the canonical artifact of the uplink hop.
GOLDEN_V1 = "44494d57010009010103027131027331027531020100010203"
#: The same artifact at version 2: one extra byte (the empty extension
#: block's uvarint length) between header and body.
GOLDEN_V2 = "44494d5702000900010103027131027331027531020100010203"
#: Version 2 with a 7-byte opaque extension block this build must skip.
GOLDEN_V2_EXTENSION = (
    "44494d570200090707686f703d3432010103027131027331027531020100010203"
)

STATIONS = tuple(f"s{i}" for i in range(4))


def golden_reports() -> list[MatchReport]:
    return [
        MatchReport(
            user_id="u1", station_id="s1", weight=Fraction(1, 3), query_id="q1"
        )
    ]


class TestGoldenFrames:
    def test_version_1_stays_the_default_and_byte_stable(self):
        assert wire.encode(golden_reports()).hex() == GOLDEN_V1

    def test_version_2_golden_bytes(self):
        assert (
            wire.encode(golden_reports(), version=WIRE_VERSION_EXT).hex() == GOLDEN_V2
        )

    def test_version_2_differs_only_in_version_octet_and_extension_length(self):
        v1, v2 = bytes.fromhex(GOLDEN_V1), bytes.fromhex(GOLDEN_V2)
        assert v2[4] == WIRE_VERSION_EXT and v1[4] == WIRE_VERSION
        assert v2[7] == 0  # empty extension block
        assert v2[:4] == v1[:4] and v2[5:7] == v1[5:7] and v2[8:] == v1[7:]

    def test_version_2_extension_golden_bytes(self):
        assert (
            wire.encode(
                golden_reports(), version=WIRE_VERSION_EXT, extension=b"\x07hop=42"
            ).hex()
            == GOLDEN_V2_EXTENSION
        )

    @pytest.mark.parametrize(
        "fixture", [GOLDEN_V1, GOLDEN_V2, GOLDEN_V2_EXTENSION]
    )
    def test_every_golden_frame_decodes_to_the_artifact(self, fixture):
        assert wire.decode(bytes.fromhex(fixture)) == golden_reports()

    def test_old_readers_reject_version_2_frames(self):
        """A pre-upgrade build (max_version=1) must refuse, not misread."""
        for fixture in (GOLDEN_V2, GOLDEN_V2_EXTENSION):
            with pytest.raises(WireFormatError, match="unsupported wire version"):
                wire.decode(bytes.fromhex(fixture), max_version=WIRE_VERSION)

    def test_old_readers_still_read_version_1(self):
        assert (
            wire.decode(bytes.fromhex(GOLDEN_V1), max_version=WIRE_VERSION)
            == golden_reports()
        )

    def test_version_1_has_no_extension_block(self):
        with pytest.raises(WireFormatError, match="no extension block"):
            wire.encode(golden_reports(), version=WIRE_VERSION, extension=b"x")

    def test_unknown_versions_are_unwritable(self):
        with pytest.raises(WireFormatError, match="cannot write"):
            wire.encode(golden_reports(), version=9)


def small_wbf():
    from repro.core.wbf import WeightedBloomFilter

    wbf = WeightedBloomFilter(64, 3, seed=5, backend="python")
    wbf.add("item", ("q1", Fraction(1, 2)))
    return wbf


class TestEncodeCachePerVersion:
    @pytest.mark.parametrize("version", SUPPORTED_WIRE_VERSIONS)
    def test_none_encodes_like_the_plain_encoder(self, version):
        assert wire.encode_cached(None, version) == wire.encode(None, version=version)

    def test_none_at_an_unknown_version_is_unwritable(self):
        with pytest.raises(WireFormatError, match="cannot write"):
            wire.encode_cached(None, 9)

    def test_each_version_is_cached_once_per_artifact(self):
        wbf = small_wbf()
        v1, v2 = wire.encode_cached(wbf), wire.encode_cached(wbf, WIRE_VERSION_EXT)
        assert v1 == wire.encode(wbf)
        assert v2 == wire.encode(wbf, version=WIRE_VERSION_EXT)
        assert wire.encode_cached(wbf, WIRE_VERSION) is v1
        assert wire.encode_cached(wbf, WIRE_VERSION_EXT) is v2

    def test_a_mutation_invalidates_every_version(self):
        wbf = small_wbf()
        before = [wire.encode_cached(wbf, v) for v in SUPPORTED_WIRE_VERSIONS]
        wbf.add("other", ("q2", Fraction(1, 4)))
        for version, stale in zip(SUPPORTED_WIRE_VERSIONS, before):
            fresh = wire.encode_cached(wbf, version)
            assert fresh != stale
            assert fresh == wire.encode(wbf, version=version)


class TestNegotiation:
    def test_lowest_advertised_version_wins(self):
        assert negotiate_wire_version([2, 1, 2]) == 1
        assert negotiate_wire_version([2, 2]) == 2

    def test_empty_set_is_an_error(self):
        with pytest.raises(WireFormatError, match="empty set"):
            negotiate_wire_version([])

    def test_unknown_versions_cannot_be_negotiated(self):
        with pytest.raises(WireFormatError, match="unsupported wire version"):
            negotiate_wire_version([1, 9])

    def test_supported_versions_are_ascending(self):
        assert SUPPORTED_WIRE_VERSIONS == tuple(sorted(SUPPORTED_WIRE_VERSIONS))


class TestMixedVersionRegion:
    """A mixed deployment's hops speak the versions their parties negotiate."""

    def test_legacy_region_frames_really_are_version_1_on_the_wire(self):
        """End to end: a mixed deployment's legacy hop writes v1 frames the
        old stations can read, while the trunk writes v2."""
        spec = TopologySpec(
            kind="two-tier", regions=2,
            wire_version=WIRE_VERSION_EXT, legacy_regions=("region-0",),
        )
        tier_map = build_tier_map(STATIONS, spec)
        legacy, upgraded = tier_map.regions
        legacy_frame = wire.encode(golden_reports(), version=legacy.wire_version)
        assert wire.decode(legacy_frame, max_version=WIRE_VERSION) == golden_reports()
        upgraded_frame = wire.encode(golden_reports(), version=upgraded.wire_version)
        with pytest.raises(WireFormatError):
            wire.decode(upgraded_frame, max_version=WIRE_VERSION)
