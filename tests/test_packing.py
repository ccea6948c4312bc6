"""Tests for compressed-slot packing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression import HybridCompressor
from repro.compression.base import CompressionError
from repro.core.packing import (
    LineState,
    compress_group,
    decompress_group,
    pack_slot,
    payload_budget,
    plan_placement,
    select_units,
    unpack_slot,
)
from repro.types import Level, WriteResult
from tests.lineutils import pointer_line, small_int_line, zero_line

MARKER = b"\xde\xad\xbe\xef"


class TestPackSlot:
    def test_pair_roundtrip(self):
        slot = pack_slot([b"abc", b"defgh"], MARKER)
        assert len(slot) == 64
        assert slot[-4:] == MARKER
        assert unpack_slot(slot, Level.PAIR) == [b"abc", b"defgh"]

    def test_quad_roundtrip(self):
        payloads = [b"a" * 10, b"b" * 12, b"c" * 14, b"d" * 16]
        slot = pack_slot(payloads, MARKER)
        assert unpack_slot(slot, Level.QUAD) == payloads

    def test_exactly_full_slot(self):
        # pair: 2 length bytes + payloads + 4-byte marker == 64
        payloads = [b"x" * 29, b"y" * 29]
        slot = pack_slot(payloads, MARKER)
        assert slot is not None
        assert unpack_slot(slot, Level.PAIR) == payloads

    def test_one_byte_too_big(self):
        payloads = [b"x" * 30, b"y" * 29]
        assert pack_slot(payloads, MARKER) is None

    def test_wrong_member_count(self):
        with pytest.raises(ValueError):
            pack_slot([b"a"], MARKER)
        with pytest.raises(ValueError):
            pack_slot([b"a"] * 3, MARKER)

    def test_empty_payload_rejected(self):
        with pytest.raises(ValueError):
            pack_slot([b"", b"a"], MARKER)

    def test_empty_marker_supported(self):
        # the table-based design packs without inline markers
        slot = pack_slot([b"aa", b"bb"], b"")
        assert unpack_slot(slot, Level.PAIR) == [b"aa", b"bb"]


class TestUnpackSlot:
    def test_wrong_size(self):
        with pytest.raises(ValueError):
            unpack_slot(b"\x00" * 63, Level.PAIR)

    def test_uncompressed_level_rejected(self):
        with pytest.raises(CompressionError):
            unpack_slot(b"\x00" * 64, Level.UNCOMPRESSED)

    def test_corrupt_header(self):
        slot = bytes([0, 0]) + b"\x00" * 62  # zero lengths
        with pytest.raises(CompressionError):
            unpack_slot(slot, Level.PAIR)

    def test_overlong_header(self):
        slot = bytes([200, 200]) + b"\x00" * 62
        with pytest.raises(CompressionError):
            unpack_slot(slot, Level.PAIR)


class TestBudget:
    def test_pair_budget(self):
        assert payload_budget(Level.PAIR) == 64 - 4 - 2

    def test_quad_budget(self):
        assert payload_budget(Level.QUAD) == 64 - 4 - 4

    def test_custom_marker_size(self):
        assert payload_budget(Level.PAIR, marker_size=5) == 64 - 5 - 2


class TestCompressGroup:
    def test_zero_pair(self):
        hybrid = HybridCompressor()
        lines = [zero_line(), zero_line()]
        slot = compress_group(hybrid, lines, MARKER)
        assert slot is not None
        assert decompress_group(hybrid, slot, Level.PAIR) == lines

    def test_quad_of_small_ints(self):
        hybrid = HybridCompressor()
        lines = [small_int_line(start=i) for i in range(4)]
        slot = compress_group(hybrid, lines, MARKER)
        if slot is not None:
            assert decompress_group(hybrid, slot, Level.QUAD) == lines

    def test_pointer_pair_fits_quad_does_not(self):
        hybrid = HybridCompressor()
        pair = [pointer_line(base=0x7F00AA000000), pointer_line(base=0x7F00BB000000)]
        assert compress_group(hybrid, pair, MARKER) is not None
        quad = pair + [pointer_line(base=0x7F00CC000000), pointer_line(base=0x7F00DD000000)]
        assert compress_group(hybrid, quad, MARKER) is None

    def test_incompressible_member_fails_group(self):
        import random

        from tests.lineutils import random_line

        hybrid = HybridCompressor()
        lines = [zero_line(), random_line(random.Random(3))]
        assert compress_group(hybrid, lines, MARKER) is None


def candidates(lines):
    """Eviction-time states for ``{addr: data}`` (dirty, filled uncompressed)."""
    return {a: LineState(a, data, True, Level.UNCOMPRESSED) for a, data in lines.items()}


class RecordingMarker:
    """A marker function that remembers every ``(slot, level)`` it is asked for."""

    def __init__(self, marker=MARKER):
        self.marker = marker
        self.calls = []

    def __call__(self, slot, level):
        self.calls.append((slot, level))
        return self.marker


POINTERS = [pointer_line(base=0x7F00AA000000 + i * 0x1100000000) for i in range(4)]


class TestPlanPlacement:
    def test_compressible_group_packs_quad_at_base(self):
        hybrid = HybridCompressor()
        marker = RecordingMarker()
        units = plan_placement(
            hybrid, 10, candidates({8 + i: zero_line() for i in range(4)}), marker
        )
        assert [u[:3] for u in units] == [(Level.QUAD, 8, [8, 9, 10, 11])]
        assert marker.calls == [(8, Level.QUAD)]
        packed = units[0][3]
        assert packed[-4:] == MARKER
        assert decompress_group(hybrid, packed, Level.QUAD) == [zero_line()] * 4

    def test_group_that_does_not_fit_quad_splits_into_pairs(self):
        marker = RecordingMarker()
        units = plan_placement(
            HybridCompressor(), 8, candidates(dict(zip(range(8, 12), POINTERS))), marker
        )
        assert [u[:3] for u in units] == [
            (Level.PAIR, 8, [8, 9]),
            (Level.PAIR, 10, [10, 11]),
        ]
        assert marker.calls == [(8, Level.QUAD), (8, Level.PAIR), (10, Level.PAIR)]

    def test_lone_pair_member_goes_home_uncompressed(self):
        lines = {8: zero_line(), 9: zero_line(), 11: zero_line()}
        units = plan_placement(HybridCompressor(), 11, candidates(lines), RecordingMarker())
        assert [u[:3] for u in units] == [
            (Level.PAIR, 8, [8, 9]),
            (Level.UNCOMPRESSED, 11, [11]),
        ]
        assert units[1][3] is None

    def test_empty_marker_leaves_no_marker_bytes(self):
        lines = candidates({8: small_int_line(), 9: small_int_line(start=5)})
        with_marker = plan_placement(HybridCompressor(), 8, lines, RecordingMarker())
        table = plan_placement(HybridCompressor(), 8, lines, lambda slot, level: b"")
        packed, marked = table[0][3], with_marker[0][3]
        assert table[0][:3] == (Level.PAIR, 8, [8, 9])
        assert packed[:-4] == marked[:-4]  # same header and payloads
        assert packed[-4:] == bytes(4)  # padding, no marker
        assert unpack_slot(packed, Level.PAIR) == unpack_slot(marked, Level.PAIR)


class FakeLLC:
    def __init__(self):
        self.evicted = []

    def force_evict(self, addr):
        self.evicted.append(addr)


class TestSelectUnits:
    def test_keeps_units_touching_the_gang_and_gang_evicts_partners(self):
        lines = candidates({a: zero_line() for a in (8, 9, 10, 11)})
        gang = {8: lines[8]}
        units = [
            (Level.PAIR, 8, [8, 9], b"p"),
            (Level.UNCOMPRESSED, 10, [10], None),
            (Level.PAIR, 10, [10, 11], b"q"),
        ]
        llc, result = FakeLLC(), WriteResult()
        kept = select_units(units, gang, lines, llc, result)
        assert kept == units[:1]
        assert llc.evicted == [9] and result.ganged == [9]
        assert sorted(gang) == [8, 9]
        assert result.level is Level.PAIR


@given(
    st.lists(st.binary(min_size=1, max_size=28), min_size=2, max_size=2),
)
def test_pack_unpack_property(payloads):
    slot = pack_slot(payloads, MARKER)
    if slot is not None:
        assert unpack_slot(slot, Level.PAIR) == payloads
        assert slot[-4:] == MARKER
