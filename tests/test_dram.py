"""Tests for the DRAM timing model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dram.storage import PhysicalMemory
from repro.dram.system import DRAMSystem
from repro.dram.timing import DDRTiming, DRAMGeometry, ns_to_cycles
from repro.types import Category


class TestTiming:
    def test_ns_conversion_rounds_up(self):
        assert ns_to_cycles(1.0, 3.2) == 4
        assert ns_to_cycles(0.25, 4.0) == 1

    def test_bus_clock_ratio(self):
        assert DDRTiming().cycles_per_bus_clock == 4

    def test_burst_cycles(self):
        assert DDRTiming().t_burst == 16

    def test_latencies_positive(self):
        timing = DDRTiming()
        assert timing.t_cas > 0
        assert timing.t_rcd > 0
        assert timing.t_rp > 0
        assert timing.t_ras > timing.t_rcd


class TestGeometry:
    def test_channel_interleave_at_group_granularity(self):
        geo = DRAMGeometry(channels=2)
        # all four lines of a group share a channel...
        channels = {geo.decode(addr).channel for addr in range(4)}
        assert len(channels) == 1
        # ...and the next group uses the other channel
        assert geo.decode(4).channel != geo.decode(0).channel

    def test_group_bases_spread_over_channels(self):
        geo = DRAMGeometry(channels=2)
        bases = [geo.decode(g * 4).channel for g in range(16)]
        assert set(bases) == {0, 1}

    def test_single_channel(self):
        geo = DRAMGeometry(channels=1)
        assert geo.decode(12345).channel == 0

    def test_decode_fields_in_range(self):
        geo = DRAMGeometry()
        for addr in (0, 1, 1000, 123456, 2**24):
            decoded = geo.decode(addr)
            assert 0 <= decoded.channel < geo.channels
            assert 0 <= decoded.bank < geo.banks_per_channel
            assert 0 <= decoded.column < geo.lines_per_row

    def test_decode_bijective_on_sample(self):
        geo = DRAMGeometry()
        seen = set()
        for addr in range(4096):
            decoded = geo.decode(addr)
            key = (decoded.channel, decoded.bank, decoded.row, decoded.column)
            assert key not in seen
            seen.add(key)


class TestReadTiming:
    def test_row_miss_then_hit(self):
        dram = DRAMSystem()
        t1 = dram.access(0, 0, Category.DATA_READ)
        t2 = dram.access(1, t1, Category.DATA_READ)
        assert dram.stats.row_misses == 1
        assert dram.stats.row_hits == 1
        # the row hit completes faster than the initial miss
        assert t2 - t1 < t1 - 0

    def test_row_conflict_costs_precharge(self):
        geo = DRAMGeometry()
        dram = DRAMSystem(geometry=geo)
        timing = dram.timing
        same_bank_other_row = geo.channels * geo.lines_per_row * geo.banks_per_channel
        t1 = dram.access(0, 0, Category.DATA_READ)
        t2 = dram.access(same_bank_other_row, t1, Category.DATA_READ)
        assert dram.geometry.decode(0).bank == dram.geometry.decode(same_bank_other_row).bank
        assert dram.stats.row_misses == 2
        # conflict latency includes precharge
        assert (t2 - t1) >= timing.t_rp

    def test_bus_serialises_transfers(self):
        dram = DRAMSystem()
        # two accesses to different banks, same channel, same instant
        geo = dram.geometry
        a, b = 0, geo.channels * geo.lines_per_row  # different banks
        assert geo.decode(a).channel == geo.decode(b).channel
        assert geo.decode(a).bank != geo.decode(b).bank
        t1 = dram.access(a, 0, Category.DATA_READ)
        t2 = dram.access(b, 0, Category.DATA_READ)
        assert t2 >= t1 + dram.timing.t_burst

    def test_different_channels_independent(self):
        dram = DRAMSystem()
        t1 = dram.access(0, 0, Category.DATA_READ)
        t2 = dram.access(4, 0, Category.DATA_READ)  # next group, other channel
        assert t2 == t1  # identical service, no interference


class TestWriteBuffering:
    def test_write_returns_immediately(self):
        dram = DRAMSystem()
        assert dram.access(0, 100, Category.DATA_WRITE) == 100

    def test_writes_drain_into_idle_gaps(self):
        dram = DRAMSystem()
        t1 = dram.access(0, 0, Category.DATA_READ)
        dram.access(8, t1, Category.DATA_WRITE)
        # a read far in the future sees no backlog interference
        far = t1 + 10_000
        t2 = dram.access(1, far, Category.DATA_READ)
        assert t2 - far <= dram.timing.t_cas + dram.timing.t_burst

    def test_full_write_queue_stalls_reads(self):
        dram = DRAMSystem(write_queue_entries=4)
        t = dram.access(0, 0, Category.DATA_READ)
        for i in range(8):
            dram.access(8 + 8 * i, t, Category.DATA_WRITE)
        t2 = dram.access(1, t, Category.DATA_READ)
        # the forced drain pushed the read out by at least the backlog
        assert t2 - t > 4 * dram.timing.t_burst

    def test_write_row_stats_counted(self):
        dram = DRAMSystem()
        dram.access(0, 0, Category.DATA_WRITE)
        assert dram.stats.writes == 1
        assert dram.stats.row_misses == 1


class TestStats:
    def test_categories_counted(self):
        dram = DRAMSystem()
        dram.access(0, 0, Category.DATA_READ)
        dram.access(1, 0, Category.METADATA_READ)
        dram.access(2, 0, Category.DATA_WRITE)
        assert dram.stats.accesses_by_category[Category.DATA_READ] == 1
        assert dram.stats.accesses_by_category[Category.METADATA_READ] == 1
        assert dram.stats.total_accesses == 3
        by_category = dram.stats.accesses_by_category
        assert by_category[Category.DATA_READ] + by_category[Category.DATA_WRITE] == 2

    def test_utilisation_bounded(self):
        dram = DRAMSystem()
        now = 0
        for i in range(32):
            now = dram.access(i, now, Category.DATA_READ)
        assert 0.0 < dram.channel_utilisation(now) <= 1.0


class TestPhysicalMemory:
    def test_default_zero_fill(self):
        mem = PhysicalMemory(1024)
        assert mem.read(5) == b"\x00" * 64

    def test_write_read(self):
        mem = PhysicalMemory(1024)
        data = bytes(range(64))
        mem.write(5, data)
        assert mem.read(5) == data

    def test_bounds_checked(self):
        mem = PhysicalMemory(16)
        with pytest.raises(IndexError):
            mem.read(16)
        with pytest.raises(IndexError):
            mem.write(-1, b"\x00" * 64)

    def test_size_checked(self):
        mem = PhysicalMemory(16)
        with pytest.raises(ValueError):
            mem.write(0, b"short")

    def test_lazy_initial_content(self):
        calls = []

        def initial(addr):
            calls.append(addr)
            return bytes([addr % 256]) * 64

        mem = PhysicalMemory(1024, initial_content=initial)
        assert mem.read(7) == b"\x07" * 64
        assert mem.read(7) == b"\x07" * 64
        assert calls == [7]  # materialised once

    def test_resident_lines_snapshot(self):
        mem = PhysicalMemory(1024)
        mem.write(3, b"\x01" * 64)
        assert set(mem.resident_lines()) == {3}


@given(st.lists(st.tuples(st.integers(0, 1000), st.booleans()), max_size=60))
def test_time_monotonic_per_stream(ops):
    """Completions never precede their issue time."""
    dram = DRAMSystem()
    now = 0
    for addr, is_write in ops:
        category = Category.DATA_WRITE if is_write else Category.DATA_READ
        done = dram.access(addr, now, category)
        assert done >= now
        if not is_write:
            now = done


class TestRefresh:
    def test_access_in_refresh_window_delayed(self):
        dram = DRAMSystem()
        t_rfc = dram.timing.t_rfc
        # time 0 falls inside the first refresh window
        completion = dram.access(0, 0, Category.DATA_READ)
        assert completion >= t_rfc
        assert dram.stats.refresh_stalls >= 1

    def test_access_outside_window_unaffected(self):
        with_refresh = DRAMSystem()
        without = DRAMSystem(refresh=False)
        start = with_refresh.timing.t_rfc + 10  # past the refresh window
        a = with_refresh.access(0, start, Category.DATA_READ)
        b = without.access(0, start, Category.DATA_READ)
        assert a == b

    def test_refresh_disabled(self):
        dram = DRAMSystem(refresh=False)
        dram.access(0, 0, Category.DATA_READ)
        assert dram.stats.refresh_stalls == 0


class TestPagePolicy:
    def test_closed_page_never_row_hits(self):
        dram = DRAMSystem(page_policy="closed", refresh=False)
        now = dram.access(0, 0, Category.DATA_READ)
        dram.access(1, now, Category.DATA_READ)
        assert dram.stats.row_hits == 0
        assert dram.stats.row_misses == 2

    def test_closed_page_constant_latency(self):
        dram = DRAMSystem(page_policy="closed", refresh=False)
        timing = dram.timing
        t1 = dram.access(0, 10_000, Category.DATA_READ)
        expected = timing.t_rcd + timing.t_cas + timing.t_burst
        assert t1 - 10_000 == expected

    def test_open_page_beats_closed_on_streams(self):
        open_page = DRAMSystem(page_policy="open", refresh=False)
        closed = DRAMSystem(page_policy="closed", refresh=False)
        t_open = t_closed = 100_000
        for i in range(16):
            t_open = open_page.access(i, t_open, Category.DATA_READ)
            t_closed = closed.access(i, t_closed, Category.DATA_READ)
        assert t_open < t_closed

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            DRAMSystem(page_policy="sideways")

    def test_closed_page_write_stats(self):
        dram = DRAMSystem(page_policy="closed", refresh=False)
        dram.access(0, 0, Category.DATA_WRITE)
        dram.access(0, 0, Category.DATA_WRITE)
        assert dram.stats.row_hits == 0


# ---------------------------------------------------------------------------
# Pinned completions for the DRAM paths the simulation goldens never take.
# The values were recorded from the per-access reference model; any change
# to how an access is priced must reproduce them exactly.

GEO = DRAMGeometry()
CONFLICT = GEO.channels * GEO.lines_per_row * GEO.banks_per_channel  # same bank, next row
R, W = Category.DATA_READ, Category.DATA_WRITE

MIXED = [
    (0, 0, R, 64), (1, 0, R, 64), (CONFLICT, 3, R, 64), (2, 0, W, 64),
    (CONFLICT + 1, 5, Category.METADATA_READ, 64), (4, 0, R, 64),
    (0, 200, Category.CLEAN_WRITEBACK, 64), (3, 0, R, 64), (2 * CONFLICT, 0, R, 64),
    (5, 7, Category.MISPREDICT_READ, 64), (1, 0, W, 64), (6, 2500, R, 64),
]
#: MemZip-style variable bursts, including sub-beat and odd sizes
BURSTS = [
    (0, 0, R, 8), (1, 0, R, 16), (2, 0, R, 24), (CONFLICT, 0, R, 40),
    (3, 0, W, 8), (8, 0, W, 33), (9, 0, R, 1), (4, 0, R, 64),
    (CONFLICT + 2, 0, W, 56), (5, 3000, R, 12),
]
#: enough writes to cross a 4-entry queue's drain threshold, twice
DRAIN = (
    [(0, 0, R, 64)]
    + [(8 + 8 * i, 1, W, 64) for i in range(6)]
    + [(1, 0, R, 64), (16, 0, R, 64)]
    + [(CONFLICT + 8 * i, 0, W, 64) for i in range(5)]
    + [(2, 40, R, 64), (CONFLICT, 0, R, 64)]
)
#: a backlog of exactly the 4-entry threshold, with no idle bus time to drain into
AT_THRESHOLD = [(0, 0, R, 64)] + [(8 + 8 * i, 0, W, 64) for i in range(4)] + [
    (1, 0, R, 64), (2, 0, R, 64)
]
MIXED_COUNTS = {
    "clean_writeback": 1, "data_read": 7, "data_write": 2,
    "metadata_read": 1, "mispredict_read": 1,
}
DRAIN_COUNTS = {"data_read": 5, "data_write": 11}

#: name -> (DRAMSystem options, ops, completions,
#:          (row_hits, row_misses, activations, reads, writes, busy_cycles,
#:           refresh_stalls), accesses by category)
PINNED = {
    "closed": (
        dict(page_policy="closed"), MIXED,
        [1224, 1328, 1435, 1435, 1544, 1648, 1848, 1952, 2056, 2167, 2167, 4771],
        (0, 12, 12, 9, 3, 192, 1), MIXED_COUNTS,
    ),
    "closed_no_refresh": (
        dict(page_policy="closed", refresh=False), MIXED,
        [104, 208, 315, 315, 424, 528, 728, 832, 936, 1047, 1047, 3651],
        (0, 12, 12, 9, 3, 192, 0), MIXED_COUNTS,
    ),
    "open_no_refresh": (
        dict(refresh=False), MIXED,
        [104, 164, 315, 315, 471, 575, 775, 835, 983, 1050, 1050, 3610],
        (4, 8, 8, 9, 3, 192, 0), MIXED_COUNTS,
    ),
    "open": (
        dict(), MIXED,
        [1224, 1284, 1435, 1435, 1591, 1695, 1895, 1955, 2103, 2170, 2170, 4730],
        (4, 8, 8, 9, 3, 192, 1), MIXED_COUNTS,
    ),
    "bursts": (
        dict(), BURSTS,
        [1210, 1258, 1308, 1450, 1450, 1450, 1496, 1600, 1600, 4648],
        (5, 5, 5, 7, 3, 70, 1), {"data_read": 7, "data_write": 3},
    ),
    "drain": (
        dict(write_queue_entries=4), DRAIN,
        [1224, 1225, 1226, 1227, 1228, 1229, 1230, 1336,
         1396, 1396, 1396, 1396, 1396, 1396, 1584, 1740],
        (12, 4, 4, 5, 11, 256, 1), DRAIN_COUNTS,
    ),
    "drain_at_threshold": (
        dict(write_queue_entries=4, refresh=False), AT_THRESHOLD,
        [104, 104, 104, 104, 104, 184, 244],
        (6, 1, 1, 3, 4, 112, 0), {"data_read": 3, "data_write": 4},
    ),
    "drain_no_refresh": (
        dict(write_queue_entries=4, refresh=False), DRAIN,
        [104, 105, 106, 107, 108, 109, 110, 216, 276, 276, 276, 276, 276, 276, 464, 620],
        (12, 4, 4, 5, 11, 256, 0), DRAIN_COUNTS,
    ),
}


def drive(dram, ops):
    """Issue ``(addr, gap, category, burst_bytes)`` ops; reads advance time."""
    completions = []
    now = 0
    for addr, gap, category, burst in ops:
        now += gap
        done = dram.access(addr, now, category, burst_bytes=burst)
        completions.append(done)
        if not category.is_write:
            now = max(now, done)
    return completions


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_completions_and_counters(name):
    options, ops, completions, counters, by_category = PINNED[name]
    dram = DRAMSystem(**options)
    assert drive(dram, ops) == completions
    stats = dram.stats
    assert (
        stats.row_hits, stats.row_misses, stats.activations, stats.reads,
        stats.writes, stats.busy_cycles, stats.refresh_stalls,
    ) == counters
    assert {c.value: n for c, n in stats.accesses_by_category.items()} == by_category


def test_drain_threshold_changes_timing():
    """The drain cases really cross the threshold a deeper queue never hits."""
    assert drive(DRAMSystem(), DRAIN) != PINNED["drain"][2]
    deeper = DRAMSystem(write_queue_entries=5, refresh=False)
    assert drive(deeper, AT_THRESHOLD) != PINNED["drain_at_threshold"][2]
