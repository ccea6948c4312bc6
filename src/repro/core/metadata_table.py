"""Prior-art TMC with a memory-mapped metadata table (paper §II-C/D).

This is the conventional compressed-memory organisation PTMC is compared
against throughout the paper (Figs. 4, 5, 12): per-line Compression
Status Information (CSI, 2 bits) lives in a dedicated region of memory
and is cached on-chip in a 32KB metadata cache.  Every read must consult
the CSI to learn the line's location and interpretation; a metadata-cache
miss costs a DRAM access — the bandwidth bloat the paper eliminates.

Because the CSI is authoritative there are no markers, no invalidates and
no mispredictions; stale copies left behind by relocation are harmless.
One 64-byte metadata line covers 256 data lines (four consecutive pages),
capturing the spatial locality the paper grants prior designs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cache.cache import Cache, EvictedLine
from repro.compression.base import CompressionAlgorithm
from repro.compression.hybrid import HybridCompressor
from repro.core import address_map
from repro.core.base_controller import DECOMPRESSION_LATENCY, LLCView, MemoryController
from repro.core.packing import (
    LineState,
    decompress_group,
    plan_placement,
    select_units,
)
from repro.dram.storage import PhysicalMemory
from repro.dram.system import DRAMSystem
from repro.obs.stats import StatScope
from repro.types import Category, Level, ReadResult, WriteResult


@dataclass(frozen=True)
class MetadataTableConfig:
    """The on-chip metadata cache (shared by table TMC and MemZip)."""

    cache_bytes: int = 32 * 1024
    cache_ways: int = 8


def _no_marker(slot: int, level: Level) -> bytes:
    """Table-TMC packs slots without a marker: the CSI says how."""
    return b""


class TableMetadataController(MemoryController):
    """Front end of a memory-mapped metadata table with an on-chip cache.

    Shared by the table-based designs (table TMC, MemZip): each metadata
    line covers the subclass's ``LINES_PER_SLOT`` data lines, the table
    sits at the top of physical memory, and a metadata-cache miss costs
    a DRAM access (plus a write-back of a dirty victim).
    """

    #: data lines one 64-byte metadata line describes
    LINES_PER_SLOT: int

    def __init__(
        self,
        memory: PhysicalMemory,
        dram: DRAMSystem,
        config: MetadataTableConfig,
        cache_name: str,
    ) -> None:
        super().__init__(memory, dram)
        self.config = config
        self.metadata_cache = Cache(config.cache_bytes, config.cache_ways, name=cache_name)

    def _metadata_addr(self, line_addr: int) -> int:
        """Physical slot of the metadata line covering ``line_addr``."""
        index = line_addr // self.LINES_PER_SLOT
        return self.memory.capacity_lines - 1 - index

    def _touch_metadata(self, line_addr: int, now: int, dirty: bool) -> None:
        """Access the metadata through its cache, charging DRAM on miss."""
        meta_addr = self._metadata_addr(line_addr)
        hit = self.metadata_cache.lookup(meta_addr)
        if hit is not None:
            hit.dirty = hit.dirty or dirty
            return
        self.dram.access(meta_addr, now, Category.METADATA_READ)
        victim = self.metadata_cache.fill(meta_addr, _placeholder, dirty=dirty)
        if victim is not None and victim.dirty:
            self.dram.access(victim.addr, now, Category.METADATA_WRITE)

    @property
    def metadata_hit_rate(self) -> float:
        return self.metadata_cache.hit_rate

    def storage_bits(self) -> Dict[str, int]:
        """On-chip cost: the metadata cache dominates."""
        return {"metadata_cache": self.config.cache_bytes * 8}


class MetadataTableController(TableMetadataController):
    """Table-based TMC: CSI in memory + on-chip metadata cache."""

    name = "tmc_table"
    LINES_PER_SLOT = 256  # 2-bit CSI x 256 lines = 64 bytes

    def __init__(
        self,
        memory: PhysicalMemory,
        dram: DRAMSystem,
        compressor: Optional[CompressionAlgorithm] = None,
        config: MetadataTableConfig = MetadataTableConfig(),
    ) -> None:
        super().__init__(memory, dram, config, "metadata_cache")
        self.compressor = compressor if compressor is not None else HybridCompressor()
        self._csi: Dict[int, Level] = {}
        self.clean_writebacks = 0

    # CSI table ------------------------------------------------------------

    def _csi_level(self, addr: int) -> Level:
        return self._csi.get(addr, Level.UNCOMPRESSED)

    def _csi_set(self, addr: int, level: Level) -> bool:
        """Update the table; returns whether the stored value changed."""
        if self._csi_level(addr) == level:
            return False
        if level is Level.UNCOMPRESSED:
            self._csi.pop(addr, None)
        else:
            self._csi[addr] = level
        return True

    def register_stats(self, scope: StatScope) -> None:
        """Expose the metadata cache (``tmc_table.metadata_cache.*``)."""
        scope.counter("clean_writebacks", lambda: self.clean_writebacks)
        self.metadata_cache.register_stats(scope.scope("metadata_cache"))

    # Read path ------------------------------------------------------------

    def read_line(self, addr: int, now: int, core_id: int, llc: LLCView) -> ReadResult:
        self._touch_metadata(addr, now, dirty=False)
        level = self._csi_level(addr)
        loc = address_map.location_for(addr, level)
        completion = self.dram.access(loc, now, Category.DATA_READ)
        slot = self.memory.read(loc)
        if level is Level.UNCOMPRESSED:
            return ReadResult(addr=addr, data=slot, level=level, completion=completion)
        members = address_map.slot_members(loc, level)
        lines = decompress_group(self.compressor, slot, level)
        extras = {m: line for m, line in zip(members, lines) if m != addr}
        return ReadResult(
            addr=addr,
            data=lines[members.index(addr)],
            level=level,
            completion=completion + DECOMPRESSION_LATENCY,
            extra_lines=extras,
        )

    # Eviction path ----------------------------------------------------------

    def handle_eviction(
        self, evicted: EvictedLine, now: int, core_id: int, llc: LLCView
    ) -> WriteResult:
        result = WriteResult()
        gang = self._collect_gang(evicted, llc, result, now)
        candidates: Dict[int, LineState] = dict(gang)
        for neighbour in address_map.group_lines(evicted.addr):
            if neighbour in candidates:
                continue
            resident = llc.probe(neighbour)
            if resident is not None:
                # previous residency comes from the authoritative CSI, not
                # the LLC tag, so skip-write decisions can never desync
                candidates[neighbour] = LineState(
                    neighbour, resident.data, resident.dirty, self._csi_level(neighbour)
                )

        units = select_units(
            plan_placement(self.compressor, evicted.addr, candidates, _no_marker),
            gang, candidates, llc, result,
        )

        csi_dirty = False
        for level, slot, members, packed in units:
            csi_dirty |= self._write_unit(level, slot, members, packed, gang, now)
        if csi_dirty:
            self._touch_metadata(evicted.addr, now, dirty=True)
        return result

    def _collect_gang(
        self, evicted: EvictedLine, llc: LLCView, result: WriteResult, now: int
    ) -> Dict[int, LineState]:
        """Ganged eviction driven by the authoritative CSI."""
        gang: Dict[int, LineState] = {
            evicted.addr: LineState(
                evicted.addr, evicted.data, evicted.dirty, self._csi_level(evicted.addr)
            )
        }
        frontier = [evicted.addr]
        while frontier:
            addr = frontier.pop()
            level = gang[addr].fill_level
            if level is Level.UNCOMPRESSED:
                continue
            slot = address_map.location_for(addr, level)
            for member in address_map.slot_members(slot, level):
                if member in gang:
                    continue
                line = llc.force_evict(member)
                if line is not None:
                    gang[member] = LineState(
                        member, line.data, line.dirty, self._csi_level(member)
                    )
                    result.ganged.append(member)
                    frontier.append(member)
                else:
                    # partner uncached: recover from the compressed slot (RMW)
                    self.dram.access(slot, now, Category.MAINTENANCE)
                    lines = decompress_group(
                        self.compressor, self.memory.read(slot), level
                    )
                    members_all = address_map.slot_members(slot, level)
                    gang[member] = LineState(
                        member, lines[members_all.index(member)], False, level
                    )
                    frontier.append(member)
        return gang

    def _write_unit(
        self,
        level: Level,
        slot: int,
        members: List[int],
        packed: Optional[bytes],
        gang: Dict[int, LineState],
        now: int,
    ) -> bool:
        """Write one unit and update the CSI; returns whether CSI changed."""
        states = [gang[a] for a in members]
        any_dirty = any(s.dirty for s in states)
        updates = [self._csi_set(a, level) for a in members]  # no short-circuit
        changed = any(updates)
        if level is Level.UNCOMPRESSED:
            state = states[0]
            relocated = state.fill_level is not Level.UNCOMPRESSED
            if not state.dirty and not relocated:
                return changed
            category = Category.DATA_WRITE if state.dirty else Category.CLEAN_WRITEBACK
            self.dram.access(slot, now, category)
            self.memory.write(slot, state.data)
        else:
            unchanged = all(s.fill_level == level for s in states)
            if unchanged and not any_dirty:
                return changed
            category = Category.DATA_WRITE if any_dirty else Category.CLEAN_WRITEBACK
            self.dram.access(slot, now, category)
            self.memory.write(slot, packed)
        if category is Category.CLEAN_WRITEBACK:
            self.clean_writebacks += 1
        return changed


_placeholder = b"\x00" * 64
"""Metadata-cache lines model presence only; the tables live in each
controller (``_csi`` for table TMC, ``_bursts`` for MemZip)."""
