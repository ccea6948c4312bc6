"""PTMC: Practical and Transparent Memory-Compression controller (§IV).

This is the paper's primary contribution.  Reads use the Line Location
Predictor to pick a candidate slot, verify the guess with the inline
marker, and fall back to the remaining candidate locations on a
misprediction.  Evictions compact compressible neighbour groups into one
slot (with ganged eviction keeping compressed groups resident together),
write Marker-IL over slots whose contents became stale, and handle
marker collisions on uncompressed data with line inversion + the LIT.

A :class:`~repro.core.policy.CompressionPolicy` decides whether new
compactions happen; plugging in ``SamplingPolicy`` yields Dynamic-PTMC.
Reads always honour markers regardless of policy — that is what makes
dynamically disabling compression safe without decompressing memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cache.cache import EvictedLine
from repro.compression.base import LINE_SIZE, CompressionAlgorithm
from repro.compression.hybrid import HybridCompressor
from repro.core import address_map
from repro.core.base_controller import DECOMPRESSION_LATENCY, LLCView, MemoryController
from repro.core.lit import LineInversionTable, LITOverflow, LITPolicy
from repro.core.llp import LineLocationPredictor
from repro.core.markers import MarkerScheme, SlotKind, invert
from repro.core.packing import (
    LineState,
    Unit,
    compress_group,
    decompress_group,
    plan_placement,
    select_units,
)
from repro.core.policy import AlwaysOnPolicy, CompressionPolicy
from repro.dram.storage import PhysicalMemory
from repro.dram.system import DRAMSystem
from repro.obs.stats import StatScope
from repro.types import Category, Level, ReadResult, WriteResult


@dataclass(frozen=True)
class PTMCConfig:
    """Tunable parameters of the PTMC design (paper defaults)."""

    marker_size: int = 4
    lct_entries: int = 512
    lit_capacity: int = 16
    lit_policy: LITPolicy = LITPolicy.REKEY
    ganged_eviction: bool = True
    #: how many rekey sweeps one store may trigger before falling back to
    #: a memory-mapped LIT spill (prevents unbounded rekey recursion when
    #: fresh markers keep colliding)
    max_rekeys: int = 3


class PTMCController(MemoryController):
    """The PTMC memory controller (inline metadata + LLP + LIT)."""

    name = "ptmc"

    def __init__(
        self,
        memory: PhysicalMemory,
        dram: DRAMSystem,
        compressor: Optional[CompressionAlgorithm] = None,
        config: PTMCConfig = PTMCConfig(),
        policy: Optional[CompressionPolicy] = None,
    ) -> None:
        super().__init__(memory, dram)
        self.config = config
        self.compressor = compressor if compressor is not None else HybridCompressor()
        self.policy = policy if policy is not None else AlwaysOnPolicy()
        self.markers = MarkerScheme(marker_size=config.marker_size)
        self.llp = LineLocationPredictor(config.lct_entries)
        self.lit = LineInversionTable(config.lit_capacity, config.lit_policy)
        # statistics
        self.reads_by_level: Dict[Level, int] = {level: 0 for level in Level}
        self.inversions = 0
        self.rekeys = 0
        self.invalidate_writes = 0
        self.clean_writebacks = 0

    def register_stats(self, scope: StatScope) -> None:
        """Expose PTMC's counters (``ptmc.*``) and the LLP's (``ptmc.llp.*``)."""
        scope.counter("inversions", lambda: self.inversions)
        scope.counter("rekeys", lambda: self.rekeys)
        scope.counter("invalidate_writes", lambda: self.invalidate_writes)
        scope.counter("clean_writebacks", lambda: self.clean_writebacks)
        scope.gauge("lit_occupancy", lambda: len(self.lit))
        reads = scope.scope("reads")
        for level in Level:
            reads.counter(
                level.name.lower(), lambda lv=level: self.reads_by_level[lv]
            )
        self.llp.register_stats(scope.scope("llp"))

    # ------------------------------------------------------------------
    # Read path (paper Fig. 7)
    # ------------------------------------------------------------------

    def read_line(self, addr: int, now: int, core_id: int, llc: LLCView) -> ReadResult:
        predicted = address_map.needs_prediction(addr)
        search_order = self._search_order(addr)
        accesses = 0
        completion = now
        for loc in search_order:
            category = Category.DATA_READ if accesses == 0 else Category.MISPREDICT_READ
            completion = self.dram.access(loc, now, category)
            accesses += 1
            slot = self.memory.read(loc)
            resolved = self._interpret(loc, slot, addr, now)
            if resolved is None:
                continue
            data, extras, actual_level, compressed = resolved
            if accesses > 1:
                # One wrong prediction, however many candidate slots the
                # re-issue walked — and only when a prediction was made at
                # all (group bases have a single fixed location).
                if predicted:
                    self.llp.record_mispredict(accesses - 1)
                if llc.is_sampled_set(addr):
                    for _ in range(accesses - 1):
                        self.policy.on_cost(core_id)
            if predicted:
                self.llp.update(addr, actual_level)
            if compressed:
                completion += DECOMPRESSION_LATENCY
            self.reads_by_level[actual_level] += 1
            return ReadResult(
                addr=addr,
                data=data,
                level=actual_level,
                completion=completion,
                accesses=accesses,
                extra_lines=extras,
            )
        raise RuntimeError(f"line {addr:#x} unlocatable — memory invariant broken")

    def _search_order(self, addr: int) -> List[int]:
        """Candidate slots, starting from the LLP's prediction."""
        candidates = [loc for loc, _ in address_map.candidate_locations(addr)]
        if not address_map.needs_prediction(addr):
            return candidates  # group base: single fixed location
        predicted = self.llp.predict(addr)
        first = address_map.location_for(addr, predicted)
        return [first] + [loc for loc in candidates if loc != first]

    def _interpret(
        self, loc: int, slot: bytes, addr: int, now: int
    ) -> Optional[Tuple[bytes, Dict[int, bytes], Level, bool]]:
        """Decode one slot; ``None`` means "the line is not here"."""
        cls = self.markers.classify(loc, slot)
        if cls.kind is SlotKind.INVALID:
            return None
        if cls.kind in (SlotKind.QUAD, SlotKind.PAIR):
            if address_map.location_for(addr, cls.level) != loc:
                return None  # slot holds a different (pair) group
            members = address_map.slot_members(loc, cls.level)
            lines = decompress_group(self.compressor, slot, cls.level)
            extras = {m: line for m, line in zip(members, lines) if m != addr}
            data = lines[members.index(addr)]
            return data, extras, cls.level, True
        # Uncompressed (possibly inverted) data is only valid at the home slot.
        if loc != addr:
            return None
        if cls.kind is SlotKind.MAYBE_INVERTED:
            data = invert(slot) if self._lit_lookup(loc, now) else slot
        else:
            data = slot
        return data, {}, Level.UNCOMPRESSED, False

    def _lit_lookup(self, loc: int, now: int) -> bool:
        """Consult the LIT; memory-mapped spills cost a DRAM access."""
        before = self.lit.spill_lookups
        inverted = self.lit.is_inverted(loc)
        if self.lit.spill_lookups > before:
            self.dram.access(self._lit_spill_addr(loc), now, Category.MAINTENANCE)
        return inverted

    def _lit_spill_addr(self, loc: int) -> int:
        """Slot of the memory-mapped inversion bitmap covering ``loc``."""
        return self.memory.capacity_lines - 1 - (loc // (LINE_SIZE * 8))

    # ------------------------------------------------------------------
    # Eviction path (§IV-C "Handling Updates", "Ganged Eviction")
    # ------------------------------------------------------------------

    def handle_eviction(
        self, evicted: EvictedLine, now: int, core_id: int, llc: LLCView
    ) -> WriteResult:
        sampled = llc.is_sampled_set(evicted.addr)
        enabled = sampled or self.policy.enabled_for(core_id)
        result = WriteResult()

        # 1. Lines that must leave the LLC: the victim plus, by ganged
        #    eviction, every slot-mate of any previously compressed member.
        #    With ganged eviction the LLC tags are always accurate; the
        #    retain-lines ablation can leave them stale (memory-side
        #    repacks change a cached line's residency behind its back), so
        #    its read-modify-write probe re-verifies the level first.
        if not self.config.ganged_eviction:
            verified = self._verified_level(evicted.addr)
            if verified != evicted.fill_level:
                self.dram.access(evicted.addr, now, Category.MAINTENANCE)
                evicted = EvictedLine(
                    evicted.addr, evicted.data, evicted.dirty, verified, evicted.core_id
                )
        gang = self._collect_gang(evicted, now, llc, result)

        # 2. Compaction candidates: the gang plus still-resident group
        #    neighbours ("checks if the neighboring cachelines are present
        #    in the LLC").
        candidates: Dict[int, LineState] = dict(gang)
        if enabled:
            for neighbour in address_map.group_lines(evicted.addr):
                if neighbour in candidates:
                    continue
                resident = llc.probe(neighbour)
                if resident is not None:
                    level = (
                        resident.fill_level
                        if self.config.ganged_eviction
                        else self._verified_level(neighbour)
                    )
                    candidates[neighbour] = LineState(
                        neighbour, resident.data, resident.dirty, level
                    )

        # 3. Placement (Fig. 3): 4:1, else 2:1 per pair, else home slots.
        #    With compression disabled (Dynamic-PTMC) existing groups are
        #    preserved where their data still fits, but none form.  Units
        #    must involve at least one line that is actually leaving;
        #    untouched residents keep their LLC lines.
        if enabled:
            planned = plan_placement(
                self.compressor, evicted.addr, candidates, self.markers.marker
            )
        else:
            planned = self._plan_preserving(candidates)
        units = select_units(planned, gang, candidates, llc, result)

        # 4. Stale-slot analysis: previous residencies of every placed line
        #    that are not rewritten must be marked invalid (Fig. 13).
        placed = [a for _, _, members, _ in units for a in members]
        new_slots = {slot for _, slot, _, _ in units}
        prev_slots = {
            address_map.location_for(a, gang[a].fill_level) for a in placed
        }

        for level, slot, members, packed in units:
            self._write_unit(level, slot, members, packed, gang, now, sampled, core_id)

        for stale in sorted(prev_slots - new_slots):
            if not self._stale_slot_confirmed(stale, gang):
                continue
            self._write_invalid(stale, now)
            if sampled:
                self.policy.on_cost(core_id)
        return result

    def _collect_gang(
        self, evicted: EvictedLine, now: int, llc: LLCView, result: WriteResult
    ) -> Dict[int, LineState]:
        """Ganged eviction: pull out every slot-mate of the victim's group.

        A slot-mate missing from the LLC — possible only when ganged
        eviction is disabled (ablation, paper footnote 7) — is recovered
        from memory with a read-modify-write access.
        """
        gang: Dict[int, LineState] = {
            evicted.addr: LineState(
                evicted.addr, evicted.data, evicted.dirty, evicted.fill_level
            )
        }
        charged_slots = set()  # one RMW read per slot, however many mates
        frontier = [evicted.addr]
        while frontier:
            addr = frontier.pop()
            state = gang[addr]
            if state.fill_level is Level.UNCOMPRESSED:
                continue
            slot = address_map.location_for(addr, state.fill_level)
            for member in address_map.slot_members(slot, state.fill_level):
                if member in gang:
                    continue
                if self.config.ganged_eviction:
                    line = llc.force_evict(member)
                    if line is not None:
                        gang[member] = LineState(
                            member, line.data, line.dirty, line.fill_level
                        )
                        result.ganged.append(member)
                        frontier.append(member)
                        continue
                else:
                    # retain-lines: a resident slot-mate's cached copy is
                    # fresher than the memory slot; use it, leave it cached
                    resident = llc.probe(member)
                    if resident is not None:
                        gang[member] = LineState(
                            member, resident.data, resident.dirty, state.fill_level
                        )
                        frontier.append(member)
                        continue
                charge = slot not in charged_slots
                charged_slots.add(slot)
                recovered = self._recover_from_memory(
                    slot, state.fill_level, member, now, charge=charge
                )
                if recovered is not None:
                    gang[member] = recovered
                    frontier.append(member)
        return gang

    def _verified_level(self, addr: int) -> Level:
        """The line's true residency level, from the markers themselves.

        Used by the retain-lines ablation, whose LLC tags can go stale; in
        hardware the information comes from the read-modify-write access
        that design performs anyway (the sim charges it at the call site).
        """
        for loc, _ in address_map.candidate_locations(addr):
            cls = self.markers.classify(loc, self.memory.read(loc))
            if cls.kind in (SlotKind.PAIR, SlotKind.QUAD):
                if address_map.location_for(addr, cls.level) == loc:
                    return cls.level
        return Level.UNCOMPRESSED

    def _recover_from_memory(
        self, slot: int, level: Level, member: int, now: int, charge: bool = True
    ) -> Optional[LineState]:
        """Read-modify-write support: pull an uncached slot-mate from DRAM."""
        if charge:
            self.dram.access(slot, now, Category.MAINTENANCE)
        raw = self.memory.read(slot)
        cls = self.markers.classify(slot, raw)
        if cls.kind not in (SlotKind.PAIR, SlotKind.QUAD) or cls.level != level:
            return None  # slot moved on since this line was filled; tag is stale
        members = address_map.slot_members(slot, level)
        lines = decompress_group(self.compressor, raw, level)
        return LineState(member, lines[members.index(member)], False, level)

    def _plan_preserving(self, candidates: Dict[int, LineState]) -> List[Unit]:
        """Disabled-compression placement: keep existing groups, form none.

        Inline metadata is what lets compression be switched off without
        globally decompressing memory.  Members that were filled from a
        compressed slot stay together at that slot as long as their
        (possibly updated) data still fits; only genuinely incompressible
        updates force a relocation home.
        """
        units: List[Unit] = []
        grouped: Dict[Tuple[int, Level], List[int]] = {}
        for a, state in candidates.items():
            if state.fill_level is Level.UNCOMPRESSED:
                units.append((Level.UNCOMPRESSED, a, [a], None))
            else:
                slot = address_map.location_for(a, state.fill_level)
                grouped.setdefault((slot, state.fill_level), []).append(a)
        for (slot, level), members in grouped.items():
            expected = address_map.slot_members(slot, level)
            packed = None
            if sorted(members) == expected:
                packed = compress_group(
                    self.compressor,
                    [candidates[a].data for a in expected],
                    self.markers.marker(slot, level),
                )
            if packed is not None:
                units.append((level, slot, expected, packed))
            else:
                units.extend(
                    (Level.UNCOMPRESSED, a, [a], None) for a in sorted(members)
                )
        return units

    def _write_unit(
        self,
        level: Level,
        slot: int,
        members: List[int],
        packed: Optional[bytes],
        gang: Dict[int, LineState],
        now: int,
        sampled: bool,
        core_id: int,
    ) -> None:
        """Write one placement unit unless memory already holds it."""
        states = [gang[a] for a in members]
        any_dirty = any(s.dirty for s in states)
        if level is Level.UNCOMPRESSED:
            state = states[0]
            relocated = state.fill_level is not Level.UNCOMPRESSED
            if not state.dirty and not relocated:
                return  # clean line already correct at home — free eviction
            category = Category.DATA_WRITE if state.dirty else Category.CLEAN_WRITEBACK
            self._write_uncompressed(slot, state.data, now, category)
            if category is Category.CLEAN_WRITEBACK and sampled:
                self.policy.on_cost(core_id)
            return
        unchanged = all(s.fill_level == level for s in states)
        if unchanged and not any_dirty:
            return  # identical compressed slot already resident
        category = Category.DATA_WRITE if any_dirty else Category.CLEAN_WRITEBACK
        self.dram.access(slot, now, category)
        self.memory.write(slot, packed)
        if self.lit.remove(slot):
            self.dram.access(self._lit_spill_addr(slot), now, Category.MAINTENANCE)
        if category is Category.CLEAN_WRITEBACK:
            self.clean_writebacks += 1
            if sampled:
                self.policy.on_cost(core_id)

    def _write_uncompressed(
        self, addr: int, data: bytes, now: int, category: Category
    ) -> None:
        """Store a plain line, inverting it on marker collision (Fig. 11)."""
        stored = self._encode_uncompressed(addr, data, now)
        self.dram.access(addr, now, category)
        self.memory.write(addr, stored)
        if category is Category.CLEAN_WRITEBACK:
            self.clean_writebacks += 1

    def _encode_uncompressed(self, addr: int, data: bytes, now: int) -> bytes:
        """Resolve marker collisions; returns the bytes to store at ``addr``.

        A colliding line is inverted and tracked in the LIT.  On LIT
        overflow under the REKEY policy, memory is re-encoded with fresh
        markers and the collision is re-evaluated — the new markers almost
        certainly no longer collide with this data.  The retry is bounded:
        after ``config.max_rekeys`` sweeps for a single store (pathological
        adversarial data), the entry spills to the memory-mapped bitmap
        instead of rekeying forever.
        """
        rekeys_left = self.config.max_rekeys
        while True:
            if not self.markers.collides(addr, data):
                if self.lit.remove(addr):
                    self.dram.access(
                        self._lit_spill_addr(addr), now, Category.MAINTENANCE
                    )
                return data
            try:
                spilled = self.lit.insert(addr)
            except LITOverflow:
                if rekeys_left <= 0:
                    spilled = self.lit.force_spill(addr)
                else:
                    rekeys_left -= 1
                    self._rekey_sweep(now)
                    continue
            if spilled:
                self.dram.access(self._lit_spill_addr(addr), now, Category.MAINTENANCE)
            self.inversions += 1
            return invert(data)

    def _stale_slot_confirmed(self, slot: int, gang: Dict[int, LineState]) -> bool:
        """Safety net: only invalidate slots that really hold stale copies.

        With ganged eviction and accurate LLC tags this always holds; the
        check (a free peek in the simulator) protects the functional model
        when the retain-lines ablation leaves tags stale.
        """
        raw = self.memory.read(slot)
        cls = self.markers.classify(slot, raw)
        if cls.kind in (SlotKind.PAIR, SlotKind.QUAD):
            return any(
                m in gang and gang[m].fill_level == cls.level
                for m in address_map.slot_members(slot, cls.level)
            )
        if cls.kind is SlotKind.INVALID:
            return False  # already invalid; skip the redundant write
        return slot in gang and gang[slot].fill_level is Level.UNCOMPRESSED

    def _write_invalid(self, slot: int, now: int) -> None:
        """Overwrite a stale slot with Marker-IL (Fig. 13)."""
        self.dram.access(slot, now, Category.INVALIDATE_WRITE)
        self.memory.write(slot, self.markers.invalid_marker(slot))
        if self.lit.remove(slot):
            self.dram.access(self._lit_spill_addr(slot), now, Category.MAINTENANCE)
        self.invalidate_writes += 1

    # ------------------------------------------------------------------
    # LIT overflow: rekey and re-encode memory (§IV-C Option 2)
    # ------------------------------------------------------------------

    def _rekey_sweep(self, now: int) -> None:
        """Regenerate markers and re-encode every resident slot.

        The paper expects this less than once per 10 million years; it is
        implemented for completeness and to keep the functional model
        consistent.  Every resident slot is decoded under the old markers
        and re-written under the new ones (charged as maintenance traffic).
        """
        self.rekeys += 1
        resident = self.memory.resident_lines()
        decoded: List[Tuple[int, str, object]] = []
        for loc, raw in resident.items():
            cls = self.markers.classify(loc, raw)
            if cls.kind is SlotKind.INVALID:
                decoded.append((loc, "invalid", None))
            elif cls.kind in (SlotKind.PAIR, SlotKind.QUAD):
                lines = decompress_group(self.compressor, raw, cls.level)
                decoded.append((loc, "packed", (cls.level, lines)))
            else:
                data = invert(raw) if self.lit.is_inverted(loc) else raw
                decoded.append((loc, "plain", data))
            self.dram.access(loc, now, Category.MAINTENANCE)
        self.markers.rekey()
        self.lit.clear()
        for loc, kind, info in decoded:
            if kind == "invalid":
                self.memory.write(loc, self.markers.invalid_marker(loc))
            elif kind == "packed":
                level, lines = info
                packed = compress_group(
                    self.compressor, lines, self.markers.marker(loc, level)
                )
                if packed is None:
                    raise RuntimeError("re-encode failed after rekey")
                self.memory.write(loc, packed)
            else:
                if self.markers.collides(loc, info):
                    try:
                        self.lit.insert(loc)
                    except LITOverflow:
                        # the fresh key still collides on more lines than
                        # the LIT holds; spill rather than rekey recursively
                        self.lit.force_spill(loc)
                    self.memory.write(loc, invert(info))
                else:
                    self.memory.write(loc, info)
            self.dram.access(loc, now, Category.MAINTENANCE)

    # ------------------------------------------------------------------

    def storage_bits(self) -> Dict[str, int]:
        """Table III: the on-chip structures PTMC adds (< 300 bytes)."""
        bits = {
            "marker_2to1": self.config.marker_size * 8,
            "marker_4to1": self.config.marker_size * 8,
            "marker_invalid": LINE_SIZE * 8,
            "line_inversion_table": self.lit.storage_bits(),
            "line_location_predictor": self.llp.storage_bits(),
        }
        policy_bits = getattr(self.policy, "storage_bits", None)
        if policy_bits is not None:
            bits["dynamic_counters"] = policy_bits()
        return bits
