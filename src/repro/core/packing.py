"""Packing compressed neighbour lines into 64-byte slots, and where they go.

A compressed slot holds 2 or 4 lines' payloads plus the inline marker
(paper Fig. 10).  The layout is self-describing given the count implied
by the marker:

``[len_0 .. len_{n-1}] [payload_0 .. payload_{n-1}] [zero pad] [marker]``

One length byte per member is charged against the 64-byte budget, so a
pair must compress to ``64 - 4 - 2 = 58`` payload bytes and a quad to
``64 - 4 - 4 = 56`` — the spirit of the paper's "60 bytes of usable
space once the 4-byte marker is reserved".

Placement (paper Fig. 3) is shared by every design that compacts
groups at LLC eviction: :func:`plan_placement` packs the whole group
4:1 into its base, else each pair 2:1, else leaves lines at home, and
:func:`select_units` keeps the units an eviction actually has to write.
The designs differ only in where the compression status lives: PTMC
stamps an inline marker into each slot, table-based TMC passes an
empty marker because its table says how each slot is packed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.compression.base import LINE_SIZE, CompressionAlgorithm, CompressionError
from repro.core import address_map
from repro.core.base_controller import LLCView
from repro.types import Level, WriteResult


def payload_budget(level: Level, marker_size: int = 4) -> int:
    """Usable payload bytes in one slot at ``level``."""
    return LINE_SIZE - marker_size - int(level)


def pack_slot(
    payloads: Sequence[bytes], marker: bytes
) -> Optional[bytes]:
    """Assemble a compressed slot, or ``None`` if the payloads don't fit."""
    count = len(payloads)
    if count not in (2, 4):
        raise ValueError("slots hold 2 or 4 compressed lines")
    total = count + sum(len(p) for p in payloads) + len(marker)
    if total > LINE_SIZE:
        return None
    if any(len(p) == 0 or len(p) > 255 for p in payloads):
        raise ValueError("payloads must be 1..255 bytes")
    parts = [bytes(len(p) for p in payloads)]
    parts.extend(payloads)
    parts.append(b"\x00" * (LINE_SIZE - total))
    parts.append(marker)
    return b"".join(parts)


def unpack_slot(slot: bytes, level: Level) -> List[bytes]:
    """Split a compressed slot back into its member payloads."""
    if len(slot) != LINE_SIZE:
        raise ValueError("slots are exactly 64 bytes")
    count = int(level)
    if count not in (2, 4):
        raise CompressionError("only pair/quad slots can be unpacked")
    lengths = slot[:count]
    payloads = []
    pos = count
    for length in lengths:
        if length == 0 or pos + length > LINE_SIZE:
            raise CompressionError("corrupt slot header")
        payloads.append(slot[pos : pos + length])
        pos += length
    return payloads


def compress_group(
    algorithm: CompressionAlgorithm,
    lines: Sequence[bytes],
    marker: bytes,
) -> Optional[bytes]:
    """Compress 2 or 4 neighbour lines into one slot, or ``None``.

    This is the check the memory controller performs at LLC eviction:
    can this group fit one 64-byte slot including the marker?

    When the algorithm keeps a size memo (``cached_size``), known sizes
    answer the fit question without materialising any payload.  The
    reject conditions replicate the slow path exactly: a member of size
    ``LINE_SIZE`` is one ``compress`` would refuse (every algorithm
    returns ``None`` rather than a >= 64-byte payload), and the budget
    test is the same inequality :func:`pack_slot` applies — so the fast
    path can only skip work, never change the answer.
    """
    sizer = getattr(algorithm, "cached_size", None)
    if sizer is not None:
        total = len(marker) + len(lines)
        for line in lines:
            size = sizer(line)
            if size is None:
                break  # unknown member: fall through to the slow path
            if size >= LINE_SIZE:
                return None  # incompressible member
            total += size
        else:
            if total > LINE_SIZE:
                return None
    payloads = []
    for line in lines:
        payload = algorithm.compress(line)
        if payload is None:
            return None
        payloads.append(payload)
    return pack_slot(payloads, marker)


def decompress_group(
    algorithm: CompressionAlgorithm, slot: bytes, level: Level
) -> List[bytes]:
    """Recover all member lines of a compressed slot, in group order."""
    return [algorithm.decompress(p) for p in unpack_slot(slot, level)]


@dataclass
class LineState:
    """A group member's state at eviction-handling time."""

    addr: int
    data: bytes
    dirty: bool
    fill_level: Level


#: A placement decision: (level, slot, member addrs, packed slot bytes).
Unit = Tuple[Level, int, List[int], Optional[bytes]]


def plan_placement(
    compressor: CompressionAlgorithm,
    addr: int,
    candidates: Dict[int, LineState],
    marker: Callable[[int, Level], bytes],
) -> List[Unit]:
    """New residency for the candidate lines of ``addr``'s group (Fig. 3).

    4:1 into the group base if the whole group is present and fits, else
    2:1 per present pair that fits, else each line at its home slot.
    ``marker(slot, level)`` gives the bytes that end a packed slot.
    """
    base = address_map.group_base(addr)
    group = address_map.group_lines(addr)
    if all(a in candidates for a in group):
        packed = compress_group(
            compressor, [candidates[a].data for a in group], marker(base, Level.QUAD)
        )
        if packed is not None:
            return [(Level.QUAD, base, group, packed)]
    units: List[Unit] = []
    for pair_start in (base, base + 2):
        pair = [pair_start, pair_start + 1]
        present = [a for a in pair if a in candidates]
        if len(present) == 2:
            packed = compress_group(
                compressor,
                [candidates[a].data for a in pair],
                marker(pair_start, Level.PAIR),
            )
            if packed is not None:
                units.append((Level.PAIR, pair_start, pair, packed))
                continue
        for a in present:
            units.append((Level.UNCOMPRESSED, a, [a], None))
    return units


def select_units(
    units: List[Unit],
    gang: Dict[int, LineState],
    candidates: Dict[int, LineState],
    llc: LLCView,
    result: WriteResult,
) -> List[Unit]:
    """The planned units an eviction writes; sets ``result.level``.

    A unit is kept only if it involves a line leaving the LLC (one in
    ``gang``): untouched residents keep their LLC lines, and groups
    unrelated to the victim are not compacted.  Resident partners of a
    kept compressed unit are gang-evicted from ``llc`` into ``gang``.
    """
    kept = []
    for unit in units:
        level, _, members, _ = unit
        if level is Level.UNCOMPRESSED:
            if members[0] not in gang:
                continue
        elif not any(m in gang for m in members):
            continue
        kept.append(unit)
        if level is not Level.UNCOMPRESSED:
            for member in members:
                if member not in gang:
                    llc.force_evict(member)
                    gang[member] = candidates[member]
                    result.ganged.append(member)
    result.level = max((level for level, _, _, _ in kept), default=Level.UNCOMPRESSED)
    return kept
