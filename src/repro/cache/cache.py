"""Set-associative write-back cache with per-line data and metadata.

Used for every level of the hierarchy (L1/L2/L3) and for the baseline
design's 32KB metadata cache.  Lines carry their actual 64-byte contents —
the compression machinery needs real values — plus the PTMC bookkeeping
the paper adds to the LLC tag store: a dirty bit, the 2-bit compression
level observed when the line was filled from memory, the requesting-core
id (for per-core Dynamic-PTMC) and a "prefetched, not yet referenced"
bit used to credit useful bandwidth-free prefetches.

Replacement is delegated to a pluggable
:class:`~repro.cache.replacement.ReplacementPolicy` (DESIGN.md §10).
Each set is an insertion-ordered mapping the policy may reorder; the
default ``lru`` policy reproduces the historical hard-coded behaviour
operation-for-operation, so default-path simulations are bitwise
identical to the pre-seam code.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Union

from repro.cache.replacement import DEFAULT_POLICY, ReplacementPolicy, make_policy
from repro.compression.base import LINE_SIZE
from repro.obs.stats import StatScope
from repro.types import Level


@dataclass(slots=True)
class CacheLine:
    """One resident line: contents plus tag-store metadata."""

    addr: int
    data: bytes
    dirty: bool = False
    fill_level: Level = Level.UNCOMPRESSED
    core_id: int = 0
    prefetched: bool = False


@dataclass(slots=True)
class EvictedLine:
    """A line pushed out of the cache, with the state the victim had.

    ``prefetched`` preserves the victim's "installed by a co-fetch, never
    demand-referenced" flag so the hierarchy can account wasted
    prefetches (a bit the pre-seam code silently dropped).
    """

    addr: int
    data: bytes
    dirty: bool
    fill_level: Level
    core_id: int
    prefetched: bool = False


class Cache:
    """A set-associative cache of 64-byte lines with pluggable replacement.

    ``policy`` accepts a registry name (``"lru"``, the default,
    ``"fifo"``, ``"random"``, ``"srrip"``, ``"pref_lru"``) or a ready
    :class:`ReplacementPolicy` instance.  A name is instantiated for this
    cache with seed 0; a seeded random policy comes from
    :func:`~repro.cache.replacement.make_policy`.
    """

    def __init__(
        self,
        size_bytes: int,
        ways: int,
        name: str = "cache",
        policy: Union[str, ReplacementPolicy] = DEFAULT_POLICY,
    ) -> None:
        if size_bytes % (ways * LINE_SIZE) != 0:
            raise ValueError("cache size must be a multiple of ways * line size")
        self.name = name
        self.ways = ways
        self.num_sets = size_bytes // (ways * LINE_SIZE)
        if self.num_sets < 1:
            raise ValueError("cache must have at least one set")
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]
        if isinstance(policy, str):
            policy = make_policy(policy, cache_name=name)
        self.policy = policy
        self.policy.bind(self.num_sets, ways)
        self.hits = 0
        self.misses = 0
        self.policy_evictions = 0
        self.prefetch_victims = 0

    # Indexing -----------------------------------------------------------

    def set_index(self, addr: int) -> int:
        return addr % self.num_sets

    def _set_for(self, addr: int) -> OrderedDict:
        return self._sets[self.set_index(addr)]

    # Lookup / update ------------------------------------------------------

    def lookup(self, addr: int, touch: bool = True) -> Optional[CacheLine]:
        """Return the resident line (updating policy state) or ``None``.

        Statistics count a hit/miss per call; use ``probe`` for a
        side-effect-free check.
        """
        set_index = self.set_index(addr)
        cache_set = self._sets[set_index]
        line = cache_set.get(addr)
        if line is None:
            self.misses += 1
            return None
        self.hits += 1
        if touch:
            self.policy.on_hit(set_index, cache_set, addr)
        return line

    def probe(self, addr: int) -> Optional[CacheLine]:
        """Check residency without touching policy state or statistics."""
        return self._set_for(addr).get(addr)

    def fill(
        self,
        addr: int,
        data: bytes,
        dirty: bool = False,
        fill_level: Level = Level.UNCOMPRESSED,
        core_id: int = 0,
        prefetched: bool = False,
    ) -> Optional[EvictedLine]:
        """Install a line, returning the victim if one was displaced.

        Filling an already-resident address updates it in place (no
        eviction) and counts as a touch; callers use this for writes
        that hit.
        """
        set_index = self.set_index(addr)
        cache_set = self._sets[set_index]
        existing = cache_set.get(addr)
        if existing is not None:
            existing.data = data
            existing.dirty = existing.dirty or dirty
            self.policy.on_hit(set_index, cache_set, addr)
            return None
        victim: Optional[EvictedLine] = None
        if len(cache_set) >= self.ways:
            victim_addr = self.policy.select_victim(set_index, cache_set)
            old = cache_set.pop(victim_addr)
            self.policy.on_evict(set_index, victim_addr)
            self.policy_evictions += 1
            if old.prefetched:
                self.prefetch_victims += 1
            victim = self._evicted(old)
        cache_set[addr] = CacheLine(
            addr=addr,
            data=data,
            dirty=dirty,
            fill_level=fill_level,
            core_id=core_id,
            prefetched=prefetched,
        )
        self.policy.on_fill(set_index, cache_set, addr)
        return victim

    def evict(self, addr: int) -> Optional[EvictedLine]:
        """Forcibly remove a specific line (ganged eviction support)."""
        set_index = self.set_index(addr)
        line = self._sets[set_index].pop(addr, None)
        if line is None:
            return None
        self.policy.on_evict(set_index, addr)
        return self._evicted(line)

    def invalidate(self, addr: int) -> bool:
        """Drop a line without writeback; returns whether it was present."""
        set_index = self.set_index(addr)
        present = self._sets[set_index].pop(addr, None) is not None
        if present:
            self.policy.on_evict(set_index, addr)
        return present

    @staticmethod
    def _evicted(line: CacheLine) -> EvictedLine:
        return EvictedLine(
            line.addr,
            line.data,
            line.dirty,
            line.fill_level,
            line.core_id,
            line.prefetched,
        )

    # Iteration / statistics ----------------------------------------------

    def resident(self) -> Iterator[CacheLine]:
        for cache_set in self._sets:
            yield from cache_set.values()

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def register_stats(self, scope: StatScope, windowed: bool = True) -> None:
        """Expose hit/miss counters and the derived hit rate.

        ``windowed=False`` keeps whole-run accounting across a snapshot
        boundary (the MemZip metadata cache reports its historical
        warmup-inclusive hit rate this way).
        """
        hits = scope.counter("hits", lambda: self.hits, windowed=windowed)
        misses = scope.counter("misses", lambda: self.misses, windowed=windowed)
        scope.ratio("hit_rate", hits, [hits, misses])

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.policy_evictions = 0
        self.prefetch_victims = 0

    def drain(self, sink: Callable[[EvictedLine], None]) -> None:
        """Evict everything through ``sink`` (end-of-simulation flush)."""
        for set_index, cache_set in enumerate(self._sets):
            while cache_set:
                addr, line = cache_set.popitem(last=False)
                self.policy.on_evict(set_index, addr)
                sink(self._evicted(line))
