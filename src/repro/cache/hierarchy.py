"""Three-level cache hierarchy wired to a memory controller.

Organisation follows the paper's Table I: private L1/L2 per core and a
shared 8MB/16-way L3 (LLC) over 64-byte lines.  The memory controller is
consulted on L3 misses and L3 evictions; co-fetched lines returned by
compressed reads are installed into L3 with a "prefetched" bit so
Dynamic-PTMC can credit useful bandwidth-free prefetches.

Fidelity simplification (documented in DESIGN.md): L1/L2 are write-through
to the L3, so the L3 copy is always current and carries the dirty bit.
This leaves DRAM traffic — the paper's subject — unchanged while letting
the controller treat L3 contents as authoritative when it compacts
neighbour groups at eviction time.  Inclusion is enforced by
back-invalidating L1/L2 on L3 eviction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.cache.cache import Cache, CacheLine, EvictedLine
from repro.cache.replacement import make_policy
from repro.core.base_controller import LLCView, MemoryController
from repro.core.policy import CompressionPolicy
from repro.obs.stats import StatScope
from repro.types import Level

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.config import SimConfig


@dataclass(frozen=True)
class HierarchyConfig:
    """Cache sizes/latencies (paper Table I; latencies are typical values).

    The core count, the L3 replacement policy and its seed are
    :class:`~repro.sim.config.SimConfig` fields (``num_cores``,
    ``llc_policy``, ``seed``); L1 and L2 always run LRU.
    """

    l1_bytes: int = 32 * 1024
    l1_ways: int = 8
    l1_latency: int = 3
    l2_bytes: int = 256 * 1024
    l2_ways: int = 8
    l2_latency: int = 12
    l3_bytes: int = 8 * 1024 * 1024
    l3_ways: int = 16
    l3_latency: int = 35


@dataclass
class AccessOutcome:
    """Where an access was served and when its data is available."""

    completion: int
    served_by: str  # "l1" | "l2" | "l3" | "mem"
    mem_accesses: int = 0


class _HierarchyLLCView(LLCView):
    """The controller's window into the L3 (plus inclusion maintenance)."""

    def __init__(self, hierarchy: "CacheHierarchy") -> None:
        self._h = hierarchy

    def probe(self, addr: int) -> Optional[CacheLine]:
        return self._h.l3.probe(addr)

    def force_evict(self, addr: int) -> Optional[EvictedLine]:
        line = self._h.l3.evict(addr)
        if line is not None:
            self._h._note_l3_eviction(line)
            self._h._back_invalidate(addr, line.core_id)
        return line

    def is_sampled_set(self, addr: int) -> bool:
        policy = self._h.policy
        if policy is None:
            return False
        # Sampling is decided per compression group (the 4-line unit whose
        # members span 4 consecutive LLC sets): a group's eviction costs
        # and the hits on its co-fetched members must be attributed to the
        # same always-compress sample for the cost/benefit counter to be
        # self-consistent.  Sampling 1/period of the groups is the
        # group-mapped equivalent of the paper's 1%-of-sets sampling.
        return policy.is_sampled_set(addr >> 2)


class CacheHierarchy:
    """L1/L2 per core + shared L3, fronting a memory controller.

    Built from the whole :class:`~repro.sim.config.SimConfig`: sizes and
    latencies from ``config.hierarchy``, one L1/L2 pair per
    ``config.num_cores``, and an L3 running ``config.llc_policy`` (seeded
    from ``config.seed``).
    """

    def __init__(
        self,
        controller: MemoryController,
        config: "SimConfig",
        policy: Optional[CompressionPolicy] = None,
    ) -> None:
        levels = config.hierarchy
        self.config = levels
        self.controller = controller
        self.policy = policy
        cores = range(config.num_cores)
        self.l1s: List[Cache] = [
            Cache(levels.l1_bytes, levels.l1_ways, name=f"l1_{c}") for c in cores
        ]
        self.l2s: List[Cache] = [
            Cache(levels.l2_bytes, levels.l2_ways, name=f"l2_{c}") for c in cores
        ]
        self.l3 = Cache(
            levels.l3_bytes,
            levels.l3_ways,
            name="l3",
            policy=make_policy(config.llc_policy, cache_name="l3", seed=config.seed),
        )
        self.llc_view = _HierarchyLLCView(self)
        self.useful_prefetches = 0
        self.wasted_prefetches = 0
        self.demand_accesses = 0
        # give prefetch-style controllers a residency filter
        if hasattr(controller, "resident_filter"):
            controller.resident_filter = lambda addr: self.l3.probe(addr) is not None

    def register_stats(self, scope: StatScope) -> None:
        """Expose LLC counters at the scope root plus L1/L2 aggregates.

        The shared L3 is the hierarchy's headline statistic, so its
        hit/miss counters sit directly at ``llc.*``; the private levels
        aggregate across cores under ``llc.l1.*`` / ``llc.l2.*``.
        """
        self.l3.register_stats(scope)
        scope.counter("useful_prefetches", lambda: self.useful_prefetches)
        scope.counter(
            "wasted_prefetches",
            lambda: self.wasted_prefetches,
            doc="prefetched lines evicted from the L3 before any demand reference",
        )
        scope.counter("demand_accesses", lambda: self.demand_accesses)
        scope.counter(
            "policy_evictions",
            lambda: self.l3.policy_evictions,
            doc="L3 capacity evictions decided by the replacement policy",
        )
        scope.counter(
            "prefetch_victims",
            lambda: self.l3.prefetch_victims,
            doc="L3 policy victims that were never-referenced prefetches",
        )
        for name, caches in (("l1", self.l1s), ("l2", self.l2s)):
            level = scope.scope(name)
            hits = level.counter(
                "hits", lambda cs=caches: sum(c.hits for c in cs)
            )
            misses = level.counter(
                "misses", lambda cs=caches: sum(c.misses for c in cs)
            )
            level.ratio("hit_rate", hits, [hits, misses])

    # ------------------------------------------------------------------

    def access(
        self,
        core_id: int,
        addr: int,
        is_write: bool,
        now: int,
        write_data: Optional[bytes] = None,
    ) -> AccessOutcome:
        """One demand access from a core; returns completion information."""
        if is_write and write_data is None:
            raise ValueError("writes must carry their new line contents")
        self.demand_accesses += 1
        cfg = self.config
        l1, l2 = self.l1s[core_id], self.l2s[core_id]

        if l1.lookup(addr) is not None:
            if is_write:
                self._store(core_id, addr, write_data)
            return AccessOutcome(now + cfg.l1_latency, "l1")

        if l2.lookup(addr) is not None:
            line = l2.probe(addr)
            l1.fill(addr, line.data)
            if is_write:
                self._store(core_id, addr, write_data)
            return AccessOutcome(now + cfg.l2_latency, "l2")

        l3_line = self.l3.lookup(addr)
        if l3_line is not None:
            # refresh ownership: the demanding core now holds L1/L2 copies,
            # so inclusion maintenance must target *its* private caches
            l3_line.core_id = core_id
            if l3_line.prefetched:
                l3_line.prefetched = False
                self.useful_prefetches += 1
                if self.policy is not None and self.llc_view.is_sampled_set(addr):
                    self.policy.on_benefit(l3_line.core_id)
            l2.fill(addr, l3_line.data)
            l1.fill(addr, l3_line.data)
            if is_write:
                self._store(core_id, addr, write_data)
            return AccessOutcome(now + cfg.l3_latency, "l3")

        # L3 miss: go to the memory controller.
        result = self.controller.read_line(addr, now, core_id, self.llc_view)
        for extra_addr, extra_data in result.extra_lines.items():
            if self.l3.probe(extra_addr) is None:
                self._install_l3(
                    extra_addr,
                    extra_data,
                    now,
                    core_id,
                    fill_level=result.level,
                    prefetched=True,
                )
        self._install_l3(addr, result.data, now, core_id, fill_level=result.level)
        l2.fill(addr, result.data)
        l1.fill(addr, result.data)
        if is_write:
            self._store(core_id, addr, write_data)
        return AccessOutcome(
            result.completion + cfg.l3_latency, "mem", mem_accesses=result.accesses
        )

    # ------------------------------------------------------------------

    def _store(self, core_id: int, addr: int, data: bytes) -> None:
        """Write-through a store into every level holding the line."""
        for cache in (self.l1s[core_id], self.l2s[core_id]):
            line = cache.probe(addr)
            if line is not None:
                line.data = data
        l3_line = self.l3.probe(addr)
        if l3_line is None:
            raise RuntimeError("inclusion violated: store target missing from L3")
        l3_line.data = data
        l3_line.dirty = True

    def _install_l3(
        self,
        addr: int,
        data: bytes,
        now: int,
        core_id: int,
        fill_level: Level,
        prefetched: bool = False,
    ) -> None:
        victim = self.l3.fill(
            addr,
            data,
            fill_level=fill_level,
            core_id=core_id,
            prefetched=prefetched,
        )
        if victim is not None:
            self._note_l3_eviction(victim)
            self._back_invalidate(victim.addr, victim.core_id)
            self.controller.handle_eviction(victim, now, victim.core_id, self.llc_view)

    def _note_l3_eviction(self, victim: EvictedLine) -> None:
        """Account a line leaving the L3 (capacity victim or ganged)."""
        if victim.prefetched:
            self.wasted_prefetches += 1

    def _back_invalidate(self, addr: int, core_hint: int) -> None:
        """Enforce inclusion on L3 eviction.

        Physical pages are core-private (the VM model allocates frames per
        core), so only the owning core's L1/L2 can hold the line — the
        hint avoids probing every private cache.
        """
        self.l1s[core_hint].invalidate(addr)
        self.l2s[core_hint].invalidate(addr)

    def flush(self, now: int) -> None:
        """Drain the hierarchy through the controller (end of simulation)."""
        for caches in (self.l1s, self.l2s):
            for cache in caches:
                cache.drain(lambda line: None)  # write-through: nothing to do
        while True:
            victim_line = next(self.l3.resident(), None)
            if victim_line is None:
                break
            evicted = self.l3.evict(victim_line.addr)
            if evicted is not None:
                self.controller.handle_eviction(
                    evicted, now, evicted.core_id, self.llc_view
                )

    @property
    def l3_hit_rate(self) -> float:
        return self.l3.hit_rate
