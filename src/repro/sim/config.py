"""Simulation configuration.

Two preset scales are provided:

- :func:`paper_config` — the paper's Table I parameters (8MB L3, 32KB
  metadata cache, 16GB memory).  Faithful, but needs billion-instruction
  traces to warm up, which a pure-Python simulator cannot run.
- :func:`bench_config` — a proportionally scaled system (1MB L3) matched
  to the synthetic traces' footprints so that cache pressure, metadata-
  cache reach and bandwidth saturation sit in the same regimes as the
  paper's full-size system.  All benchmarks use this scale (DESIGN.md §4).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cache.hierarchy import HierarchyConfig
from repro.cache.replacement import DEFAULT_POLICY, POLICIES
from repro.core.metadata_table import MetadataTableConfig
from repro.core.ptmc import PTMCConfig
from repro.dram.timing import DDRTiming, DRAMGeometry


@dataclass(frozen=True)
class SamplingConfig:
    """Dynamic-PTMC sampling parameters (paper §V-A)."""

    counter_bits: int = 12
    sample_period: int = 128  # 1% of sets
    per_core: bool = True
    benefit_weight: int = 1


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to instantiate one simulated system."""

    num_cores: int = 8
    width: int = 4
    mlp: int = 8
    ops_per_core: int = 6_000
    warmup_ops: int = 8_000
    """Per-core operations run before statistics collection starts — the
    stand-in for the paper's PinPoints warmup: compaction of the resident
    working set is a one-time cost the paper's billion-instruction runs
    amortise away, so it must not dominate short synthetic traces."""
    capacity_lines: int = 1 << 22  # 256MB of 64-byte lines
    batch_chunk: int = 1024
    """Trace records pre-decoded per block so compressed sizes can be
    precomputed by the vectorized batch kernel; ``0`` replays the scalar
    per-record path (the reference the golden tests compare against).
    Either value produces bitwise-identical results."""
    seed: int = 0
    page_policy: str = "open"
    refresh: bool = True
    llc_policy: str = DEFAULT_POLICY
    """The L3 replacement policy (a registry name from
    :mod:`repro.cache.replacement`: ``lru``/``fifo``/``random``/``srrip``/
    ``pref_lru``); ``random`` is seeded from ``seed``.  L1, L2 and the
    metadata caches always run LRU.  The knob is an ordinary serialisable
    field, so it participates in the disk-cache key: two runs differing
    only in replacement policy never share a stored result, and the
    default and an explicit ``"lru"`` are one identity."""
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    timing: DDRTiming = field(default_factory=DDRTiming)
    geometry: DRAMGeometry = field(default_factory=DRAMGeometry)
    metadata: MetadataTableConfig = field(default_factory=MetadataTableConfig)
    ptmc: PTMCConfig = field(default_factory=PTMCConfig)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)

    def __post_init__(self) -> None:
        for name, low in (("ops_per_core", 1), ("warmup_ops", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, not {value!r}")
        if not isinstance(self.llc_policy, str) or self.llc_policy not in POLICIES:
            raise ValueError(
                f"unknown llc_policy {self.llc_policy!r}; choose from {sorted(POLICIES)}"
            )

    def with_(self, **overrides) -> "SimConfig":
        """Functional update (the config is frozen)."""
        return replace(self, **overrides)


def paper_config(**overrides) -> SimConfig:
    """Paper Table I scale (impractically large for Python traces)."""
    base = SimConfig(
        capacity_lines=1 << 28,  # 16GB
        hierarchy=HierarchyConfig(),  # 8MB L3 etc.
    )
    return base.with_(**overrides) if overrides else base


def bench_config(**overrides) -> SimConfig:
    """Benchmark scale: 1MB L3, 8KB metadata cache, short traces.

    Scaling keeps the ratios that drive the paper's effects: workload
    footprints exceed the L3 by ~6-20x (memory-bound), and the metadata
    cache covers ~1/8 of a GAP footprint (thrashes) while covering most of
    a SPEC footprint (mostly hits) — the same regimes as 32KB vs GB-scale
    footprints at paper scale.
    """
    base = SimConfig(
        hierarchy=HierarchyConfig(
            l1_bytes=16 * 1024,
            l2_bytes=64 * 1024,
            l3_bytes=256 * 1024,
        ),
        metadata=MetadataTableConfig(cache_bytes=4 * 1024),
        # counter width and sampling rate scale with the shortened traces:
        # the decision dynamics (saturate up under benefit, drain under
        # cost) match the paper's 12-bit / 1% values at full scale
        sampling=SamplingConfig(counter_bits=8, sample_period=4, per_core=True, benefit_weight=3),
    )
    return base.with_(**overrides) if overrides else base


def quick_config(**overrides) -> SimConfig:
    """A very small system for unit/integration tests (fast, still 8-core)."""
    base = SimConfig(
        ops_per_core=2_000,
        capacity_lines=1 << 18,
        hierarchy=HierarchyConfig(
            l1_bytes=4 * 1024,
            l2_bytes=16 * 1024,
            l3_bytes=64 * 1024,
        ),
        metadata=MetadataTableConfig(cache_bytes=1 * 1024),
        sampling=SamplingConfig(counter_bits=6, sample_period=4, per_core=True, benefit_weight=3),
    )
    return base.with_(**overrides) if overrides else base
