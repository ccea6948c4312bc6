"""Synthetic memory-trace generators (the SPEC/GAP stand-ins).

Each :class:`WorkloadSpec` controls the four axes the paper's mechanisms
respond to (DESIGN.md §4):

- *spatial locality* (``seq_frac`` + streaming runs) — drives the
  usefulness of co-fetched neighbour lines and LLP accuracy;
- *temporal reuse* (``reuse_frac`` over a hot set) — decides whether the
  bandwidth invested in compressing lines is ever amortised;
- *write behaviour* (``write_frac``, ``write_scramble``) — produces the
  dirty evictions and compressibility churn that cost PTMC bandwidth;
- *data values* (``profile``) — set the compression ratio itself.

SPEC-like specs are sequential, reusing and compressible (PTMC should
win); GAP-like specs are irregular with poor reuse and mostly random
data (static compression should lose, Dynamic-PTMC should bail out).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Deque, Dict, Iterator, List, Optional, Tuple

from repro.cpu.trace import TraceRecord
from repro.workloads.data_patterns import (
    GRAPH_LIKE,
    SPEC_LIKE,
    DataGenerator,
    DataProfile,
)


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one synthetic benchmark."""

    name: str
    suite: str  # "spec06" | "spec17" | "gap" | "mix" | "low"
    footprint_lines: int = 1 << 16
    seq_frac: float = 0.6
    reuse_frac: float = 0.2
    hot_lines: int = 2048
    run_length: int = 24
    jump_burst: int = 4
    """Lines touched contiguously after a non-sequential jump (reuse or
    random).  Real programs touch spatial neighbourhoods, not isolated
    64-byte lines; bursts of about one compression group keep neighbour
    lines co-resident in the LLC, which both compaction and the LLP rely
    on.  Graph workloads set this to 1 (isolated vertex touches)."""
    write_frac: float = 0.25
    mean_gap: int = 6
    profile: DataProfile = field(default_factory=lambda: SPEC_LIKE)
    write_scramble: float = 0.05
    seed: int = 0

    def with_seed(self, seed: int) -> "WorkloadSpec":
        return replace(self, seed=seed)

    @property
    def memory_intensive(self) -> bool:
        return self.suite != "low"

    def make_generator(self, core_id: int) -> "WorkloadTraceGenerator":
        """The per-core generator for this spec (polymorphic with
        :class:`repro.traces.replay.TraceWorkload`)."""
        return WorkloadTraceGenerator(self, core_id)


class TraceExhausted(Exception):
    """Raised by ``_draw()`` when a finite record source runs out.

    Synthetic generators never raise it; finite (non-looping) trace
    replay does, and :class:`RecordStreamGenerator` turns it into a
    clean end-of-stream for both the scalar and the batched path.
    """


class RecordStreamGenerator:
    """Shared scalar/batched replay machinery over a ``_draw()`` source.

    A record is made in two steps.  Subclasses implement :meth:`_draw`,
    the single source of record order (RNG draws, trace cursor), which
    returns ``(gap, is_write, vline)``; :meth:`_next_key` adds the
    version bump every write makes, and :meth:`_finish` — shared by both
    paths — takes the line data and updates ``reference``.  The two paths
    differ only in where that data comes from: ``generate`` renders each
    line on demand through :meth:`DataGenerator.line` (the reference),
    while ``generate_batched`` renders a whole chunk's lines with
    :meth:`DataGenerator.render_many` first, so ``_finish`` (and the
    system's first-touch memory reads) find them memoized.  Their record
    streams are bitwise-identical (DESIGN.md §9).  A subclass with a
    finite source signals the end by raising :class:`TraceExhausted`
    from ``_draw()``.

    ``spec`` supplies ``seed``, ``profile`` and ``write_scramble``; the
    timing RNG and the line data are seeded from ``(spec.seed, core_id)``
    the same way for every record source.
    """

    def __init__(self, spec, core_id: int) -> None:
        self.spec = spec
        self.core_id = core_id
        self._rng = random.Random(spec.seed * 1_000_003 + core_id)
        self.data = DataGenerator(
            spec.profile,
            seed=spec.seed * 7_919 + core_id,
            write_scramble=spec.write_scramble,
        )
        self._versions: Dict[int, int] = {}
        #: reference model: the latest data value of every line ever written
        self.reference: Dict[int, bytes] = {}

    def _draw(self) -> Tuple[int, bool, int]:
        """Draw the next ``(gap, is_write, vline)`` (the single source of RNG order)."""
        raise NotImplementedError

    def _next_key(self) -> Tuple[int, bool, int, int]:
        """The next draw plus its line version: bumped for a write, 0 for a read."""
        gap, is_write, vline = self._draw()
        version = 0
        if is_write:
            version = self._versions.get(vline, 0) + 1
            self._versions[vline] = version
        return gap, is_write, vline, version

    def _finish(self, gap: int, is_write: bool, vline: int, version: int) -> TraceRecord:
        """The record for one drawn key: a write takes its data and updates ``reference``."""
        if not is_write:
            return TraceRecord(gap, False, vline, None)
        data = self.data.line(vline, version)
        self.reference[vline] = data
        return TraceRecord(gap, True, vline, data)

    def current_data(self, vline: int) -> bytes:
        """The value the line holds right now (version-aware)."""
        return self.data.line(vline, self._versions.get(vline, 0))

    def _on_replay(self, record: TraceRecord) -> None:
        """Hook fired as each record is handed to the consumer.

        Called at *yield* time — not decode time — in both the scalar
        and the batched path, so counters driven from it see the exact
        same per-consumed-record timing either way (the batched path
        decodes up to a chunk ahead, which would otherwise leak into
        phase-windowed telemetry deltas).
        """

    def generate(self, num_ops: int) -> Iterator[TraceRecord]:
        """Yield up to ``num_ops`` trace records."""
        for _ in range(num_ops):
            try:
                key = self._next_key()
            except TraceExhausted:
                return
            record = self._finish(*key)
            self._on_replay(record)
            yield record

    def generate_batched(
        self,
        num_ops: int,
        chunk_ops: int,
        on_chunk: Optional[Callable[["TraceChunk"], None]] = None,
    ) -> Iterator[TraceRecord]:
        """Yield exactly the records :meth:`generate` would, in chunks.

        Records are pre-decoded ``chunk_ops`` at a time.  Each block's
        line data — the written versions and version 0 of every line it
        touches (first-touch memory contents) — is rendered in one
        :meth:`DataGenerator.render_many` pass, and the block is handed
        to ``on_chunk`` (as a :class:`TraceChunk`) before any of its
        records is replayed: one opportunity for bulk work, such as
        vectorized compressed-size precompute, ahead of the per-record
        consumers.  Both paths draw keys in the same order, so the record
        stream is identical; only the generator-side state
        (``reference``, versions) runs ahead of the replay by at most one
        chunk, which nothing observes until the trace is drained.
        """
        if chunk_ops < 1:
            raise ValueError("chunk_ops must be positive")
        remaining = num_ops
        while remaining > 0:
            take = min(chunk_ops, remaining)
            remaining -= take
            keys = []
            try:
                for _ in range(take):
                    keys.append(self._next_key())
            except TraceExhausted:
                remaining = 0
            if not keys:
                return
            self.data.render_many(
                [(vline, version) for _, is_write, vline, version in keys if is_write]
                + [(vline, 0) for _, _, vline, _ in keys]
            )
            chunk = TraceChunk([self._finish(*key) for key in keys])
            if on_chunk is not None:
                on_chunk(chunk)
            for record in chunk.records:
                self._on_replay(record)
                yield record


class WorkloadTraceGenerator(RecordStreamGenerator):
    """Deterministic trace generator for one core running one spec."""

    def __init__(self, spec: WorkloadSpec, core_id: int) -> None:
        super().__init__(spec, core_id)
        self._stream_pos = self._rng.randrange(spec.footprint_lines)
        self._burst_pos = 0
        self._burst_left = 0
        self._hot: Deque[int] = deque(maxlen=spec.hot_lines)

    # ------------------------------------------------------------------

    def _next_address(self) -> int:
        spec = self.spec
        rng = self._rng
        footprint = spec.footprint_lines
        if self._burst_left > 0:
            # finish the spatial neighbourhood opened by the last jump
            self._burst_left -= 1
            self._burst_pos = (self._burst_pos + 1) % footprint
            addr = self._burst_pos
            self._hot.append(addr)
            return addr
        draw = rng.random()
        if draw < spec.seq_frac:
            self._stream_pos = (self._stream_pos + 1) % footprint
            if rng.random() < 1.0 / max(1, spec.run_length):
                self._stream_pos = rng.randrange(footprint)
            addr = self._stream_pos
        else:
            if draw < spec.seq_frac + spec.reuse_frac and self._hot:
                addr = self._hot[rng.randrange(len(self._hot))]
            else:
                addr = rng.randrange(footprint)
            if spec.jump_burst > 1:
                self._burst_pos = addr
                self._burst_left = rng.randint(0, spec.jump_burst - 1)
        self._hot.append(addr)
        return addr

    def _draw(self) -> Tuple[int, bool, int]:
        """Draw the next ``(gap, is_write, vline)`` (the single source of RNG order)."""
        spec = self.spec
        rng = self._rng
        gap = rng.randint(0, 2 * spec.mean_gap)
        vline = self._next_address()
        is_write = rng.random() < spec.write_frac
        return gap, is_write, vline


@dataclass
class TraceChunk:
    """A pre-decoded block of trace records with bulk views of its data."""

    records: List[TraceRecord]

    def __len__(self) -> int:
        return len(self.records)

    def write_lines(self) -> List[bytes]:
        """Data of the write records, in trace order (duplicates kept)."""
        return [record.write_data for record in self.records if record.is_write]


def make_mix(name: str, specs, seed: int = 0) -> "MixWorkload":
    return MixWorkload(name, list(specs), seed)


@dataclass
class MixWorkload:
    """A MIX workload: a different spec on each core (paper's mix1..mix6)."""

    name: str
    specs: list
    seed: int = 0
    suite: str = "mix"

    @property
    def memory_intensive(self) -> bool:
        return True

    def spec_for_core(self, core_id: int) -> WorkloadSpec:
        spec = self.specs[core_id % len(self.specs)]
        return spec.with_seed(spec.seed + self.seed + 17 * core_id)


# Ready-made parameter templates --------------------------------------------

def spec_like(name: str, suite: str = "spec06", **overrides) -> WorkloadSpec:
    """A compressible, spatially local, reusing workload (SPEC-flavoured)."""
    params = dict(
        footprint_lines=2048,
        seq_frac=0.62,
        reuse_frac=0.22,
        hot_lines=512,
        run_length=28,
        write_frac=0.25,
        mean_gap=6,
        profile=SPEC_LIKE,
        write_scramble=0.005,
    )
    params.update(overrides)
    return WorkloadSpec(name=name, suite=suite, **params)


def graph_like(name: str, **overrides) -> WorkloadSpec:
    """An irregular, low-reuse, poorly compressible workload (GAP-flavoured)."""
    params = dict(
        footprint_lines=64 * 1024,
        jump_burst=1,
        seq_frac=0.08,
        reuse_frac=0.15,
        hot_lines=8 * 1024,
        run_length=4,
        write_frac=0.15,
        mean_gap=5,
        profile=GRAPH_LIKE,
        write_scramble=0.35,
    )
    params.update(overrides)
    return WorkloadSpec(name=name, suite="gap", **params)


def low_mpki(name: str, suite: str = "low", **overrides) -> WorkloadSpec:
    """A cache-friendly filler workload (part of the 64-workload set)."""
    params = dict(
        footprint_lines=1024,
        seq_frac=0.55,
        reuse_frac=0.35,
        hot_lines=512,
        run_length=32,
        write_frac=0.2,
        mean_gap=40,
        profile=SPEC_LIKE,
        write_scramble=0.02,
    )
    params.update(overrides)
    return WorkloadSpec(name=name, suite=suite, **params)
