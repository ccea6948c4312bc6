"""Hybrid compressor: pick the best algorithm per line.

The paper's evaluation compresses each line with both FPC and BDI and
keeps whichever is smaller (§III-A).  The chosen algorithm must be
recorded inside the compressed line, so the payload carries a one-byte
algorithm tag that is charged against the compressed size.

Selection is **deterministic**: the smallest tagged payload wins, and on
equal sizes the algorithm listed *first* wins (strict ``<`` comparison in
constructor order).  That stability is load-bearing — the vectorized
batch kernel and the scalar reference must never diverge on ties, or a
batch-driven simulation would stop being bitwise identical to a scalar
one.  ``tests/test_hybrid.py`` locks the rule with a regression test.

``HybridCompressor`` is configurable with any set of
:class:`~repro.compression.base.CompressionAlgorithm` instances, which is
how the benchmarks explore PTMC's algorithm-orthogonality claim (§VII-A).
Results are memoized by line content — the algorithms are pure functions,
and workloads repeat data patterns heavily, so this makes the simulator
orders of magnitude faster without changing any result.  Two memo layers
exist: payloads (``compress``) and sizes (``compressed_size``); the size
memo can be bulk-seeded from the vectorized batch kernel
(:meth:`seed_sizes`), which is how the batch-driven simulator avoids
recompressing whole trace chunks line by line.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.compression.base import LINE_SIZE, CompressionAlgorithm, CompressionError
from repro.compression.bdi import BDI
from repro.compression.fpc import FPC

#: process-wide payload memo pools, keyed by :func:`_pool_key`
_SHARED_CACHES: Dict[Hashable, Dict[bytes, Optional[bytes]]] = {}

#: process-wide size memo pools (same keying); sizes are derivable from
#: payloads but much cheaper to produce in batch, so they get their own
#: layer that the vectorized kernels can seed directly
_SHARED_SIZE_CACHES: Dict[Hashable, Dict[bytes, int]] = {}


def _pool_key(algorithms: Sequence[CompressionAlgorithm]) -> Hashable:
    """What decides the payloads: each algorithm's class and constructor state.

    Algorithms are stateless after construction, so two instances of one
    class whose attributes print alike compress identically and may share
    a pool; a different class, dictionary, size or name gets its own.
    """
    return tuple((type(a), repr(sorted(vars(a).items()))) for a in algorithms)


class HybridCompressor(CompressionAlgorithm):
    """Try several algorithms and keep the smallest self-describing payload."""

    name = "hybrid"

    def __init__(
        self,
        algorithms: Optional[Iterable[CompressionAlgorithm]] = None,
    ) -> None:
        algs: List[CompressionAlgorithm] = (
            list(algorithms) if algorithms is not None else [FPC(), BDI()]
        )
        if not algs:
            raise ValueError("need at least one algorithm")
        if len(algs) > 255:
            raise ValueError("at most 255 algorithms (one-byte tag)")
        self._algorithms: Tuple[CompressionAlgorithm, ...] = tuple(algs)
        # results are shared across instances with the same algorithms:
        # simulations run several designs over identical workload data, and
        # compression is a pure function of (algorithms, line)
        key = _pool_key(self._algorithms)
        self._cache: Dict[bytes, Optional[bytes]] = _SHARED_CACHES.setdefault(key, {})
        self._sizes: Dict[bytes, int] = _SHARED_SIZE_CACHES.setdefault(key, {})

    @property
    def algorithms(self) -> Tuple[CompressionAlgorithm, ...]:
        """The candidate algorithms, in tag order."""
        return self._algorithms

    def compress(self, line: bytes) -> Optional[bytes]:
        self.check_line(line)
        cached = self._cache.get(line)
        if cached is not None or line in self._cache:
            return cached
        best: Optional[bytes] = None
        for tag, algorithm in enumerate(self._algorithms):
            payload = algorithm.compress(line)
            if payload is None:
                continue
            tagged = bytes([tag]) + payload
            # strict < on both checks: ties keep the earliest algorithm,
            # matching the batch kernel's first-minimum selection
            if len(tagged) < LINE_SIZE and (best is None or len(tagged) < len(best)):
                best = tagged
        self._cache[bytes(line)] = best
        self._sizes.setdefault(bytes(line), LINE_SIZE if best is None else len(best))
        return best

    def compress_and_size(self, line: bytes) -> Tuple[Optional[bytes], int]:
        """One compression, both answers (payload memo consulted first)."""
        payload = self.compress(line)
        return payload, (LINE_SIZE if payload is None else len(payload))

    def compressed_size(self, line: bytes) -> int:
        """Charged size; served from the size memo without compressing."""
        size = self._sizes.get(line)
        if size is not None:
            return size
        return self.compress_and_size(line)[1]

    def cached_size(self, line: bytes) -> Optional[int]:
        """The memoized size, or ``None`` when it was never computed."""
        size = self._sizes.get(line)
        if size is not None:
            return size
        if line in self._cache:  # derive from the payload memo once
            payload = self._cache[line]
            size = LINE_SIZE if payload is None else len(payload)
            self._sizes[line] = size
            return size
        return None

    def seed_sizes(self, lines: Sequence[bytes], sizes) -> None:
        """Bulk-load the size memo from a vectorized batch result.

        The batch kernels are golden-tested to match the scalar sizes, so
        seeding can never change a simulation outcome — only skip work.
        """
        memo = self._sizes
        for line, size in zip(lines, sizes):
            memo[bytes(line)] = int(size)

    def batch_sizes(self, lines):
        """Vectorized hybrid sizes: component minima plus the tag byte.

        A component that cannot beat the raw line (size 64) is skipped;
        the tagged candidate must itself stay under 64 bytes.  ``minimum``
        is applied in constructor order with strict comparison, so equal
        sizes resolve to the earliest algorithm exactly like the scalar
        path (the *size* is identical either way; the invariant matters
        for the tag/encoding outputs).
        """
        import numpy as np

        from repro.compression.batch import check_batch

        array = check_batch(lines)
        best = np.full(array.shape[0], LINE_SIZE, dtype=np.int64)
        for algorithm in self._algorithms:
            sizes = algorithm.batch_sizes(array)
            tagged = sizes + 1
            candidate = (sizes < LINE_SIZE) & (tagged < best)
            best = np.where(candidate, tagged, best)
        return best

    def decompress(self, payload: bytes) -> bytes:
        if not payload:
            raise CompressionError("empty hybrid payload")
        tag = payload[0]
        if tag >= len(self._algorithms):
            raise CompressionError(f"unknown algorithm tag {tag}")
        return self._algorithms[tag].decompress(payload[1:])

    def clear_cache(self) -> None:
        """Drop memoized results (useful to bound memory in long sweeps)."""
        self._cache.clear()
        self._sizes.clear()
