"""Compression enable/disable policies (paper §V, Fig. 16).

Static-PTMC always compresses.  Dynamic-PTMC samples 1% of LLC sets that
*always* compress, tracks the bandwidth cost and benefit of compression on
those sets with a 12-bit saturating utility counter, and lets the counter's
MSB decide the policy for the remaining 99% of sets:

- benefit: a demand hit on a line that was installed as a bandwidth-free
  co-fetch (useful prefetch) → increment;
- cost: a compressed writeback of clean data, an invalidate write, or an
  LLP-misprediction extra access → decrement.

The per-core variant keeps one counter per core (the paper provisions a
3-bit requesting-core id per line in sampled sets for this).
"""

from __future__ import annotations

from typing import List

from repro.obs.stats import StatScope


class CompressionPolicy:
    """Interface consulted by the PTMC controller and the cache hierarchy."""

    def enabled_for(self, core_id: int) -> bool:
        """Should non-sampled sets compress on behalf of this core?"""
        return True

    def is_sampled_set(self, set_index: int) -> bool:
        """Is this LLC set one of the always-compress sampled sets?"""
        return False

    def on_benefit(self, core_id: int) -> None:
        """A sampled-set useful prefetch was observed."""

    def on_cost(self, core_id: int) -> None:
        """A sampled-set compression overhead access was observed."""

    def register_stats(self, scope: StatScope) -> None:
        """Register policy counters (``policy.*``); stateless policies: none."""


class AlwaysOnPolicy(CompressionPolicy):
    """Static-PTMC: compression unconditionally enabled."""


class AlwaysOffPolicy(CompressionPolicy):
    """Compression never enabled (useful for ablations and tests)."""

    def enabled_for(self, core_id: int) -> bool:
        return False


class SamplingPolicy(CompressionPolicy):
    """Dynamic-PTMC set-sampling cost/benefit policy.

    ``sample_period`` is the reciprocal of the sampled fraction: with the
    paper's 1% sampling of an 8192-set LLC, one set in every 128 samples
    (wired so set index ``s`` is sampled iff ``s % period == offset``).
    """

    def __init__(
        self,
        counter_bits: int = 12,
        sample_period: int = 128,
        num_cores: int = 8,
        per_core: bool = True,
        sample_offset: int = 7,
        benefit_weight: int = 1,
    ) -> None:
        if counter_bits < 2:
            raise ValueError("counter needs at least 2 bits")
        if sample_period < 1:
            raise ValueError("sample period must be positive")
        self.counter_bits = counter_bits
        self.sample_period = sample_period
        #: increment applied per useful prefetch.  The paper uses +-1; in
        #: this simulator writes are drained at low priority so a cost
        #: event (one buffered write) interferes far less than the full
        #: read a useful prefetch saves -- the weight rebalances the
        #: comparison to match the timing model (see DESIGN.md).
        self.benefit_weight = benefit_weight
        self.sample_offset = sample_offset % sample_period
        self.per_core = per_core
        self.num_cores = num_cores
        self._max = (1 << counter_bits) - 1
        self._threshold = 1 << (counter_bits - 1)  # MSB weight
        count = num_cores if per_core else 1
        # start optimistic (3/4 of range): compression stays enabled through
        # the initial compaction of the resident set, whose one-time cost
        # would otherwise turn it off before any benefit can be observed
        initial = self._threshold + self._threshold // 2
        self._counters: List[int] = [initial] * count
        self.benefits = 0
        self.costs = 0

    def _slot(self, core_id: int) -> int:
        return core_id % len(self._counters) if self.per_core else 0

    def counter(self, core_id: int = 0) -> int:
        return self._counters[self._slot(core_id)]

    def enabled_for(self, core_id: int) -> bool:
        """Compression is on while the counter's MSB is set."""
        return self._counters[self._slot(core_id)] >= self._threshold

    def is_sampled_set(self, set_index: int) -> bool:
        return set_index % self.sample_period == self.sample_offset

    def on_benefit(self, core_id: int) -> None:
        self.benefits += 1
        slot = self._slot(core_id)
        self._counters[slot] = min(
            self._max, self._counters[slot] + self.benefit_weight
        )

    def on_cost(self, core_id: int) -> None:
        self.costs += 1
        slot = self._slot(core_id)
        if self._counters[slot] > 0:
            self._counters[slot] -= 1

    def register_stats(self, scope: StatScope) -> None:
        """Expose cost/benefit totals and the live enabled fraction.

        Whole-run window: the utility counters integrate history from the
        start of the run (warmup included) — windowing the totals would
        misstate what actually drove the policy's decisions.
        """
        scope.counter("benefits", lambda: self.benefits, windowed=False)
        scope.counter("costs", lambda: self.costs, windowed=False)
        scope.gauge(
            "compression_enabled",
            lambda: float(
                sum(self.enabled_for(c) for c in range(self.num_cores))
            )
            / self.num_cores,
        )

    def storage_bits(self) -> int:
        """Counter storage (Table III lists 12 bytes for the counters)."""
        return len(self._counters) * self.counter_bits
