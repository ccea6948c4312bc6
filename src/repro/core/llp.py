"""Line Location Predictor (paper §IV-B, Figs. 7, 8, 9).

The LLP predicts a line's compression status — and therefore, through the
TMC address mapping, its location — before the memory access is issued.
It exploits the observation that lines within a page tend to have similar
compressibility: a small direct-mapped *Last Compressibility Table* (LCT),
indexed by a hash of the page address, remembers the last compression
status observed for that index.  The prediction is verified for free by
the inline marker on the retrieved line; a misprediction triggers a
re-issue to the line's other candidate location(s) and an LCT update.

512 entries x 2 bits = 128 bytes of storage (Table III).
"""

from __future__ import annotations

from typing import List, Optional

from repro.obs.stats import StatScope
from repro.types import Level
from repro.util.hashing import mix64

LINES_PER_PAGE = 64
"""4KB pages of 64-byte lines; compressibility locality is per page."""


class LineLocationPredictor:
    """History-based compressibility (hence location) predictor."""

    def __init__(self, entries: int = 512, lines_per_page: int = LINES_PER_PAGE) -> None:
        if entries < 1:
            raise ValueError("LCT needs at least one entry")
        self._entries = entries
        self._lines_per_page = lines_per_page
        self._lct: List[Level] = [Level.UNCOMPRESSED] * entries
        self.predictions = 0
        self.mispredictions = 0
        #: extra re-issued accesses beyond the first correction (a quad
        #: group can need up to 3 probes); bandwidth accounting, not
        #: accuracy — a prediction is wrong at most once.
        self.extra_reissues = 0

    @property
    def entries(self) -> int:
        return self._entries

    def _index(self, addr: int) -> int:
        page = addr // self._lines_per_page
        return mix64(page) % self._entries

    def predict(self, addr: int) -> Level:
        """Predicted compression status for ``addr`` (its page's last status)."""
        self.predictions += 1
        return self._lct[self._index(addr)]

    def update(self, addr: int, actual: Level, predicted: Optional[Level] = None) -> None:
        """Record the observed compression status after a resolved access.

        ``predicted`` (when given) updates the accuracy statistics: the
        prediction counts as correct only if it located the line on the
        first access.
        """
        if predicted is not None and predicted != actual:
            self.mispredictions += 1
        self._lct[self._index(addr)] = actual

    def record_mispredict(self, extra_accesses: int = 1) -> None:
        """Charge one misprediction resolved after ``extra_accesses`` probes.

        A single prediction is wrong at most once, however many candidate
        locations had to be re-probed before the line was found; the
        re-issues beyond the first are tracked separately so bandwidth
        accounting keeps them without corrupting the accuracy statistic.
        """
        if extra_accesses < 1:
            return
        self.mispredictions += 1
        self.extra_reissues += extra_accesses - 1

    @property
    def accuracy(self) -> float:
        """Fraction of predictions that found the line in one access."""
        if self.predictions == 0:
            return 1.0
        value = 1.0 - self.mispredictions / self.predictions
        assert 0.0 <= value <= 1.0, (
            f"LLP accuracy out of range: {self.mispredictions} mispredictions "
            f"over {self.predictions} predictions"
        )
        return value

    def register_stats(self, scope: StatScope) -> None:
        """Expose prediction counters and windowed accuracy (``*.llp.*``)."""
        predictions = scope.counter("predictions", lambda: self.predictions)
        mispredictions = scope.counter("mispredictions", lambda: self.mispredictions)
        scope.counter("extra_reissues", lambda: self.extra_reissues)
        scope.ratio(
            "accuracy", mispredictions, [predictions], default=1.0, one_minus=True
        )

    def storage_bits(self) -> int:
        """2 bits of last-compressibility state per LCT entry (Table III)."""
        return self._entries * 2

    def reset_stats(self) -> None:
        self.predictions = 0
        self.mispredictions = 0
        self.extra_reissues = 0
