"""Phase-resolved telemetry time series.

A :class:`TimeSeries` is the sampled view of one simulation run: every
``interval`` line-accesses the :class:`~repro.obs.sampler.IntervalSampler`
snapshots the run's :class:`~repro.obs.StatRegistry` and appends a
:class:`TimeSeriesPoint` holding the *interval-windowed* metrics —
counters as deltas since the previous point, gauges as point-in-time
observations, ratios recomputed over the interval.  Points are tagged
with the phase they fall in (``warmup`` or ``measured``); the sampler
forces a point at the warmup boundary so no interval ever mixes phases.

The series rides on :class:`~repro.sim.results.SimResult` (wire schema
v3) and round-trips through the content-addressed disk cache, so a
``repro timeline`` replay of a cached run is free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.stats import MetricValue

#: Phase tags a point may carry.
PHASES = ("warmup", "measured")


class TimeSeriesDecodeError(ValueError):
    """A serialized :class:`TimeSeries` could not be decoded."""


@dataclass
class TimeSeriesPoint:
    """One sampled interval of a run."""

    #: cumulative line-accesses (across all cores) when the sample was taken
    accesses: int
    #: which run phase the whole interval falls in (never mixed)
    phase: str
    #: interval-windowed metrics, keyed by registry path
    metrics: Dict[str, MetricValue] = field(default_factory=dict)

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "accesses": self.accesses,
            "phase": self.phase,
            "metrics": dict(sorted(self.metrics.items())),
        }

    @classmethod
    def from_json_dict(cls, payload: Any) -> "TimeSeriesPoint":
        if not isinstance(payload, dict):
            raise TimeSeriesDecodeError("time-series point is not an object")
        try:
            phase = str(payload["phase"])
            if phase not in PHASES:
                raise TimeSeriesDecodeError(f"unknown phase {phase!r}")
            return cls(
                accesses=int(payload["accesses"]),
                phase=phase,
                metrics={
                    str(k): (int(v) if isinstance(v, int) else float(v))
                    for k, v in payload["metrics"].items()
                },
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            if isinstance(exc, TimeSeriesDecodeError):
                raise
            raise TimeSeriesDecodeError(f"malformed point: {exc}") from exc


@dataclass
class TimeSeries:
    """The ordered samples of one run, ``interval`` line-accesses apart.

    The final point of each phase may cover a partial interval (the
    phase boundary and the end of the run flush whatever accumulated);
    ``accesses`` on each point disambiguates the true interval width.
    """

    interval: int
    points: List[TimeSeriesPoint] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.points)

    def paths(self) -> List[str]:
        """Every metric path present, in first-seen order."""
        seen: Dict[str, None] = {}
        for point in self.points:
            for path in point.metrics:
                seen.setdefault(path)
        return list(seen)

    def series(self, path: str, phase: Optional[str] = None) -> List[MetricValue]:
        """The per-point values of one metric (optionally one phase only)."""
        return [
            point.metrics[path]
            for point in self.points
            if path in point.metrics and (phase is None or point.phase == phase)
        ]

    def phase_points(self, phase: str) -> List[TimeSeriesPoint]:
        return [point for point in self.points if point.phase == phase]

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "interval": self.interval,
            "points": [point.to_json_dict() for point in self.points],
        }

    @classmethod
    def from_json_dict(cls, payload: Any) -> "TimeSeries":
        if not isinstance(payload, dict):
            raise TimeSeriesDecodeError("time series is not an object")
        try:
            interval = int(payload["interval"])
            points_payload = payload["points"]
            if not isinstance(points_payload, list):
                raise TimeSeriesDecodeError("'points' is not a list")
            return cls(
                interval=interval,
                points=[TimeSeriesPoint.from_json_dict(p) for p in points_payload],
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, TimeSeriesDecodeError):
                raise
            raise TimeSeriesDecodeError(f"malformed time series: {exc}") from exc


__all__ = ["PHASES", "TimeSeries", "TimeSeriesDecodeError", "TimeSeriesPoint"]
