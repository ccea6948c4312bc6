"""Terminal rendering of phase-resolved telemetry time series.

``repro timeline`` shows how a run's headline counters evolve across
its sampled intervals: one unicode sparkline per metric, split at the
warmup/measured boundary, with min/mean/max annotations.  Like the rest
of :mod:`repro.analysis`, this is dependency-free terminal output — the
*shape* of a run (a warmup ramp, a phase change mid-run, a compression
policy kicking in) at a glance.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.obs.timeseries import PHASES, TimeSeries

#: Sparkline glyphs, lowest to highest.
_SPARK = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], lo: Optional[float] = None, hi: Optional[float] = None) -> str:
    """One-line unicode chart of ``values`` scaled between ``lo`` and ``hi``.

    Bounds default to the series' own min/max; pass shared bounds to
    make several sparklines comparable.  A flat series renders as a
    mid-height line rather than dividing by zero.
    """
    if not values:
        return ""
    lo = min(values) if lo is None else lo
    hi = max(values) if hi is None else hi
    span = hi - lo
    if span <= 0:
        return _SPARK[3] * len(values)
    top = len(_SPARK) - 1
    return "".join(
        _SPARK[min(top, max(0, int((value - lo) / span * top)))] for value in values
    )


def _stats_suffix(values: Sequence[float]) -> str:
    return (
        f"min {min(values):g} / mean {sum(values) / len(values):g} "
        f"/ max {max(values):g}"
    )


def format_timeline(
    timeseries: TimeSeries,
    paths: Optional[Sequence[str]] = None,
) -> str:
    """Multi-metric sparkline view of one run's :class:`TimeSeries`.

    One row per metric path; the warmup and measured segments are
    rendered separately (scaled together, so heights are comparable
    across the boundary) and joined with ``|`` marking the boundary.
    """
    if not timeseries.points:
        return "(no samples)"
    selected: List[str] = list(paths) if paths is not None else timeseries.paths()
    missing = [p for p in selected if not timeseries.series(p)]
    if missing:
        raise KeyError(f"paths not in the time series: {missing}")
    label_width = max(len(p) for p in selected)
    phases = [p for p in PHASES if timeseries.phase_points(p)]
    lines = []
    for path in selected:
        everything = [float(v) for v in timeseries.series(path) if v is not None]
        lo, hi = (min(everything), max(everything)) if everything else (0.0, 0.0)
        segments = []
        for phase in phases:
            segment = [
                float(v) for v in timeseries.series(path, phase=phase) if v is not None
            ]
            segments.append(sparkline(segment, lo, hi))
        chart = " | ".join(segments)
        lines.append(f"{path:<{label_width}}  {chart}  {_stats_suffix(everything)}")
    header = (
        f"{len(timeseries)} samples @ {timeseries.interval} accesses/interval"
        + (f"  ({' | '.join(phases)})" if len(phases) > 1 else "")
    )
    return "\n".join([header, *lines])


__all__ = ["format_timeline", "sparkline"]
