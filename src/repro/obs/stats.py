"""Stat kinds and the hierarchical registry with snapshot/delta windows.

Every simulation metric is one of three shapes:

- :class:`Counter` — a monotonically non-decreasing count (DRAM row hits,
  LLC misses, inversions).  Over a measurement window it reports the
  *delta* between the window's end and its start, which is how the
  simulator excludes warmup traffic from results.
- :class:`Gauge` — a point-in-time observation (LIT occupancy, the
  fraction of cores with compression enabled).  Windows do not apply;
  a gauge always reports its current value.
- :class:`RatioStat` — a quotient of counter deltas (hit rates, LLP
  accuracy), recomputed over the measurement window so warmup traffic
  cannot skew it.

Counters and gauges are *sourced*: the stat reads a component attribute
through a zero-argument callable.  That keeps hot paths free of
telemetry overhead — components keep doing ``self.hits += 1`` and the
registry only reads the attribute at snapshot/collect time.

One :class:`StatRegistry` serves a whole simulated system.  Components
never see the registry itself — they are handed a :class:`StatScope`
(a namespace like ``dram`` or ``ptmc.llp``) and register their stats
under it, so adding a counter is a one-line change in the component
that owns it::

    def register_stats(self, scope: StatScope) -> None:
        scope.counter("row_hits", lambda: self.stats.row_hits)

The simulator takes one :meth:`StatRegistry.snapshot` at the warmup
boundary and one :meth:`StatRegistry.delta` at the end of the run; the
delta maps every registered path to its measured-phase value (counters
as window deltas, gauges as final observations, ratios recomputed over
the window).
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

#: A metric value as reported over a measurement window.
MetricValue = Union[int, float]

#: Zero-argument reader backing a counter or gauge.
Source = Callable[[], MetricValue]


class Stat:
    """Base class: something the registry can snapshot and window."""

    def __init__(self, doc: str = "") -> None:
        self.doc = doc

    def read(self):
        """Raw current value (opaque; only meaningful to ``measured``)."""
        raise NotImplementedError

    def measured(self, base) -> MetricValue:
        """Value over the window starting at snapshot ``base`` (or None)."""
        raise NotImplementedError


class Counter(Stat):
    """A monotonically non-decreasing count with windowed-delta semantics.

    ``windowed=False`` opts out of delta semantics: the counter reports
    its whole-run value even across a snapshot boundary.  Components use
    it for counts whose historical meaning integrates over the entire
    run (e.g. the sampling policy's utility events, whose end state
    reflects warmup traffic too).
    """

    def __init__(self, source: Source, windowed: bool = True, doc: str = "") -> None:
        super().__init__(doc)
        self._source = source
        self.windowed = windowed

    def read(self) -> MetricValue:
        return self._source()

    def measured(self, base) -> MetricValue:
        value = self._source()
        if not self.windowed or base is None:
            return value
        return value - base


class Gauge(Stat):
    """A point-in-time observation; windows do not apply."""

    def __init__(self, source: Source, doc: str = "") -> None:
        super().__init__(doc)
        self._source = source

    def read(self) -> MetricValue:
        return self._source()

    def measured(self, base) -> MetricValue:
        return self._source()


class Histogram(Stat):
    """Bucketed observations (latencies, depths) with cumulative counts.

    Prometheus-shaped: ``buckets`` are upper bounds (``le``), counts are
    cumulative per bucket with an implicit ``+Inf`` bucket, and the
    running ``sum``/``count`` ride along — exactly what the text
    exposition needs, with no windowing (Prometheus histograms are
    cumulative by design).  In the registry's JSON ``delta`` mapping a
    histogram reports its windowed observation *count*; the full
    distribution is only meaningful through
    :func:`repro.obs.prometheus.prometheus_exposition`.
    """

    #: Prometheus' default latency buckets (seconds).
    DEFAULT_BUCKETS = (
        0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    )

    def __init__(
        self, buckets: Optional[Sequence[float]] = None, doc: str = ""
    ) -> None:
        super().__init__(doc)
        bounds = tuple(sorted(buckets if buckets is not None else self.DEFAULT_BUCKETS))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError("histogram bucket bounds must be distinct")
        self.bounds = bounds
        self._bucket_counts = [0] * len(bounds)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: MetricValue) -> None:
        """Record one observation into every bucket it fits."""
        self._sum += value
        self._count += 1
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self._bucket_counts[index] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def cumulative_buckets(self) -> Tuple[Tuple[float, int], ...]:
        """``(le, cumulative count)`` pairs, excluding the ``+Inf`` bucket."""
        return tuple(zip(self.bounds, self._bucket_counts))

    def read(self):
        return (self._count, self._sum, tuple(self._bucket_counts))

    def measured(self, base) -> MetricValue:
        if base is None:
            return self._count
        return self._count - base[0]


class RatioStat(Stat):
    """``numerator / sum(denominators)`` over the measurement window.

    The component counters' own window semantics apply, so a ratio over
    unwindowed counters reports a whole-run quotient.  ``one_minus``
    reports the complement (the LLP's accuracy is one minus its
    misprediction rate); ``default`` is the value reported when the
    window's denominator is zero.
    """

    def __init__(
        self,
        numerator: Counter,
        denominators: Sequence[Counter],
        default: float = 0.0,
        one_minus: bool = False,
        doc: str = "",
    ) -> None:
        super().__init__(doc)
        if not denominators:
            raise ValueError("a ratio needs at least one denominator counter")
        self._numerator = numerator
        self._denominators = tuple(denominators)
        self._default = default
        self._one_minus = one_minus

    def read(self) -> Tuple[MetricValue, Tuple[MetricValue, ...]]:
        return (
            self._numerator.read(),
            tuple(d.read() for d in self._denominators),
        )

    def measured(self, base) -> float:
        if base is None:
            num_base, den_bases = None, (None,) * len(self._denominators)
        else:
            num_base, den_bases = base
        numerator = self._numerator.measured(num_base)
        denominator = sum(
            d.measured(b) for d, b in zip(self._denominators, den_bases)
        )
        if denominator <= 0:
            return self._default
        value = numerator / denominator
        return 1.0 - value if self._one_minus else value


#: One path segment: lowercase alphanumerics and underscores (``core.0``
#: style numeric segments included).
_SEGMENT = re.compile(r"^[a-z0-9_]+$")

#: A registry snapshot: raw stat readings keyed by path.  Opaque — only
#: :meth:`StatRegistry.delta` knows how to interpret the values.
Snapshot = Dict[str, Any]

#: A measured metrics mapping: path -> windowed value.
Metrics = Dict[str, MetricValue]


def is_segment(name: str) -> bool:
    """Whether ``name`` is one legal path segment."""
    return bool(_SEGMENT.match(name))


def _validate_path(path: str) -> str:
    if not all(is_segment(s) for s in path.split(".")):
        raise ValueError(
            f"invalid stat path {path!r}: dotted lowercase segments required"
        )
    return path


class StatScope:
    """A namespace view of a registry, handed to one component."""

    def __init__(self, registry: "StatRegistry", prefix: str) -> None:
        self._registry = registry
        self._prefix = _validate_path(prefix)

    @property
    def prefix(self) -> str:
        return self._prefix

    def path(self, name: str) -> str:
        return f"{self._prefix}.{name}"

    def scope(self, name: str) -> "StatScope":
        """A nested namespace (``scope('llp')`` under ``ptmc`` -> ``ptmc.llp``)."""
        return StatScope(self._registry, self.path(name))

    def counter(
        self, name: str, source: Source, windowed: bool = True, doc: str = ""
    ) -> Counter:
        return self._registry.register(
            self.path(name), Counter(source, windowed=windowed, doc=doc)
        )

    def gauge(self, name: str, source: Source, doc: str = "") -> Gauge:
        return self._registry.register(self.path(name), Gauge(source, doc=doc))

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        doc: str = "",
    ) -> Histogram:
        return self._registry.register(self.path(name), Histogram(buckets, doc=doc))

    def ratio(
        self,
        name: str,
        numerator: Counter,
        denominators: Sequence[Counter],
        default: float = 0.0,
        one_minus: bool = False,
        doc: str = "",
    ) -> RatioStat:
        return self._registry.register(
            self.path(name),
            RatioStat(numerator, denominators, default=default, one_minus=one_minus, doc=doc),
        )


class StatRegistry:
    """The system-wide stat tree: registration, snapshot, and delta."""

    def __init__(self) -> None:
        self._stats: Dict[str, Stat] = {}

    def scope(self, name: str) -> StatScope:
        """A top-level namespace for one component."""
        return StatScope(self, name)

    def register(self, path: str, stat: Stat):
        _validate_path(path)
        if path in self._stats:
            raise ValueError(f"stat {path!r} already registered")
        self._stats[path] = stat
        return stat

    def get(self, path: str) -> Stat:
        return self._stats[path]

    def paths(self) -> List[str]:
        """Every registered path, in registration order."""
        return list(self._stats)

    def __contains__(self, path: str) -> bool:
        return path in self._stats

    def __len__(self) -> int:
        return len(self._stats)

    def snapshot(self) -> Snapshot:
        """Raw readings of every stat, marking a window's start."""
        return {path: stat.read() for path, stat in self._stats.items()}

    def delta(self, base: Optional[Snapshot] = None) -> Metrics:
        """Measured values for the window starting at ``base``.

        ``base=None`` (or a path missing from ``base`` because the stat
        was registered later) measures from zero — the whole run.
        """
        base = base or {}
        return {
            path: stat.measured(base.get(path))
            for path, stat in self._stats.items()
        }


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricValue",
    "Metrics",
    "RatioStat",
    "Snapshot",
    "Source",
    "Stat",
    "StatRegistry",
    "StatScope",
    "is_segment",
]
