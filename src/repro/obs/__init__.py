"""Observability: the stat registry, time-series sampling, span tracing.

The one observability package (DESIGN.md §7):

- **Stats** (:mod:`repro.obs.stats`) — the counter/gauge/ratio/histogram
  kinds and the :class:`StatRegistry` every simulated layer registers
  into; one ``snapshot()``/``delta()`` pair measures the post-warmup
  window with no per-component reset or delta code.
- **Sampling** (:mod:`repro.obs.sampler`) — an :class:`IntervalSampler`
  snapshots a run's :class:`StatRegistry` every N
  line-accesses into a phase-resolved :class:`TimeSeries` carried on
  :class:`~repro.sim.results.SimResult` (``repro timeline`` renders it).
- **Tracing** (:mod:`repro.obs.tracing`) — ``span()`` context managers
  record Chrome trace-event JSON (Perfetto-loadable) across trace
  decode, batch kernels, disk-cache I/O, sweep batches, scheduler job
  lifecycles, and HTTP requests; trace/span ids correlate into logs.
- **Exposition** (:mod:`repro.obs.prometheus`, :mod:`repro.obs.logging`)
  — Prometheus text format for ``GET /metrics?format=prometheus`` and
  structured JSON logs for the daemon.

Everything here is strictly read-only over the simulation: the
seven-design golden test proves an instrumented run is bitwise-identical
to an uninstrumented one.
"""

from repro.obs.stats import (
    Counter,
    Gauge,
    Histogram,
    MetricValue,
    Metrics,
    RatioStat,
    Snapshot,
    Stat,
    StatRegistry,
    StatScope,
)
from repro.obs.logging import StructuredLog
from repro.obs.prometheus import prometheus_exposition
from repro.obs.sampler import IntervalSampler, ObsConfig
from repro.obs.timeseries import TimeSeries, TimeSeriesDecodeError, TimeSeriesPoint
from repro.obs.tracing import (
    Tracer,
    counter,
    current_tracer,
    instant,
    set_tracer,
    span,
    validate_chrome_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "IntervalSampler",
    "MetricValue",
    "Metrics",
    "ObsConfig",
    "RatioStat",
    "Snapshot",
    "Stat",
    "StatRegistry",
    "StatScope",
    "StructuredLog",
    "TimeSeries",
    "TimeSeriesDecodeError",
    "TimeSeriesPoint",
    "Tracer",
    "counter",
    "current_tracer",
    "instant",
    "prometheus_exposition",
    "set_tracer",
    "span",
    "validate_chrome_trace",
]
