"""Prometheus text exposition (version 0.0.4) over a stat registry.

Renders every registered stat as standard scrape output so the service
daemon's ``GET /metrics?format=prometheus`` works with stock tooling
(Prometheus, Grafana agent, ``promtool check metrics``):

- dotted registry paths become underscore-joined metric names under a
  ``repro_`` prefix (``service.queue_depth`` → ``repro_service_queue_depth``),
- counters keep their raw cumulative reading and gain the conventional
  ``_total`` suffix (Prometheus computes its own rates/windows),
- gauges and ratios expose their current value as ``gauge``,
- histograms expand to ``_bucket{le="..."}``/``_sum``/``_count`` series
  with the mandatory ``+Inf`` bucket.

The output is line-oriented and regex-checkable; the test suite holds
every emitted line to the exposition-format grammar.
"""

from __future__ import annotations

import math
from typing import List

from repro.obs.stats import Counter, Gauge, Histogram, RatioStat, StatRegistry

#: Default metric-name prefix (a Prometheus "namespace").
PREFIX = "repro"


def metric_name(path: str, prefix: str = PREFIX) -> str:
    """``service.queue_depth`` → ``repro_service_queue_depth``."""
    return f"{prefix}_{path.replace('.', '_')}"


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value) -> str:
    if isinstance(value, bool):  # bool is an int subclass; be explicit
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    return repr(float(value))


def _format_le(bound: float) -> str:
    """Bucket bounds print like Prometheus clients: ints without ``.0``."""
    if bound == int(bound):
        return str(int(bound))
    return repr(float(bound))


def _header(lines: List[str], name: str, kind: str, doc: str) -> None:
    if doc:
        lines.append(f"# HELP {name} {_escape_help(doc)}")
    lines.append(f"# TYPE {name} {kind}")


def prometheus_exposition(registry: StatRegistry, prefix: str = PREFIX) -> str:
    """The registry's current state as Prometheus text exposition."""
    lines: List[str] = []
    for path in sorted(registry.paths()):
        stat = registry.get(path)
        name = metric_name(path, prefix)
        if isinstance(stat, Counter):
            _header(lines, f"{name}_total", "counter", stat.doc)
            lines.append(f"{name}_total {_format_value(stat.read())}")
        elif isinstance(stat, Histogram):
            _header(lines, name, "histogram", stat.doc)
            for bound, count in stat.cumulative_buckets():
                lines.append(f'{name}_bucket{{le="{_format_le(bound)}"}} {count}')
            lines.append(f'{name}_bucket{{le="+Inf"}} {stat.count}')
            lines.append(f"{name}_sum {_format_value(stat.sum)}")
            lines.append(f"{name}_count {stat.count}")
        elif isinstance(stat, RatioStat):
            _header(lines, name, "gauge", stat.doc)
            lines.append(f"{name} {_format_value(stat.measured(None))}")
        elif isinstance(stat, Gauge):
            _header(lines, name, "gauge", stat.doc)
            lines.append(f"{name} {_format_value(stat.read())}")
        else:  # pragma: no cover - no other stat kinds exist today
            _header(lines, name, "untyped", stat.doc)
            lines.append(f"{name} {_format_value(stat.measured(None))}")
    return "\n".join(lines) + "\n"


#: Content type Prometheus scrapers expect for text exposition.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

__all__ = ["CONTENT_TYPE", "PREFIX", "metric_name", "prometheus_exposition"]
