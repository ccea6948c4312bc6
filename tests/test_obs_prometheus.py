"""Prometheus text exposition: promtool-style line-grammar checks.

Every emitted line must match the exposition-format 0.0.4 grammar
(the same checks ``promtool check metrics`` applies): HELP/TYPE
comments, ``name{labels} value`` samples, ``_total`` on counters,
monotone cumulative histogram buckets ending in ``+Inf``.
"""

import re

import pytest

from repro.obs.prometheus import CONTENT_TYPE, metric_name, prometheus_exposition
from repro.obs.stats import StatRegistry

#: metric line: name, optional {labels}, a value
SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})? "
    r"(-?[0-9.]+(e[+-]?[0-9]+)?|\+Inf|-Inf|NaN)$"
)
COMMENT_RE = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$")


def build_registry() -> StatRegistry:
    registry = StatRegistry()
    scope = registry.scope("service")
    counts = {"jobs": 7}
    scope.counter("jobs_done", lambda: counts["jobs"], doc="completed jobs")
    scope.gauge("queue_depth", lambda: 3, doc="jobs waiting")
    histogram = scope.histogram(
        "job_seconds", buckets=(0.1, 1.0, 10.0), doc="job latency"
    )
    for value in (0.05, 0.5, 0.5, 5.0, 50.0):
        histogram.observe(value)
    hits = scope.counter("hits", lambda: 9)
    scope.ratio("hit_rate", hits, [hits], doc="hit fraction")
    return registry


def test_every_line_matches_the_exposition_grammar():
    text = prometheus_exposition(build_registry())
    assert text.endswith("\n")
    for line in text.strip().splitlines():
        assert COMMENT_RE.match(line) or SAMPLE_RE.match(line), line


def test_metric_name_mapping():
    assert metric_name("service.queue_depth") == "repro_service_queue_depth"
    assert metric_name("a.b.c", prefix="x") == "x_a_b_c"


def test_counter_gets_total_suffix_and_raw_value():
    text = prometheus_exposition(build_registry())
    assert "repro_service_jobs_done_total 7" in text
    assert "# TYPE repro_service_jobs_done_total counter" in text


def test_gauge_and_ratio_expose_as_gauge():
    text = prometheus_exposition(build_registry())
    assert "# TYPE repro_service_queue_depth gauge" in text
    assert "repro_service_queue_depth 3" in text
    assert "# TYPE repro_service_hit_rate gauge" in text
    assert "repro_service_hit_rate 1.0" in text


def test_histogram_buckets_are_cumulative_and_inf_equals_count():
    text = prometheus_exposition(build_registry())
    buckets = re.findall(
        r'repro_service_job_seconds_bucket\{le="([^"]+)"\} (\d+)', text
    )
    assert [b[0] for b in buckets] == ["0.1", "1", "10", "+Inf"]
    counts = [int(b[1]) for b in buckets]
    assert counts == sorted(counts), "cumulative buckets must be monotone"
    assert counts == [1, 3, 4, 5]
    assert "repro_service_job_seconds_count 5" in text
    assert "repro_service_job_seconds_sum 56.05" in text


def test_help_text_is_escaped():
    registry = StatRegistry()
    registry.scope("svc").counter("c", lambda: 1, doc="line\nbreak \\ slash")
    text = prometheus_exposition(registry)
    assert "# HELP repro_svc_c_total line\\nbreak \\\\ slash" in text
    assert "\nbreak" not in text.replace("\\nbreak", "")


def test_content_type_is_prometheus_text_004():
    assert CONTENT_TYPE == "text/plain; version=0.0.4; charset=utf-8"


def test_histogram_normalizes_bounds_and_rejects_degenerate_ones():
    registry = StatRegistry()
    scope = registry.scope("svc")
    assert scope.histogram("h", buckets=(1.0, 0.5)).bounds == (0.5, 1.0)
    with pytest.raises(ValueError):
        scope.histogram("dup", buckets=(0.5, 0.5))
    with pytest.raises(ValueError):
        scope.histogram("empty", buckets=())
