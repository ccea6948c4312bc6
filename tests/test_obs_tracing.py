"""Span tracer: event shapes, the no-op path, validation, and export."""

import json
import threading

import pytest

from repro.obs import tracing
from repro.obs.tracing import (
    Span,
    Tracer,
    current_tracer,
    set_tracer,
    span,
    validate_chrome_trace,
)


@pytest.fixture(autouse=True)
def no_global_tracer():
    set_tracer(None)
    yield
    set_tracer(None)


def test_span_records_complete_event_with_ids():
    tracer = Tracer()
    with tracer.span("work", category="test", detail=7) as handle:
        assert isinstance(handle, Span)
        assert handle.trace_id == tracer.trace_id
        assert handle.span_id == 1
    payload = tracer.to_chrome()
    events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    assert len(events) == 1
    event = events[0]
    assert event["name"] == "work"
    assert event["cat"] == "test"
    assert event["dur"] >= 0
    assert event["args"]["detail"] == 7
    assert event["args"]["span_id"] == 1
    assert event["args"]["trace_id"] == tracer.trace_id


def test_module_span_is_noop_without_tracer():
    assert current_tracer() is None
    with span("anything") as handle:
        assert handle.span_id == 0  # the shared null span


def test_module_span_uses_installed_tracer():
    tracer = set_tracer(Tracer())
    with span("traced"):
        pass
    assert len(tracer) == 1


def test_instant_counter_and_async_events():
    tracer = Tracer()
    tracer.instant("marker", category="test", note="hi")
    tracer.counter("rates", {"reads": 10, "writes": 2})
    tracer.async_begin("job", "j-1", category="svc")
    tracer.async_end("job", "j-1", category="svc", outcome="done")
    payload = tracer.to_chrome()
    phases = [e["ph"] for e in payload["traceEvents"] if e["ph"] != "M"]
    assert phases == ["i", "C", "b", "e"]
    assert validate_chrome_trace(payload) == len(payload["traceEvents"])


def test_to_chrome_envelope_has_metadata_and_trace_id():
    tracer = Tracer(process_name="unit")
    with tracer.span("s"):
        pass
    payload = tracer.to_chrome()
    metas = [e for e in payload["traceEvents"] if e["ph"] == "M"]
    assert {m["args"]["name"] for m in metas} >= {"unit", "thread-0"}
    assert payload["otherData"]["trace_id"] == tracer.trace_id
    assert payload["otherData"]["dropped_events"] == 0


def test_max_events_cap_drops_and_counts(monkeypatch):
    monkeypatch.setattr(tracing, "MAX_EVENTS", 3)
    tracer = Tracer()
    for index in range(10):
        tracer.instant(f"e{index}")
    assert len(tracer) == 3
    assert tracer.dropped == 7
    assert tracer.to_chrome()["otherData"]["dropped_events"] == 7


def test_span_ids_are_unique_across_threads():
    tracer = Tracer()

    def work():
        for _ in range(50):
            with tracer.span("t"):
                pass

    threads = [threading.Thread(target=work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    events = [e for e in tracer.to_chrome()["traceEvents"] if e["ph"] == "X"]
    ids = [e["args"]["span_id"] for e in events]
    assert len(ids) == 200
    assert len(set(ids)) == 200


def test_write_produces_loadable_valid_json(tmp_path):
    tracer = Tracer()
    with tracer.span("a"):
        tracer.instant("b")
    out = tmp_path / "trace.json"
    written = tracer.write(out)
    payload = json.loads(out.read_text())
    assert validate_chrome_trace(payload) == written


@pytest.mark.parametrize(
    "payload",
    [
        "not an object",
        {},
        {"traceEvents": []},
        {"traceEvents": ["not an event"]},
        {"traceEvents": [{"ph": "Z", "name": "x", "pid": 1, "tid": 1, "ts": 0}]},
        {"traceEvents": [{"ph": "i", "pid": 1, "tid": 1, "ts": 0}]},
        {"traceEvents": [{"ph": "i", "name": "x", "pid": "1", "tid": 1, "ts": 0}]},
        {"traceEvents": [{"ph": "i", "name": "x", "pid": 1, "tid": 1, "ts": -1}]},
        {"traceEvents": [{"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": 0}]},
        {"traceEvents": [{"ph": "b", "name": "x", "pid": 1, "tid": 1, "ts": 0}]},
        {
            "traceEvents": [
                {"ph": "C", "name": "x", "pid": 1, "tid": 1, "ts": 0, "args": {"v": "s"}}
            ]
        },
        {"traceEvents": [{"ph": "M", "name": "x", "pid": 1, "tid": 1, "ts": 0, "args": {}}]},
    ],
)
def test_validator_rejects_malformed_traces(payload):
    with pytest.raises(ValueError):
        validate_chrome_trace(payload)
