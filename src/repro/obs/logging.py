"""Structured JSON logging with trace correlation.

One :class:`StructuredLog` writes newline-delimited JSON records —
machine-parseable service logs that standard shippers (Loki, Vector,
``jq``) ingest directly.  Every record carries:

- ``ts`` — wall-clock seconds (epoch, 6 decimal places),
- ``event`` — a stable snake_case event name, and
- whatever fields the call site attaches (job ids, durations, statuses).

When a :class:`~repro.obs.tracing.Tracer` is installed, records are
stamped with its ``trace_id`` automatically (call sites add ``span_id``
from the span handles they hold), so a log line and a Perfetto span
correlate on ids with no further plumbing.

A ``stream=None`` log is disabled: ``event()`` returns immediately, so
embedding a daemon in tests stays quiet by default.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Optional, TextIO

from repro.obs import tracing


class StructuredLog:
    """Newline-delimited JSON event log (thread-safe, optionally off)."""

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self.stream is not None

    def event(self, event: str, **fields: Any) -> Optional[str]:
        """Emit one record; returns the serialized line (or ``None`` if off)."""
        if self.stream is None:
            return None
        record = {"ts": round(time.time(), 6), "event": event, **fields}
        tracer = tracing.current_tracer()
        if tracer is not None:
            record.setdefault("trace_id", tracer.trace_id)
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            self.stream.write(line + "\n")
            self.stream.flush()
        return line


__all__ = ["StructuredLog"]
