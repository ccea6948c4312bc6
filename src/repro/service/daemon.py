"""One service process: job store, local worker, lease reaper, HTTP.

:class:`ServiceDaemon` owns the durable pieces (SQLite job store, the
shared content-addressed disk cache) and the runtime pieces (an
in-process :class:`~repro.service.worker.Worker`, the lease reaper,
threaded HTTP server, telemetry registry).  The CLI's ``repro serve``
builds one and blocks in :meth:`ServiceDaemon.run`; tests embed one
in-process via :meth:`~ServiceDaemon.start` / :meth:`~ServiceDaemon.stop`.

The daemon is also the *queue* every worker talks to: its
:meth:`~ServiceDaemon.claim`, :meth:`~ServiceDaemon.heartbeat`,
:meth:`~ServiceDaemon.finish` and :meth:`~ServiceDaemon.fail` are called
in-process by the local worker and over HTTP (via ``api.py``) by remote
``repro worker`` processes.  All job policy lives in those four calls:
retry with exponential backoff, service stats, the ``service.job`` trace
spans and ``job_seconds`` histogram, worker tracking, and writing each
result to the cache before the state flips.

Submission — shared by the HTTP handler and any in-process caller —
deduplicates twice:

1. a result for the job's identity already in the disk cache completes
   the job instantly (``source="cache"``), and
2. an identical job already queued or running is joined instead of
   duplicated (``created=False`` in the response).

Telemetry registers under ``service.*`` / ``worker.*`` (plus the
runner's ``runner.*`` and the trace store's ``trace.*`` counters) in one
:class:`~repro.obs.StatRegistry`, surfaced by ``GET /metrics``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import re
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.logging import StructuredLog
from repro.obs.stats import StatRegistry, StatScope, is_segment
from repro.obs.tracing import async_begin, async_end
from repro.service import jobstore
from repro.service.jobstore import Job, JobStore, LeaseLostError
from repro.service.worker import Worker, config_from_overrides
from repro.sim import runner
from repro.sim.diskcache import DiskCache, cache_key
from repro.sim.results import SimResult
from repro.sim.system import DESIGNS
from repro.traces.formats import TraceParseError
from repro.traces.store import TraceStore, TraceStoreError, trace_store

#: SimConfig override keys a job submission may carry.  ``trace_*`` keys
#: are workload parameters (valid only on ``trace:<hash>`` jobs).
ALLOWED_CONFIG_KEYS = runner.TRACE_CONFIG_KEYS | frozenset(
    {"ops_per_core", "warmup_ops", "llc_policy"}
)

#: Environment variable holding the shared bearer token.  When set (on
#: the daemon) every mutating request must present it; when set on a
#: client/worker process it is sent automatically.
SERVICE_TOKEN_ENV = "REPRO_SERVICE_TOKEN"

#: Retry backoff: attempt ``n`` waits ``base * FACTOR**(n-1)`` seconds,
#: capped at ``BACKOFF_MAX``.
BACKOFF_FACTOR = 2.0
BACKOFF_MAX = 60.0

#: Queue-depth histogram bounds (jobs waiting at submission time).
QUEUE_DEPTH_BUCKETS = (0.0, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0)


class SubmitError(ValueError):
    """A job submission that can never run (bad workload/design/config)."""


class QueueFullError(SubmitError):
    """The bounded job queue is at capacity (backpressure: retry later)."""


class IngestError(ValueError):
    """A trace upload that cannot be stored (bad payload/format)."""


class WorkerProtocolError(ValueError):
    """A malformed claim/heartbeat/result/fail request from a worker."""


@dataclasses.dataclass
class ServiceStats:
    """Process-wide service counters (mirrors the runner's ``RunnerStats``)."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    retried: int = 0
    cancelled: int = 0
    #: submissions that joined an already-active identical job
    dedup_active: int = 0
    #: submissions served instantly from the shared disk cache
    dedup_cache: int = 0
    drain_requeued: int = 0

    # Distribution stats (not dataclass fields: they live in the registry
    # and are bound here by register_stats so call sites can observe into
    # them; ``None`` until a registry exists, so bare ``ServiceStats()``
    # instances in unit tests stay inert).
    job_seconds = None
    queue_depth_samples = None
    http_request_seconds = None

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)

    def register_stats(self, scope: StatScope, store: JobStore) -> None:
        """Expose service counters plus queue/latency stats under ``scope``."""
        for name in self.as_dict():
            scope.counter(name, (lambda n=name: getattr(self, n)))
        scope.gauge("queue_depth", lambda: store.counts()[jobstore.QUEUED])
        scope.gauge("running", lambda: store.counts()[jobstore.RUNNING])
        self.job_seconds = scope.histogram(
            "job_seconds", doc="claim-to-finish/fail wall time of every job attempt"
        )
        self.queue_depth_samples = scope.histogram(
            "queue_depth_samples",
            buckets=QUEUE_DEPTH_BUCKETS,
            doc="queue depth observed at each submission",
        )
        self.http_request_seconds = scope.histogram(
            "http_request_seconds", doc="HTTP request handling duration"
        )


def _integer(
    payload: Dict[str, Any], name: str, default: int, low: Optional[int] = None
) -> int:
    """``payload[name]`` as a JSON integer ``>= low`` that SQLite can store.

    Bools are rejected: ``true`` is not a priority or an attempt count.
    """
    value = payload.get(name, default)
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or not -(2**63) <= value < 2**63
        or (low is not None and value < low)
    ):
        bound = "" if low is None else f" >= {low}"
        raise SubmitError(f"{name!r} must be an integer{bound}, not {value!r}")
    return value


def _worker_path_segment(worker_id: str) -> str:
    """A registry-legal path segment for one worker id.

    A legal id is its own segment.  Any other id is sanitized and gains
    a digest of the raw id, so ``node-1:42`` and ``node_1:42`` stay apart.
    """
    if is_segment(worker_id):
        return worker_id
    digest = hashlib.sha256(worker_id.encode()).hexdigest()[:8]
    return f"{re.sub(r'[^a-z0-9_]', '_', worker_id.lower())}_{digest}"


class WorkerTracker:
    """Live-worker accounting behind the ``worker.*`` telemetry scope.

    Every claim/heartbeat/result touch marks the worker as seen; a
    worker is "live" while its last touch is younger than
    ``live_horizon`` (three lease intervals by default — long enough to
    ride out a missed heartbeat, short enough that a dead worker drops
    off the gauge promptly).
    """

    def __init__(self, live_horizon: float = 90.0) -> None:
        self.live_horizon = live_horizon
        self._lock = threading.Lock()
        self._last_seen: Dict[str, float] = {}
        self._completed: Dict[str, int] = {}
        self._segments: set = set()
        self.lease_expirations = 0
        self._scope: Optional[StatScope] = None

    def register_stats(self, scope: StatScope) -> None:
        self._scope = scope
        scope.gauge("live", self.live, doc="workers seen within the horizon")
        scope.counter(
            "lease_expirations",
            lambda: self.lease_expirations,
            doc="claims re-queued because their lease lapsed",
        )

    def seen(self, worker_id: str, now: Optional[float] = None) -> None:
        now = time.time() if now is None else now
        with self._lock:
            self._last_seen[worker_id] = now

    def completed(self, worker_id: str) -> None:
        self.seen(worker_id)
        with self._lock:
            first = worker_id not in self._completed
            self._completed[worker_id] = self._completed.get(worker_id, 0) + 1
            if first and self._scope is not None:
                # First completion: surface a per-worker counter on /metrics,
                # on a segment no other worker id holds.
                base = segment = _worker_path_segment(worker_id)
                suffix = 1
                while segment in self._segments:
                    suffix += 1
                    segment = f"{base}_{suffix}"
                self._segments.add(segment)
                self._scope.counter(
                    f"completed.{segment}",
                    (lambda w=worker_id: self._completed.get(w, 0)),
                    doc=f"jobs completed by worker {worker_id}",
                )

    def lease_expired(self, worker_id: Optional[str]) -> None:
        self.lease_expirations += 1
        if worker_id:
            with self._lock:
                # an expired lease is *evidence of absence*: forget the
                # worker so the live gauge drops without waiting out the
                # horizon
                self._last_seen.pop(worker_id, None)

    def live(self, now: Optional[float] = None) -> int:
        now = time.time() if now is None else now
        horizon = now - self.live_horizon
        with self._lock:
            return sum(1 for seen in self._last_seen.values() if seen >= horizon)

    def completions(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._completed)


class ServiceDaemon:
    """Everything one ``repro serve`` process runs."""

    def __init__(
        self,
        db_path=None,
        cache_dir=None,
        trace_dir=None,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        default_timeout: Optional[float] = None,
        max_attempts: int = 3,
        drain_seconds: float = 30.0,
        backoff_base: float = 0.5,
        log_stream=None,
        token: Optional[str] = None,
        lease_seconds: float = 30.0,
        reaper_interval: float = 1.0,
        max_queued: int = 10_000,
    ) -> None:
        if not (math.isfinite(lease_seconds) and lease_seconds > 0):
            raise ValueError(
                f"lease_seconds must be a finite number > 0, not {lease_seconds!r}"
            )
        self.store = JobStore(db_path)
        if cache_dir is not None:
            self.cache = DiskCache(cache_dir)
        else:
            self.cache = runner.disk_cache() or DiskCache()
        # the trace store is process-global (replay resolves through the
        # singleton), so an explicit trace_dir reconfigures it for the
        # whole daemon process
        if trace_dir is not None:
            from repro.traces.store import configure_trace_store

            self.traces: TraceStore = configure_trace_store(trace_dir)
        else:
            self.traces = trace_store()
        self.stats = ServiceStats()
        self.max_attempts = max_attempts
        #: stored on rows submitted without their own ``timeout``
        self.default_timeout = default_timeout
        self.backoff_base = backoff_base
        self.started_at = time.time()
        #: shared bearer token guarding mutating routes (None = open)
        self.token = (
            token if token is not None else os.environ.get(SERVICE_TOKEN_ENV) or None
        )
        #: the one lease length: every claim and renewal is granted it
        self.lease_seconds = lease_seconds
        self.reaper_interval = reaper_interval
        #: queued-row ceiling for backpressure (0 = unbounded)
        self.max_queued = max_queued
        self.workers_seen = WorkerTracker(live_horizon=3 * lease_seconds)
        self._reaper_thread: Optional[threading.Thread] = None
        self._reaper_stop = threading.Event()
        self._stop = threading.Event()
        #: structured JSON event log (``log_stream=None`` keeps it off,
        #: the default for embedded/test daemons; ``repro serve`` passes
        #: stderr)
        self.log = StructuredLog(log_stream)
        #: the in-process worker (``None`` when ``workers=0``: execution
        #: is left to remote ``repro worker`` processes)
        self.worker: Optional[Worker] = None
        if workers > 0:
            self.worker = Worker(
                queue=self,
                worker_id=f"local:{os.getpid()}",
                concurrency=workers,
                poll_interval=0.05,
                drain_seconds=drain_seconds,
                cache_dir=str(self.cache.root),
                trace_dir=str(self.traces.root),
                log=self.log,
            )
        self.registry = StatRegistry()
        service_scope = self.registry.scope("service")
        self.stats.register_stats(service_scope, self.store)
        self.workers_seen.register_stats(self.registry.scope("worker"))
        service_scope.gauge(
            "uptime_seconds",
            lambda: round(time.time() - self.started_at, 3),
            doc="seconds since this daemon process started",
        )
        runner.register_stats(self.registry.scope("runner"))
        self.traces.stats.register_stats(self.registry.scope("trace"))
        # The HTTP server imports are local so the daemon object stays
        # usable in contexts that never open a socket (unit tests).
        from repro.service.api import make_server

        self.server = make_server(self, host, port)
        self._http_thread: Optional[threading.Thread] = None
        self._worker_thread: Optional[threading.Thread] = None

    # -- addresses -------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # -- submission (shared by HTTP and in-process callers) --------------

    def submit(self, payload: Dict[str, Any]) -> Tuple[Job, bool]:
        """Validate and enqueue one job; returns ``(job, created)``.

        Raises :class:`SubmitError` on an identity that can never
        simulate (unknown workload/design, bad config override).
        """
        if not isinstance(payload, dict):
            raise SubmitError("job payload must be a JSON object")
        workload_name = payload.get("workload")
        design = payload.get("design")
        if not isinstance(workload_name, str) or not isinstance(design, str):
            raise SubmitError("'workload' and 'design' are required strings")
        if design not in DESIGNS:
            raise SubmitError(f"unknown design {design!r}; choose from {DESIGNS}")
        config_overrides = dict(payload.get("config") or {})
        unknown = set(config_overrides) - ALLOWED_CONFIG_KEYS
        if unknown:
            raise SubmitError(
                f"unsupported config overrides {sorted(unknown)}; "
                f"allowed: {sorted(ALLOWED_CONFIG_KEYS)}"
            )
        try:
            workload = runner.resolve_workload(workload_name, config_overrides)
        except (KeyError, TraceStoreError) as exc:
            raise SubmitError(str(exc)) from None
        except (TypeError, ValueError) as exc:
            raise SubmitError(f"bad trace overrides: {exc}") from None
        if workload_name.startswith("trace:"):
            # canonicalize abbreviated hashes so the stored row stays
            # resolvable even if a later ingest makes the prefix ambiguous
            workload_name = f"trace:{workload.trace_hash}"
        try:
            config = config_from_overrides(config_overrides)
        except (TypeError, ValueError) as exc:
            raise SubmitError(f"bad config overrides: {exc}") from None
        priority = _integer(payload, "priority", 0)
        max_attempts = _integer(payload, "max_attempts", self.max_attempts, low=1)
        # The resolved deadline is stored on the row, so every worker —
        # local or remote — enforces the same one.
        timeout = payload.get("timeout")
        if timeout is None:
            timeout = self.default_timeout
        elif (
            isinstance(timeout, bool)
            or not isinstance(timeout, (int, float))
            or not 0 < timeout <= sys.float_info.max
        ):
            raise SubmitError(f"'timeout' must be a finite number > 0, not {timeout!r}")
        key = cache_key(workload, design, config)
        if self.stats.queue_depth_samples is not None:
            self.stats.queue_depth_samples.observe(
                self.store.counts()[jobstore.QUEUED]
            )

        if self.cache.get(key) is not None:
            # Identity already solved: record an instantly-done job.
            job, created = self.store.submit(
                workload_name,
                design,
                key,
                config=config_overrides,
                priority=priority,
                max_attempts=max_attempts,
                timeout=timeout,
                state=jobstore.DONE,
                source="cache",
            )
            self.stats.dedup_cache += 1
            return job, created
        if self.max_queued and self.store.active_for_key(key) is None:
            # Backpressure: only genuinely-new rows count against the
            # bound — joining an active twin adds no queue depth.
            depth = self.store.counts()[jobstore.QUEUED]
            if depth >= self.max_queued:
                raise QueueFullError(
                    f"job queue is full ({depth} >= {self.max_queued} queued); "
                    f"retry later"
                )
        job, created = self.store.submit(
            workload_name,
            design,
            key,
            config=config_overrides,
            priority=priority,
            max_attempts=max_attempts,
            timeout=timeout,
        )
        if created:
            self.stats.submitted += 1
            self.log.event(
                "job_submitted",
                job_id=job.id,
                workload=workload_name,
                design=design,
                priority=priority,
            )
        else:
            self.stats.dedup_active += 1
        return job, created

    # -- trace ingestion --------------------------------------------------

    def ingest_trace(self, payload: Dict[str, Any]):
        """Store one uploaded trace; returns ``(info, created)``.

        The payload carries the trace either as ``content`` (text
        records, convenient for hand-written uploads) or ``content_b64``
        (base64 of text/binary/gzip bytes), plus optional ``name``,
        ``format`` (``auto``/``text``/``binary``) and ``mode``
        (``strict``/``lenient``).  Raises :class:`IngestError` on a
        payload that cannot be parsed or stored.
        """
        if not isinstance(payload, dict):
            raise IngestError("trace payload must be a JSON object")
        content = payload.get("content")
        content_b64 = payload.get("content_b64")
        if (content is None) == (content_b64 is None):
            raise IngestError("provide exactly one of 'content' or 'content_b64'")
        if content is not None:
            if not isinstance(content, str):
                raise IngestError("'content' must be a string of text records")
            data = content.encode("utf-8")
        else:
            import base64
            import binascii

            try:
                data = base64.b64decode(content_b64, validate=True)
            except (binascii.Error, TypeError, ValueError) as exc:
                raise IngestError(f"bad content_b64: {exc}") from None
        name = payload.get("name") or ""
        fmt = payload.get("format", "auto")
        mode = payload.get("mode", "strict")
        try:
            info, created = self.traces.ingest_bytes(
                data, name=str(name), fmt=fmt, mode=mode
            )
        except (TraceParseError, TraceStoreError, ValueError) as exc:
            raise IngestError(str(exc)) from None
        self.log.event(
            "trace_ingested",
            hash=info.hash,
            name=info.name,
            records=info.records,
            created=created,
        )
        return info, created

    def result_for(self, job: Job) -> Optional[SimResult]:
        """The completed job's :class:`SimResult` from the shared cache."""
        return self.cache.get(job.key)

    # -- the queue: claim / heartbeat / finish / fail --------------------
    #
    # Called in-process by the local Worker and through api.py by remote
    # ones; ServiceClient mirrors these four signatures over HTTP.

    def claim(self, worker_id: str) -> Optional[Job]:
        """Lease the best queued job to ``worker_id`` (``None`` = empty)."""
        self.workers_seen.seen(worker_id)
        job = self.store.claim(worker_id, self.lease_seconds)
        if job is not None:
            async_begin(
                "service.job",
                job.id,
                category="service",
                workload=job.workload,
                design=job.design,
            )
            self.log.event(
                "job_dispatched",
                job_id=job.id,
                workload=job.workload,
                design=job.design,
                worker_id=worker_id,
                attempt=job.attempts,
                lease_seconds=self.lease_seconds,
            )
        return job

    def heartbeat(self, job_id: str, worker_id: str) -> Job:
        """Renew a worker's lease; raises :class:`LeaseLostError` if gone."""
        self.workers_seen.seen(worker_id)
        job = self.store.find(job_id)  # KeyError -> 404 at the API layer
        if not self.store.heartbeat(job.id, worker_id, self.lease_seconds):
            raise LeaseLostError(
                f"job {job.id} is not leased to worker {worker_id!r} "
                f"(state {self.store.get(job.id).state})"
            )
        return self.store.get(job.id)

    def finish(
        self, job_id: str, worker_id: str, result: SimResult, source: str = "remote"
    ) -> Job:
        """Adopt a worker's finished result: cache it, mark the job done.

        The result is written through the content-addressed cache under
        the job's key *before* the state flip, so a ``GET
        /jobs/<id>/result`` that races the transition never sees
        done-without-result.  For a local job this rewrites the entry
        the pool already wrote (idempotent, flock'd).
        """
        job = self.store.find(job_id)
        if result.design != job.design:
            raise WorkerProtocolError(
                f"result is for design {result.design!r}, job wants {job.design!r}"
            )
        self.cache.put(job.key, result)
        if not self.store.finish(job.id, source, worker_id):
            raise LeaseLostError(
                f"job {job.id} is no longer leased to worker {worker_id!r}; "
                f"result cached but job state unchanged"
            )
        seconds = self._end_attempt(job, "done")
        self.stats.completed += 1
        self.workers_seen.completed(worker_id)
        self.log.event(
            "job_completed",
            job_id=job.id,
            source=source,
            worker_id=worker_id,
            seconds=round(seconds, 6),
        )
        return self.store.get(job.id)

    def fail(self, job_id: str, worker_id: str, error: str) -> Job:
        """Record a failed attempt: retry with backoff, or fail terminally.

        A job is retried while it has attempts left and its identity
        still resolves here; an identity the daemon cannot resolve
        either can never succeed anywhere.
        """
        self.workers_seen.seen(worker_id)
        job = self.store.find(job_id)
        delay = None
        if job.attempts < job.max_attempts and self._resolves(job):
            delay = min(
                self.backoff_base * BACKOFF_FACTOR ** (job.attempts - 1), BACKOFF_MAX
            )
        if not self.store.fail(job.id, error, worker_id, retry_delay=delay):
            raise LeaseLostError(
                f"job {job.id} is no longer leased to worker {worker_id!r}"
            )
        outcome = "failed" if delay is None else "retried"
        self._end_attempt(job, outcome)
        if delay is None:
            self.stats.failed += 1
        else:
            self.stats.retried += 1
        self.log.event(
            f"job_{outcome}",
            job_id=job.id,
            worker_id=worker_id,
            error=error,
            attempt=job.attempts,
            retry_delay=delay,
        )
        return self.store.get(job.id)

    @staticmethod
    def _resolves(job: Job) -> bool:
        try:
            runner.resolve_workload(job.workload, job.config)
            config_from_overrides(job.config)
        except (KeyError, TypeError, ValueError, TraceStoreError):
            return False
        return True

    def _end_attempt(self, job: Job, outcome: str) -> float:
        """Close the attempt's trace span; its claim-to-now seconds."""
        async_end("service.job", job.id, category="service", outcome=outcome)
        seconds = time.time() - job.started_at
        if self.stats.job_seconds is not None:
            self.stats.job_seconds.observe(seconds)
        return seconds

    # -- lease reaper ----------------------------------------------------

    def reap_leases(self) -> List[Job]:
        """One reaper pass: requeue/fail every job whose lease lapsed.

        This is the only recovery path: the rows a crashed daemon, a
        killed worker or a pre-lease database left ``running`` all lapse
        and come back here.
        """
        reaped = self.store.reap_expired()
        for job in reaped:
            self.workers_seen.lease_expired(job.worker_id)
            async_end("service.job", job.id, category="service", outcome="lease_expired")
            self.log.event(
                "lease_expired",
                job_id=job.id,
                worker_id=job.worker_id,
                attempt=job.attempts,
            )
        return reaped

    def _reaper_loop(self) -> None:
        while not self._reaper_stop.wait(self.reaper_interval):
            try:
                self.reap_leases()
            except Exception:  # noqa: BLE001 — never kill the reaper thread
                pass

    def health(self) -> Dict[str, Any]:
        counts = self.store.counts()
        return {
            "ok": True,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "queue": counts,
            "queue_depth": counts[jobstore.QUEUED],
            "inflight": self.worker.inflight if self.worker else 0,
            "workers": self.worker.concurrency if self.worker else 0,
            "live_workers": self.workers_seen.live(),
            "lease_seconds": self.lease_seconds,
            "auth": self.token is not None,
            "draining": self._stop.is_set(),
            "cache_dir": str(self.cache.root),
            "trace_dir": str(self.traces.root),
            "db": str(self.store.path),
        }

    def metrics(self) -> Dict[str, Any]:
        """Current value of every registered stat (``GET /metrics``)."""
        return self.registry.delta()

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Start HTTP, the lease reaper and the local worker on threads."""
        self._http_thread = threading.Thread(
            target=self.server.serve_forever, name="repro-service-http", daemon=True
        )
        self._http_thread.start()
        self._reaper_thread = threading.Thread(
            target=self._reaper_loop, name="repro-service-reaper", daemon=True
        )
        self._reaper_thread.start()
        self.log.event(
            "scheduler_started", workers=self.worker.concurrency if self.worker else 0
        )
        if self.worker is not None:
            self._worker_thread = threading.Thread(
                target=self.worker.run, name="repro-service-worker", daemon=True
            )
            self._worker_thread.start()

    def run(self) -> None:
        """Blocking serve loop for the CLI: serve until stopped, then drain."""
        self.start()
        while not self._stop.wait(0.2):
            pass
        self.stop()

    def request_stop(self) -> None:
        """Signal-handler hook: begin graceful drain."""
        self._stop.set()
        if self.worker is not None:
            self.worker.request_stop()

    def stop(self, timeout: Optional[float] = None) -> None:
        """Drain and stop everything :meth:`start` started; close up.

        The local worker's drain is bounded by its ``drain_seconds``; it
        leaves jobs that outlive it leased, and re-queueing those here
        (attempt refunded) keeps the guarantee that a stopped daemon
        leaves no ``running`` rows of its own.
        """
        self.request_stop()
        if self._worker_thread is not None:
            self._worker_thread.join(timeout)
            self._worker_thread = None
        if self.worker is not None:
            for job in self.store.list_jobs(state=jobstore.RUNNING, limit=-1):
                if job.worker_id == self.worker.worker_id:
                    self.store.requeue(job.id)
                    self.stats.drain_requeued += 1
                    async_end(
                        "service.job", job.id, category="service", outcome="drained"
                    )
            self.log.event("daemon_drained", requeued=self.stats.drain_requeued)
        self._reaper_stop.set()
        if self._reaper_thread is not None:
            self._reaper_thread.join(5.0)
            self._reaper_thread = None
        self.server.shutdown()
        self.server.server_close()
        if self._http_thread is not None:
            self._http_thread.join(5.0)
            self._http_thread = None
        self.store.close()


__all__ = [
    "ALLOWED_CONFIG_KEYS",
    "BACKOFF_FACTOR",
    "BACKOFF_MAX",
    "IngestError",
    "LeaseLostError",
    "QueueFullError",
    "SERVICE_TOKEN_ENV",
    "ServiceDaemon",
    "ServiceStats",
    "SubmitError",
    "WorkerProtocolError",
    "WorkerTracker",
]
