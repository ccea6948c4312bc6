"""Persistent simulation job-queue service.

Turns the one-shot simulation CLI into a long-lived daemon: jobs are
submitted over a stdlib HTTP JSON API, persisted in a SQLite
:class:`~repro.service.jobstore.JobStore`, executed by
:class:`~repro.service.worker.Worker` loops on process pools built from
the parallel sweep engine, and their results written through the same
content-addressed disk cache the offline runner uses — so the service
and CLI sweeps share one result store, and re-submitting a solved
identity completes instantly.

There is one executor.  The daemon runs a ``Worker`` in-process against
itself; ``repro worker`` runs the same ``Worker`` on any machine against
the daemon's HTTP API (:class:`~repro.service.client.ServiceClient`).
Both claim jobs under renewable work leases through the same four queue
calls, and a lease reaper re-queues the claims of workers that stop
heartbeating, so a crashed worker costs one lease interval, never a
job.  Mutating routes can require a bearer token
(``$REPRO_SERVICE_TOKEN``) and are protected by queue-depth
backpressure (HTTP 429 + ``Retry-After``).

Layout:

- :mod:`repro.service.jobstore` — durable queue (states, priorities,
  dedup, work leases, crash recovery)
- :mod:`repro.service.worker` — the one claim/execute/heartbeat/drain
  loop, with per-job deadlines
- :mod:`repro.service.daemon` — the queue calls and all job policy
  (retry with backoff, stats, spans, worker tracking), plus the process
  wiring (local worker, reaper, HTTP)
- :mod:`repro.service.api` — HTTP JSON routes (auth, backpressure)
- :mod:`repro.service.client` — urllib client: CLI verbs and the remote
  worker's queue

See DESIGN.md §8 for the architecture and the state machine, and §13
for the distributed sweep fabric.
"""

from repro.service.client import JobFailed, ServiceClient, ServiceError, default_url
from repro.service.daemon import (
    QueueFullError,
    ServiceDaemon,
    ServiceStats,
    SubmitError,
    WorkerProtocolError,
)
from repro.service.jobstore import Job, JobStore, LeaseLostError, default_db_path
from repro.service.worker import Worker, WorkerStats

__all__ = [
    "Job",
    "JobFailed",
    "JobStore",
    "LeaseLostError",
    "QueueFullError",
    "ServiceClient",
    "ServiceDaemon",
    "ServiceError",
    "ServiceStats",
    "SubmitError",
    "Worker",
    "WorkerProtocolError",
    "WorkerStats",
    "default_db_path",
    "default_url",
]
