"""The service's one job executor: claim, execute, heartbeat, drain.

A :class:`Worker` drains a job queue through a local
:class:`~concurrent.futures.ProcessPoolExecutor` built from the parallel
sweep engine's primitives (:func:`repro.sim.parallel.init_worker` /
:func:`repro.sim.parallel.run_job`).  It talks to the queue through four
calls and nothing else::

    claim(worker_id) -> Optional[Job]
    heartbeat(job_id, worker_id)
    finish(job_id, worker_id, result, source)
    fail(job_id, worker_id, error)

Exactly two objects provide them: the
:class:`~repro.service.daemon.ServiceDaemon` itself (its in-process
``local:<pid>`` worker) and :class:`~repro.service.client.ServiceClient`
over HTTP (``repro worker`` on any machine).  Both raise
:class:`~repro.service.jobstore.LeaseLostError` when the caller no
longer holds the job's lease.  All policy — the lease length, retry and
backoff, stats, spans, worker tracking, writing the result to the
daemon's cache — lives behind those calls in the daemon; the worker only
executes.

One pass of the loop:

1. **Harvest** finished futures: ``finish`` on success, ``fail`` on an
   exception raised by the simulation.
2. **Deadlines.**  A job past its ``timeout`` is stuck in a pool
   process, and terminating that process is the only way to stop it.
   The pool is killed and rebuilt, and the stuck jobs ``fail`` with a
   timeout error.  Bystanders that had already finished are harvested
   next pass; pending bystanders are resubmitted to the new pool under
   their existing lease, so they are not charged an attempt.  A future
   that completed after its deadline but before the check is spared.
3. **Claim** until ``concurrency`` jobs are in flight.
4. **Heartbeat** each in-flight job at half the lease the daemon granted
   it (``lease_until - updated_at`` of the claimed row, both on the
   daemon's clock).  A lost lease abandons the attempt: nothing is
   reported for that job.

Drain (:meth:`Worker.request_stop`, wired to SIGTERM/SIGINT): stop
claiming, finish in-flight jobs for up to ``drain_seconds``, then kill
the pool; whatever was still running is left to its lease.

Execution writes through the worker's disk cache first, so a re-claimed
identity answers from disk, and a result lost in transit costs one lease
interval, not the simulation.
"""

from __future__ import annotations

import dataclasses
import os
import socket
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Dict, List, Optional, Tuple

from repro.obs.logging import StructuredLog
from repro.service.client import ServiceError
from repro.service.jobstore import Job, LeaseLostError
from repro.sim import parallel, runner
from repro.sim.config import SimConfig, bench_config
from repro.traces.store import TraceStoreError


def config_from_overrides(config: Dict) -> SimConfig:
    """The :class:`SimConfig` a job's override dict resolves to.

    ``trace_*`` overrides parameterize the workload, not the simulator
    config, so they are filtered out here and applied by
    :func:`repro.sim.runner.resolve_workload`.
    """
    overrides = {
        k: v for k, v in config.items() if k not in runner.TRACE_CONFIG_KEYS
    }
    return bench_config(**overrides)


def default_worker_id() -> str:
    """``<hostname>:<pid>`` — unique enough per live worker process."""
    return f"{socket.gethostname()}:{os.getpid()}"


@dataclasses.dataclass
class WorkerStats:
    """One worker's counters (reported at exit and by tests)."""

    claimed: int = 0
    completed: int = 0
    failed: int = 0
    invalid: int = 0
    timeouts: int = 0
    lease_lost: int = 0
    upload_errors: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class _Flight:
    """One claimed job executing on the pool."""

    job: Job
    #: the ``run_job`` argument, kept so a pool rebuild can resubmit it
    args: Tuple
    future: Future
    #: absolute time past which the job is stuck (``None`` = no limit)
    deadline: Optional[float]
    #: next lease renewal time
    renew_at: float

    def renew_later(self) -> None:
        """Schedule the next renewal at half the granted lease from now."""
        granted = self.job.lease_until - self.job.updated_at
        self.renew_at = time.time() + granted / 2


class Worker:
    """Drains a job queue through a local process pool."""

    def __init__(
        self,
        queue,
        worker_id: Optional[str] = None,
        concurrency: int = 1,
        poll_interval: float = 0.5,
        drain_seconds: float = 30.0,
        cache_dir: Optional[str] = None,
        trace_dir: Optional[str] = None,
        max_jobs: Optional[int] = None,
        log: Optional[StructuredLog] = None,
    ) -> None:
        #: a ServiceDaemon (in-process) or a ServiceClient (over HTTP)
        self.queue = queue
        self.worker_id = worker_id or default_worker_id()
        self.concurrency = max(1, concurrency)
        self.poll_interval = poll_interval
        self.drain_seconds = drain_seconds
        if cache_dir is None and runner.disk_cache() is not None:
            cache_dir = str(runner.disk_cache().root)
        self.cache_dir = cache_dir
        if trace_dir is None:
            from repro.traces.store import trace_store

            trace_dir = str(trace_store().root)
        self.trace_dir = trace_dir
        #: stop after completing/failing this many jobs (None = forever)
        self.max_jobs = max_jobs
        self.stats = WorkerStats()
        self.log = log or StructuredLog()
        self._stop = threading.Event()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._inflight: Dict[str, _Flight] = {}

    # -- control ---------------------------------------------------------

    def request_stop(self) -> None:
        """Ask the loop to drain in-flight jobs and exit (signal-safe)."""
        self._stop.set()

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    def _done_enough(self) -> bool:
        if self.max_jobs is None:
            return False
        return (self.stats.completed + self.stats.failed) >= self.max_jobs

    # -- main loop -------------------------------------------------------

    def run(self) -> WorkerStats:
        """Block, claiming and executing jobs until stopped; then drain."""
        self.log.event(
            "worker_started",
            worker_id=self.worker_id,
            concurrency=self.concurrency,
        )
        self._pool = self._new_pool()
        try:
            while not self._stop.is_set() and not self._done_enough():
                progressed = self._harvest()
                if not self._stop.is_set() and not self._done_enough():
                    progressed |= self._claim_more()
                self._heartbeat()
                if not progressed:
                    self._stop.wait(self.poll_interval)
            self._drain()
        finally:
            if self._pool is not None:
                # Join the pool only when it is quiescent — with futures
                # still running (a crashed loop), wait=True could block
                # for a full job; with the pool idle, wait=False races
                # interpreter teardown against the executor's feeder
                # threads (spurious EBADF noise).
                self._pool.shutdown(wait=not self._inflight, cancel_futures=True)
                self._pool = None
            self.log.event(
                "worker_stopped", worker_id=self.worker_id, **self.stats.as_dict()
            )
        return self.stats

    # -- pool ------------------------------------------------------------

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.concurrency,
            initializer=parallel.init_worker,
            initargs=(self.cache_dir, self.trace_dir),
        )

    def _kill_pool(self) -> None:
        """Terminate the pool's processes (the only way to stop a stuck job)."""
        for process in list((getattr(self._pool, "_processes", None) or {}).values()):
            process.terminate()
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = None

    def _submit(self, flight: _Flight) -> None:
        """(Re)start a flight on the current pool with a fresh deadline."""
        flight.future = self._pool.submit(parallel.run_job, flight.args)
        timeout = flight.job.timeout
        flight.deadline = (time.time() + timeout) if timeout else None

    # -- claim -----------------------------------------------------------

    def _claim_more(self) -> bool:
        claimed = False
        while len(self._inflight) < self.concurrency:
            try:
                job = self.queue.claim(self.worker_id)
            except ServiceError as exc:
                # Unreachable/throttled daemon: back off one poll interval.
                self.log.event(
                    "worker_claim_error", worker_id=self.worker_id, error=str(exc)
                )
                if exc.retry_after:
                    self._stop.wait(min(exc.retry_after, 5.0))
                break
            if job is None:
                break
            claimed = True
            self.stats.claimed += 1
            self._start(job)
        return claimed

    def _start(self, job: Job) -> None:
        """Resolve and dispatch one claimed job; fail it upstream if bad."""
        try:
            args = (
                runner.resolve_workload(job.workload, job.config),
                job.design,
                config_from_overrides(job.config),
            )
        except (KeyError, TypeError, ValueError, TraceStoreError) as exc:
            # Unresolvable *here* (e.g. a trace this host never ingested):
            # the daemon decides whether another attempt could succeed.
            self.stats.invalid += 1
            self._report_failure(job.id, f"invalid job: {exc}")
            return
        flight = _Flight(job, args, None, None, 0.0)
        flight.renew_later()
        self._submit(flight)
        self._inflight[job.id] = flight
        self.log.event(
            "worker_job_started",
            worker_id=self.worker_id,
            job_id=job.id,
            workload=job.workload,
            design=job.design,
            attempt=job.attempts,
        )

    # -- heartbeat -------------------------------------------------------

    def _heartbeat(self) -> None:
        now = time.time()
        for job_id, flight in list(self._inflight.items()):
            if now < flight.renew_at or flight.future.done():
                continue
            try:
                self.queue.heartbeat(job_id, self.worker_id)
            except LeaseLostError:
                # Reaped (presumed dead): abandon the attempt — nothing
                # is reported for this id.
                self.stats.lease_lost += 1
                del self._inflight[job_id]
                self.log.event(
                    "worker_lease_lost", worker_id=self.worker_id, job_id=job_id
                )
                continue
            except ServiceError as exc:
                # Transient network error: keep the job, retry next pass.
                self.log.event(
                    "worker_heartbeat_error",
                    worker_id=self.worker_id,
                    job_id=job_id,
                    error=str(exc),
                )
            flight.renew_later()

    # -- harvest / deadlines ---------------------------------------------

    def _harvest(self) -> bool:
        """Report finished futures and enforce deadlines.

        *Every* expired job is collected per pass, and a job only counts
        as expired while its future is still running.
        """
        progressed = False
        now = time.time()
        expired: List[_Flight] = []
        for job_id, flight in list(self._inflight.items()):
            if flight.future.done():
                del self._inflight[job_id]
                progressed = True
                self._report(flight)
            elif flight.deadline is not None and now > flight.deadline:
                expired.append(flight)
        if expired:
            progressed |= self._on_timeout(expired)
        return progressed

    def _on_timeout(self, expired: List[_Flight]) -> bool:
        """Kill the pool, fail the stuck jobs, rerun pending bystanders.

        Futures that finished since the caller's ``done()`` check are
        spared — if nothing is actually stuck the pool survives.
        """
        stuck = [flight for flight in expired if not flight.future.done()]
        if not stuck:
            return False
        stuck_ids = {flight.job.id for flight in stuck}
        # Decide which bystanders are pending *before* the kill: a killed
        # future may afterwards complete with BrokenProcessPool.
        pending = [
            flight
            for job_id, flight in self._inflight.items()
            if job_id not in stuck_ids and not flight.future.done()
        ]
        self._kill_pool()
        self._pool = self._new_pool()
        for flight in stuck:
            del self._inflight[flight.job.id]
            self.stats.timeouts += 1
            self.log.event(
                "job_timeout", worker_id=self.worker_id, job_id=flight.job.id
            )
            self._report_failure(flight.job.id, "timeout: job exceeded its deadline")
        for flight in pending:
            self._submit(flight)
        return True

    # -- reporting -------------------------------------------------------

    def _report(self, flight: _Flight) -> None:
        job_id = flight.job.id
        try:
            result, source, seconds = flight.future.result()
        except Exception as exc:  # noqa: BLE001 — worker error is data
            self._report_failure(job_id, f"{type(exc).__name__}: {exc}")
            return
        try:
            self.queue.finish(job_id, self.worker_id, result, source)
        except LeaseLostError:
            # Reaped while we computed: the re-queued twin will be served
            # from some disk cache; nothing is lost.
            self.stats.lease_lost += 1
            self.log.event("worker_lease_lost", worker_id=self.worker_id, job_id=job_id)
            return
        except ServiceError as exc:
            self.stats.upload_errors += 1
            self.log.event(
                "worker_upload_error",
                worker_id=self.worker_id,
                job_id=job_id,
                error=str(exc),
            )
            return
        self.stats.completed += 1
        self.log.event(
            "worker_job_completed",
            worker_id=self.worker_id,
            job_id=job_id,
            source=source,
            seconds=round(seconds, 6),
        )

    def _report_failure(self, job_id: str, error: str) -> None:
        self.stats.failed += 1
        try:
            self.queue.fail(job_id, self.worker_id, error)
        except (LeaseLostError, ServiceError) as exc:
            self.log.event(
                "worker_fail_report_error",
                worker_id=self.worker_id,
                job_id=job_id,
                error=str(exc),
            )
        self.log.event(
            "worker_job_failed", worker_id=self.worker_id, job_id=job_id, error=error
        )

    # -- drain -----------------------------------------------------------

    def _drain(self) -> None:
        """Finish in-flight jobs; what outlives the deadline keeps its lease."""
        deadline = time.time() + self.drain_seconds
        while self._inflight and time.time() < deadline:
            self._heartbeat()
            if not self._harvest():
                time.sleep(min(self.poll_interval, 0.1))
        if self._inflight:
            self.log.event(
                "worker_drain_abandoned",
                worker_id=self.worker_id,
                job_ids=sorted(self._inflight),
            )
            self._kill_pool()
            self._inflight.clear()


__all__ = [
    "Worker",
    "WorkerStats",
    "config_from_overrides",
    "default_worker_id",
]
