"""SQLite-backed durable job store for the simulation service.

One row per submitted simulation job.  The store is the service's only
durable state: results themselves live in the content-addressed disk
cache (:mod:`repro.sim.diskcache`), keyed by the same ``cache_key`` the
offline runner uses, so the daemon and CLI sweeps share one result
store and a job row only needs to remember its key.

State machine::

    queued ──claim──▶ running ──finish──▶ done
      ▲                 │
      │   retry/drain/  ├──fail (attempts exhausted)──▶ failed
      └─lease expiry────┘
    queued ──cancel──▶ cancelled

Identical jobs deduplicate on their cache key: a partial unique index
over active rows guarantees at most one ``queued``/``running`` job per
(workload, design, config) identity, and :meth:`JobStore.submit`
returns the existing row instead of inserting a twin (raising the
surviving row's priority when the new submission outranks it).

Claims are *leases*: :meth:`JobStore.claim` records which worker took
the job (``worker_id``) and until when the claim is valid
(``lease_until``).  Workers renew via :meth:`JobStore.heartbeat`; a
reaper (:meth:`JobStore.reap_expired`) continuously re-queues jobs
whose lease lapsed — a crashed or partitioned worker loses its jobs
within one lease interval instead of holding them forever.  Owner
guards on :meth:`finish`/:meth:`fail` make a worker that lost its
lease unable to complete a job that has since been handed elsewhere.

The store is safe for concurrent use from the HTTP handler threads,
the local worker thread, and the reaper thread of one daemon process (one
connection guarded by a lock, WAL journal, ``BEGIN IMMEDIATE`` claims).
"""

from __future__ import annotations

import dataclasses
import json
import os
import sqlite3
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
#: States that still occupy the dedup slot for a cache key.
ACTIVE_STATES = (QUEUED, RUNNING)
#: States a job can never leave.
TERMINAL_STATES = (DONE, FAILED, CANCELLED)

#: Environment variable overriding the default job database location.
SERVICE_DB_ENV = "REPRO_SERVICE_DB"


def default_db_path() -> Path:
    """``$REPRO_SERVICE_DB``, else ``$XDG_CACHE_HOME/repro-ptmc/service.db``."""
    override = os.environ.get(SERVICE_DB_ENV)
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or (Path.home() / ".cache")
    return Path(base) / "repro-ptmc" / "service.db"


_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id           TEXT PRIMARY KEY,
    key          TEXT NOT NULL,
    workload     TEXT NOT NULL,
    design       TEXT NOT NULL,
    config_json  TEXT NOT NULL,
    priority     INTEGER NOT NULL DEFAULT 0,
    state        TEXT NOT NULL,
    attempts     INTEGER NOT NULL DEFAULT 0,
    max_attempts INTEGER NOT NULL DEFAULT 3,
    timeout      REAL,
    not_before   REAL NOT NULL DEFAULT 0,
    source       TEXT,
    error        TEXT,
    created_at   REAL NOT NULL,
    updated_at   REAL NOT NULL,
    started_at   REAL,
    finished_at  REAL,
    worker_id    TEXT,
    lease_until  REAL
);
CREATE INDEX IF NOT EXISTS idx_jobs_claim
    ON jobs (state, not_before, priority, created_at);
CREATE UNIQUE INDEX IF NOT EXISTS idx_jobs_active_key
    ON jobs (key) WHERE state IN ('queued', 'running');
"""

#: Columns added after the v1 schema shipped; applied by ALTER TABLE on
#: databases created before them (CREATE TABLE IF NOT EXISTS is a no-op
#: there).
_MIGRATIONS = (
    ("worker_id", "TEXT"),
    ("lease_until", "REAL"),
)


class LeaseLostError(RuntimeError):
    """The caller no longer holds the job's lease (reaped or re-owned)."""


@dataclasses.dataclass
class Job:
    """One job row, as seen by the workers, API, and CLI."""

    id: str
    key: str
    workload: str
    design: str
    config: Dict[str, Any]
    priority: int
    state: str
    attempts: int
    max_attempts: int
    timeout: Optional[float]
    not_before: float
    source: Optional[str]
    error: Optional[str]
    created_at: float
    updated_at: float
    started_at: Optional[float]
    finished_at: Optional[float]
    worker_id: Optional[str] = None
    lease_until: Optional[float] = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready view (what ``GET /jobs/<id>`` returns)."""
        return dataclasses.asdict(self)


def _row_to_job(row: sqlite3.Row) -> Job:
    return Job(
        id=row["id"],
        key=row["key"],
        workload=row["workload"],
        design=row["design"],
        config=json.loads(row["config_json"]),
        priority=row["priority"],
        state=row["state"],
        attempts=row["attempts"],
        max_attempts=row["max_attempts"],
        timeout=row["timeout"],
        not_before=row["not_before"],
        source=row["source"],
        error=row["error"],
        created_at=row["created_at"],
        updated_at=row["updated_at"],
        started_at=row["started_at"],
        finished_at=row["finished_at"],
        worker_id=row["worker_id"],
        lease_until=row["lease_until"],
    )


def _escape_like(prefix: str) -> str:
    """Escape LIKE wildcards in a user-supplied prefix (``ESCAPE '\\'``)."""
    return (
        prefix.replace("\\", "\\\\").replace("%", "\\%").replace("_", "\\_")
    )


class JobStore:
    """Durable queue of simulation jobs in one SQLite file."""

    def __init__(self, path: Optional[os.PathLike] = None) -> None:
        self.path = Path(path) if path is not None else default_db_path()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(str(self.path), check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_SCHEMA)
            existing = {
                row["name"]
                for row in self._conn.execute("PRAGMA table_info(jobs)")
            }
            for column, decl in _MIGRATIONS:
                if column not in existing:
                    self._conn.execute(
                        f"ALTER TABLE jobs ADD COLUMN {column} {decl}"
                    )
            self._conn.commit()

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # -- submission ------------------------------------------------------

    def submit(
        self,
        workload: str,
        design: str,
        key: str,
        config: Optional[Dict[str, Any]] = None,
        priority: int = 0,
        max_attempts: int = 3,
        timeout: Optional[float] = None,
        state: str = QUEUED,
        source: Optional[str] = None,
    ) -> "tuple[Job, bool]":
        """Insert a job, deduplicating on its cache key.

        Returns ``(job, created)``: when an active (queued/running) job
        already exists for ``key`` the existing row is returned with
        ``created=False`` — after raising its priority to
        ``MAX(existing, new)``, so joining a higher-priority submission
        never leaves the surviving row stuck at its old rank.
        ``state=DONE`` records an instantly-complete job (the submit
        path found a cached result).
        """
        if state not in (QUEUED, DONE):
            raise ValueError(f"jobs are submitted queued or done, not {state!r}")
        now = time.time()
        job_id = uuid.uuid4().hex
        with self._lock:
            if state == QUEUED:
                existing = self._conn.execute(
                    "SELECT * FROM jobs WHERE key = ? AND state IN (?, ?)",
                    (key, QUEUED, RUNNING),
                ).fetchone()
                if existing is not None:
                    if priority > existing["priority"]:
                        self._conn.execute(
                            "UPDATE jobs SET priority = ?, updated_at = ? "
                            "WHERE id = ?",
                            (priority, now, existing["id"]),
                        )
                        self._conn.commit()
                        return self.get(existing["id"]), False
                    return _row_to_job(existing), False
            self._conn.execute(
                "INSERT INTO jobs (id, key, workload, design, config_json, "
                "priority, state, attempts, max_attempts, timeout, not_before, "
                "source, created_at, updated_at, finished_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, 0, ?, ?, 0, ?, ?, ?, ?)",
                (
                    job_id,
                    key,
                    workload,
                    design,
                    json.dumps(config or {}, sort_keys=True),
                    priority,
                    state,
                    max_attempts,
                    timeout,
                    source,
                    now,
                    now,
                    now if state == DONE else None,
                ),
            )
            self._conn.commit()
        return self.get(job_id), True

    # -- worker side -----------------------------------------------------

    def claim(
        self,
        now: Optional[float] = None,
        worker_id: Optional[str] = None,
        lease_seconds: Optional[float] = None,
    ) -> Optional[Job]:
        """Atomically lease the best eligible queued job to one worker.

        Eligibility honours backoff (``not_before``); ordering is
        priority (higher first), then FIFO on submission time.  The
        claimed row records ``worker_id`` and, when ``lease_seconds``
        is given, ``lease_until = now + lease_seconds`` — the deadline
        by which the worker must :meth:`heartbeat` or lose the job to
        :meth:`reap_expired`.  A claim without a lease (legacy callers)
        is never reaped.
        """
        now = time.time() if now is None else now
        lease_until = (now + lease_seconds) if lease_seconds else None
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                row = self._conn.execute(
                    "SELECT id FROM jobs WHERE state = ? AND not_before <= ? "
                    "ORDER BY priority DESC, created_at ASC, id ASC LIMIT 1",
                    (QUEUED, now),
                ).fetchone()
                if row is None:
                    self._conn.execute("ROLLBACK")
                    return None
                self._conn.execute(
                    "UPDATE jobs SET state = ?, attempts = attempts + 1, "
                    "started_at = ?, updated_at = ?, worker_id = ?, "
                    "lease_until = ? WHERE id = ?",
                    (RUNNING, now, now, worker_id, lease_until, row["id"]),
                )
                self._conn.commit()
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            return self.get(row["id"])

    def heartbeat(
        self,
        job_id: str,
        worker_id: Optional[str] = None,
        lease_seconds: float = 30.0,
        now: Optional[float] = None,
    ) -> bool:
        """Renew one running job's lease; ``False`` means the lease is lost.

        The renewal is owner-guarded: a worker whose job was reaped (and
        possibly re-leased to another worker) gets ``False`` back and
        must abandon the attempt — its eventual ``finish``/``fail`` will
        be rejected by the same guard.
        """
        now = time.time() if now is None else now
        with self._lock:
            cur = self._conn.execute(
                "UPDATE jobs SET lease_until = ?, updated_at = ? "
                "WHERE id = ? AND state = ? AND worker_id IS ?",
                (now + lease_seconds, now, job_id, RUNNING, worker_id),
            )
            self._conn.commit()
            return cur.rowcount > 0

    def reap_expired(self, now: Optional[float] = None) -> List[Job]:
        """Re-queue (or terminally fail) every job whose lease lapsed.

        The claim's attempt is *not* refunded — a job whose worker keeps
        dying must still exhaust its bounded retries.  A job already on
        its last attempt fails terminally here rather than looping.
        Returns the reaped jobs as they were *before* reaping (so the
        caller can see which worker lost each lease).
        """
        now = time.time() if now is None else now
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM jobs WHERE state = ? "
                "AND lease_until IS NOT NULL AND lease_until < ?",
                (RUNNING, now),
            ).fetchall()
            expired = [_row_to_job(row) for row in rows]
            for job in expired:
                if job.attempts >= job.max_attempts:
                    self._conn.execute(
                        "UPDATE jobs SET state = ?, error = ?, updated_at = ?, "
                        "finished_at = ?, lease_until = NULL "
                        "WHERE id = ? AND state = ?",
                        (
                            FAILED,
                            f"lease expired (worker {job.worker_id or '?'} "
                            f"presumed dead; attempts exhausted)",
                            now,
                            now,
                            job.id,
                            RUNNING,
                        ),
                    )
                else:
                    self._conn.execute(
                        "UPDATE jobs SET state = ?, not_before = 0, "
                        "started_at = NULL, worker_id = NULL, "
                        "lease_until = NULL, updated_at = ? "
                        "WHERE id = ? AND state = ?",
                        (QUEUED, now, job.id, RUNNING),
                    )
            self._conn.commit()
        return expired

    def finish(
        self, job_id: str, source: str, worker_id: Optional[str] = None
    ) -> bool:
        """``running -> done`` (result already persisted in the disk cache).

        When ``worker_id`` is given the transition is owner-guarded:
        ``False`` means the caller no longer holds the lease (the job
        was reaped and re-queued or handed to another worker).
        """
        return self._transition(
            job_id, RUNNING, DONE, source=source, worker_id=worker_id
        )

    def fail(
        self,
        job_id: str,
        error: str,
        retry_delay: Optional[float] = None,
        worker_id: Optional[str] = None,
    ) -> bool:
        """``running -> failed``, or back to ``queued`` after ``retry_delay``.

        The retrying path clears the claim bookkeeping (``started_at``,
        ``worker_id``, ``lease_until``) exactly like requeue/reap do, so
        a re-queued row never carries a stale claim.  Owner-guarded when
        ``worker_id`` is given (see :meth:`finish`).
        """
        now = time.time()
        guard = "" if worker_id is None else " AND worker_id IS ?"
        guard_args = () if worker_id is None else (worker_id,)
        with self._lock:
            if retry_delay is None:
                cur = self._conn.execute(
                    "UPDATE jobs SET state = ?, error = ?, updated_at = ?, "
                    "finished_at = ?, lease_until = NULL "
                    f"WHERE id = ? AND state = ?{guard}",
                    (FAILED, error, now, now, job_id, RUNNING, *guard_args),
                )
            else:
                cur = self._conn.execute(
                    "UPDATE jobs SET state = ?, error = ?, not_before = ?, "
                    "started_at = NULL, worker_id = NULL, lease_until = NULL, "
                    f"updated_at = ? WHERE id = ? AND state = ?{guard}",
                    (QUEUED, error, now + retry_delay, now, job_id, RUNNING,
                     *guard_args),
                )
            self._conn.commit()
            return cur.rowcount > 0

    def requeue(self, job_id: str, refund_attempt: bool = False) -> None:
        """``running -> queued`` (graceful drain; optionally refund the claim)."""
        now = time.time()
        refund = 1 if refund_attempt else 0
        with self._lock:
            self._conn.execute(
                "UPDATE jobs SET state = ?, not_before = 0, started_at = NULL, "
                "worker_id = NULL, lease_until = NULL, "
                "attempts = MAX(attempts - ?, 0), updated_at = ? "
                "WHERE id = ? AND state = ?",
                (QUEUED, refund, now, job_id, RUNNING),
            )
            self._conn.commit()

    def recover_orphans(self, only_leaseless: bool = False) -> List[Job]:
        """Re-queue ``running`` jobs abandoned by a crash (daemon boot).

        ``only_leaseless=True`` restricts recovery to rows claimed
        without a lease (legacy lease-less executors): *leased* rows
        are left for the continuous reaper (:meth:`reap_expired`), since
        a live remote worker may still legitimately hold them across a
        daemon restart.  Unlike a graceful drain, the claim's attempt is
        *not* refunded — a job that keeps crashing the daemon must still
        exhaust its bounded retries instead of looping forever.
        """
        now = time.time()
        lease_filter = " AND lease_until IS NULL" if only_leaseless else ""
        with self._lock:
            rows = self._conn.execute(
                f"SELECT id FROM jobs WHERE state = ?{lease_filter}", (RUNNING,)
            ).fetchall()
            ids = [row["id"] for row in rows]
            self._conn.execute(
                "UPDATE jobs SET state = ?, not_before = 0, started_at = NULL, "
                "worker_id = NULL, lease_until = NULL, "
                f"updated_at = ? WHERE state = ?{lease_filter}",
                (QUEUED, now, RUNNING),
            )
            self._conn.commit()
        return [self.get(job_id) for job_id in ids]

    # -- client side -----------------------------------------------------

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; running/terminal jobs are left alone."""
        now = time.time()
        with self._lock:
            cur = self._conn.execute(
                "UPDATE jobs SET state = ?, updated_at = ?, finished_at = ? "
                "WHERE id = ? AND state = ?",
                (CANCELLED, now, now, job_id, QUEUED),
            )
            self._conn.commit()
            return cur.rowcount > 0

    def active_for_key(self, key: str) -> Optional[Job]:
        """The queued/running job occupying ``key``'s dedup slot, if any."""
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM jobs WHERE key = ? AND state IN (?, ?)",
                (key, QUEUED, RUNNING),
            ).fetchone()
        return _row_to_job(row) if row is not None else None

    def get(self, job_id: str) -> Job:
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        if row is None:
            raise KeyError(f"no job {job_id!r}")
        return _row_to_job(row)

    def find(self, job_id_prefix: str) -> Job:
        """Exact-id lookup, falling back to a unique id prefix (CLI sugar).

        The prefix is user input, so LIKE metacharacters (``%``, ``_``)
        are escaped — ``repro wait '%'`` must not match every job.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM jobs WHERE id = ? OR id LIKE ? ESCAPE '\\' "
                "LIMIT 3",
                (job_id_prefix, _escape_like(job_id_prefix) + "%"),
            ).fetchall()
        if not rows:
            raise KeyError(f"no job {job_id_prefix!r}")
        if len(rows) > 1:
            raise KeyError(f"ambiguous job id prefix {job_id_prefix!r}")
        return _row_to_job(rows[0])

    def list_jobs(
        self, state: Optional[str] = None, limit: int = 100
    ) -> List[Job]:
        """Most recently updated first, optionally filtered by state."""
        with self._lock:
            if state is None:
                rows = self._conn.execute(
                    "SELECT * FROM jobs ORDER BY updated_at DESC LIMIT ?",
                    (limit,),
                ).fetchall()
            else:
                rows = self._conn.execute(
                    "SELECT * FROM jobs WHERE state = ? "
                    "ORDER BY updated_at DESC LIMIT ?",
                    (state, limit),
                ).fetchall()
        return [_row_to_job(row) for row in rows]

    def counts(self) -> Dict[str, int]:
        """Row count per state (zero-filled over all states)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
            ).fetchall()
        counts = {state: 0 for state in STATES}
        for row in rows:
            counts[row["state"]] = row["n"]
        return counts

    # -- internals -------------------------------------------------------

    def _transition(
        self,
        job_id: str,
        from_state: str,
        to_state: str,
        source: Optional[str],
        worker_id: Optional[str] = None,
    ) -> bool:
        now = time.time()
        guard = "" if worker_id is None else " AND worker_id IS ?"
        guard_args = () if worker_id is None else (worker_id,)
        with self._lock:
            cur = self._conn.execute(
                "UPDATE jobs SET state = ?, source = ?, updated_at = ?, "
                "finished_at = ?, lease_until = NULL "
                f"WHERE id = ? AND state = ?{guard}",
                (to_state, source, now, now, job_id, from_state, *guard_args),
            )
            self._conn.commit()
            return cur.rowcount > 0


__all__ = [
    "ACTIVE_STATES",
    "CANCELLED",
    "DONE",
    "FAILED",
    "Job",
    "JobStore",
    "LeaseLostError",
    "QUEUED",
    "RUNNING",
    "SERVICE_DB_ENV",
    "STATES",
    "TERMINAL_STATES",
    "default_db_path",
]
