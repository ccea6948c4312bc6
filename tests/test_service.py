"""Unit tests for the job-queue service: store, local execution, policies.

The HTTP surface is covered end-to-end in ``test_service_http.py``;
here the store and the daemon's in-process worker are exercised
directly, including the retry/backoff policy, crash-orphan recovery by
the lease reaper,
deadlines, and the graceful-drain guarantee (no ``running`` rows after
a stop).
"""

import os
import time

import pytest

from repro.service import jobstore
from repro.service.jobstore import JobStore
from repro.service.daemon import ServiceDaemon, ServiceStats
from repro.sim import runner
from repro.sim.config import bench_config
from repro.sim.diskcache import DiskCache, cache_key
from repro.workloads import get_workload

#: Small but real simulation scale (matches the CLI tests).
OVERRIDES = {"ops_per_core": 200, "warmup_ops": 100}
CFG = bench_config(**OVERRIDES)
#: Far longer than any deadline or drain window used below.
SLOW = {"ops_per_core": 60_000, "warmup_ops": 30_000}
#: Every store claim is a lease held by one worker.
WORKER, LEASE = "w1", 30.0


def key_for(workload: str, design: str) -> str:
    return cache_key(get_workload(workload), design, CFG)


def submit(store: JobStore, workload="lbm06", design="ideal", **kwargs):
    job, created = store.submit(
        workload, design, key_for(workload, design), config=OVERRIDES, **kwargs
    )
    return job, created


def wait_for(condition, timeout=60.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(interval)
    return False


@pytest.fixture
def store(tmp_path):
    s = JobStore(tmp_path / "jobs.db")
    yield s
    s.close()


@pytest.fixture(autouse=True)
def _isolated_runner(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "simcache"))
    runner.clear_cache()
    runner.configure_disk_cache(enabled=False)
    yield
    runner.clear_cache()
    runner.configure_disk_cache(enabled=False)


class TestJobStore:
    def test_submit_round_trip(self, store):
        job, created = submit(store, priority=3)
        assert created
        assert job.state == jobstore.QUEUED
        assert job.attempts == 0
        assert job.priority == 3
        assert job.config == OVERRIDES
        assert store.get(job.id).id == job.id

    def test_dedup_on_active_key(self, store):
        first, created = submit(store)
        second, created2 = submit(store)
        assert created and not created2
        assert second.id == first.id
        assert store.counts()[jobstore.QUEUED] == 1

    def test_terminal_job_frees_the_dedup_slot(self, store):
        first, _ = submit(store)
        claimed = store.claim(WORKER, LEASE)
        store.finish(claimed.id, "executed", WORKER)
        second, created = submit(store)
        assert created
        assert second.id != first.id

    def test_claim_order_priority_then_fifo(self, store):
        low, _ = submit(store, "lbm06", "ideal", priority=0)
        high, _ = submit(store, "mcf06", "ideal", priority=5)
        low2, _ = submit(store, "lbm06", "static_ptmc", priority=0)
        order = [store.claim(WORKER, LEASE).id for _ in range(3)]
        assert order == [high.id, low.id, low2.id]
        assert store.claim(WORKER, LEASE) is None

    def test_claim_marks_running_and_counts_attempt(self, store):
        submit(store)
        job = store.claim(WORKER, LEASE)
        assert job.state == jobstore.RUNNING
        assert job.attempts == 1
        assert job.started_at is not None

    def test_backoff_gates_reclaim(self, store):
        submit(store)
        job = store.claim(WORKER, LEASE)
        store.fail(job.id, "boom", WORKER, retry_delay=60.0)
        assert store.get(job.id).state == jobstore.QUEUED
        assert store.claim(WORKER, LEASE) is None  # not_before is in the future
        retry = store.claim(WORKER, LEASE, now=time.time() + 61.0)
        assert retry is not None and retry.id == job.id
        assert retry.attempts == 2

    def test_fail_terminal_records_error(self, store):
        submit(store)
        job = store.claim(WORKER, LEASE)
        store.fail(job.id, "no retry left", WORKER)
        final = store.get(job.id)
        assert final.state == jobstore.FAILED
        assert final.error == "no retry left"
        assert final.finished_at is not None

    def test_cancel_only_queued(self, store):
        job, _ = submit(store)
        assert store.cancel(job.id)
        assert store.get(job.id).state == jobstore.CANCELLED
        job2, _ = submit(store, "mcf06")
        running = store.claim(WORKER, LEASE)
        assert running.id == job2.id
        assert not store.cancel(job2.id)
        assert store.get(job2.id).state == jobstore.RUNNING

    def test_reaper_requeues_orphan_without_refund(self, store):
        submit(store)
        # a worker claims for a short lease, then crashes
        store.claim("crashed", 5.0, now=100.0)
        orphans = store.reap_expired(now=106.0)
        assert len(orphans) == 1
        job = store.get(orphans[0].id)
        assert job.state == jobstore.QUEUED
        assert job.attempts == 1  # the crashed claim still counts
        assert job.started_at is None

    def test_requeue_with_refund(self, store):
        submit(store)
        job = store.claim(WORKER, LEASE)
        store.requeue(job.id)
        back = store.get(job.id)
        assert back.state == jobstore.QUEUED
        assert back.attempts == 0

    def test_persistence_across_reopen(self, store, tmp_path):
        job, _ = submit(store)
        store.close()
        reopened = JobStore(tmp_path / "jobs.db")
        try:
            assert reopened.get(job.id).workload == "lbm06"
            assert reopened.counts()[jobstore.QUEUED] == 1
        finally:
            reopened.close()

    def test_find_by_prefix(self, store):
        job, _ = submit(store)
        assert store.find(job.id[:8]).id == job.id
        with pytest.raises(KeyError):
            store.find("nonexistent")

    def test_submitted_done_jobs_need_no_claim(self, store):
        job, created = store.submit(
            "lbm06", "ideal", "somekey", state=jobstore.DONE, source="cache"
        )
        assert created and job.state == jobstore.DONE
        assert job.source == "cache"
        assert store.claim(WORKER, LEASE) is None


def make_daemon(tmp_path, **kwargs):
    """A daemon whose local Worker is the only executor (not started)."""
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("backoff_base", 0.01)
    kwargs.setdefault("drain_seconds", 60.0)
    return ServiceDaemon(
        db_path=tmp_path / "jobs.db",
        cache_dir=tmp_path / "simcache",
        port=0,
        **kwargs,
    )


def stop_and_join(daemon, timeout=60.0):
    thread = daemon._worker_thread
    daemon.stop(timeout)
    assert not thread.is_alive(), "local worker failed to drain in time"


class TestScheduler:
    """The daemon's in-process Worker executing straight from the store."""

    def test_executes_job_and_writes_shared_cache(self, tmp_path):
        daemon = make_daemon(tmp_path)
        job, _ = submit(daemon.store)
        daemon.start()
        try:
            assert wait_for(lambda: daemon.store.get(job.id).terminal)
            done = daemon.store.get(job.id)
        finally:
            stop_and_join(daemon)
        assert done.state == jobstore.DONE
        assert done.source == "executed"
        assert done.worker_id == f"local:{os.getpid()}"
        cached = DiskCache(tmp_path / "simcache").get(job.key)
        assert cached is not None
        direct = runner.simulate("lbm06", "ideal", CFG, use_cache=False)
        a, b = cached.to_json_dict(), direct.to_json_dict()
        a["extras"].pop("sim_seconds"), b["extras"].pop("sim_seconds")
        assert a == b
        assert daemon.stats.completed == 1
        assert daemon.worker.stats.completed == 1

    def test_unknown_workload_fails_terminally(self, tmp_path):
        daemon = make_daemon(tmp_path)
        job, _ = daemon.store.submit("no_such_workload", "ideal", "k1", config={})
        daemon.start()
        try:
            assert wait_for(lambda: daemon.store.get(job.id).terminal, timeout=30)
            failed = daemon.store.get(job.id)
        finally:
            stop_and_join(daemon)
        assert failed.state == jobstore.FAILED
        assert "unknown workload" in failed.error
        assert failed.attempts == 1
        assert daemon.stats.failed == 1
        assert daemon.stats.retried == 0
        assert daemon.worker.stats.invalid == 1

    def test_worker_error_retries_then_fails(self, tmp_path):
        # A design the simulator cannot build fails inside the pool,
        # exercising the retry/backoff path rather than resolution.
        daemon = make_daemon(tmp_path)
        job, _ = daemon.store.submit(
            "lbm06", "warp_drive", "k2", config=OVERRIDES, max_attempts=2
        )
        daemon.start()
        try:
            assert wait_for(lambda: daemon.store.get(job.id).terminal)
            failed = daemon.store.get(job.id)
        finally:
            stop_and_join(daemon)
        assert failed.state == jobstore.FAILED
        assert failed.attempts == 2
        assert daemon.stats.retried == 1
        assert daemon.stats.failed == 1

    def test_orphan_recovery_completes_job(self, tmp_path):
        daemon = make_daemon(tmp_path, reaper_interval=0.05)
        job, _ = submit(daemon.store)
        # a previous daemon "crashed" holding this job on a short lease
        daemon.store.claim("local:crashed", 0.05)
        assert daemon.store.counts()[jobstore.RUNNING] == 1
        daemon.start()
        try:
            assert wait_for(lambda: daemon.store.get(job.id).terminal)
            state = daemon.store.get(job.id).state
        finally:
            stop_and_join(daemon)
        assert daemon.workers_seen.lease_expirations == 1
        assert state == jobstore.DONE

    def test_graceful_drain_leaves_no_running_rows(self, tmp_path):
        # A zero grace period: the job still running at the stop is left
        # leased by the worker, and the daemon re-queues it refunded.
        daemon = make_daemon(tmp_path, workers=2, drain_seconds=0.0)
        slow, _ = daemon.store.submit(
            "lbm06", "ideal", "k-slow", config=SLOW, max_attempts=1
        )
        for workload in ("lbm06", "mcf06", "xz17"):
            submit(daemon.store, workload, "uncompressed")
        daemon.start()
        assert wait_for(lambda: daemon.store.get(slow.id).state == jobstore.RUNNING)
        store_path = daemon.store.path
        stop_and_join(daemon)
        store = JobStore(store_path)
        try:
            assert store.counts()[jobstore.RUNNING] == 0
            # every job either finished or went back to the queue intact
            for job in store.list_jobs():
                assert job.state in (jobstore.DONE, jobstore.QUEUED)
                if job.state == jobstore.QUEUED:
                    assert job.attempts == 0  # drained claims are refunded
            assert store.get(slow.id).state == jobstore.QUEUED
        finally:
            store.close()
        assert daemon.stats.drain_requeued >= 1

    def test_timeout_fails_job_with_deadline_error(self, tmp_path):
        daemon = make_daemon(tmp_path)
        job, _ = daemon.store.submit(
            "lbm06", "ideal", "k-slow", config=SLOW, max_attempts=1, timeout=0.05
        )
        daemon.start()
        try:
            assert wait_for(lambda: daemon.store.get(job.id).terminal, timeout=60)
            failed = daemon.store.get(job.id)
        finally:
            stop_and_join(daemon)
        assert failed.state == jobstore.FAILED
        assert "timeout" in failed.error
        assert daemon.worker.stats.timeouts >= 1


class TestServiceStatsRegistry:
    def test_counters_and_queue_depth_registered(self, store, tmp_path):
        from repro.obs.stats import StatRegistry

        stats = ServiceStats()
        registry = StatRegistry()
        stats.register_stats(registry.scope("service"), store)
        submit(store)
        stats.completed += 2
        metrics = registry.delta()
        assert metrics["service.queue_depth"] == 1
        assert metrics["service.completed"] == 2
        assert metrics["service.running"] == 0
