"""Distributed sweep fabric: leases, remote workers, auth, backpressure.

Covers the jobstore lease/heartbeat/reap protocol, the owner guards on
``finish``/``fail``, the worker's deadline handling, the HTTP worker
protocol end-to-end (a real :class:`Worker` draining a daemon that runs
no local worker), token auth, queue-depth backpressure, and a
hypothesis state machine asserting the store's invariants hold under
arbitrary operation interleavings.
"""

import inspect
import math
import os
import shutil
import sqlite3
import tempfile
import threading
import time
from concurrent.futures import Future
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.service import jobstore
from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import ServiceDaemon
from repro.service.jobstore import JobStore, LeaseLostError
from repro.service.worker import Worker, _Flight
from repro.sim import runner
from repro.sim.config import bench_config
from repro.sim.diskcache import DiskCache, cache_key
from repro.workloads import get_workload

OVERRIDES = {"ops_per_core": 200, "warmup_ops": 100}
CFG = bench_config(**OVERRIDES)


def key_for(workload: str, design: str) -> str:
    return cache_key(get_workload(workload), design, CFG)


def submit(store: JobStore, workload="lbm06", design="ideal", **kwargs):
    return store.submit(
        workload, design, key_for(workload, design), config=OVERRIDES, **kwargs
    )


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


# -- jobstore: leases ----------------------------------------------------


class TestLeases:
    def test_claim_records_worker_and_lease(self, store):
        submit(store)
        job = store.claim(now=100.0, worker_id="w1", lease_seconds=30.0)
        assert job.worker_id == "w1"
        assert job.lease_until == 130.0

    def test_heartbeat_extends_lease(self, store):
        submit(store)
        job = store.claim(now=100.0, worker_id="w1", lease_seconds=30.0)
        assert store.heartbeat(job.id, "w1", lease_seconds=30.0, now=120.0)
        assert store.get(job.id).lease_until == 150.0

    def test_heartbeat_owner_guarded(self, store):
        submit(store)
        job = store.claim(now=100.0, worker_id="w1", lease_seconds=30.0)
        assert not store.heartbeat(job.id, "imposter", 30.0, now=120.0)
        assert store.get(job.id).lease_until == 130.0

    def test_reap_requeues_expired_lease(self, store):
        submit(store)
        job = store.claim(now=100.0, worker_id="w1", lease_seconds=30.0)
        assert store.reap_expired(now=120.0) == []  # still live
        reaped = store.reap_expired(now=131.0)
        assert [j.id for j in reaped] == [job.id]
        assert reaped[0].worker_id == "w1"  # pre-reap view names the loser
        back = store.get(job.id)
        assert back.state == jobstore.QUEUED
        assert back.worker_id is None
        assert back.lease_until is None
        assert back.started_at is None
        assert back.attempts == 1  # the lost claim still counts

    def test_reap_fails_terminally_on_last_attempt(self, store):
        submit(store, max_attempts=1)
        job = store.claim(now=100.0, worker_id="w1", lease_seconds=5.0)
        store.reap_expired(now=200.0)
        final = store.get(job.id)
        assert final.state == jobstore.FAILED
        assert "lease expired" in final.error
        assert "w1" in final.error

    def test_finish_owner_guarded(self, store):
        submit(store)
        job = store.claim(worker_id="w1", lease_seconds=30.0)
        assert not store.finish(job.id, "executed", worker_id="imposter")
        assert store.get(job.id).state == jobstore.RUNNING
        assert store.finish(job.id, "executed", worker_id="w1")
        assert store.get(job.id).state == jobstore.DONE

    def test_fail_owner_guarded(self, store):
        submit(store)
        job = store.claim(worker_id="w1", lease_seconds=30.0)
        assert not store.fail(job.id, "boom", worker_id="imposter")
        assert store.get(job.id).state == jobstore.RUNNING
        assert store.fail(job.id, "boom", worker_id="w1")
        assert store.get(job.id).state == jobstore.FAILED

    def test_reaped_worker_cannot_clobber_new_owner(self, store):
        # w1's lease expires; the job is re-leased to w2; w1's late
        # finish must not override w2's ownership.
        submit(store)
        job = store.claim(now=100.0, worker_id="w1", lease_seconds=10.0)
        store.reap_expired(now=200.0)
        retry = store.claim(now=200.0, worker_id="w2", lease_seconds=10.0)
        assert retry.id == job.id and retry.worker_id == "w2"
        assert not store.finish(job.id, "executed", worker_id="w1")
        assert store.get(job.id).state == jobstore.RUNNING
        assert store.finish(job.id, "executed", worker_id="w2")

    def test_reaper_spares_live_leases(self, store):
        # A live lease may belong to a worker that is still computing:
        # a reaper pass takes only the lapsed claim.
        submit(store, "lbm06", "ideal")
        submit(store, "mcf06", "ideal")
        leased = store.claim(worker_id="remote", lease_seconds=300.0, now=100.0)
        crashed = store.claim(worker_id="crashed", lease_seconds=5.0, now=100.0)
        recovered = store.reap_expired(now=110.0)
        assert [j.id for j in recovered] == [crashed.id]
        assert store.get(leased.id).state == jobstore.RUNNING
        assert store.get(crashed.id).state == jobstore.QUEUED

    def test_old_database_schema_is_migrated(self, tmp_path):
        upgraded = JobStore(pre_lease_db(tmp_path, "queued"))
        try:
            job = upgraded.get("j1")
            assert job.worker_id is None and job.lease_until is None
            claimed = upgraded.claim(worker_id="w1", lease_seconds=5.0)
            assert claimed.id == "j1" and claimed.worker_id == "w1"
        finally:
            upgraded.close()

    def test_pre_lease_running_row_is_reaped(self, tmp_path):
        # A row left running by a pre-lease executor has no lease at all:
        # one reaper pass re-queues it, without refunding its attempt.
        upgraded = JobStore(pre_lease_db(tmp_path, "running"))
        try:
            assert upgraded.get("j1").lease_until is None
            reaped = upgraded.reap_expired()
            assert [j.id for j in reaped] == ["j1"]
            back = upgraded.get("j1")
            assert back.state == jobstore.QUEUED
            assert back.attempts == 1  # the pre-lease claim still counts
            assert back.started_at is None and back.lease_until is None
        finally:
            upgraded.close()


def pre_lease_db(tmp_path, state: str) -> Path:
    """A database from before leases: the jobs table minus the two new
    columns, holding one job ``j1`` in ``state`` (claimed once if running)."""
    db = tmp_path / "old.db"
    attempts, started = (1, "1.0") if state == "running" else (0, "NULL")
    conn = sqlite3.connect(db)
    conn.executescript(
        f"""
        CREATE TABLE jobs (
            id TEXT PRIMARY KEY, key TEXT NOT NULL,
            workload TEXT NOT NULL, design TEXT NOT NULL,
            config_json TEXT NOT NULL,
            priority INTEGER NOT NULL DEFAULT 0, state TEXT NOT NULL,
            attempts INTEGER NOT NULL DEFAULT 0,
            max_attempts INTEGER NOT NULL DEFAULT 3,
            timeout REAL, not_before REAL NOT NULL DEFAULT 0,
            source TEXT, error TEXT, created_at REAL NOT NULL,
            updated_at REAL NOT NULL, started_at REAL, finished_at REAL
        );
        INSERT INTO jobs VALUES ('j1', 'k1', 'lbm06', 'ideal', '{{}}',
            0, '{state}', {attempts}, 3, NULL, 0, NULL, NULL, 1.0, 1.0,
            {started}, NULL);
        """
    )
    conn.commit()
    conn.close()
    return db


# -- jobstore: satellite bug fixes ---------------------------------------


class TestJobStoreFixes:
    def test_find_escapes_like_wildcards(self, store):
        job, _ = submit(store)
        assert store.find(job.id[:8]).id == job.id
        # '%' and '_' are literals in a prefix, not LIKE wildcards —
        # they can never appear in a uuid id, so they must match nothing.
        with pytest.raises(KeyError):
            store.find("%")
        with pytest.raises(KeyError):
            store.find("________")
        with pytest.raises(KeyError):
            store.find(job.id[:4] + "%")

    def test_dedup_join_raises_priority(self, store):
        low, created = submit(store, priority=1)
        assert created
        joined, created2 = submit(store, priority=5)
        assert not created2 and joined.id == low.id
        assert joined.priority == 5
        # a lower-priority join never demotes the surviving row
        again, _ = submit(store, priority=0)
        assert again.priority == 5

    def test_dedup_priority_raise_changes_claim_order(self, store):
        first, _ = submit(store, "lbm06", "ideal", priority=0)
        other, _ = submit(store, "mcf06", "ideal", priority=3)
        submit(store, "lbm06", "ideal", priority=9)  # join + raise
        assert store.claim("w1", 30.0).id == first.id
        assert store.claim("w1", 30.0).id == other.id

    def test_retrying_fail_clears_claim_bookkeeping(self, store):
        submit(store)
        job = store.claim(worker_id="w1", lease_seconds=30.0)
        assert store.fail(job.id, "boom", "w1", retry_delay=0.0)
        back = store.get(job.id)
        assert back.state == jobstore.QUEUED
        assert back.started_at is None
        assert back.worker_id is None
        assert back.lease_until is None
        # and the re-claim starts a fresh lease, not a stale one
        retry = store.claim(now=time.time() + 1.0, worker_id="w2",
                            lease_seconds=30.0)
        assert retry.id == job.id and retry.started_at is not None


# -- Worker: deadlines ----------------------------------------------------


class _FakePool:
    """Stands in for ProcessPoolExecutor in deadline unit tests."""

    def __init__(self):
        self._processes = {}
        self.killed = False
        self.submitted = []

    def submit(self, fn, args):
        self.submitted.append(args)
        future = Future()
        future.set_running_or_notify_cancel()
        return future

    def shutdown(self, wait=False, cancel_futures=False):
        self.killed = True


class _FakeQueue:
    """Records a Worker's queue calls (the daemon's policy is not under test)."""

    def __init__(self):
        self.finished = {}
        self.failed = {}

    def claim(self, worker_id):
        return None

    def heartbeat(self, job_id, worker_id):
        return None

    def finish(self, job_id, worker_id, result, source="remote"):
        self.finished[job_id] = source

    def fail(self, job_id, worker_id, error):
        self.failed[job_id] = error


def make_deadline_worker():
    worker = Worker(_FakeQueue(), worker_id="w-test", concurrency=3)
    worker._pool = _FakePool()
    worker._new_pool = _FakePool  # rebuilt pools are fakes too
    return worker


def plant(store, worker, workload, deadline=None):
    """Claim one job as the worker would and plant a pending future."""
    submit(store, workload, "ideal")
    job = store.claim(worker_id=worker.worker_id, lease_seconds=30.0)
    future = Future()
    future.set_running_or_notify_cancel()
    flight = _Flight(job, (workload,), future, deadline, time.time() + 30.0)
    worker._inflight[job.id] = flight
    return job, flight


class TestSchedulerTimeouts:
    def test_completed_future_is_spared_from_timeout(self, store):
        # The job's deadline passed, but its future finished before the
        # check: harvest it, don't kill the pool.
        worker = make_deadline_worker()
        pool = worker._pool
        job, flight = plant(store, worker, "lbm06", deadline=time.time() - 1.0)
        flight.future.set_result((None, "executed", 0.01))
        assert worker._harvest()  # harvests, no timeout declared
        assert not pool.killed
        assert worker.stats.timeouts == 0
        assert worker.stats.completed == 1
        assert worker.queue.finished == {job.id: "executed"}

    def test_every_expired_job_is_reaped_in_one_pass(self, store):
        # Two jobs past their deadline in the same pass: both must be
        # failed, not just the last one the loop happened to remember.
        worker = make_deadline_worker()
        pool = worker._pool
        a, _ = plant(store, worker, "lbm06", deadline=time.time() - 1.0)
        b, _ = plant(store, worker, "mcf06", deadline=time.time() - 1.0)
        assert worker._harvest()
        assert pool.killed
        assert worker.stats.timeouts == 2
        assert set(worker.queue.failed) == {a.id, b.id}
        assert all("timeout" in error for error in worker.queue.failed.values())
        assert worker._inflight == {}

    def test_done_bystander_survives_pool_kill(self, store):
        # One genuinely stuck job forces a pool kill; a bystander whose
        # future already completed must be harvested afterwards.
        worker = make_deadline_worker()
        stuck, stuck_flight = plant(store, worker, "lbm06",
                                    deadline=time.time() - 1.0)
        done_by, done_flight = plant(store, worker, "mcf06")
        done_flight.future.set_result((None, "executed", 0.01))
        # _harvest would report the done bystander first (it is simply
        # done); drive _on_timeout directly to model the
        # done-after-deadline-check interleaving.
        assert worker._on_timeout([stuck_flight])
        assert "timeout" in worker.queue.failed[stuck.id]
        assert done_by.id in worker._inflight  # reported next pass
        assert worker._harvest()
        assert worker.queue.finished == {done_by.id: "executed"}

    def test_pending_bystander_reruns_under_its_lease(self, store):
        # A bystander still running when the pool dies is resubmitted to
        # the new pool: no queue call, so no attempt is charged.
        worker = make_deadline_worker()
        _, stuck_flight = plant(store, worker, "lbm06",
                                deadline=time.time() - 1.0)
        pending, pending_flight = plant(store, worker, "xz17")
        old_future = pending_flight.future
        assert worker._on_timeout([stuck_flight])
        assert worker._inflight == {pending.id: pending_flight}
        assert pending_flight.future is not old_future
        assert worker._pool.submitted == [("xz17",)]
        assert pending.id not in worker.queue.failed
        row = store.get(pending.id)
        assert row.state == jobstore.RUNNING and row.attempts == 1


# -- HTTP surface: worker protocol, auth, backpressure -------------------


def make_daemon(tmp_path, **kwargs):
    kwargs.setdefault("workers", 0)
    kwargs.setdefault("drain_seconds", 30.0)
    daemon = ServiceDaemon(
        db_path=tmp_path / "service.db",
        cache_dir=tmp_path / "simcache",
        trace_dir=tmp_path / "traces",
        host="127.0.0.1",
        port=0,
        **kwargs,
    )
    daemon.start()
    return daemon


@pytest.fixture
def paused_daemon(tmp_path):
    """HTTP + reaper up, no local worker: only remote workers drain."""
    d = make_daemon(tmp_path)
    yield d
    d.stop()


def comparable(result) -> dict:
    payload = result.to_json_dict()
    payload["extras"].pop("sim_seconds", None)  # wall time is not identity
    return payload


class TestWorkerProtocolHttp:
    def test_claim_heartbeat_upload_round_trip(self, paused_daemon, tmp_path):
        client = ServiceClient(paused_daemon.url)
        job = client.submit("lbm06", "ideal", ops=200, warmup=100)
        claimed = client.claim("w1")
        assert claimed.id == job["id"]
        assert claimed.worker_id == "w1"
        # the daemon's lease, on the daemon's clock
        assert claimed.lease_until - claimed.updated_at == pytest.approx(
            paused_daemon.lease_seconds, abs=1e-6
        )
        assert client.claim("w1") is None  # queue drained
        renewed = client.heartbeat(job["id"], "w1")
        assert renewed.lease_until > claimed.lease_until
        assert renewed.lease_until - renewed.updated_at == pytest.approx(
            paused_daemon.lease_seconds, abs=1e-6
        )
        result = runner.simulate("lbm06", "ideal", CFG, use_cache=False)
        done = client.finish(job["id"], "w1", result, source="remote")
        assert done.state == jobstore.DONE
        assert done.source == "remote"
        # the daemon replicated the payload into its own cache
        assert comparable(client.result(job["id"])) == comparable(result)
        assert DiskCache(tmp_path / "simcache").get(claimed.key) is not None

    def test_non_number_upload_rejected(self, paused_daemon):
        """A string where a metric belongs is a 400, not a silent cast."""
        client = ServiceClient(paused_daemon.url)
        job = client.submit("lbm06", "ideal", ops=200, warmup=100)
        client.claim("w1")
        result = runner.simulate("lbm06", "ideal", CFG, use_cache=False)
        payload = result.to_json_dict()
        payload["metrics"]["llc.hits"] = "12"
        with pytest.raises(ServiceError) as err:
            client._request(
                "PUT", f"/jobs/{job['id']}/result", {"worker_id": "w1", "result": payload}
            )
        assert err.value.status == 400
        assert paused_daemon.store.get(job["id"]).state == jobstore.RUNNING
        done = client.finish(job["id"], "w1", result)  # the intact upload lands
        assert done.state == jobstore.DONE

    def test_sanitized_worker_ids_never_collide(self, paused_daemon):
        client = ServiceClient(paused_daemon.url)
        workers = {"node-1:42": "ideal", "node_1:42": "uncompressed"}
        for worker_id, design in workers.items():
            client.submit("lbm06", design, ops=200, warmup=100)
            claimed = client.claim(worker_id)
            result = runner.simulate("lbm06", claimed.design, CFG, use_cache=False)
            done = client.finish(claimed.id, worker_id, result, source="remote")
            assert done.state == jobstore.DONE
        completed = {
            path: value
            for path, value in client.metrics().items()
            if path.startswith("worker.completed.")
        }
        assert sorted(completed.values()) == [1, 1]
        assert paused_daemon.workers_seen.completions() == dict.fromkeys(workers, 1)

    def test_heartbeat_conflicts_for_wrong_worker(self, paused_daemon):
        client = ServiceClient(paused_daemon.url)
        job = client.submit("lbm06", "ideal", ops=200, warmup=100)
        client.claim("w1")
        with pytest.raises(ServiceError) as err:
            client._request(
                "POST", f"/jobs/{job['id']}/heartbeat", {"worker_id": "imposter"}
            )
        assert err.value.status == 409
        with pytest.raises(LeaseLostError):  # what the client maps 409 to
            client.heartbeat(job["id"], "imposter")

    def test_upload_after_reap_conflicts(self, paused_daemon):
        client = ServiceClient(paused_daemon.url)
        job = client.submit("lbm06", "ideal", ops=200, warmup=100)
        client.claim("w1")
        paused_daemon.store.reap_expired(now=time.time() + 120.0)
        result = runner.simulate("lbm06", "ideal", CFG, use_cache=False)
        with pytest.raises(LeaseLostError):
            client.finish(job["id"], "w1", result)

    def test_remote_fail_applies_retry_policy(self, paused_daemon):
        client = ServiceClient(paused_daemon.url)
        job = client.submit("lbm06", "ideal", ops=200, warmup=100)
        client.claim("w1")
        failed = client.fail(job["id"], "w1", "worker exploded")
        assert failed.state == jobstore.QUEUED  # attempts left: retry
        assert failed.error == "worker exploded"
        assert paused_daemon.stats.retried == 1

    def test_claim_requires_worker_id(self, paused_daemon):
        with pytest.raises(ServiceError) as err:
            ServiceClient(paused_daemon.url)._request(
                "POST", "/jobs/claim", {"lease_seconds": 5.0}
            )
        assert err.value.status == 400

    @pytest.mark.parametrize("asked", [math.nan, math.inf, 1e300])
    def test_requested_lease_is_ignored(self, tmp_path, asked):
        """A worker cannot pick its lease: NaN, inf or 1e300 get the daemon's."""
        daemon = make_daemon(tmp_path, lease_seconds=0.2, reaper_interval=0.02)
        try:
            client = ServiceClient(daemon.url)
            job = client.submit("lbm06", "ideal", ops=200, warmup=100)
            asks = {"worker_id": "w-greedy", "lease_seconds": asked}
            claimed = client._request("POST", "/jobs/claim", asks)["job"]
            assert claimed["id"] == job["id"]
            renewed = client._request(
                "POST", f"/jobs/{job['id']}/heartbeat", asks
            )["job"]
            for row in (claimed, renewed):
                assert row["lease_until"] - row["updated_at"] == pytest.approx(
                    0.2, abs=1e-6
                )
            # no live worker: the reaper thread takes the job back
            assert wait_for(
                lambda: daemon.store.get(job["id"]).state == jobstore.QUEUED,
                timeout=10,
            )
            assert daemon.metrics()["worker.lease_expirations"] == 1
        finally:
            daemon.stop()

    def test_expired_lease_requeues_via_reaper_thread(self, tmp_path):
        daemon = make_daemon(tmp_path, lease_seconds=0.1, reaper_interval=0.02)
        try:
            client = ServiceClient(daemon.url)
            job = client.submit("lbm06", "ideal", ops=200, warmup=100)
            claimed = client.claim("w-dead")  # claims, then "crashes"
            assert claimed.id == job["id"]
            assert wait_for(
                lambda: daemon.store.get(job["id"]).state == jobstore.QUEUED,
                timeout=10,
            )
            metrics = daemon.metrics()
            assert metrics["worker.lease_expirations"] >= 1
        finally:
            daemon.stop()


class TestAuth:
    def test_mutating_requests_require_token(self, tmp_path):
        daemon = make_daemon(tmp_path, token="sekrit")
        try:
            anon = ServiceClient(daemon.url, token="")
            with pytest.raises(ServiceError) as err:
                anon.submit("lbm06", "ideal", ops=200, warmup=100)
            assert err.value.status == 401
            with pytest.raises(ServiceError) as err:
                anon.claim("w1")
            assert err.value.status == 401
            wrong = ServiceClient(daemon.url, token="not-sekrit")
            with pytest.raises(ServiceError) as err:
                wrong.submit("lbm06", "ideal", ops=200, warmup=100)
            assert err.value.status == 401
        finally:
            daemon.stop()

    def test_reads_stay_open_and_token_unlocks_writes(self, tmp_path):
        daemon = make_daemon(tmp_path, token="sekrit")
        try:
            authed = ServiceClient(daemon.url, token="sekrit")
            job = authed.submit("lbm06", "ideal", ops=200, warmup=100)
            assert job["created"]
            anon = ServiceClient(daemon.url, token="")
            assert anon.healthz()["auth"] is True
            assert len(anon.jobs()) == 1  # GETs need no secret
        finally:
            daemon.stop()

    def test_token_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_TOKEN", "env-secret")
        daemon = make_daemon(tmp_path)  # picks the token up from the env
        try:
            assert daemon.token == "env-secret"
            client = ServiceClient(daemon.url)  # client does too
            assert client.submit("lbm06", "ideal", ops=200, warmup=100)
        finally:
            daemon.stop()


class TestBackpressure:
    def test_queue_full_rejects_new_submissions(self, tmp_path):
        daemon = make_daemon(tmp_path, max_queued=1)
        try:
            client = ServiceClient(daemon.url)
            first = client.submit("lbm06", "ideal", ops=200, warmup=100)
            with pytest.raises(ServiceError) as err:
                client.submit("mcf06", "ideal", ops=200, warmup=100)
            assert err.value.status == 429
            assert err.value.retry_after is not None
            # joining an existing identity is not a new row: never rejected
            joined = client.submit("lbm06", "ideal", ops=200, warmup=100)
            assert joined["id"] == first["id"]
        finally:
            daemon.stop()


# -- Worker over HTTP, end-to-end -----------------------------------------


def make_worker(daemon, tmp_path, name="w1", token=None, **kwargs):
    kwargs.setdefault("concurrency", 2)
    kwargs.setdefault("poll_interval", 0.02)
    return Worker(
        queue=ServiceClient(daemon.url, token=token),
        worker_id=name,
        cache_dir=str(tmp_path / f"{name}-cache"),
        trace_dir=str(tmp_path / "traces"),
        **kwargs,
    )


class TestRemoteWorker:
    def test_worker_drains_queue_with_identical_results(
        self, paused_daemon, tmp_path
    ):
        client = ServiceClient(paused_daemon.url)
        specs = [("lbm06", "ideal"), ("mcf06", "ideal"),
                 ("lbm06", "uncompressed")]
        jobs = [client.submit(w, d, ops=200, warmup=100) for w, d in specs]
        stats = make_worker(paused_daemon, tmp_path, max_jobs=3).run()
        assert stats.completed == 3
        assert stats.failed == 0 and stats.lease_lost == 0
        for (workload, design), job in zip(specs, jobs):
            done = client.job(job["id"])
            assert done["state"] == jobstore.DONE
            assert done["source"] in ("remote", "disk", "executed")
            direct = runner.simulate(workload, design, CFG, use_cache=False)
            assert comparable(client.result(job["id"])) == comparable(direct)
        # telemetry: the daemon tracked the worker and its completions
        metrics = paused_daemon.metrics()
        assert metrics["worker.completed.w1"] == 3
        assert paused_daemon.workers_seen.completions() == {"w1": 3}

    def test_two_workers_split_one_sweep(self, paused_daemon, tmp_path):
        client = ServiceClient(paused_daemon.url)
        specs = [(w, d) for w in ("lbm06", "mcf06", "xz17")
                 for d in ("ideal", "uncompressed")]
        jobs = [client.submit(w, d, ops=200, warmup=100) for w, d in specs]
        workers = [
            make_worker(paused_daemon, tmp_path, name=f"w{i}", max_jobs=None)
            for i in (1, 2)
        ]
        threads = [
            threading.Thread(target=worker.run, daemon=True)
            for worker in workers
        ]
        for thread in threads:
            thread.start()
        try:
            assert wait_for(
                lambda: all(
                    paused_daemon.store.get(j["id"]).terminal for j in jobs
                ),
                timeout=120,
            )
        finally:
            for worker in workers:
                worker.request_stop()
            for thread in threads:
                thread.join(60)
        states = [paused_daemon.store.get(j["id"]).state for j in jobs]
        assert states == [jobstore.DONE] * len(jobs)
        total = sum(w.stats.completed for w in workers)
        assert total == len(jobs)

    def test_worker_reports_execution_failure(self, paused_daemon, tmp_path):
        # An unbuildable design passes submit-side validation only if
        # injected directly — the worker must fail it back upstream.
        job, _ = paused_daemon.store.submit(
            "lbm06", "warp_drive", "k-bad", config=OVERRIDES, max_attempts=1
        )
        stats = make_worker(paused_daemon, tmp_path, max_jobs=1).run()
        assert stats.failed == 1 and stats.completed == 0
        final = paused_daemon.store.get(job.id)
        assert final.state == jobstore.FAILED
        assert final.error

    def test_worker_without_token_cannot_claim(self, tmp_path):
        daemon = make_daemon(tmp_path, token="sekrit")
        try:
            ServiceClient(daemon.url, token="sekrit").submit(
                "lbm06", "ideal", ops=200, warmup=100
            )
            worker = make_worker(daemon, tmp_path, token="")
            # one claim pass: the 401 is swallowed (logged) and nothing
            # is claimed, so the job stays queued for an authed worker
            assert worker._claim_more() is False
            assert worker.stats.claimed == 0
            assert daemon.store.counts()[jobstore.QUEUED] == 1
        finally:
            daemon.stop()

    def test_remote_worker_enforces_job_deadline(self, tmp_path):
        daemon = make_daemon(tmp_path, default_timeout=7.0)
        try:
            client = ServiceClient(daemon.url)
            # the daemon stores the resolved deadline on every row
            assert client.submit("mcf06", "ideal", ops=200, warmup=100)[
                "timeout"
            ] == 7.0
            client.cancel(client.jobs(state=jobstore.QUEUED)[0]["id"])
            job = client.submit(
                "lbm06", "ideal", ops=60_000, warmup=100,
                timeout=0.05, max_attempts=1,
            )
            stats = make_worker(daemon, tmp_path, max_jobs=1).run()
            assert stats.timeouts == 1 and stats.failed == 1
            final = daemon.store.get(job["id"])
            assert final.state == jobstore.FAILED
            assert "timeout" in final.error
        finally:
            daemon.stop()

    def test_local_and_remote_jobs_share_one_telemetry_stream(self, tmp_path):
        daemon = make_daemon(tmp_path, workers=1)
        try:
            client = ServiceClient(daemon.url)
            local = client.submit("lbm06", "ideal", ops=200, warmup=100)
            client.wait(local["id"], timeout=120)
            # park the local worker so the next job goes to the remote one
            daemon.worker.request_stop()
            daemon._worker_thread.join(60)
            remote = client.submit("mcf06", "ideal", ops=200, warmup=100)
            assert make_worker(daemon, tmp_path, max_jobs=1).run().completed == 1
            assert client.job(remote["id"])["worker_id"] == "w1"
            assert daemon.metrics()["service.job_seconds"] == 2
            assert daemon.workers_seen.completions() == {
                f"local:{os.getpid()}": 1,
                "w1": 1,
            }
        finally:
            daemon.stop()


class TestLeaseRenewal:
    @pytest.mark.parametrize("lease", [math.nan, math.inf, 0.0, -1.0])
    def test_daemon_lease_must_be_finite_and_positive(self, tmp_path, lease):
        with pytest.raises(ValueError):
            ServiceDaemon(db_path=tmp_path / "service.db", lease_seconds=lease)

    def test_long_job_keeps_a_sub_second_lease(self, tmp_path):
        # The job outlives several of the daemon's leases; the worker renews
        # at half the granted lease, so it never loses the job.
        daemon = make_daemon(tmp_path, lease_seconds=0.5, reaper_interval=0.02)
        try:
            client = ServiceClient(daemon.url)
            job = client.submit("lbm06", "ideal", ops=200, warmup=100)
            worker = make_worker(daemon, tmp_path, concurrency=1, max_jobs=1)
            worker._new_pool = _FakePool  # the job runs until the test ends it
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            assert wait_for(lambda: worker.inflight == 1, timeout=10)
            first = daemon.store.get(job["id"]).lease_until
            time.sleep(2.5)  # five lease intervals
            row = daemon.store.get(job["id"])
            assert row.state == jobstore.RUNNING and row.worker_id == "w1"
            assert row.lease_until > first + 1.5  # renewed along the way
            assert row.attempts == 1
            assert daemon.metrics()["worker.lease_expirations"] == 0
            assert worker.stats.lease_lost == 0
            result = runner.simulate("lbm06", "ideal", CFG, use_cache=False)
            (flight,) = worker._inflight.values()
            flight.future.set_result((result, "executed", 2.5))
            thread.join(30)
            assert not thread.is_alive()
            assert daemon.store.get(job["id"]).state == jobstore.DONE
        finally:
            daemon.stop()


class TestQueueSignatures:
    def test_daemon_and_client_expose_the_same_queue(self):
        # A Worker runs unchanged against either side; keep them in step.
        for name in ("claim", "heartbeat", "finish", "fail"):
            assert inspect.signature(
                getattr(ServiceDaemon, name)
            ) == inspect.signature(getattr(ServiceClient, name)), name


# -- jobstore state machine (property test) ------------------------------


class JobStoreMachine(RuleBasedStateMachine):
    """Random claim/heartbeat/fail/finish/reap interleavings.

    Invariants after every step: at most one active job per key (the
    dedup index), queued rows carry no claim bookkeeping, running rows
    always record a claim with an owner and a finite lease, and terminal
    rows never change state again.
    """

    KEYS = ("k1", "k2", "k3")
    WORKERS = ("wa", "wb")

    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="repro-jobstore-prop-")
        self.store = JobStore(Path(self.dir) / "jobs.db")
        self.now = time.time()
        self.terminal_states = {}

    def teardown(self):
        self.store.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    def _running(self):
        return self.store.list_jobs(state=jobstore.RUNNING, limit=10)

    @rule(key=st.sampled_from(KEYS), priority=st.integers(0, 5))
    def submit(self, key, priority):
        self.store.submit(
            "lbm06", "ideal", key, config={}, priority=priority, max_attempts=3
        )

    @rule(worker=st.sampled_from(WORKERS))
    def claim(self, worker):
        self.store.claim(worker, 5.0, now=self.now)

    @rule(worker=st.sampled_from(WORKERS))
    def heartbeat(self, worker):
        for job in self._running():
            self.store.heartbeat(job.id, worker, 5.0, now=self.now)

    @rule(worker=st.sampled_from(WORKERS), retry=st.booleans())
    def fail(self, worker, retry):
        for job in self._running():
            delay = 1.0 if (retry and job.attempts < job.max_attempts) else None
            self.store.fail(job.id, "boom", worker, retry_delay=delay)
            break

    @rule(worker=st.sampled_from(WORKERS))
    def finish(self, worker):
        for job in self._running():
            self.store.finish(job.id, "executed", worker)
            break

    @rule()
    def cancel(self):
        for job in self.store.list_jobs(state=jobstore.QUEUED, limit=1):
            self.store.cancel(job.id)

    @rule()
    def requeue(self):
        for job in self._running():
            self.store.requeue(job.id)
            break

    @rule(dt=st.sampled_from([0.5, 3.0, 10.0]))
    def advance_and_reap(self, dt):
        self.now += dt
        self.store.reap_expired(now=self.now)

    @invariant()
    def store_is_consistent(self):
        jobs = self.store.list_jobs(limit=1000)
        active_keys = [j.key for j in jobs if j.state in jobstore.ACTIVE_STATES]
        assert len(active_keys) == len(set(active_keys)), (
            "dedup violated: two active jobs share a key"
        )
        for job in jobs:
            assert job.state in jobstore.STATES
            if job.state == jobstore.QUEUED:
                assert job.worker_id is None
                assert job.lease_until is None
                assert job.started_at is None
            if job.state == jobstore.RUNNING:
                assert job.attempts >= 1
                assert job.started_at is not None
                assert job.worker_id is not None
                assert job.lease_until is not None
                assert math.isfinite(job.lease_until)
            if job.terminal:
                previous = self.terminal_states.setdefault(job.id, job.state)
                assert previous == job.state, (
                    f"terminal job {job.id} moved {previous} -> {job.state}"
                )
                assert job.finished_at is not None


JobStoreMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestJobStoreStateMachine = JobStoreMachine.TestCase
