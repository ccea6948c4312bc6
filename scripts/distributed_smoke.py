#!/usr/bin/env python
"""CI smoke test for the distributed sweep fabric.

Boots a ``repro serve --workers 0`` daemon (queue + lease reaper +
HTTP, no local execution) plus two ``repro worker`` subprocesses, then:

1. asserts an unauthenticated mutating request is rejected with 401
   (the daemon runs with a bearer token),
2. submits a 40-job sweep over HTTP,
3. checks every running row it lists holds the daemon's lease
   (``lease_until - updated_at == --lease-seconds``: the workers are not
   told the lease, they follow the grant), SIGKILLs one worker while it
   holds leased jobs, and asserts the lease reaper re-queues them (``worker.lease_expirations`` on
   ``/metrics``) so the surviving worker finishes the sweep,
4. verifies every job completed and spot-checks served results
   byte-for-byte against direct in-process ``simulate()`` runs,
5. drains the daemon with SIGTERM and checks the store is clean.

Run from the repo root: ``PYTHONPATH=src python scripts/distributed_smoke.py``.
"""

import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

JOBS = 40
OPS_RANGE = range(102, 102 + 2 * JOBS, 2)  # 40 distinct identities
WARMUP = 100
TOKEN = "smoke-token"
LEASE_SECONDS = 2.0


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def spawn(cmd, env, logfile):
    """Start ``cmd`` as the leader of a new process group (see kill_group)."""
    return subprocess.Popen(
        cmd, env=env, stdout=logfile, stderr=subprocess.STDOUT, text=True,
        start_new_session=True,
    )


def kill_group(proc) -> None:
    """SIGKILL ``proc`` and its pool processes, which outlive a plain kill."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-distributed-smoke-"))
    src = str(Path(__file__).resolve().parent.parent / "src")
    base_env = dict(os.environ, PYTHONPATH=src, REPRO_SERVICE_TOKEN=TOKEN)

    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "--cache-dir",
            str(workdir / "daemon-cache"),
            "serve", "--port", "0", "--db", str(workdir / "service.db"),
            "--workers", "0", "--lease-seconds", str(LEASE_SECONDS),
            "--reaper-interval", "0.2", "--quiet",
        ],
        env=base_env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    workers = {}
    try:
        url = None
        for _ in range(20):
            line = daemon.stdout.readline()
            if not line:
                break
            match = re.search(r"listening on (http://[\d.]+:\d+)", line)
            if match:
                url = match.group(1)
                break
        if url is None:
            fail("daemon did not announce its address")
        print(f"daemon up at {url} (remote-only, auth on)")

        from repro.service.client import ServiceClient, ServiceError
        from repro.service.jobstore import JobStore
        from repro.sim import runner
        from repro.sim.config import bench_config

        # 1. unauthenticated mutating requests are rejected
        try:
            ServiceClient(url, token="").submit(
                "lbm06", "ideal", ops=200, warmup=WARMUP
            )
        except ServiceError as exc:
            if exc.status != 401:
                fail(f"expected 401 without token, got {exc.status}")
        else:
            fail("unauthenticated submit was accepted")
        print("unauthenticated submit rejected with 401")

        # 2. the sweep: 40 distinct identities
        client = ServiceClient(url, token=TOKEN)
        jobs = [
            client.submit("lbm06", "ideal", ops=ops, warmup=WARMUP)
            for ops in OPS_RANGE
        ]
        if not all(job["created"] for job in jobs):
            fail("sweep submissions were unexpectedly deduplicated")
        print(f"submitted {len(jobs)} jobs")

        # 3. two workers, each with its own local cache
        for name in ("wa", "wb"):
            log = open(workdir / f"{name}.log", "w")
            workers[name] = (
                spawn(
                    [
                        sys.executable, "-m", "repro",
                        "--cache-dir", str(workdir / f"{name}-cache"),
                        "worker", "--url", url, "--worker-id", name,
                        "--workers", "2",
                        "--poll", "0.1", "--quiet",
                    ],
                    base_env,
                    log,
                ),
                log,
            )
        print("workers wa and wb claiming")

        def running_for(worker_id):
            running = client.jobs(state="running", limit=JOBS)
            for j in running:
                granted = j["lease_until"] - j["updated_at"]
                if abs(granted - LEASE_SECONDS) > 1e-6:
                    fail(f"job {j['id']} holds a {granted}s lease, "
                         f"not the daemon's {LEASE_SECONDS}s")
            return [j for j in running if j.get("worker_id") == worker_id]

        # wait until the doomed worker actually holds leases
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if running_for("wa"):
                break
            time.sleep(0.05)
        else:
            fail("worker wa never held a leased job")
        held = [j["id"] for j in running_for("wa")]
        kill_group(workers["wa"][0])  # SIGKILL: no drain, no goodbye
        print(f"killed worker wa while it held {len(held)} lease(s)")

        # the reaper must take wa's leases within ~one lease interval:
        # its running jobs go back to queued (or to wb)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if not running_for("wa"):
                break
            time.sleep(0.2)
        else:
            fail("wa's leases were never reaped")
        metrics = client.metrics()
        if metrics.get("worker.lease_expirations", 0) < 1:
            fail(f"reaper never expired wa's leases: {metrics}")
        print(f"lease reaper re-queued wa's jobs "
              f"(expirations={metrics['worker.lease_expirations']})")

        # 4. the surviving worker drains the whole sweep
        deadline = time.monotonic() + 600
        while time.monotonic() < deadline:
            done = sum(
                1 for job in jobs if client.job(job["id"])["state"] == "done"
            )
            if done == len(jobs):
                break
            time.sleep(0.5)
        else:
            counts = {}
            for job in jobs:
                state = client.job(job["id"])["state"]
                counts[state] = counts.get(state, 0) + 1
            fail(f"sweep did not finish: {counts}")
        print(f"all {len(jobs)} jobs done — no job lost to the dead worker")

        # spot-check byte-identical results vs direct simulation
        for index in (0, 9, 20, 39):
            ops = list(OPS_RANGE)[index]
            served = client.result(jobs[index]["id"]).to_json_dict()
            direct = runner.simulate(
                "lbm06", "ideal",
                bench_config(ops_per_core=ops, warmup_ops=WARMUP),
                use_cache=False,
            ).to_json_dict()
            served["extras"].pop("sim_seconds", None)
            direct["extras"].pop("sim_seconds", None)
            if served != direct:
                fail(f"result for ops={ops} differs from direct simulate()")
        print("served results byte-identical to direct simulate()")

        final_metrics = client.metrics()
        if final_metrics.get("worker.live", 0) < 1:
            fail("live-worker gauge lost the surviving worker")
        completions = final_metrics.get("worker.completed.wb", 0)
        if completions < 1:
            fail("per-worker completion counter missing for wb")
        print(f"telemetry: wb completed {completions} jobs")

        # 5. graceful shutdown, clean store
        wb_proc, _ = workers["wb"]
        wb_proc.send_signal(signal.SIGTERM)
        try:
            wb_proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            wb_proc.kill()
            fail("worker wb did not drain within 60s of SIGTERM")
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            daemon.kill()
            fail("daemon did not drain within 60s of SIGTERM")
        if daemon.returncode != 0:
            fail(f"daemon exited {daemon.returncode} after SIGTERM")
        store = JobStore(workdir / "service.db")
        try:
            counts = store.counts()
        finally:
            store.close()
        if counts["running"] != 0 or counts["failed"] != 0:
            fail(f"store not clean after shutdown: {counts}")
        if counts["done"] != len(jobs):
            fail(f"expected {len(jobs)} done jobs, saw {counts}")
        print(f"store clean after shutdown: {counts}")
        print("distributed smoke OK")
    finally:
        for proc, log in workers.values():
            kill_group(proc)
            log.close()
        if daemon.poll() is None:
            daemon.kill()


if __name__ == "__main__":
    main()
