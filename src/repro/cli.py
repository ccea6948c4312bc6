"""Command-line interface: run experiments without writing Python.

Examples::

    python -m repro list                       # workloads and designs
    python -m repro run lbm06 dynamic_ptmc     # one simulation + report
    python -m repro sweep lbm06                # all designs on one workload
    python -m repro sweep spec06 --jobs 4      # speedup matrix + geomean
    python -m repro timeline lbm06 static_ptmc # phase-resolved sparklines
    python -m repro cache stats                # on-disk result cache

    python -m repro trace ingest app.trace     # content-address a real trace
    python -m repro sweep trace:<hash> -j 4    # replay it across designs

    python -m repro serve                      # job-queue daemon
    python -m repro worker --url http://h:8035 # drain a remote daemon's queue
    python -m repro submit lbm06 dynamic_ptmc  # enqueue over HTTP
    python -m repro wait <job-id>              # block until done
    python -m repro result <job-id>            # fetch the SimResult

``repro sweep TARGET`` prints weighted speedup over ``uncompressed`` per
(workload, design) plus a geomean row.  TARGET is a suite name (see
``repro.workloads.SUITE_BY_NAME``), one roster workload, or
``trace:<hash-or-prefix>``: a stored trace replayed with the
``--trace-limit``/``--no-loop``/``--trace-seed`` knobs ``submit`` shares.

Results are cached on disk (content-addressed, ``~/.cache/repro-ptmc``
or ``$REPRO_CACHE_DIR``), so repeat invocations are near-instant; pass
``--no-disk-cache`` to opt out or ``repro cache clear`` to start fresh.
The service shares that store: a submitted job whose identity is
already cached completes instantly.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import signal
import sys
import time
from pathlib import Path

from repro.analysis import banner, format_metrics, format_table
from repro.analysis.timeline import format_timeline
from repro.cache.replacement import DEFAULT_POLICY, POLICIES
from repro.energy import relative_energy
from repro.obs.logging import StructuredLog
from repro.obs.sampler import ObsConfig
from repro.obs.stats import StatRegistry
from repro.obs.tracing import Tracer, set_tracer
from repro.service.client import JobFailed, ServiceClient, ServiceError, default_url
from repro.service.daemon import ServiceDaemon
from repro.service.jobstore import default_db_path
from repro.service.worker import Worker
from repro.sim import runner
from repro.sim.config import bench_config
from repro.sim.diskcache import DiskCache
from repro.sim.parallel import sweep_with_report
from repro.sim.results import geometric_mean
from repro.sim.runner import compare, simulate
from repro.sim.system import DESIGNS
from repro.traces.formats import TraceParseError
from repro.traces.store import TraceStoreError, configure_trace_store, trace_store
from repro.workloads import ALL_64, MEMORY_INTENSIVE, SUITE_BY_NAME

#: Headline paths ``repro timeline`` plots when ``--metrics`` is omitted
#: (filtered to what the run actually registered, so design-specific
#: paths can be listed here safely).
DEFAULT_TIMELINE_METRICS = (
    "dram.reads",
    "dram.writes",
    "llc.hits",
    "llc.misses",
    "dram.row_hits",
)

#: ``repro run`` rows for the design-specific counts: row label -> metric
#: path, shown when the design registers the path.
RUN_METRIC_ROWS = {
    "inversions": "ptmc.inversions",
    "invalidate_writes": "ptmc.invalidate_writes",
    "clean_writebacks": "ptmc.clean_writebacks",
    "lit_occupancy": "ptmc.lit_occupancy",
    "policy_benefits": "policy.benefits",
    "policy_costs": "policy.costs",
    "compression_enabled_final": "policy.compression_enabled",
}


def _config(args) -> "SimConfig":
    return bench_config(
        ops_per_core=args.ops,
        warmup_ops=args.warmup,
        llc_policy=getattr(args, "llc_policy", None) or DEFAULT_POLICY,
    )


def _obs(args) -> "ObsConfig | None":
    """The global ``--sample-interval`` as an ObsConfig (None when off)."""
    if args.sample_interval <= 0:
        return None
    return ObsConfig(sample_interval=args.sample_interval)


def _resolve(workload, overrides=None):
    """``runner.resolve_workload``, or None after printing why not."""
    try:
        return runner.resolve_workload(workload, overrides)
    except (KeyError, ValueError) as exc:
        print(exc.args[0])
    except TraceStoreError as exc:
        print(f"trace error: {exc}")
    return None


def _trace_overrides(args) -> dict:
    """The ``trace_*`` replay knobs given on the command line."""
    knobs = {
        "trace_limit": args.trace_limit,
        "trace_loop": False if args.no_loop else None,
        "trace_seed": args.trace_seed,
    }
    return {k: v for k, v in knobs.items() if v is not None}


def cmd_list(args) -> int:
    print(banner("Designs"))
    for design in DESIGNS:
        print(f"  {design}")
    print(banner("Workloads"))
    rows = []
    for w in MEMORY_INTENSIVE:
        if hasattr(w, "footprint_lines"):
            rows.append([w.name, w.suite, w.footprint_lines, f"{w.write_frac:.2f}"])
        else:  # MIX workloads compose several specs
            members = ", ".join(sorted({s.name for s in w.specs}))
            rows.append([w.name, w.suite, "-", members])
    print(format_table(["name", "suite", "footprint (lines)", "write frac / members"], rows))
    print(f"\n(+ {len(ALL_64) - len(MEMORY_INTENSIVE)} low-MPKI fillers in 'all64')")
    return 0


def cmd_policies(args) -> int:
    print(banner("LLC replacement policies"))
    rows = [
        [name, cls.__name__, cls.description + (" *" if name == DEFAULT_POLICY else "")]
        for name, cls in sorted(POLICIES.items())
    ]
    print(format_table(["name", "class", "description"], rows))
    print(
        "\n(* default lru)  Select with --llc-policy on run/stats/sweep/submit, "
        "or sweep the whole space with scripts/policy_search.py."
    )
    return 0


def cmd_run(args) -> int:
    config = _config(args)
    result = simulate(args.workload, args.design, config, obs=_obs(args))
    base = simulate(args.workload, "uncompressed", config)
    speedup = compare(args.workload, args.design, config)
    rel = relative_energy(result, base)
    print(banner(f"{args.workload} on {args.design}"))
    rows = [
        ["weighted speedup", f"{speedup:.3f}"],
        ["cycles (max core)", result.elapsed_cycles],
        ["DRAM accesses", result.total_dram_accesses],
        ["L3 hit rate", f"{result.l3_hit_rate:.1%}"],
        ["energy (norm.)", f"{rel.energy:.3f}"],
        ["EDP (norm.)", f"{rel.edp:.3f}"],
    ]
    if result.llp_accuracy is not None:
        rows.append(["LLP accuracy", f"{result.llp_accuracy:.1%}"])
    if result.metadata_hit_rate is not None:
        rows.append(["metadata-cache hit", f"{result.metadata_hit_rate:.1%}"])
    counts = {
        key: result.metrics[path]
        for key, path in RUN_METRIC_ROWS.items()
        if path in result.metrics
    }
    for key, value in sorted({**counts, **result.extras}.items()):
        rows.append([key, f"{value:.0f}" if value >= 1 else f"{value:.3f}"])
    print(format_table(["metric", "value"], rows))
    print("\nDRAM traffic by category:")
    for category, count in sorted(
        result.bandwidth_by_category().items(), key=lambda kv: -kv[1]
    ):
        print(f"  {category.value:<20} {count}")
    return 0


def cmd_stats(args) -> int:
    config = _config(args)
    result = simulate(args.workload, args.design, config, obs=_obs(args))
    registry = StatRegistry()  # this process's runner.* counters
    runner.register_stats(registry.scope("runner"))
    runner_metrics = registry.delta()
    merged = {**result.metrics, **runner_metrics}
    if args.metrics:
        wanted = [m.strip() for m in args.metrics.split(",") if m.strip()]
        missing = sorted(set(wanted) - set(merged))
        if missing:
            print(
                f"metrics not present in this result: {', '.join(missing)}\n"
                f"('repro stats {args.workload} {args.design} --json' lists "
                "every path this design registers)"
            )
            return 2
        merged = {m: merged[m] for m in wanted}
    if args.json:
        print(json.dumps(merged, indent=2, sort_keys=True))
        return 0
    print(banner(f"Telemetry: {args.workload} on {args.design}"))
    if args.metrics:
        print(format_metrics(merged))
        return 0
    print(format_metrics(result.metrics))
    print(banner("Runner (this process)"))
    print(format_metrics(runner_metrics))
    return 0


def cmd_sweep(args) -> int:
    overrides = _trace_overrides(args)
    if args.target in SUITE_BY_NAME and not overrides:
        workloads = SUITE_BY_NAME[args.target]
    else:
        workload = _resolve(args.target, overrides)
        if workload is None:
            return 2
        workloads = [workload]
    designs = args.designs
    config = _config(args)
    matrix, report = sweep_with_report(workloads, designs, config, jobs=args.jobs)
    print(banner(f"Sweep over '{args.target}' (speedup vs uncompressed)"))
    print(
        format_table(
            ["workload", *designs],
            [
                [name, *(f"{row[d]:.3f}" for d in designs)]
                for name, row in matrix.items()
            ],
        )
    )
    geomeans = []
    for design in designs:  # "-" where a run measured nothing (speedup 0)
        column = [row[design] for row in matrix.values()]
        geomeans.append(f"{geometric_mean(column):.3f}" if min(column) > 0 else "-")
    print(format_table(["", *designs], [["geomean", *geomeans]]))
    trace = next(
        (r.metrics for r in report.results if "trace.replayed_records" in r.metrics),
        None,
    )
    if trace:
        print(
            f"replayed {int(trace['trace.replayed_records'])} records "
            f"({int(trace['trace.synthesized_fills'])} synthesized fills, "
            f"{int(trace['trace.loops'])} loops) in the measured window"
        )
    counts = report.counts()
    print(
        f"\n{counts['jobs']} runs with --jobs {report.jobs_used}: "
        f"{counts['executed']} executed, {counts['disk_hits']} from disk, "
        f"{counts['memory_hits']} from memory "
        f"({report.wall_seconds:.2f}s wall)"
    )
    if report.seconds:
        print(
            f"per-run wall time: min {min(report.seconds):.3f}s / "
            f"mean {sum(report.seconds) / len(report.seconds):.3f}s / "
            f"max {max(report.seconds):.3f}s"
        )
    if args.dump_metrics:
        payload = json.dumps(report.metrics_matrix(), indent=2, sort_keys=True)
        if args.dump_metrics == "-":
            print(payload)
        else:
            with open(args.dump_metrics, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(
                f"wrote metrics for {len(report.results)} runs "
                f"to {args.dump_metrics}"
            )
    return 0


def cmd_timeline(args) -> int:
    config = _config(args)
    obs = ObsConfig(sample_interval=args.interval)
    result = simulate(args.workload, args.design, config, obs=obs)
    timeseries = result.timeseries
    if timeseries is None or not len(timeseries):
        print("no samples collected")
        return 1
    if args.json:
        print(json.dumps(timeseries.to_json_dict(), indent=2, sort_keys=True))
        return 0
    available = sorted(timeseries.paths())
    if args.metrics:
        paths = [m.strip() for m in args.metrics.split(",") if m.strip()]
        missing = sorted(set(paths) - set(available))
        if missing:
            print(
                f"series not present in this result: {', '.join(missing)}\n"
                f"(available: {', '.join(available)})"
            )
            return 2
    else:
        paths = [p for p in DEFAULT_TIMELINE_METRICS if p in set(available)]
    if not paths:
        print(
            "none of the default timeline metrics are present in this "
            "result's time series; pass --metrics with one of: "
            + ", ".join(available)
        )
        return 2
    print(banner(f"Timeline: {args.workload} on {args.design}"))
    try:
        print(format_timeline(timeseries, paths))
    except (KeyError, ValueError) as exc:
        print(f"cannot render timeline: {exc}; see 'repro stats {args.workload} "
              f"{args.design} --json' for the full path list")
        return 2
    return 0


def cmd_cache(args) -> int:
    cache = runner.disk_cache() or DiskCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached results from {cache.root}")
        return 0
    if args.action == "prune":
        if args.older_than is None:
            print("cache prune requires --older-than <days>")
            return 2
        removed = cache.prune(args.older_than * 86400.0)
        print(
            f"pruned {removed} cached results older than {args.older_than:g} "
            f"days from {cache.root}"
        )
        return 0
    stats = cache.stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True, default=str))
        return 0
    print(banner("Simulation result cache"))
    print(format_table(["key", "value"], [[k, str(v)] for k, v in stats.items()]))
    return 0


# -- trace verbs -----------------------------------------------------------


def _trace_info_rows(info: dict) -> list:
    """Sidecar dict -> [key, value] table rows (reuse histogram last)."""
    rows = [
        ["hash", info["hash"]],
        ["name", info["name"] or "-"],
        ["records", str(info["records"])],
        ["reads / writes", f"{info['reads']} / {info['writes']}"],
        ["write fraction", f"{info['write_frac']:.3f}"],
        ["unique lines", str(info["unique_lines"])],
        ["footprint", f"{info['footprint_bytes'] / 1024:.1f} KiB"],
        ["parse errors", str(info["parse_errors"])],
    ]
    reuse = info.get("reuse_distance") or {}
    if reuse:
        ordered = sorted(
            reuse.items(), key=lambda kv: (kv[0] == "cold", int(kv[0]) if kv[0] != "cold" else 0)
        )
        rows.append(
            ["reuse distance", "  ".join(f"{k}:{v}" for k, v in ordered)]
        )
    return rows


def cmd_trace_ingest(args) -> int:
    mode = "lenient" if args.lenient else "strict"
    path = Path(args.path)
    if not path.is_file():
        print(f"no such trace file: {args.path}")
        return 2
    if args.url:
        trace = _client(args).upload_trace(
            path.read_bytes(), name=args.name or path.name, fmt=args.format, mode=mode
        )
        created, digest, records = trace["created"], trace["hash"], trace["records"]
        errors = trace["parse_errors"]
    else:
        store = trace_store()
        try:
            info, created = store.ingest_path(
                path, name=args.name or "", fmt=args.format, mode=mode
            )
        except (TraceParseError, TraceStoreError) as exc:
            print(f"ingest failed: {exc}")
            return 2
        digest, records, errors = info.hash, info.records, info.parse_errors
    verb = "ingested" if created else "already stored (deduplicated)"
    print(f"{verb}: trace:{digest[:12]} ({records} records"
          + (f", {errors} lines skipped" if errors else "") + ")")
    print(f"full hash: {digest}")
    print(f"run it with: repro sweep trace:{digest[:12]}")
    return 0


def cmd_trace_list(args) -> int:
    infos = [info.to_json_dict() for info in trace_store().list()]
    if args.json:
        print(json.dumps(infos, indent=2, sort_keys=True))
        return 0
    if not infos:
        print("no traces stored; add one with 'repro trace ingest <file>'")
        return 0
    rows = [
        [
            info["hash"][:12],
            info["name"] or "-",
            str(info["records"]),
            f"{info['write_frac']:.2f}",
            str(info["unique_lines"]),
            f"{info['footprint_bytes'] / 1024:.0f} KiB",
        ]
        for info in infos
    ]
    print(format_table(
        ["hash", "name", "records", "write frac", "unique lines", "footprint"], rows
    ))
    return 0


def cmd_trace_info(args) -> int:
    try:
        info = trace_store().info(args.trace_hash).to_json_dict()
    except TraceStoreError as exc:
        print(f"trace error: {exc}")
        return 2
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    print(banner(f"Trace {info['hash'][:12]}"))
    print(format_table(["key", "value"], _trace_info_rows(info)))
    return 0


# -- service verbs ---------------------------------------------------------


def _client(args):
    return ServiceClient(args.url, token=getattr(args, "token", None))


def _job_row(job: dict) -> list:
    age = max(0.0, time.time() - job["created_at"])
    return [
        job["id"][:12],
        job["workload"],
        job["design"],
        job["state"],
        str(job["priority"]),
        f"{job['attempts']}/{job['max_attempts']}",
        f"{age:.0f}s",
        job.get("source") or "-",
    ]


_JOB_COLUMNS = ["id", "workload", "design", "state", "prio", "attempts", "age", "source"]


def _stop_on_signals(loop) -> None:
    """SIGTERM/SIGINT ask ``loop`` (daemon or worker) to drain and exit."""
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: loop.request_stop())


def cmd_serve(args) -> int:
    if args.no_disk_cache:
        print("repro serve needs the disk cache (it is the result store); "
              "drop --no-disk-cache")
        return 2
    daemon = ServiceDaemon(
        db_path=args.db,
        cache_dir=args.cache_dir,
        trace_dir=args.trace_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        default_timeout=args.job_timeout,
        max_attempts=args.max_attempts,
        drain_seconds=args.drain_seconds,
        log_stream=None if args.quiet else sys.stderr,
        token=args.token,
        lease_seconds=args.lease_seconds,
        reaper_interval=args.reaper_interval,
        max_queued=args.max_queued,
    )

    _stop_on_signals(daemon)
    print(
        f"repro service listening on {daemon.url} "
        f"(db={daemon.store.path}, cache={daemon.cache.root}, "
        f"workers={args.workers})",
        flush=True,
    )
    daemon.run()
    print("repro service drained cleanly", flush=True)
    return 0


def cmd_worker(args) -> int:
    if args.no_disk_cache:
        print("repro worker needs the disk cache (results are written "
              "through it before upload); drop --no-disk-cache")
        return 2
    worker = Worker(
        queue=ServiceClient(args.url, token=args.token),
        worker_id=args.worker_id,
        concurrency=args.workers,
        poll_interval=args.poll,
        drain_seconds=args.drain_seconds,
        log=StructuredLog(stream=None if args.quiet else sys.stderr),
    )

    _stop_on_signals(worker)
    print(
        f"repro worker {worker.worker_id} draining {worker.queue.url} "
        f"(concurrency={worker.concurrency})",
        flush=True,
    )
    stats = worker.run()
    print(
        f"repro worker exiting: {stats.completed} completed, "
        f"{stats.failed} failed, {stats.lease_lost} leases lost",
        flush=True,
    )
    return 0 if stats.upload_errors == 0 else 1


def cmd_submit(args) -> int:
    client = _client(args)
    job = client.submit(
        args.workload,
        args.design,
        ops=args.ops,
        warmup=args.warmup,
        llc_policy=args.llc_policy,
        priority=args.priority,
        max_attempts=args.max_attempts,
        timeout=args.job_timeout,
        **_trace_overrides(args),
    )
    verb = "submitted" if job["created"] else "joined"
    print(f"{verb} job {job['id']} ({job['workload']} on {job['design']}): "
          f"{job['state']}" + (f" [{job['source']}]" if job.get("source") else ""))
    if args.wait:
        return _wait_and_report(client, job["id"], args.timeout, args.poll)
    return 0


def cmd_jobs(args) -> int:
    jobs = _client(args).jobs(state=args.state, limit=50)
    if not jobs:
        print("no jobs")
        return 0
    print(format_table(_JOB_COLUMNS, [_job_row(job) for job in jobs]))
    return 0


def _wait_and_report(client, job_id: str, timeout, poll) -> int:
    try:
        job = client.wait(job_id, timeout=timeout, poll=poll)
    except JobFailed as exc:
        print(f"job {exc.job['id']} ended {exc.job['state']}: {exc.job.get('error')}")
        return 1
    result = client.result(job["id"])
    print(f"job {job['id']} done [{job.get('source')}]")
    rows = [
        ["cycles (max core)", result.elapsed_cycles],
        ["DRAM accesses", result.total_dram_accesses],
        ["L3 hit rate", f"{result.l3_hit_rate:.1%}"],
    ]
    print(format_table(["metric", "value"], rows))
    return 0


def cmd_wait(args) -> int:
    return _wait_and_report(_client(args), args.job_id, args.timeout, args.poll)


def cmd_result(args) -> int:
    client = _client(args)
    result = client.result(args.job_id)
    if args.json:
        print(json.dumps(result.to_json_dict(), indent=2, sort_keys=True))
        return 0
    print(banner(f"{result.workload} on {result.design}"))
    print(format_metrics(result.metrics))
    return 0


def cmd_cancel(args) -> int:
    job = _client(args).cancel(args.job_id)
    print(f"cancelled job {job['id']}")
    return 0


def _design_list(text: str) -> list:
    """``--designs`` value: comma-separated names, each one of DESIGNS."""
    designs = [d.strip() for d in text.split(",") if d.strip()]
    unknown = sorted(set(designs) - set(DESIGNS))
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown designs: {', '.join(unknown)}; choose from {DESIGNS}"
        )
    return designs


def _days(text: str) -> float:
    """``--older-than`` value: a finite, non-negative number of days."""
    days = float(text)
    if not math.isfinite(days) or days < 0:
        raise argparse.ArgumentTypeError(
            f"{text} is not a finite number of days >= 0 "
            "('repro cache clear' drops every entry)"
        )
    return days


def _count(low: int):
    """An argparse ``type=``: an integer >= ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"{text} is not an integer >= {low}")
        return value

    return parse


def _seconds(text: str, zero_ok: bool = False) -> float:
    """A duration flag: a finite number of seconds > 0 (>= 0 if ``zero_ok``)."""
    try:
        seconds = float(text)
    except ValueError:
        seconds = math.nan
    if not math.isfinite(seconds) or seconds < 0 or (seconds == 0 and not zero_ok):
        bound = ">=" if zero_ok else ">"
        raise argparse.ArgumentTypeError(
            f"{text} is not a finite number of seconds {bound} 0"
        )
    return seconds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PTMC (HPCA 2019) reproduction — simulation driver",
    )
    parser.add_argument(
        "--ops", type=_count(1), default=4000, help="measured ops per core (>= 1)"
    )
    parser.add_argument(
        "--warmup", type=_count(0), default=6000, help="warmup ops per core (>= 0)"
    )
    parser.add_argument(
        "--llc-policy",
        choices=sorted(POLICIES),
        default=None,
        help="LLC replacement policy (default lru; see 'repro policies')",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="on-disk result cache location (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-ptmc/sim)",
    )
    parser.add_argument(
        "--no-disk-cache",
        action="store_true",
        help="do not read or write the persistent result cache",
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        help="trace store location (default: $REPRO_TRACE_DIR or "
        "~/.cache/repro-ptmc/traces)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write a Chrome trace-event JSON of this invocation to PATH "
        "(open in https://ui.perfetto.dev)",
    )
    parser.add_argument(
        "--sample-interval",
        type=int,
        default=0,
        metavar="N",
        help="on run/stats: sample telemetry every N line-accesses into the "
        "result's time series (0 = off; 'repro timeline' has its own flag)",
    )

    # Option groups shared by several verbs (argparse parent parsers).
    replay = argparse.ArgumentParser(add_help=False)
    replay.add_argument(
        "--trace-limit",
        type=int,
        default=None,
        metavar="N",
        help="trace:<hash> workloads: replay only the first N records "
        "(default: all)",
    )
    replay.add_argument(
        "--no-loop",
        action="store_true",
        help="trace:<hash> workloads: stop when the trace ends instead of "
        "looping to fill the run",
    )
    replay.add_argument(
        "--trace-seed",
        type=int,
        default=None,
        help="trace:<hash> workloads: seed for synthesized write data and "
        "inter-access gaps (default: 0)",
    )
    service = argparse.ArgumentParser(add_help=False)
    service.add_argument(
        "--url",
        default=None,
        help=f"service address (default: $REPRO_SERVICE_URL or {default_url()})",
    )
    service.add_argument(
        "--token",
        default=None,
        help="bearer token for an auth-enabled daemon "
        "(default: $REPRO_SERVICE_TOKEN)",
    )
    waiting = argparse.ArgumentParser(add_help=False)
    waiting.add_argument(
        "--timeout",
        type=_seconds,
        default=None,
        help="give up waiting after this many seconds",
    )
    waiting.add_argument(
        "--poll",
        type=_seconds,
        default=0.2,
        help="poll interval while waiting (seconds)",
    )
    draining = argparse.ArgumentParser(add_help=False)
    draining.add_argument(
        "--drain-seconds",
        type=functools.partial(_seconds, zero_ok=True),
        default=30.0,
        help="grace period for in-flight jobs on SIGTERM/SIGINT",
    )
    draining.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the structured JSON event log (stderr by default)",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    listing = sub.add_parser("list", help="list workloads and designs")
    listing.set_defaults(func=cmd_list)

    policies = sub.add_parser("policies", help="list LLC replacement policies")
    policies.set_defaults(func=cmd_policies)

    run = sub.add_parser("run", help="simulate one (workload, design) pair")
    run.add_argument("workload")
    run.add_argument("design", choices=DESIGNS)
    run.set_defaults(func=cmd_run)

    stats = sub.add_parser(
        "stats", help="full telemetry-registry dump for one simulation"
    )
    stats.add_argument("workload")
    stats.add_argument("design", choices=DESIGNS)
    stats.add_argument(
        "--json", action="store_true", help="emit the metrics mapping as JSON"
    )
    stats.add_argument(
        "--metrics",
        default=None,
        help="comma-separated registry paths to show (default: everything)",
    )
    stats.set_defaults(func=cmd_stats)

    sweep = sub.add_parser(
        "sweep",
        parents=[replay],
        help="speedup matrix + geomean over a suite, one workload, or a "
        "stored trace (parallel with --jobs)",
    )
    sweep.add_argument(
        "target",
        help=f"a suite ({', '.join(SUITE_BY_NAME)}), a workload name "
        "(see 'repro list'), or trace:<hash-or-prefix>",
    )
    sweep.add_argument(
        "--designs",
        type=_design_list,
        default="static_ptmc,dynamic_ptmc,ideal",
        help="comma-separated design list (default: %(default)s)",
    )
    sweep.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        help="worker processes (default: serial in-process)",
    )
    sweep.add_argument(
        "--dump-metrics",
        metavar="PATH",
        default=None,
        help="write per-run telemetry as JSON to PATH ('-' for stdout)",
    )
    sweep.set_defaults(func=cmd_sweep)

    timeline = sub.add_parser(
        "timeline", help="phase-resolved telemetry sparklines for one run"
    )
    timeline.add_argument("workload")
    timeline.add_argument("design", choices=DESIGNS)
    timeline.add_argument(
        "--interval",
        type=int,
        default=2000,
        metavar="N",
        help="line-accesses per sample (default: %(default)s)",
    )
    timeline.add_argument(
        "--metrics",
        default=None,
        help="comma-separated registry paths to plot (default: headline "
        "dram/llc counters present in the run)",
    )
    timeline.add_argument(
        "--json", action="store_true", help="emit the raw time series as JSON"
    )
    timeline.set_defaults(func=cmd_timeline)

    cache = sub.add_parser("cache", help="inspect, clear, or prune the result cache")
    cache.add_argument("action", choices=["stats", "clear", "prune"])
    cache.add_argument(
        "--older-than",
        type=_days,
        metavar="DAYS",
        default=None,
        help="prune: delete entries last written more than DAYS days ago",
    )
    cache.add_argument(
        "--json", action="store_true", help="stats: emit the summary as JSON"
    )
    cache.set_defaults(func=cmd_cache)

    trace = sub.add_parser(
        "trace",
        help="ingest and inspect memory-access traces (replay them with "
        "'repro sweep trace:<hash>')",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    trace_ingest = trace_sub.add_parser(
        "ingest", help="parse and store a trace file (content-addressed)"
    )
    trace_ingest.add_argument("path", help="trace file (text, binary, or gzip)")
    trace_ingest.add_argument(
        "--name", default=None, help="display name (default: the file name locally)"
    )
    trace_ingest.add_argument(
        "--format",
        choices=["auto", "text", "binary"],
        default="auto",
        help="input format (default: sniffed)",
    )
    trace_ingest.add_argument(
        "--lenient",
        action="store_true",
        help="skip malformed lines (counted) instead of failing on the first",
    )
    trace_ingest.add_argument(
        "--url",
        default=None,
        help="upload to a running daemon (POST /traces) instead of the "
        "local store",
    )
    trace_ingest.set_defaults(func=cmd_trace_ingest)

    trace_list = trace_sub.add_parser("list", help="list stored traces")
    trace_list.add_argument("--json", action="store_true")
    trace_list.set_defaults(func=cmd_trace_list)

    trace_info = trace_sub.add_parser(
        "info", help="one trace's characterization (hash prefix ok)"
    )
    trace_info.add_argument("trace_hash", help="content hash or unique prefix")
    trace_info.add_argument("--json", action="store_true")
    trace_info.set_defaults(func=cmd_trace_info)

    serve = sub.add_parser(
        "serve", parents=[draining], help="run the job-queue service daemon"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8035, help="listen port (0 picks a free one)"
    )
    serve.add_argument(
        "--db",
        default=None,
        help=f"job database (default: $REPRO_SERVICE_DB or {default_db_path()})",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="local simulation worker processes (0 = none: execution is "
        "left to 'repro worker' processes)",
    )
    serve.add_argument(
        "--job-timeout",
        type=_seconds,
        default=None,
        help="per-job deadline in seconds (default: none)",
    )
    serve.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="default bounded retries per job",
    )
    serve.add_argument(
        "--token",
        default=None,
        help="bearer token required on mutating requests "
        "(default: $REPRO_SERVICE_TOKEN; unset = open)",
    )
    serve.add_argument(
        "--lease-seconds",
        type=_seconds,
        default=30.0,
        help="work-lease duration for claimed jobs, the same for every "
        "worker (they renew at half of it); a worker that stops "
        "heartbeating loses its jobs after this long",
    )
    serve.add_argument(
        "--reaper-interval",
        type=_seconds,
        default=1.0,
        help="how often the daemon scans for expired leases (seconds)",
    )
    serve.add_argument(
        "--max-queued",
        type=int,
        default=10_000,
        help="reject new submissions (429) beyond this queue depth "
        "(0 = unbounded)",
    )
    serve.set_defaults(func=cmd_serve)

    worker = sub.add_parser(
        "worker",
        parents=[draining, service],
        help="drain a remote daemon's queue on this machine",
    )
    worker.add_argument(
        "--worker-id",
        default=None,
        help="stable identity for leases/telemetry (default: hostname:pid)",
    )
    worker.add_argument(
        "--workers", type=int, default=2, help="simulation worker processes"
    )
    worker.add_argument(
        "--poll",
        type=_seconds,
        default=0.5,
        help="idle poll interval when the queue is empty (seconds)",
    )
    worker.set_defaults(func=cmd_worker)

    submit = sub.add_parser(
        "submit",
        parents=[replay, service, waiting],
        help="enqueue one job on the service",
    )
    submit.add_argument("workload")
    submit.add_argument("design", choices=DESIGNS)
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument("--max-attempts", type=int, default=None)
    submit.add_argument(
        "--job-timeout", type=_seconds, default=None, help="per-job deadline (seconds)"
    )
    submit.add_argument(
        "--wait", action="store_true", help="block until the job finishes"
    )
    submit.set_defaults(func=cmd_submit)

    jobs = sub.add_parser(
        "jobs", parents=[service], help="list service jobs (the newest 50)"
    )
    jobs.add_argument(
        "--state",
        choices=["queued", "running", "done", "failed", "cancelled"],
        default=None,
    )
    jobs.set_defaults(func=cmd_jobs)

    wait = sub.add_parser(
        "wait", parents=[service, waiting], help="block until a job finishes"
    )
    wait.add_argument("job_id")
    wait.set_defaults(func=cmd_wait)

    result = sub.add_parser(
        "result", parents=[service], help="fetch a finished job's result"
    )
    result.add_argument("job_id")
    result.add_argument("--json", action="store_true")
    result.set_defaults(func=cmd_result)

    cancel = sub.add_parser("cancel", parents=[service], help="cancel a queued job")
    cancel.add_argument("job_id")
    cancel.set_defaults(func=cmd_cancel)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not args.no_disk_cache:
        runner.configure_disk_cache(args.cache_dir)
    if args.trace_dir is not None:
        configure_trace_store(args.trace_dir)
    workload_arg = getattr(args, "workload", None)
    if workload_arg is not None and not workload_arg.startswith("trace:"):
        if _resolve(workload_arg) is None:  # fail fast with the roster listing
            return 2
    tracer = None
    if args.trace_out:
        tracer = set_tracer(Tracer(process_name=f"repro-{args.command}"))
    try:
        return args.func(args)
    except ServiceError as exc:
        print(f"service error: {exc}")
        return 1
    finally:
        if tracer is not None:
            events = tracer.write(args.trace_out)
            set_tracer(None)
            print(
                f"wrote {events} trace events (trace_id {tracer.trace_id}) to "
                f"{args.trace_out}; open in https://ui.perfetto.dev"
            )


if __name__ == "__main__":
    sys.exit(main())
