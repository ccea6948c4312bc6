"""Whole-run simulator benchmark: end-to-end throughput and per-layer attribution.

Usage (from the repository root)::

    python3 perfbench/run.py --workload spec-ptmc --seed 0 --seconds 36 --trace 0

Each repetition is one fresh single-threaded process
(``perfbench/sims.py``) that imports the simulator, builds every
``SimulatedSystem`` of the workload and runs them in order: one
closed-loop client.  Repetitions run while one more, as long as the
last, still ends within ``--seconds``.

- ``--trace 0`` reports the end-to-end metrics, medians over the
  repetitions: ``accesses_per_s``, ``setup_s`` and ``peak_rss_mb``.
- ``--trace 1`` runs each repetition twice, untraced and then with every
  layer boundary wrapped (``perfbench/layers.py``), and reports the
  per-layer metrics, medians over the repetitions.

Every simulation is checked: the conservation laws of
``sims.conservation_errors``, the hybrid compressor's memos empty when
its process starts, and one result digest per simulation across every
repetition and pass.  A simulation failing any check counts in
``failed``; ``failed / attempted`` is the error rate.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  See ``perfbench/README.md`` for the predictions.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from sims import WORKLOADS  # noqa: E402

#: set-up samples per ``--trace 0`` run, beyond the repetitions' own
SETUP_ONLY_PROCESSES = 9

#: a child process that takes longer than this has hung
CHILD_TIMEOUT_S = 90

END_TO_END = (
    ("accesses_per_s", "accesses/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    ("workloads.records", "count"),
    ("workloads.line_calls", "count"),
    ("workloads.self_s", "s"),
    ("cpu.steps", "count"),
    ("cpu.self_s", "s"),
    ("vm.translates", "count"),
    ("vm.self_s", "s"),
    ("cache.accesses", "count"),
    ("cache.fills", "count"),
    ("cache.fills_per_access", "ratio"),
    ("cache.l1_hit_ratio", "ratio"),
    ("cache.l2_hit_ratio", "ratio"),
    ("cache.l3_hit_ratio", "ratio"),
    ("cache.self_s", "s"),
    ("core.read_line_calls", "count"),
    ("core.read_line_s", "s"),
    ("core.eviction_calls", "count"),
    ("core.eviction_s", "s"),
    ("core.llp_accuracy", "ratio"),
    ("core.metadata_hit_ratio", "ratio"),
    ("core.self_s", "s"),
    ("compression.calls", "count"),
    ("compression.scalar_compressions", "count"),
    ("compression.size_memo_hit_ratio", "ratio"),
    ("compression.batch_lines", "count"),
    ("compression.batch_s", "s"),
    ("compression.self_s", "s"),
    ("dram.accesses", "count"),
    ("dram.accesses_per_demand", "ratio"),
    ("dram.row_hit_ratio", "ratio"),
    ("dram.self_s", "s"),
    ("dram.storage_ops", "count"),
    ("dram.storage_s", "s"),
    ("obs.samples", "count"),
    ("obs.self_s", "s"),
    ("sim.self_s", "s"),
    ("sim.trace_overhead", "ratio"),
)


class ChildFailed(RuntimeError):
    """A benchmark process exited badly or printed no report."""


def run_child(workload: str, seed: int, mode: str) -> dict:
    """One fresh process; adds ``setup_s`` measured from just before its start."""
    command = [
        sys.executable,
        os.path.join(HERE, "sims.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--mode",
        mode,
    ]
    started = time.monotonic()
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        raise ChildFailed(f"{mode} process exited {done.returncode}:\n{done.stderr}")
    try:
        report = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise ChildFailed(f"{mode} process printed no report: {exc}\n{done.stderr}") from exc
    report["setup_s"] = report["setup_done"] - started
    return report


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(plain: dict, traced: dict) -> dict:
    """Per-layer metrics of one repetition, summed over its simulations."""
    layers = Counter()
    s = Counter()
    for sim in traced["simulations"]:
        layers.update(sim["layers"])
        s.update(sim["simulated"])
    l1 = s["llc.l1.hits"] + s["llc.l1.misses"]
    l2 = s["llc.l2.hits"] + s["llc.l2.misses"]
    llp = s["llp.predictions"]
    metrics = dict(layers)
    metrics.pop("compression.size_queries")
    metrics.pop("compression.size_memo_hits")
    metrics.update(
        {
            "cache.fills_per_access": ratio(layers["cache.fills"], layers["cache.accesses"]),
            "cache.l1_hit_ratio": ratio(s["llc.l1.hits"], l1),
            "cache.l2_hit_ratio": ratio(s["llc.l2.hits"], l2),
            "cache.l3_hit_ratio": ratio(s["llc.hits"], s["llc.hits"] + s["llc.misses"]),
            "core.llp_accuracy": 1.0 - s["llp.mispredictions"] / llp if llp else 0.0,
            "core.metadata_hit_ratio": ratio(
                s["metadata.hits"], s["metadata.hits"] + s["metadata.misses"]
            ),
            "compression.size_memo_hit_ratio": ratio(
                layers["compression.size_memo_hits"], layers["compression.size_queries"]
            ),
            "dram.accesses_per_demand": ratio(
                s["dram.reads"] + s["dram.writes"], s["llc.demand_accesses"]
            ),
            "dram.row_hit_ratio": ratio(
                s["dram.row_hits"], s["dram.row_hits"] + s["dram.row_misses"]
            ),
            "sim.trace_overhead": ratio(run_seconds(traced), run_seconds(plain)),
        }
    )
    return metrics


def run_seconds(report: dict) -> float:
    return sum(sim["run_s"] for sim in report["simulations"])


def count_failures(reports) -> tuple:
    """(attempted, failed, messages) over every simulation of every report."""
    attempted = failed = 0
    messages = []
    first_digest = {}
    for report in reports:
        for sim in report["simulations"]:
            attempted += 1
            errors = list(sim["errors"])
            if report["memo_entries_at_setup"]:
                errors.append(
                    f"process started with {report['memo_entries_at_setup']} memo entries"
                )
            expected = first_digest.setdefault(sim["name"], sim["digest"])
            if sim["digest"] != expected:
                errors.append(f"digest {sim['digest'][:16]} != first run's {expected[:16]}")
            if errors:
                failed += 1
                messages.extend(f"{sim['name']}: {error}" for error in errors)
    return attempted, failed, messages


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Repeat while another repetition, as long as the last, ends within ``seconds``.

    Without tracing, the set-up-only processes run first, inside the
    window.  Returns (samples by metric, reports).
    """
    deadline = time.monotonic() + seconds
    setup = []
    if not trace:
        setup = [run_child(workload, seed, "setup") for _ in range(SETUP_ONLY_PROCESSES)]
    reports = list(setup)
    samples = []
    repetition_s = 0.0
    while not samples or time.monotonic() + repetition_s <= deadline:
        started = time.monotonic()
        plain = run_child(workload, seed, "plain")
        reports.append(plain)
        if trace:
            traced = run_child(workload, seed, "traced")
            reports.append(traced)
            samples.append(layer_metrics(plain, traced))
        else:
            samples.append(
                {
                    "accesses_per_s": sum(s["accesses"] for s in plain["simulations"])
                    / run_seconds(plain),
                    "setup_s": plain["setup_s"],
                    "peak_rss_mb": plain["peak_rss_mb"],
                }
            )
        repetition_s = time.monotonic() - started
    values = {name: [sample[name] for sample in samples] for name in samples[0]}
    if setup:
        values["setup_s"] += [report["setup_s"] for report in setup]
    return values, reports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "sim", "system.py")):
        print(f"error: no simulator source under {ROOT}/src", file=sys.stderr)
        return 2
    # a terminated benchmark still kills and reaps its running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        values, reports = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed, messages = count_failures(reports)
    for message in messages:
        print(f"FAILED {message}")
    digests = {sim["name"]: sim["digest"] for report in reports for sim in report["simulations"]}
    for name, digest in digests.items():
        print(f"digest {name} {digest}")
    metrics = {}
    print(f"workload {args.workload} seed {args.seed}: median [samples]")
    for name, unit in PER_LAYER if args.trace else END_TO_END:
        metrics[name] = {"value": statistics.median(values[name]), "unit": unit}
        samples = " ".join(f"{value:.6g}" for value in values[name])
        print(f"{name:34s} {metrics[name]['value']:.6g} {unit} [{samples}]")
    print(f"{'error_rate':34s} {failed / attempted:.6g} fraction ({failed}/{attempted})")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
