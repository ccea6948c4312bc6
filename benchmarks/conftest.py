"""Shared configuration for the figure/table benchmarks.

Every benchmark regenerates one of the paper's evaluation artefacts.
Simulations are memoized process-wide (``repro.sim.runner``) and
persisted to an on-disk result cache (``repro.sim.diskcache``), so
designs and baselines shared between figures are only simulated once per
pytest session — and a *repeat* session is served from disk without
executing any simulation at all.  The cache lives in
``benchmarks/.simcache`` (override with ``$REPRO_CACHE_DIR``); delete it
or run ``repro cache clear`` after changing simulator semantics.  Each
benchmark prints its rows (the "figure") and dumps them as JSON under
``benchmarks/results/`` so EXPERIMENTS.md can cite them.

Scale note: these run the ``bench_config`` system (DESIGN.md §4) — a
proportionally scaled machine with short synthetic traces.  Shapes and
orderings are the reproduction target, not absolute values.
"""

import json
import os
import pathlib

import pytest

from repro.obs import StatRegistry
from repro.sim import runner
from repro.sim.config import bench_config

#: the one config every figure uses (baselines shared via the runner cache)
BENCH_CONFIG = bench_config(ops_per_core=4000, warmup_ops=6000)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: session-scoped persistent result cache shared by every figure/table
CACHE_DIR = pathlib.Path(
    os.environ.get("REPRO_CACHE_DIR", pathlib.Path(__file__).parent / ".simcache")
)


def pytest_configure(config):
    runner.configure_disk_cache(CACHE_DIR)


def pytest_terminal_summary(terminalreporter):
    """Report (and persist) how much the result caches saved this session."""
    registry = StatRegistry()
    runner.register_stats(registry.scope("runner"))
    # runner.disk.hits comes after runner.disk_hits, so disk_hits ends up
    # the disk cache's own count
    stats = {
        path[len("runner."):].replace(".", "_"): value
        for path, value in registry.delta().items()
    }
    serviced = stats["executed"] + stats["memory_hits"] + stats["disk_hits"]
    if not serviced:
        return
    save_results("_cache_stats", {**stats, "cache_dir": str(CACHE_DIR)})
    terminalreporter.write_line(
        f"sim result cache [{CACHE_DIR}]: {stats['executed']:.0f} executed "
        f"({stats['sim_seconds']:.1f}s), {stats['disk_hits']:.0f} disk hits, "
        f"{stats['memory_hits']:.0f} memory hits "
        f"({stats['hit_seconds']:.2f}s serving replays)"
    )


def save_results(experiment_id: str, payload) -> None:
    """Persist a benchmark's rows for the experiment index."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{experiment_id}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))


@pytest.fixture(scope="session")
def config():
    return BENCH_CONFIG


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    Figure generation is deterministic and (via the runner cache)
    idempotent, so a single round is both sufficient and honest.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
