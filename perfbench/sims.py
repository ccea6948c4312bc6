"""The benchmark's workloads, and the fresh process that runs one of them.

``python3 perfbench/sims.py --workload <name> --seed <n> --mode <mode>``
imports the simulator, builds every ``SimulatedSystem`` of the workload,
and (unless ``--mode setup``) runs them in order, printing one JSON
object on stdout.  ``perfbench/run.py`` starts one such process per
repetition, so every simulation starts with the hybrid compressor's
process-wide memos empty, exactly like ``repro run`` or a fresh sweep
worker.  Nothing here uses the runner memo, the disk cache or a pool.

Modes:

- ``setup``: build the systems and stop (a set-up time sample).
- ``plain``: run untraced; report host wall time per simulation.
- ``traced``: run with :mod:`layers` wrapping every layer boundary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: ``BENCH_CONFIG`` of ``benchmarks/conftest.py``: the scale every figure runs at
OPS_PER_CORE = 4000
WARMUP_OPS = 6000

#: the ``repro timeline`` default sampling interval
SAMPLE_INTERVAL = 2000

#: workload seeds move in steps wider than the core count, because core
#: ``c`` of a rate-mode run uses seed ``spec.seed + c``
SEED_STRIDE = 1009

#: name -> (simulations in run order as (workload, design), observed?);
#: why each was chosen is in ``BENCHMARK.json`` and ``README.md``
WORKLOADS = {
    "spec-ptmc": ((("lbm06", "static_ptmc"), ("mcf06", "dynamic_ptmc")), False),
    "gap-table": ((("pr.twitter", "uncompressed"), ("pr.twitter", "tmc_table")), False),
    "lowmpki-observed": ((("bzip206", "uncompressed"), ("bzip206", "dynamic_ptmc")), True),
}


def load_repro() -> None:
    """Import the simulator from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    import repro

    found = os.path.dirname(os.path.abspath(repro.__file__))
    if found != os.path.join(SRC, "repro"):
        raise ImportError(f"repro imported from {found}, not from {SRC}")


def bench_config():
    from repro.sim.config import bench_config as make

    return make(ops_per_core=OPS_PER_CORE, warmup_ops=WARMUP_OPS)


def seeded_spec(name: str, seed: int):
    """The registered spec, moved to the benchmark seed (0 keeps it pinned)."""
    from repro.workloads.suites import get_workload

    spec = get_workload(name)
    return spec.with_seed(spec.seed + SEED_STRIDE * seed) if seed else spec


def build_systems(workload: str, seed: int, config=None):
    """Every ``SimulatedSystem`` of one benchmark workload, in run order."""
    from repro.obs.sampler import ObsConfig
    from repro.sim.system import SimulatedSystem

    simulations, observed = WORKLOADS[workload]
    config = config if config is not None else bench_config()
    obs = ObsConfig(sample_interval=SAMPLE_INTERVAL) if observed else None
    specs = {name: seeded_spec(name, seed) for name, _ in simulations}
    return [SimulatedSystem(specs[name], design, config, obs=obs) for name, design in simulations]


def digest(result) -> str:
    """sha256 of the result's canonical JSON: every simulated outcome."""
    payload = json.dumps(result.to_json_dict(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def conservation_errors(metrics, num_cores: int, ops_per_core: int):
    """Broken conservation laws in one measured-window metrics mapping.

    The hit/miss laws are chained level by level: L1 and L2 hits never
    reach the L3, so ``llc.hits + llc.misses`` counts L2 misses, not
    demand accesses.
    """
    errors = []
    for core in range(num_cores):
        ops = metrics[f"core.{core}.mem_ops"]
        if ops != ops_per_core:
            errors.append(f"core.{core}.mem_ops {ops} != ops_per_core {ops_per_core}")
    laws = (
        ("llc.l1.hits + llc.l1.misses", ("llc.l1.hits", "llc.l1.misses"), ("llc.demand_accesses",)),
        ("llc.l1.misses", ("llc.l1.misses",), ("llc.l2.hits", "llc.l2.misses")),
        ("llc.l2.misses", ("llc.l2.misses",), ("llc.hits", "llc.misses")),
        (
            "sum of dram.accesses.*",
            tuple(k for k in metrics if k.startswith("dram.accesses.")),
            ("dram.reads", "dram.writes"),
        ),
    )
    for label, left, right in laws:
        lhs = sum(metrics[k] for k in left)
        rhs = sum(metrics[k] for k in right)
        if lhs != rhs:
            errors.append(f"{label} = {lhs} != {' + '.join(right)} = {rhs}")
    return errors


def shared_memo_entries() -> int:
    """Entries in the hybrid compressor's process-wide memos."""
    from repro.compression import hybrid

    pools = list(hybrid._SHARED_CACHES.values()) + list(hybrid._SHARED_SIZE_CACHES.values())
    return sum(len(pool) for pool in pools)


#: simulated counters summed per workload for the per-layer ratios
SIMULATED = (
    "llc.demand_accesses",
    "llc.l1.hits",
    "llc.l1.misses",
    "llc.l2.hits",
    "llc.l2.misses",
    "llc.hits",
    "llc.misses",
    "dram.reads",
    "dram.writes",
    "dram.row_hits",
    "dram.row_misses",
)


def simulated_counts(metrics) -> dict:
    """Measured-window counters the per-layer ratios are built from."""
    counts = {key: metrics[key] for key in SIMULATED}
    for key, name in (
        (".llp.predictions", "llp.predictions"),
        (".llp.mispredictions", "llp.mispredictions"),
        (".metadata_cache.hits", "metadata.hits"),
        (".metadata_cache.misses", "metadata.misses"),
    ):
        counts[name] = sum(v for k, v in metrics.items() if k.endswith(key))
    return counts


def run_simulation(system, traced: bool) -> dict:
    """Run one system and report its time, digest, checks and counts."""
    tracer = None
    if traced:
        from layers import LayerTracer

        tracer = LayerTracer()
        tracer.install(system)
    start = time.perf_counter()
    try:
        result = system.run()
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    config = system.config
    report = {
        "name": f"{system.workload.name}/{system.design}",
        "run_s": wall,
        "accesses": sum(core.mem_ops for core in system.cores),
        "digest": digest(result),
        "errors": conservation_errors(result.metrics, config.num_cores, config.ops_per_core),
        "simulated": simulated_counts(result.metrics),
    }
    if tracer is not None:
        samples = len(result.timeseries.points) if result.timeseries is not None else 0
        report["layers"] = tracer.counts(wall, samples)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    args = parser.parse_args(argv)

    load_repro()
    systems = build_systems(args.workload, args.seed)
    setup_done = time.monotonic()
    memo_entries = shared_memo_entries()
    simulations = []
    if args.mode != "setup":
        observed = WORKLOADS[args.workload][1]
        if observed:
            from repro.obs.tracing import Tracer, set_tracer

            set_tracer(Tracer(process_name="perfbench"))
        simulations = [run_simulation(s, args.mode == "traced") for s in systems]
        if observed:
            set_tracer(None)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(
        json.dumps(
            {
                "setup_done": setup_done,
                "memo_entries_at_setup": memo_entries,
                "peak_rss_mb": usage.ru_maxrss / 1024.0,
                "simulations": simulations,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
