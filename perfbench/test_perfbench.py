"""Tests of the benchmark itself: neutral tracing, exact accounting, checks.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import sims

sims.load_repro()

import layers  # noqa: E402
import run  # noqa: E402
from repro.obs import tracing  # noqa: E402
from repro.sim.config import quick_config  # noqa: E402

#: a tiny but complete run: every layer boundary is crossed
QUICK = quick_config(ops_per_core=300, warmup_ops=300)


def quick_systems(workload: str):
    return sims.build_systems(workload, seed=0, config=QUICK)


@pytest.mark.parametrize("workload", sorted(sims.WORKLOADS))
def test_wrappers_are_bitwise_neutral(workload):
    plain = [sims.run_simulation(s, traced=False) for s in quick_systems(workload)]
    traced = [sims.run_simulation(s, traced=True) for s in quick_systems(workload)]
    assert [s["digest"] for s in traced] == [s["digest"] for s in plain]
    assert all(not s["errors"] for s in plain + traced)


@pytest.mark.parametrize("workload", sorted(sims.WORKLOADS))
def test_layer_self_times_add_up_to_run_wall(workload):
    for system in quick_systems(workload):
        tracer = layers.LayerTracer()
        tracer.install(system)
        start = time.perf_counter()
        system.run()
        wall = time.perf_counter() - start
        tracer.uninstall()
        self_times = tracer.self_times()
        counts = tracer.counts(wall, samples=0)
        assert all(value >= 0 for value in self_times.values())
        assert 0 <= counts["sim.self_s"] < wall
        assert sum(self_times.values()) + counts["sim.self_s"] == pytest.approx(wall, rel=1e-9)
        assert counts["cache.accesses"] == counts["workloads.records"] == 8 * 600


def test_uninstall_restores_the_untraced_system():
    system = quick_systems("spec-ptmc")[0]
    tracer = layers.LayerTracer()
    tracer.install(system)
    tracer.uninstall()
    assert "access" not in vars(system.hierarchy)
    assert "compress" not in vars(system.controller.compressor)
    assert layers.sim_system.span is tracing.span
    assert not isinstance(system.cores[0].trace, layers._TimedIterator)


@pytest.fixture(scope="module")
def measured_metrics():
    system = quick_systems("gap-table")[1]
    return dict(system.run().metrics)


TAMPERS = {
    "mem_ops": "core.3.mem_ops",
    "l1": "llc.l1.hits",
    "l2": "llc.l2.hits",
    "l3": "llc.hits",
    "dram_categories": "dram.accesses.data_read",
}


def test_untampered_metrics_pass(measured_metrics):
    assert sims.conservation_errors(measured_metrics, 8, QUICK.ops_per_core) == []


@pytest.mark.parametrize("law", sorted(TAMPERS))
def test_tampered_metrics_trip_each_check(measured_metrics, law):
    tampered = dict(measured_metrics)
    tampered[TAMPERS[law]] += 1
    errors = sims.conservation_errors(tampered, 8, QUICK.ops_per_core)
    assert len(errors) == 1


def fake_report(digest="a" * 64, errors=(), memo_entries=0):
    sim = {"name": "w/d", "digest": digest, "errors": list(errors)}
    return {"simulations": [sim], "memo_entries_at_setup": memo_entries}


def test_count_failures_flags_each_check():
    assert run.count_failures([fake_report(), fake_report()])[:2] == (2, 0)
    assert run.count_failures([fake_report(), fake_report(digest="b" * 64)])[:2] == (2, 1)
    assert run.count_failures([fake_report(errors=["broken"])])[:2] == (1, 1)
    assert run.count_failures([fake_report(memo_entries=3)])[:2] == (1, 1)


def test_process_starts_with_empty_shared_memos():
    done = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "sims.py"), "--workload", "spec-ptmc",
         "--mode", "setup"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["memo_entries_at_setup"] == 0
    assert report["simulations"] == []


def test_memo_count_sees_a_warm_process():
    sims.run_simulation(quick_systems("spec-ptmc")[0], traced=False)
    assert sims.shared_memo_entries() > 0


def test_seed_zero_keeps_the_registered_specs():
    from repro.workloads.suites import get_workload

    assert sims.seeded_spec("lbm06", 0) == get_workload("lbm06")
    moved = sims.seeded_spec("lbm06", 2)
    assert moved == get_workload("lbm06").with_seed(moved.seed)
    assert moved.seed != get_workload("lbm06").seed


def test_benchmark_json_matches_the_benchmark():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(sims.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_refuses_to_run_without_the_simulator_source(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gap-table", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
