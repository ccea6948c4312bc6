"""Golden test: batch-driven simulation is bitwise-identical to scalar.

``SimConfig.batch_chunk`` switches the trace feed between the scalar
per-record reference (``0``) and the chunked path that precomputes
compressed sizes with the vectorized batch kernels.  The whole point of
the batch layer is that this switch is unobservable — every metric of
every design must match exactly, not approximately.
"""

import pytest

from repro.sim.config import quick_config
from repro.sim.system import DESIGNS, SimulatedSystem
from repro.workloads.generators import graph_like, spec_like

CFG = quick_config(ops_per_core=400, warmup_ops=200)
WORKLOAD = spec_like("golden", seed=11)


def run_once(design, batch_chunk, workload=WORKLOAD, cfg=CFG):
    config = cfg.with_(batch_chunk=batch_chunk)
    return SimulatedSystem(workload, design, config).run()


@pytest.mark.parametrize("design", DESIGNS)
def test_batch_and_scalar_results_identical(design):
    scalar = run_once(design, batch_chunk=0)
    batched = run_once(design, batch_chunk=128)
    assert batched == scalar  # full dataclass equality: exact metrics


def test_chunk_size_does_not_matter():
    reference = run_once("static_ptmc", batch_chunk=0)
    for chunk in (1, 7, 64, 4096):
        assert run_once("static_ptmc", batch_chunk=chunk) == reference


def test_batch_front_end_active_only_for_compressing_designs():
    assert SimulatedSystem(WORKLOAD, "uncompressed", CFG).batch is None
    assert SimulatedSystem(WORKLOAD, "static_ptmc", CFG).batch is not None
    scalar_cfg = CFG.with_(batch_chunk=0)
    assert SimulatedSystem(WORKLOAD, "static_ptmc", scalar_cfg).batch is None


def test_irregular_workload_also_identical():
    from repro.workloads.generators import graph_like

    workload = graph_like("golden_gap").with_seed(23)
    scalar = run_once("dynamic_ptmc", 0, workload=workload)
    batched = run_once("dynamic_ptmc", 256, workload=workload)
    assert batched == scalar


GRAPH_WORKLOAD = graph_like("golden_graph").with_seed(5)


@pytest.mark.parametrize("design", DESIGNS)
def test_graph_workload_identical_for_every_design(design):
    """Every design, ``uncompressed`` and ``prefetch`` included, takes the
    chunked feed when ``batch_chunk > 0``; its results must not move."""
    scalar = run_once(design, 0, workload=GRAPH_WORKLOAD)
    batched = run_once(design, 128, workload=GRAPH_WORKLOAD)
    assert batched == scalar


#: a non-looping trace that runs out part-way through a 128-record chunk
FINITE_RECORDS = [(i % 3 == 0, (i * 37) % 2000) for i in range(301)]


@pytest.fixture
def finite_trace(tmp_path, monkeypatch):
    import repro.traces.store as store_module
    from repro.traces.replay import clear_record_memo, trace_workload

    monkeypatch.setattr(store_module, "_default_store", store_module.TraceStore(tmp_path))
    clear_record_memo()
    info, _ = store_module.trace_store().ingest_records(FINITE_RECORDS)
    yield trace_workload(info.hash, loop=False)
    clear_record_memo()


@pytest.mark.parametrize("design", ["uncompressed", "static_ptmc"])
def test_exhausted_trace_identical(finite_trace, design):
    systems = {
        chunk: SimulatedSystem(finite_trace, design, CFG.with_(batch_chunk=chunk))
        for chunk in (0, 128)
    }
    results = {chunk: system.run() for chunk, system in systems.items()}
    assert results[128] == results[0]
    for system in systems.values():
        assert [g.replayed_records for g in system.generators] == [301] * CFG.num_cores
