"""Helpers for ablation benchmarks that need customized controllers."""

from repro.compression.batch import BatchCompressor
from repro.sim.results import weighted_speedup
from repro.sim.runner import simulate
from repro.sim.system import SimulatedSystem
from repro.workloads import get_workload


def run_custom(workload_name, design, config, mutate):
    """Simulate with a post-construction tweak applied to the system.

    ``mutate(system)`` may replace the controller's compressor, config or
    policy before the run; the batch precompute is then pointed at the
    compressor the run will query.  A system that is not mutated should
    go through :func:`repro.sim.runner.simulate` (memo and disk cache)
    instead.  The uncompressed baseline comes from the shared runner
    cache.
    """
    workload = get_workload(workload_name)
    system = SimulatedSystem(workload, design, config)
    mutate(system)
    if system.batch is not None:
        system.batch = BatchCompressor(system.controller.compressor)
    result = system.run()
    baseline = simulate(workload, "uncompressed", config)
    return result, weighted_speedup(result, baseline)
