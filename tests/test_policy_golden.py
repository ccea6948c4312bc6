"""Golden test: the policy seam leaves the default path bitwise identical.

The fixtures under ``tests/golden/prepolicy_<design>.json`` are
``SimResult.to_json_dict()`` payloads captured from the code *before*
the replacement-policy refactor (commit 859ca33's hard-coded
``OrderedDict`` LRU), for all seven designs on one pinned workload and
config.  The refactored hierarchy running the default ``lru`` policy
must reproduce every one of them exactly — same cycles, same DRAM
traffic, same metric values — proving the seam introduction changed
nothing on the default path.

The only permitted difference is the *additive* telemetry this PR
introduces (``llc.wasted_prefetches``, ``llc.policy_evictions``,
``llc.prefetch_victims``): those paths did not exist pre-refactor, so
they are removed from the comparison rather than invented in the
fixtures.  Every pre-existing path must match bit for bit.

The fixtures predate the v4 wire format, which keeps only ``metrics``:
their scalar fields (``core_cycles``, ``dram``, ``l3_hits``, ...) and
design ``extras`` are each compared with the accessor or metric path
that now carries the same number.
"""

import json
import pathlib

import pytest

from repro.sim.config import quick_config
from repro.sim.results import SimResult
from repro.sim.system import DESIGNS, SimulatedSystem
from repro.workloads.generators import spec_like

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: Telemetry paths added by the policy-seam PR (absent from the fixtures).
ADDED_METRICS = frozenset(
    {"llc.wasted_prefetches", "llc.policy_evictions", "llc.prefetch_victims"}
)

CFG = quick_config(ops_per_core=400, warmup_ops=200)
WORKLOAD = spec_like("golden", seed=11)


#: Fixture fields that are ``SimResult`` accessors of the same name.
SCALAR_FIELDS = (
    "core_cycles",
    "core_instructions",
    "l3_hits",
    "l3_misses",
    "useful_prefetches",
    "demand_accesses",
    "llp_accuracy",
    "metadata_hit_rate",
)

#: Fixture ``dram`` fields that are plain ``dram.*`` metric paths.
DRAM_FIELDS = ("row_hits", "row_misses", "activations", "reads", "writes", "busy_cycles")

#: Fixture ``extras`` keys (pre-v4 design copies) -> their metric paths.
EXTRAS_PATHS = {
    "inversions": "ptmc.inversions",
    "invalidate_writes": "ptmc.invalidate_writes",
    "clean_writebacks": "ptmc.clean_writebacks",
    "lit_occupancy": "ptmc.lit_occupancy",
    "policy_benefits": "policy.benefits",
    "policy_costs": "policy.costs",
    "compression_enabled_final": "policy.compression_enabled",
}


@pytest.mark.parametrize("design", DESIGNS)
def test_default_lru_bitwise_identical_to_prerefactor(design):
    fixture_path = GOLDEN_DIR / f"prepolicy_{design}.json"
    want = json.loads(fixture_path.read_text())
    result = SimulatedSystem(WORKLOAD, design, CFG).run()
    # Envelope-only wire-format churn since the fixtures were captured:
    # a new schema number and an optional (here absent) ``timeseries``
    # member carry no simulation output.  Every simulated value still
    # compares bit for bit.
    assert result.timeseries is None
    assert (result.workload, result.design) == (want["workload"], want["design"])
    metrics = {k: v for k, v in result.metrics.items() if k not in ADDED_METRICS}
    assert metrics == want["metrics"]
    assert result.extras == {}

    # every legacy field is compared below, none skipped
    assert set(want) == {
        "schema", "workload", "design", "metrics", "extras", "dram", *SCALAR_FIELDS
    }
    for key in SCALAR_FIELDS:
        assert getattr(result, key) == want[key], key
    dram = want["dram"]
    assert {c.value: n for c, n in result.bandwidth_by_category().items()} == (
        dram["accesses_by_category"]
    )
    for key in DRAM_FIELDS:
        assert result.metrics[f"dram.{key}"] == dram[key], key
    # the retired wire-format quirk: the copy was never windowed and
    # stayed 0; the measured value is compared inside ``metrics`` above
    assert dram["refresh_stalls"] == 0
    for key, value in want["extras"].items():
        assert result.metrics[EXTRAS_PATHS[key]] == value, key


@pytest.mark.parametrize("design", DESIGNS)
def test_fixture_decodes_as_current_schema(design):
    """The captured payloads are live results, not stale wire formats."""
    fixture_path = GOLDEN_DIR / f"prepolicy_{design}.json"
    result = SimResult.from_json(fixture_path.read_text())
    assert result.design == design
    assert result.elapsed_cycles > 0


def test_explicit_lru_matches_default():
    """Naming the default policy explicitly is the identical simulation."""
    explicit = SimulatedSystem(WORKLOAD, "static_ptmc", CFG.with_(llc_policy="lru")).run()
    default = SimulatedSystem(WORKLOAD, "static_ptmc", CFG).run()
    assert explicit == default


@pytest.mark.parametrize("policy", ["fifo", "random", "srrip", "pref_lru"])
def test_non_default_policies_are_reproducible(policy):
    """Every policy is a deterministic function of its config (twice-run
    equality is what makes parallel sweeps and disk caching sound)."""
    cfg = CFG.with_(llc_policy=policy)
    first = SimulatedSystem(WORKLOAD, "static_ptmc", cfg).run()
    second = SimulatedSystem(WORKLOAD, "static_ptmc", cfg).run()
    assert first == second
