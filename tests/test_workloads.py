"""Tests for the synthetic workload generators and suite roster."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import HybridCompressor
from repro.workloads import (
    ALL_64,
    GAP,
    LOW_MPKI,
    MEMORY_INTENSIVE,
    MIXES,
    SPEC06,
    SPEC17,
    DataGenerator,
    DataProfile,
    PatternKind,
    WorkloadTraceGenerator,
    get_workload,
)
from repro.workloads.data_patterns import GRAPH_LIKE, SPEC_LIKE


class TestDataPatterns:
    def test_deterministic(self):
        a = DataGenerator(SPEC_LIKE, seed=1).line(100, 0)
        b = DataGenerator(SPEC_LIKE, seed=1).line(100, 0)
        assert a == b

    def test_seed_changes_data(self):
        a = DataGenerator(SPEC_LIKE, seed=1).line(100, 0)
        b = DataGenerator(SPEC_LIKE, seed=2).line(100, 0)
        assert a != b

    def test_version_changes_data(self):
        gen = DataGenerator(SPEC_LIKE, seed=1)
        kind = gen.kind(100, 0)
        if kind is not PatternKind.ZERO:
            assert gen.line(100, 0) != gen.line(100, 1)

    def test_line_size(self):
        gen = DataGenerator(SPEC_LIKE, seed=1)
        for vline in range(50):
            assert len(gen.line(vline)) == 64

    def test_page_homogeneity(self):
        gen = DataGenerator(DataProfile({PatternKind.POINTER: 1.0}, noise=0.0), seed=3)
        kinds = {gen.kind(vline) for vline in range(64)}
        assert kinds == {PatternKind.POINTER}

    def test_write_scramble_rate(self):
        gen = DataGenerator(SPEC_LIKE, seed=5, write_scramble=1.0)
        assert gen.kind(100, version=1) is PatternKind.RANDOM

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            DataProfile({})
        with pytest.raises(ValueError):
            DataProfile({PatternKind.ZERO: 1.0}, noise=2.0)

    def test_compressibility_by_family(self):
        hybrid = HybridCompressor()
        gen = DataGenerator(DataProfile({PatternKind.ZERO: 1.0}, noise=0.0), seed=1)
        assert hybrid.compressed_size(gen.line(0)) < 8
        gen = DataGenerator(DataProfile({PatternKind.RANDOM: 1.0}, noise=0.0), seed=1)
        assert hybrid.compressed_size(gen.line(0)) == 64
        gen = DataGenerator(DataProfile({PatternKind.MEDIUM: 1.0}, noise=0.0), seed=1)
        size = hybrid.compressed_size(gen.line(0))
        assert 30 < size < 64  # line-compressible, pair-incompatible

    def test_spec_more_compressible_than_graph(self):
        hybrid = HybridCompressor()
        spec_gen = DataGenerator(SPEC_LIKE, seed=1)
        graph_gen = DataGenerator(GRAPH_LIKE, seed=1)
        spec_size = sum(hybrid.compressed_size(spec_gen.line(v)) for v in range(0, 2048, 8))
        graph_size = sum(hybrid.compressed_size(graph_gen.line(v)) for v in range(0, 2048, 8))
        assert spec_size < graph_size


class TestTraceGenerator:
    def _trace(self, spec_name="lbm06", n=2000):
        gen = WorkloadTraceGenerator(get_workload(spec_name), core_id=0)
        return gen, list(gen.generate(n))

    def test_deterministic(self):
        _, a = self._trace()
        _, b = self._trace()
        assert [(r.vline, r.is_write) for r in a] == [(r.vline, r.is_write) for r in b]

    def test_cores_differ(self):
        spec = get_workload("lbm06")
        a = list(WorkloadTraceGenerator(spec, 0).generate(100))
        b = list(WorkloadTraceGenerator(spec, 1).generate(100))
        assert [r.vline for r in a] != [r.vline for r in b]

    def test_addresses_within_footprint(self):
        spec = get_workload("lbm06")
        _, records = self._trace()
        assert all(0 <= r.vline < spec.footprint_lines for r in records)

    def test_write_fraction_approximate(self):
        spec = get_workload("lbm06")
        _, records = self._trace(n=4000)
        writes = sum(r.is_write for r in records)
        assert abs(writes / 4000 - spec.write_frac) < 0.05

    def test_writes_carry_data(self):
        _, records = self._trace()
        for r in records:
            if r.is_write:
                assert r.write_data is not None and len(r.write_data) == 64
            else:
                assert r.write_data is None

    def test_reference_tracks_latest_write(self):
        gen, records = self._trace()
        last = {}
        for r in records:
            if r.is_write:
                last[r.vline] = r.write_data
        assert gen.reference == last

    def test_spatial_locality_spec_vs_gap(self):
        def seq_fraction(name):
            _, records = self._trace(name, n=4000)
            seq = sum(
                1
                for a, b in zip(records, records[1:])
                if b.vline == a.vline + 1
            )
            return seq / len(records)

        assert seq_fraction("lbm06") > 2 * seq_fraction("bfs.twitter")

    def test_current_data_version_aware(self):
        gen = WorkloadTraceGenerator(get_workload("lbm06"), 0)
        v0 = gen.current_data(10)
        for record in gen.generate(3000):
            pass
        if 10 in gen.reference:
            assert gen.current_data(10) == gen.reference[10]
        else:
            assert gen.current_data(10) == v0


class TestSuites:
    def test_counts_match_paper(self):
        assert len(SPEC06) == 7
        assert len(SPEC17) == 5
        assert len(GAP) == 9
        assert len(MIXES) == 6
        assert len(MEMORY_INTENSIVE) == 27  # paper's memory-intensive set
        assert len(ALL_64) == 64  # extended study (Fig. 17)

    def test_names_unique(self):
        names = [w.name for w in MEMORY_INTENSIVE + LOW_MPKI]
        assert len(names) == len(set(names))

    def test_lookup(self):
        assert get_workload("lbm06").suite == "spec06"
        assert get_workload("bfs.twitter").suite == "gap"
        with pytest.raises(KeyError):
            get_workload("nonexistent")

    def test_mix_assigns_specs_per_core(self):
        mix = MIXES[0]
        specs = {mix.spec_for_core(c).name for c in range(8)}
        assert len(specs) >= 2

    def test_gap_footprints_larger(self):
        spec_fp = max(w.footprint_lines for w in SPEC06)
        gap_fp = min(w.footprint_lines for w in GAP)
        assert gap_fp > spec_fp

    def test_memory_intensive_flag(self):
        assert all(w.memory_intensive for w in MEMORY_INTENSIVE)
        assert not any(w.memory_intensive for w in LOW_MPKI)


@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=2**20), st.integers(0, 5))
def test_line_data_pure_function(vline, version):
    gen1 = DataGenerator(SPEC_LIKE, seed=42)
    gen2 = DataGenerator(SPEC_LIKE, seed=42)
    assert gen1.line(vline, version) == gen2.line(vline, version)


# ---------------------------------------------------------------------------
# The vectorized renderer against the scalar reference (DESIGN.md §9)

_SEEDS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.sampled_from([-1, 0, 2**63, 2**64 - 1, 2**64, 2**64 + 17, -(2**64)]),
)
_VLINES = st.one_of(st.integers(0, 1 << 20), st.integers(0, 2**64 - 1))


def _assert_render_many_matches(profile, seed, write_scramble, keys):
    batched = DataGenerator(profile, seed, write_scramble)
    batched.render_many(keys)
    reference = DataGenerator(profile, seed, write_scramble)
    for key in keys:
        assert batched._memo[key] == reference.line(*key), key


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(list(PatternKind)),
    noise=st.sampled_from([0.0, 0.05, 0.5]),
    write_scramble=st.sampled_from([0.0, 0.35, 1.0]),
    seed=_SEEDS,
    keys=st.lists(st.tuples(_VLINES, st.integers(0, 5)), min_size=1, max_size=48),
)
def test_render_many_matches_line(kind, noise, write_scramble, seed, keys):
    profile = DataProfile({kind: 1.0}, noise=noise)
    _assert_render_many_matches(profile, seed, write_scramble, keys)


@settings(max_examples=40, deadline=None)
@given(
    seed=_SEEDS,
    keys=st.lists(
        st.tuples(st.integers(-(2**66), 2**66), st.integers(-3, 2**65)), min_size=1, max_size=16
    ),
)
def test_render_many_falls_back_outside_uint64(seed, keys):
    _assert_render_many_matches(GRAPH_LIKE, seed, 0.35, keys)


@pytest.mark.parametrize("profile", [SPEC_LIKE, GRAPH_LIKE], ids=["spec", "graph"])
@pytest.mark.parametrize("write_scramble", [0.0, 0.35, 1.0])
def test_render_many_covers_every_kind_and_version(profile, write_scramble):
    keys = [(vline, version) for vline in range(0, 64 * 96, 5) for version in range(6)]
    reference = DataGenerator(profile, 7, write_scramble)
    kinds = {reference.kind(*key) for key in keys}
    assert kinds == set(PatternKind)
    _assert_render_many_matches(profile, 7, write_scramble, keys)
