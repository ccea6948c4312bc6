"""Tests for trace files on disk: the canonical binary format in a gzip
container, text-trace import, and an imported trace driving a core."""

import gzip

import pytest

from repro.traces.formats import TraceParseError, encode_records, parse_bytes, parse_text
from repro.traces.replay import TraceReplayGenerator, TraceWorkload, clear_record_memo
from repro.traces.store import configure_trace_store


@pytest.fixture
def store(tmp_path):
    """A fresh default trace store; the singleton is reset afterwards."""
    import repro.traces.store as store_module

    clear_record_memo()
    yield configure_trace_store(tmp_path / "traces")
    clear_record_memo()
    store_module._default_store = None


def sample_records():
    return [(False, 100), (True, 200), (False, 2**40)]


def write_trace_file(path, records):
    path.write_bytes(gzip.compress(encode_records(records)))


class TestRoundTrip:
    def test_save_and_load(self, tmp_path, store):
        path = tmp_path / "t.trc.gz"
        write_trace_file(path, sample_records())
        assert list(parse_bytes(path.read_bytes())) == sample_records()
        info, created = store.ingest_path(path)
        assert created
        assert info.records == 3
        assert store.load_records(info.hash) == sample_records()


class TestErrors:
    def test_bad_magic(self, tmp_path, store):
        path = tmp_path / "bad.trc.gz"
        path.write_bytes(gzip.compress(b"NOTATRCE"))
        with pytest.raises(TraceParseError, match="magic"):
            store.ingest_path(path, fmt="binary")
        assert store.list() == []

    def test_truncated_data(self, tmp_path, store):
        path = tmp_path / "trunc.trc.gz"
        write_trace_file(path, sample_records())
        blob = gzip.decompress(path.read_bytes())
        path.write_bytes(gzip.compress(blob[:-10]))
        with pytest.raises(TraceParseError, match="truncated"):
            store.ingest_path(path)
        assert store.list() == []


class TestImport:
    def test_basic_formats(self):
        text = [
            "R 0x1000",
            "W 8192",
            "0x3000",
            "",
            "# comment",
        ]
        records = list(parse_text(text))
        assert [line for _, line in records] == [0x1000 // 64, 128, 0x3000 // 64]
        assert [is_write for is_write, _ in records] == [False, True, False]

    def test_bad_type_rejected(self):
        with pytest.raises(TraceParseError, match="kind"):
            list(parse_text(["X 0x10"]))

    def test_too_many_fields_rejected(self):
        with pytest.raises(TraceParseError, match="expected"):
            list(parse_text(["R 0x10 64 extra"]))
        # a third field is an access size, so a word there is rejected too
        with pytest.raises(TraceParseError, match="size"):
            list(parse_text(["R 0x10 extra"]))

    def test_imported_trace_runs_through_core(self, store):
        """An imported text trace drives a core model end to end."""
        from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
        from repro.core.uncompressed import UncompressedController
        from repro.cpu.core import CoreModel
        from repro.dram.storage import PhysicalMemory
        from repro.dram.system import DRAMSystem
        from repro.sim.config import SimConfig
        from repro.vm.page_table import PageTable

        text = [f"R {addr * 64}" for addr in range(60)]
        text += [f"W {addr * 64}" for addr in range(4)]
        info, _ = store.ingest_records(list(parse_text(text)), name="imported")
        spec = TraceWorkload(name="imported", trace_hash=info.hash, loop=False)
        records = list(TraceReplayGenerator(spec, 0).generate(1000))
        assert len(records) == 64
        # the text carries no data; replay synthesizes a full line per write
        assert all(len(r.write_data) == 64 for r in records if r.is_write)

        hierarchy = CacheHierarchy(
            UncompressedController(PhysicalMemory(1 << 16), DRAMSystem()),
            SimConfig(
                num_cores=1,
                hierarchy=HierarchyConfig(l1_bytes=1024, l2_bytes=4096, l3_bytes=16384),
            ),
        )
        core = CoreModel(0, iter(records), hierarchy, PageTable(1 << 16))
        while core.step():
            pass
        assert core.mem_ops == 64
