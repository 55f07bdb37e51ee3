"""Failure-injection style tests: eviction pressure and write-back.

The measured numbers are only credible if the engine stays *correct*
under the cache pressure that produces them: data modified in the
buffer must survive eviction, restart, and interleaved workloads.
"""

import pytest

from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.generator import generate_stations
from repro.benchmark.schema import key_of_oid
from repro.errors import BufferFullError
from repro.storage import StorageEngine
from tests.conftest import build_loaded_model

CFG = BenchmarkConfig(n_objects=80, seed=13)


@pytest.fixture(scope="module")
def stations():
    return generate_stations(CFG)


class TestEvictionPressure:
    @pytest.mark.parametrize("buffer_pages", [8, 16, 48])
    def test_content_correct_under_tiny_buffers(self, stations, buffer_pages):
        """Every object survives a pass through a thrashing buffer."""
        model = build_loaded_model("DASDBS-NSM", stations, buffer_pages=buffer_pages)
        for oid in (0, 20, 79):
            assert model.fetch_full(oid) == stations[oid]

    def test_updates_survive_eviction_storms(self, stations):
        model = build_loaded_model("DSM", stations, buffer_pages=12)
        for oid in range(0, 40, 5):
            model.update_roots([oid], {"Name": f"upd-{oid}"})
            # Scan pushes the dirty pages out through evictions.
            model.scan_all()
        model.engine.flush()
        for oid in range(0, 40, 5):
            assert model.fetch_full(oid)["Name"] == f"upd-{oid}"

    def test_interleaved_models_do_not_interfere(self, stations):
        """Two models on one engine share the buffer but not pages."""
        engine = StorageEngine(buffer_pages=200)
        from repro.models.registry import create_model

        a = create_model("NSM", engine)
        a.load(stations)
        b = create_model("DASDBS-NSM", engine)
        b.load(stations)
        a.update_roots([a.ref_of(3)], {"Name": "from-nsm"})
        b.update_roots([3], {"Name": "from-dnsm"})
        assert a.fetch_full_by_key(key_of_oid(3))["Name"] == "from-nsm"
        assert b.fetch_full(3)["Name"] == "from-dnsm"

    def test_buffer_exhaustion_is_detected(self):
        """All frames fixed -> a further miss raises, never corrupts."""
        engine = StorageEngine(buffer_pages=4)
        pids = engine.disk.allocate_many(5)
        for pid in pids[:4]:
            engine.buffer.fix(pid)
        with pytest.raises(BufferFullError):
            engine.buffer.fix(pids[4])
        for pid in pids[:4]:
            engine.buffer.unfix(pid)
        engine.buffer.fix(pids[4])  # recovers once fixes are released
        engine.buffer.unfix(pids[4])


class TestWriteBackOrdering:
    def test_flush_then_cold_read_sees_all_updates(self, stations):
        model = build_loaded_model("DASDBS-NSM", stations, buffer_pages=100)
        refs = list(range(0, 80, 7))
        model.update_roots(refs, {"NoSeeing": 77})
        model.engine.restart_buffer()
        for oid in refs:
            assert model.fetch_full(oid)["NoSeeing"] == 77

    def test_write_through_not_duplicated_by_flush(self, stations):
        """A pool write must not be written again at disconnect."""
        model = build_loaded_model("DASDBS-DSM", stations, buffer_pages=200)
        model.fetch_roots([2])
        model.engine.reset_metrics()
        model.update_roots([2], {"Name": "once"})
        written_through = model.engine.metrics.snapshot().pages_written
        model.engine.flush()
        assert model.engine.metrics.snapshot().pages_written == written_through

    def test_disk_state_matches_buffer_after_flush(self, stations):
        model = build_loaded_model("NSM", stations, buffer_pages=150)
        model.update_roots([model.ref_of(1)], {"Name": "durable"})
        model.engine.flush()
        # Read through a *fresh* buffer over the same disk.
        from repro.storage.buffer import BufferManager

        fresh = BufferManager(model.engine.disk, capacity=150)
        pid = model.relations[0].heap.segment.page_ids[0]
        data = fresh.fix(pid)
        assert b"durable" in bytes(data)
        fresh.unfix(pid)


class TestDeterminism:
    def test_full_run_reproducible(self, stations):
        """Identical config -> bit-identical metric streams."""
        from repro.benchmark.runner import BenchmarkRunner

        cfg = CFG.with_changes(loops=10, q1a_sample=5, q1b_sample=1, q2a_sample=3, buffer_pages=100)
        a = BenchmarkRunner(cfg).run_model("DSM", queries=("1a", "2b", "3b"))
        b = BenchmarkRunner(cfg).run_model("DSM", queries=("1a", "2b", "3b"))
        for query in ("1a", "2b", "3b"):
            assert a.results[query].raw == b.results[query].raw

    def test_seed_changes_access_pattern(self, stations):
        from repro.benchmark.runner import BenchmarkRunner

        cfg = CFG.with_changes(loops=10, q2a_sample=3, buffer_pages=100)
        a = BenchmarkRunner(cfg).run_model("DSM", queries=("2b",))
        b = BenchmarkRunner(cfg.with_changes(query_seed=1)).run_model("DSM", queries=("2b",))
        assert a.results["2b"].raw != b.results["2b"].raw
