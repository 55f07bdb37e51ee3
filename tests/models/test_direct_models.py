"""I/O behaviour of the direct models: DSM vs DASDBS-DSM.

These tests pin down the paper's central distinction (Sections 3.1/3.2):
DSM always transfers whole objects, DASDBS-DSM uses the object header to
transfer only the used sections — and pays for it with the
change-attribute update protocol.
"""

import pytest

from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.generator import generate_stations
from tests.conftest import build_loaded_model

#: Big sightseeing sections make every object a multi-page long object.
LARGE_CFG = BenchmarkConfig(n_objects=30, seed=5, max_sightseeing=15)

#: No sightseeings: most objects fit on a single shared page.
SMALL_CFG = BenchmarkConfig(n_objects=30, seed=5, max_sightseeing=0)


@pytest.fixture(scope="module")
def large_stations():
    return generate_stations(LARGE_CFG)


@pytest.fixture(scope="module")
def small_stations_0():
    return generate_stations(SMALL_CFG)


def cold_metrics(model):
    model.engine.restart_buffer()
    model.engine.reset_metrics()
    return model.engine.metrics


class TestPartialAccess:
    def test_navigation_reads_fewer_pages_than_dsm(self, large_stations):
        dsm = build_loaded_model("DSM", large_stations)
        ddsm = build_loaded_model("DASDBS-DSM", large_stations)
        oid_with_children = next(
            i for i, s in enumerate(large_stations) if s.subtuples("Platform")
        )
        cold_metrics(dsm)
        dsm.fetch_refs([oid_with_children])
        dsm_pages = dsm.engine.metrics.snapshot().pages_read
        cold_metrics(ddsm)
        ddsm.fetch_refs([oid_with_children])
        ddsm_pages = ddsm.engine.metrics.snapshot().pages_read
        assert ddsm_pages < dsm_pages
        assert ddsm_pages == 2  # "the header page and a single data page"

    def test_root_read_is_two_pages(self, large_stations):
        ddsm = build_loaded_model("DASDBS-DSM", large_stations)
        cold_metrics(ddsm)
        ddsm.fetch_roots([0])
        assert ddsm.engine.metrics.snapshot().pages_read == 2

    def test_dsm_reads_whole_object_for_roots(self, large_stations):
        dsm = build_loaded_model("DSM", large_stations)
        cold_metrics(dsm)
        dsm.fetch_roots([0])
        assert dsm.engine.metrics.snapshot().pages_read >= 3

    def test_full_retrieval_same_pages(self, large_stations):
        """For whole-object retrieval both models read the same pages."""
        dsm = build_loaded_model("DSM", large_stations)
        ddsm = build_loaded_model("DASDBS-DSM", large_stations)
        cold_metrics(dsm)
        dsm.fetch_full(3)
        cold_metrics(ddsm)
        ddsm.fetch_full(3)
        assert (
            dsm.engine.metrics.snapshot().pages_read
            == ddsm.engine.metrics.snapshot().pages_read
        )

    def test_value_scan_cheaper_with_headers(self, large_stations):
        dsm = build_loaded_model("DSM", large_stations)
        ddsm = build_loaded_model("DASDBS-DSM", large_stations)
        key = large_stations[7]["Key"]
        cold_metrics(dsm)
        dsm.fetch_full_by_key(key)
        cold_metrics(ddsm)
        ddsm.fetch_full_by_key(key)
        assert (
            ddsm.engine.metrics.snapshot().pages_read
            < dsm.engine.metrics.snapshot().pages_read
        )


class TestUpdateProtocols:
    def test_dsm_replaces_whole_object(self, large_stations):
        """DSM's update dirties every page of the object."""
        dsm = build_loaded_model("DSM", large_stations)
        dsm.fetch_full(2)  # warm
        dsm.engine.reset_metrics()
        dsm.update_roots([2], {"Name": "upd"})
        dsm.engine.flush()
        header, data = dsm.relations[0].long_store.pages_of(dsm.table.row(2)[0][0])
        assert dsm.engine.metrics.snapshot().pages_written == header + data

    def test_dasdbs_dsm_writes_pool_immediately(self, large_stations):
        """Each change-attribute call writes one page at once (Sec 5.3)."""
        ddsm = build_loaded_model("DASDBS-DSM", large_stations)
        ddsm.fetch_roots([2])  # warm
        ddsm.engine.reset_metrics()
        ddsm.update_roots([2], {"Name": "upd"})
        snap = ddsm.engine.metrics.snapshot()
        assert snap.pages_written == 1
        assert snap.write_calls == 1

    def test_dasdbs_dsm_update_repeats_cost_per_call(self, large_stations):
        """No write batching across change-attribute operations."""
        ddsm = build_loaded_model("DASDBS-DSM", large_stations)
        ddsm.engine.reset_metrics()
        for _ in range(3):
            ddsm.update_roots([4], {"Name": "again"})
        assert ddsm.engine.metrics.snapshot().write_calls == 3

    def test_dsm_updates_batch_on_shared_pages(self, small_stations_0):
        """For small objects DSM coalesces many updates into few writes,
        DASDBS-DSM pays one write per object — Figure 5 query 3b."""
        dsm = build_loaded_model("DSM", small_stations_0)
        ddsm = build_loaded_model("DASDBS-DSM", small_stations_0)
        refs = list(range(12))
        dsm.engine.reset_metrics()
        dsm.update_roots(refs, {"Name": "x"})
        dsm.engine.flush()
        dsm_writes = dsm.engine.metrics.snapshot().pages_written
        ddsm.engine.reset_metrics()
        ddsm.update_roots(refs, {"Name": "x"})
        ddsm.engine.flush()
        ddsm_writes = ddsm.engine.metrics.snapshot().pages_written
        assert ddsm_writes == len(refs)
        assert dsm_writes < ddsm_writes


class TestSmallObjectRegime:
    def test_small_objects_share_pages(self, small_stations_0):
        """Without sightseeings objects drop below a page (Section 5.3)."""
        dsm = build_loaded_model("DSM", small_stations_0)
        assert dsm.relations[0].heap.n_pages > 0
        # Several objects per page: fewer pages than objects in the heap.
        heap_objects = len(dsm.table.live_oids()) - len(dsm.table.long_handles(0))
        assert heap_objects > dsm.relations[0].heap.n_pages

    def test_large_objects_get_private_pages(self, large_stations):
        dsm = build_loaded_model("DSM", large_stations)
        long_objects = len(dsm.table.long_handles(0))
        assert long_objects == len(
            [s for s in large_stations if dsm.format.nested_size(s) > 2008]
        )
