"""I/O behaviour of the normalized models: NSM, NSM+index, DASDBS-NSM."""

import pytest

from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.generator import generate_stations
from repro.benchmark.schema import key_of_oid
from tests.conftest import build_loaded_model

CFG = BenchmarkConfig(n_objects=40, seed=9)


@pytest.fixture(scope="module")
def stations():
    return generate_stations(CFG)


def cold(model):
    model.engine.restart_buffer()
    model.engine.reset_metrics()


class TestNSMScans:
    def test_value_selection_scans_all_relations(self, stations):
        nsm = build_loaded_model("NSM", stations)
        cold(nsm)
        nsm.fetch_full_by_key(key_of_oid(5))
        pages = nsm.engine.metrics.snapshot().pages_read
        assert pages == nsm.total_pages()

    def test_navigation_scans_connection_relation_once_per_level(self, stations):
        nsm = build_loaded_model("NSM", stations)
        oid = next(i for i, s in enumerate(stations) if s.subtuples("Platform"))
        cold(nsm)
        nsm.fetch_refs([key_of_oid(oid)])
        fixes = nsm.engine.metrics.snapshot().page_fixes
        assert fixes == nsm.relations[2].n_pages  # exactly one scan

    def test_second_scan_hits_cache(self, stations):
        nsm = build_loaded_model("NSM", stations)
        cold(nsm)
        nsm.fetch_refs([key_of_oid(1)])
        first = nsm.engine.metrics.snapshot().pages_read
        nsm.fetch_refs([key_of_oid(2)])
        assert nsm.engine.metrics.snapshot().pages_read == first  # all hits

    def test_four_relations_loaded(self, stations):
        nsm = build_loaded_model("NSM", stations)
        pages = nsm.relation_pages()
        assert set(pages) == {
            "NSM_Station",
            "NSM_Platform",
            "NSM_Connection",
            "NSM_Sightseeing",
        }

    def test_tuple_counts_match_structure(self, stations):
        nsm = build_loaded_model("NSM", stations)
        n_platforms = sum(len(s.subtuples("Platform")) for s in stations)
        assert nsm.relations[1].heap.count_records() == n_platforms
        n_conns = sum(
            len(p.subtuples("Connection"))
            for s in stations
            for p in s.subtuples("Platform")
        )
        assert nsm.relations[2].heap.count_records() == n_conns


class TestNSMIndex:
    def test_indexed_fetch_reads_only_needed_pages(self, stations):
        nsm = build_loaded_model("NSM", stations)
        idx = build_loaded_model("NSM+index", stations)
        key = key_of_oid(6)
        cold(nsm)
        nsm.fetch_full_by_key(key)
        scan_pages = nsm.engine.metrics.snapshot().pages_read
        cold(idx)
        idx.fetch_full(key)
        indexed_pages = idx.engine.metrics.snapshot().pages_read
        assert indexed_pages < scan_pages
        assert indexed_pages <= 10

    def test_index_value_selection_still_scans_root_relation(self, stations):
        """Table 3: NSM+index query 1b ≈ m_Station + object pages."""
        idx = build_loaded_model("NSM+index", stations)
        cold(idx)
        idx.fetch_full_by_key(key_of_oid(3))
        pages = idx.engine.metrics.snapshot().pages_read
        assert pages >= idx.relations[0].n_pages

    def test_navigation_uses_one_call_per_level(self, stations):
        idx = build_loaded_model("NSM+index", stations)
        oid = next(i for i, s in enumerate(stations) if s.subtuples("Platform"))
        cold(idx)
        idx.fetch_refs([key_of_oid(oid)])
        assert idx.engine.metrics.snapshot().read_calls == 1

    def test_update_needs_no_scan(self, stations):
        idx = build_loaded_model("NSM+index", stations)
        cold(idx)
        idx.update_roots([key_of_oid(2)], {"Name": "u"})
        fixes = idx.engine.metrics.snapshot().page_fixes
        assert fixes <= 3  # read + update the single tuple's page


class TestDASDBSNSM:
    def test_one_tuple_per_relation_per_object(self, stations):
        model = build_loaded_model("DASDBS-NSM", stations)
        assert len(model.table.live_oids()) == len(stations)
        for oid in model.table.live_oids():
            assert [len(handles) for handles in model.table.row(oid)] == [1, 1, 1, 1]

    def test_fetch_full_reads_few_pages(self, stations):
        model = build_loaded_model("DASDBS-NSM", stations)
        cold(model)
        model.fetch_full(4)
        pages = model.engine.metrics.snapshot().pages_read
        assert 4 <= pages <= 7  # one page per small relation + large sightseeing

    def test_value_selection_scans_station_relation_only(self, stations):
        model = build_loaded_model("DASDBS-NSM", stations)
        cold(model)
        model.fetch_full_by_key(key_of_oid(9))
        pages = model.engine.metrics.snapshot().pages_read
        assert pages < model.total_pages() / 2
        assert pages >= model.relations[0].n_pages

    def test_navigation_avoids_sightseeing_relation(self, stations):
        """Figure 5: queries 2/3 never touch DASDBS_NSM_Sightseeing."""
        model = build_loaded_model("DASDBS-NSM", stations)
        sightseeings = model.relations[3]
        sight_pages = set(sightseeings.heap.segment.page_ids) | set(
            sightseeings.long_store.segment.page_ids
        )
        cold(model)
        children = model.fetch_refs([0])
        model.fetch_refs(model._dedupe(children))
        model.fetch_roots([0])
        resident = {
            pid for pid in sight_pages if model.engine.buffer.is_resident(pid)
        }
        assert not resident

    def test_update_touches_only_station_relation(self, stations):
        model = build_loaded_model("DASDBS-NSM", stations)
        model.fetch_roots([1, 2, 3])
        model.engine.reset_metrics()
        model.update_roots([1, 2, 3], {"Name": "u"})
        model.engine.flush()
        snap = model.engine.metrics.snapshot()
        # Small root tuples share pages: batched write-back of few pages.
        assert snap.pages_written <= model.relations[0].n_pages

    def test_transformation_table_has_four_addresses(self, stations):
        model = build_loaded_model("DASDBS-NSM", stations)
        assert all(len(row) == 4 for row in model.table.rows)

    def test_skewed_connections_may_overflow_page(self):
        """Fanout-8 extensions can make Connection tuples long objects."""
        cfg = BenchmarkConfig(n_objects=60, seed=2, probability=0.5, fanout=8)
        stations = generate_stations(cfg)
        model = build_loaded_model("DASDBS-NSM", stations)
        assert model.scan_all() == len(stations)
