"""Cross-model equivalence: every storage model stores the same database.

Whatever the fragmentation, the logical content must be identical: the
same objects come back from every access path, navigation returns the
same reference sets, and updates land on the same logical tuples.
"""

import pytest

from repro.benchmark.schema import key_of_oid
from repro.errors import UnsupportedOperationError
from tests.conftest import build_loaded_model
from tests.sharding.conftest import build_sharded


class TestFullRetrievalEquivalence:
    def test_fetch_full_matches_source(self, loaded_model, small_stations):
        model = loaded_model
        if not model.supports_oid_access:
            # Plain NSM stores no identifiers: retrieval by OID is a
            # typed refusal, not a silently different access path.
            with pytest.raises(UnsupportedOperationError):
                model.fetch_full(model.ref_of(0))
            return
        for oid in (0, 7, len(small_stations) - 1):
            assert model.fetch_full(model.ref_of(oid)) == small_stations[oid]

    def test_fetch_by_key_matches_source(self, loaded_model, small_stations):
        oid = 11
        fetched = loaded_model.fetch_full_by_key(key_of_oid(oid))
        assert fetched == small_stations[oid]

    def test_fetch_by_unknown_key_raises(self, loaded_model):
        from repro.errors import InvalidAddressError

        with pytest.raises(InvalidAddressError):
            loaded_model.fetch_full_by_key(999_999)

    def test_scan_all_counts_objects(self, loaded_model, small_stations):
        assert loaded_model.scan_all() == len(small_stations)


class TestNavigationEquivalence:
    def test_refs_match_generated_children(self, loaded_model, small_stations):
        from repro.benchmark.generator import child_oids

        model = loaded_model
        for oid in (0, 5, 23):
            expected = child_oids(small_stations[oid])
            got = model.fetch_refs([model.ref_of(oid)])
            if model.name.startswith("NSM"):
                assert sorted(got) == sorted(key_of_oid(o) for o in expected)
            else:
                assert sorted(got) == sorted(expected)

    def test_roots_match_generated_atoms(self, loaded_model, small_stations):
        model = loaded_model
        oids = [3, 9, 20]
        roots = model.fetch_roots([model.ref_of(oid) for oid in oids])
        got = {atoms["Key"] for atoms in roots}
        assert got == {key_of_oid(oid) for oid in oids}

    def test_empty_refs(self, loaded_model):
        """No refs: nothing returned, nothing changed, no page fixed
        (plain NSM does not scan)."""
        model = loaded_model
        grouped = model.fetch_refs_grouped if model.supports_oid_access else model.fetch_ref_pairs
        _assert_empty_refs_touch_nothing(model, grouped)

    def test_empty_refs_sharded(self, any_model_name, small_config, small_stations):
        model = build_sharded(small_config, small_stations, any_model_name, 3, "hash")
        _assert_empty_refs_touch_nothing(model)


def _assert_empty_refs_touch_nothing(model, *reads) -> None:
    model.engine.restart_buffer()
    model.engine.reset_metrics()
    before = model.engine.metrics.snapshot()
    for read in (model.fetch_refs, model.fetch_roots, *reads):
        assert read([]) == []
        assert model.engine.metrics.snapshot() == before, read.__name__
    model.update_roots([], {"Name": "nobody"})
    model.engine.flush()
    assert model.engine.metrics.snapshot() == before


class TestUpdateEquivalence:
    def test_update_visible_through_all_paths(self, any_model_name, small_stations):
        model = build_loaded_model(any_model_name, small_stations)
        oid = 4
        ref = model.ref_of(oid)
        model.update_roots([ref], {"Name": "renamed"})
        # by key (always supported)
        assert model.fetch_full_by_key(key_of_oid(oid))["Name"] == "renamed"
        # by OID where supported
        if model.supports_oid_access:
            assert model.fetch_full(ref)["Name"] == "renamed"

    def test_update_preserves_structure(self, any_model_name, small_stations):
        model = build_loaded_model(any_model_name, small_stations)
        oid = 13
        before = small_stations[oid]
        model.update_roots([model.ref_of(oid)], {"NoSeeing": 99})
        after = model.fetch_full_by_key(key_of_oid(oid))
        assert after["NoSeeing"] == 99
        assert after.subtuples("Platform") == before.subtuples("Platform")
        assert after.subtuples("Sightseeing") == before.subtuples("Sightseeing")

    def test_update_survives_flush_and_cold_read(self, any_model_name, small_stations):
        model = build_loaded_model(any_model_name, small_stations)
        oid = 8
        model.update_roots([model.ref_of(oid)], {"Name": "durable"})
        model.engine.restart_buffer()  # flush + drop cache
        assert model.fetch_full_by_key(key_of_oid(oid))["Name"] == "durable"

    def test_set_oriented_update(self, any_model_name, small_stations):
        model = build_loaded_model(any_model_name, small_stations)
        oids = [1, 2, 3, 2, 1]  # duplicates must be harmless
        model.update_roots([model.ref_of(o) for o in oids], {"Name": "batch"})
        for oid in {1, 2, 3}:
            assert model.fetch_full_by_key(key_of_oid(oid))["Name"] == "batch"


class TestModelProtocol:
    def test_nsm_rejects_oid_access(self, small_stations):
        model = build_loaded_model("NSM", small_stations)
        assert not model.supports_oid_access
        with pytest.raises(UnsupportedOperationError):
            model.fetch_full(0)

    def test_double_load_rejected(self, any_model_name, small_stations):
        from repro.errors import ModelError

        model = build_loaded_model(any_model_name, small_stations)
        with pytest.raises(ModelError):
            model.load(small_stations)

    def test_relation_pages_positive(self, loaded_model):
        pages = loaded_model.relation_pages()
        assert loaded_model.total_pages() == sum(pages.values())
        assert loaded_model.total_pages() > 0

    def test_all_refs_length(self, loaded_model, small_stations):
        assert len(loaded_model.all_refs()) == len(small_stations)

    def test_nsm_family_uses_keys_as_refs(self, small_stations):
        for name in ("NSM", "NSM+index"):
            model = build_loaded_model(name, small_stations)
            assert model.ref_of(0) == key_of_oid(0)

    def test_direct_models_use_oids_as_refs(self, small_stations):
        for name in ("DSM", "DASDBS-DSM", "DASDBS-NSM"):
            model = build_loaded_model(name, small_stations)
            assert model.ref_of(0) == 0
