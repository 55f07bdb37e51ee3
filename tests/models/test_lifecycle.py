"""Object lifecycle beyond the benchmark: incremental insert and delete."""

import pytest

from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.generator import generate_stations
from repro.benchmark.schema import key_of_oid
from repro.errors import InvalidAddressError
from repro.storage.longobj import LongObjectAddress
from tests.conftest import build_loaded_model

CFG = BenchmarkConfig(n_objects=30, seed=77)
EXTRA_CFG = BenchmarkConfig(n_objects=40, seed=78)


@pytest.fixture(scope="module")
def stations():
    return generate_stations(CFG)


@pytest.fixture(scope="module")
def extra_station():
    # An object generated outside the loaded extension; re-key it so it
    # continues the loaded OID sequence.
    candidate = generate_stations(EXTRA_CFG)[35]
    return candidate.replace_atoms(Key=key_of_oid(30))


ALL_MODELS = ["DSM", "DASDBS-DSM", "NSM", "NSM+index", "DASDBS-NSM"]


class TestInsert:
    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_insert_then_fetch(self, name, stations, extra_station):
        model = build_loaded_model(name, stations)
        oid = model.insert_object(extra_station)
        assert oid == 30
        assert model.fetch_full_by_key(extra_station["Key"]) == extra_station

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_insert_extends_scan(self, name, stations, extra_station):
        model = build_loaded_model(name, stations)
        model.insert_object(extra_station)
        assert model.scan_all() == len(stations) + 1

    @pytest.mark.parametrize("name", ["DSM", "NSM+index", "DASDBS-NSM"])
    def test_inserted_object_reachable_by_ref(self, name, stations, extra_station):
        model = build_loaded_model(name, stations)
        oid = model.insert_object(extra_station)
        assert model.fetch_full(model.ref_of(oid)) == extra_station

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_insert_survives_restart(self, name, stations, extra_station):
        model = build_loaded_model(name, stations)
        model.insert_object(extra_station)
        model.engine.restart_buffer()
        assert model.fetch_full_by_key(extra_station["Key"]) == extra_station


class TestDelete:
    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_delete_removes_from_scan(self, name, stations):
        model = build_loaded_model(name, stations)
        model.delete_object(model.ref_of(5))
        assert model.scan_all() == len(stations) - 1

    @pytest.mark.parametrize("name", ["DSM", "DASDBS-DSM", "NSM+index", "DASDBS-NSM"])
    def test_deleted_ref_raises(self, name, stations):
        model = build_loaded_model(name, stations)
        ref = model.ref_of(5)
        model.delete_object(ref)
        with pytest.raises(InvalidAddressError):
            model.fetch_full(ref)

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_deleted_key_not_found(self, name, stations):
        model = build_loaded_model(name, stations)
        model.delete_object(model.ref_of(5))
        with pytest.raises(InvalidAddressError):
            model.fetch_full_by_key(key_of_oid(5))

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_double_delete_raises(self, name, stations):
        model = build_loaded_model(name, stations)
        ref = model.ref_of(5)
        model.delete_object(ref)
        with pytest.raises(InvalidAddressError):
            model.delete_object(ref)

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_other_objects_unaffected(self, name, stations):
        model = build_loaded_model(name, stations)
        model.delete_object(model.ref_of(5))
        for oid in (4, 6, 29):
            assert model.fetch_full_by_key(key_of_oid(oid)) == stations[oid]

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_all_refs_excludes_deleted(self, name, stations):
        model = build_loaded_model(name, stations)
        ref = model.ref_of(7)
        model.delete_object(ref)
        assert ref not in model.all_refs()
        assert len(model.all_refs()) == len(stations) - 1

    def test_long_object_pages_freed(self, stations):
        """Deleting a multi-page object returns its private pages."""
        model = build_loaded_model("DSM", stations)
        long_oid = next(
            oid
            for oid in model.table.live_oids()
            if isinstance(model.table.row(oid)[0][0], LongObjectAddress)
        )
        before = model.engine.disk.allocated_pages
        model.delete_object(long_oid)
        assert model.engine.disk.allocated_pages < before

    def test_delete_then_insert_reuses_nothing_but_works(self, stations, extra_station):
        model = build_loaded_model("DASDBS-NSM", stations)
        model.delete_object(3)
        oid = model.insert_object(extra_station)
        assert model.fetch_full(oid) == extra_station
        assert model.scan_all() == len(stations)  # -1 deleted, +1 inserted


class TestKeyComesBack:
    """delete → insert an object carrying the deleted key → delete again.

    Plain NSM used to remember deleted keys forever: the second delete
    raised "has already been deleted" while the object was served, and
    ``all_refs`` omitted it.
    """

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_returning_key_is_live_and_deletable(self, name, stations, extra_station):
        model = build_loaded_model(name, stations)
        key = key_of_oid(5)
        model.delete_object(model.ref_of(5))
        returning = extra_station.replace_atoms(Key=key)
        oid = model.insert_object(returning)
        assert oid == len(stations)
        # The NSM family's references are keys, the others' are OIDs.
        ref = key if model.ref_of(0) != 0 else oid
        assert model.fetch_full_by_key(key) == returning
        assert model.fetch_roots([ref]) == [returning.atoms()]
        assert ref in model.all_refs()
        assert len(model.all_refs()) == len(stations)
        assert model.scan_all() == len(stations)

        model.delete_object(ref)
        with pytest.raises(InvalidAddressError):
            model.fetch_full_by_key(key)
        assert ref not in model.all_refs()
        assert model.scan_all() == len(stations) - 1
        with pytest.raises(InvalidAddressError):
            model.delete_object(ref)
