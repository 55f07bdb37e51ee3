"""Trusted assembly is indistinguishable from validated assembly.

The models reassemble objects through ``NestedTuple._from_trusted``: the
per-tuple validation of the public constructor is replaced by one proof
per storage schema (``require_projection``, run when the model module is
imported).  These tests hold the fast path to the slow path's contract:
every assembled object equals the generated one, rebuilds unchanged
through the validating constructor, and shares no mutable state with
the next fetch — in every state a model can be in.

The same proofs license the opposite direction, ``_store`` relabelling a
validated Station's parts as rows of the storage schemas; there the
contract is: trusted rows equal validated rows, encode to the same
bytes, and load to the same disk image.
"""

from __future__ import annotations

import pytest

from repro.benchmark.schema import (
    CONNECTION_SCHEMA,
    PLATFORM_SCHEMA,
    STATION_SCHEMA,
    key_of_oid,
)
from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.generator import generate_stations
from repro.benchmark.snapshots import SnapshotStore
from repro.errors import SchemaError
from repro.models import dasdbs_nsm, nsm
from repro.models.dasdbs_nsm import DASDBSNSMModel
from repro.models.nsm import NSM_PLATFORM, NSMModelBase
from repro.nf2.schema import (
    Attribute,
    AttributeType,
    RelationSchema,
    int_attr,
    require_projection,
    str_attr,
)
from repro.nf2.values import NestedTuple
from tests.conftest import build_loaded_model
from tests.fuzz.conftest import fuzz_seeds
from tests.sharding.conftest import disk_digest

UPDATED_OIDS = (2, 11, 30)
CHANGES = {"Name": "renamed", "NoSeeing": 99}


def revalidated(value: NestedTuple) -> NestedTuple:
    """``value`` rebuilt, at every level, by the validating constructor."""
    return NestedTuple(
        value.schema,
        value.atoms(),
        {
            sub.name: [revalidated(child) for child in value.subtuples(sub.name)]
            for sub in value.schema.subrelations
        },
    )


def _fresh(name, stations, config):
    return build_loaded_model(name, stations), list(stations)


def _updated(name, stations, config):
    model = build_loaded_model(name, stations)
    model.update_roots([model.ref_of(oid) for oid in UPDATED_OIDS], CHANGES)
    expected = list(stations)
    for oid in UPDATED_OIDS:
        expected[oid] = expected[oid].replace_atoms(**CHANGES)
    return model, expected


def _reclustered(name, stations, config):
    model = build_loaded_model(name, stations)
    model.recluster(list(reversed(range(len(stations)))))
    return model, list(stations)


def _cloned(name, stations, config):
    store = SnapshotStore()
    snapshot = store.get(config, name, lambda: stations)
    return store.clone(snapshot, config), list(stations)


STATES = {
    "fresh": _fresh,
    "updated": _updated,
    "reclustered": _reclustered,
    "snapshot-clone": _cloned,
}


@pytest.fixture(params=sorted(STATES))
def model_and_expected(request, any_model_name, small_stations, small_config):
    model, expected = STATES[request.param](any_model_name, small_stations, small_config)
    yield model, expected
    model.engine.close()


def _fetchers(model):
    """Every single-object access path the model supports."""
    paths = [lambda oid: model.fetch_full_by_key(key_of_oid(oid))]
    if model.supports_oid_access:
        paths.append(lambda oid: model.fetch_full(model.ref_of(oid)))
    return paths


class TestAssembledObjects:
    def test_every_access_path_returns_the_generated_object(self, model_and_expected):
        model, expected = model_and_expected
        for fetch in _fetchers(model):
            for oid, station in enumerate(expected):
                got = fetch(oid)
                assert got == station
                assert got.schema is STATION_SCHEMA
                assert revalidated(got) == got

    def test_scan_assembles_the_generated_objects(self, model_and_expected, monkeypatch):
        model, expected = model_and_expected
        # The scan discards what it assembles; record it on the way out.
        seam = "_assemble" if hasattr(model, "_assemble") else "_decode_sections"
        assemble = getattr(model, seam)
        assembled = []

        def recording(*parts):
            assembled.append(assemble(*parts))
            return assembled[-1]

        monkeypatch.setattr(model, seam, recording)
        assert model.scan_all() == len(expected)
        by_key = {station["Key"]: station for station in expected}
        assert assembled  # every model stores some object through the seam
        for got in assembled:
            assert got == by_key[got["Key"]]
            assert revalidated(got) == got

    def test_children_carry_the_nested_schemas(self, model_and_expected):
        model, _ = model_and_expected
        got = model.fetch_full_by_key(key_of_oid(7))
        for platform in got.subtuples("Platform"):
            assert platform.schema is PLATFORM_SCHEMA
            for connection in platform.subtuples("Connection"):
                assert connection.schema is CONNECTION_SCHEMA

    def test_fetches_share_no_mutable_state(self, model_and_expected):
        model, expected = model_and_expected
        oid = next(
            oid
            for oid, station in enumerate(expected)
            if any(p.subtuples("Connection") for p in station.subtuples("Platform"))
        )
        for fetch in _fetchers(model):
            first = fetch(oid)
            # Vandalise every mutable container of the first result.
            for platform in first._subs["Platform"]:
                platform._subs["Connection"].clear()
                platform._atoms["Information"] = "scribbled"
            first._subs["Platform"].clear()
            first._subs["Sightseeing"].append(first)
            first._atoms["Name"] = "scribbled"
            assert fetch(oid) == expected[oid]


class TestProjectionProof:
    """The once-per-schema proof that stands in for per-tuple validation."""

    KEYS = ("RootKey", "OwnKey")

    def _variant(self, *attributes: Attribute) -> RelationSchema:
        return RelationSchema.flat("Variant", int_attr("RootKey"), int_attr("OwnKey"), *attributes)

    def _prove(self, storage: RelationSchema) -> None:
        require_projection(storage, PLATFORM_SCHEMA, self.KEYS, (CONNECTION_SCHEMA,))

    def test_accepts_the_real_storage_schema(self):
        self._prove(NSM_PLATFORM)
        self._prove(self._variant(*PLATFORM_SCHEMA.attributes))

    def test_rejects_a_renamed_attribute(self):
        nr, no_line, ticket, info = PLATFORM_SCHEMA.attributes
        with pytest.raises(SchemaError):
            self._prove(self._variant(nr, int_attr("Lines"), ticket, info))

    def test_rejects_a_resized_attribute(self):
        nr, no_line, ticket, _ = PLATFORM_SCHEMA.attributes
        with pytest.raises(SchemaError):
            self._prove(self._variant(nr, no_line, ticket, str_attr("Information", 64)))

    def test_rejects_a_retyped_attribute(self):
        nr, no_line, _, info = PLATFORM_SCHEMA.attributes
        retyped = Attribute("TicketCode", AttributeType.LINK)
        with pytest.raises(SchemaError):
            self._prove(self._variant(nr, no_line, retyped, info))

    def test_rejects_reordered_attributes(self):
        nr, no_line, ticket, info = PLATFORM_SCHEMA.attributes
        with pytest.raises(SchemaError):
            self._prove(self._variant(no_line, nr, ticket, info))

    def test_rejects_a_missing_or_extra_attribute(self):
        nr, no_line, ticket, info = PLATFORM_SCHEMA.attributes
        with pytest.raises(SchemaError):
            self._prove(self._variant(nr, no_line, ticket))
        with pytest.raises(SchemaError):
            self._prove(self._variant(nr, no_line, ticket, info, int_attr("Extra")))

    def test_rejects_an_unknown_key_column(self):
        with pytest.raises(SchemaError):
            require_projection(
                NSM_PLATFORM, PLATFORM_SCHEMA, ("RootKey", "NoSuchKey"), (CONNECTION_SCHEMA,)
            )

    def test_rejects_the_wrong_children(self):
        with pytest.raises(SchemaError):
            require_projection(NSM_PLATFORM, PLATFORM_SCHEMA, self.KEYS)
        with pytest.raises(SchemaError):
            require_projection(NSM_PLATFORM, PLATFORM_SCHEMA, self.KEYS, (PLATFORM_SCHEMA,))


# -- the load path: relabelled rows == validated rows ------------------------------------


def _validated_nsm_store(self, station):
    """``NSMModelBase._store`` through the validating constructor."""
    key = station["Key"]
    rids = [[self._insert(self.stations, NestedTuple(nsm.NSM_STATION, station.atoms()))], [], [], []]
    for own_key, platform in enumerate(station.subtuples("Platform")):
        row = NestedTuple(
            nsm.NSM_PLATFORM, {"RootKey": key, "OwnKey": own_key, **platform.atoms()}
        )
        rids[1].append(self._insert(self.platforms, row))
        for connection in platform.subtuples("Connection"):
            row = NestedTuple(
                nsm.NSM_CONNECTION,
                {"RootKey": key, "ParentKey": own_key, **connection.atoms()},
            )
            rids[2].append(self._insert(self.connections, row))
    for sight in station.subtuples("Sightseeing"):
        row = NestedTuple(nsm.NSM_SIGHTSEEING, {"RootKey": key, **sight.atoms()})
        rids[3].append(self._insert(self.sightseeings, row))
    return tuple(tuple(part) for part in rids)


def _validated_dasdbs_nsm_store(self, station):
    """``DASDBSNSMModel._store`` through the validating constructor."""
    key = station["Key"]
    platforms = station.subtuples("Platform")
    pl = NestedTuple(
        dasdbs_nsm.DNSM_PLATFORM,
        {"RootKey": key},
        {
            "PlatformOfStation": [
                NestedTuple(dasdbs_nsm._PLATFORM_ITEM, {"OwnKey": i, **p.atoms()})
                for i, p in enumerate(platforms)
            ]
        },
    )
    groups = [
        NestedTuple(
            dasdbs_nsm._CONNECTION_GROUP,
            {"ParentKey": i},
            {
                "ConnectionOfPlatform": [
                    NestedTuple(dasdbs_nsm._CONNECTION_ITEM, c.atoms())
                    for c in platform.subtuples("Connection")
                ]
            },
        )
        for i, platform in enumerate(platforms)
    ]
    co = NestedTuple(
        dasdbs_nsm.DNSM_CONNECTION, {"RootKey": key}, {"ConnectionsOfPlatform": groups}
    )
    si = NestedTuple(
        dasdbs_nsm.DNSM_SIGHTSEEING,
        {"RootKey": key},
        {
            "SightseeingOfStation": [
                NestedTuple(dasdbs_nsm._SIGHTSEEING_ITEM, s.atoms())
                for s in station.subtuples("Sightseeing")
            ]
        },
    )
    return (
        (self.stations.insert(NestedTuple(dasdbs_nsm.DNSM_STATION, station.atoms())),),
        (self.platforms.insert(pl),),
        (self.connections.insert(co),),
        (self.sightseeings.insert(si),),
    )


#: model name -> (class owning ``_store``, its validated reference)
VALIDATED_STORES = {
    "NSM": (NSMModelBase, _validated_nsm_store),
    "NSM+index": (NSMModelBase, _validated_nsm_store),
    "DASDBS-NSM": (DASDBSNSMModel, _validated_dasdbs_nsm_store),
}


def _loaded_recording_rows(name, stations):
    """A loaded model and every row its ``_store`` wrote, in order."""
    model = build_loaded_model(name, [])
    rows = []

    def recording(insert):
        def wrapper(*args):  # (value) of a store, (heap, row) of ``_insert``
            rows.append((args[-1], model.serializer.encode_nested(args[-1])))
            return insert(*args)

        return wrapper

    if name == "DASDBS-NSM":
        for relation in model.table.relations:
            relation.insert = recording(relation.insert)
    else:
        model._insert = recording(model._insert)
    model.load(stations)
    return model, rows


@pytest.mark.parametrize("name", sorted(VALIDATED_STORES))
@pytest.mark.parametrize("seed", fuzz_seeds()[:3])
def test_trusted_store_equals_validated_store(monkeypatch, name, seed):
    stations = generate_stations(
        BenchmarkConfig(n_objects=40, max_sightseeing=5, probability=0.5, seed=seed)
    )
    trusted_model, trusted_rows = _loaded_recording_rows(name, stations)
    owner, validated_store = VALIDATED_STORES[name]
    monkeypatch.setattr(owner, "_store", validated_store)
    validated_model, validated_rows = _loaded_recording_rows(name, stations)

    assert len(trusted_rows) == len(validated_rows) > len(stations)
    for (trusted, trusted_bytes), (validated, validated_bytes) in zip(
        trusted_rows, validated_rows
    ):
        assert trusted == validated
        assert trusted.schema is validated.schema
        assert revalidated(trusted) == trusted
        assert trusted_bytes == validated_bytes
    assert disk_digest(trusted_model.engine) == disk_digest(validated_model.engine)


@pytest.mark.parametrize("name", ["DSM", "DASDBS-DSM", "NSM", "NSM+index", "DASDBS-NSM"])
def test_only_station_tuples_are_stored(name, small_stations):
    """What licenses the relabelling: ``insert_object`` takes nothing
    but a (validated) Station."""
    model = build_loaded_model(name, small_stations[:3])
    digest = disk_digest(model.engine)
    platform = next(s for s in small_stations if s.subtuples("Platform")).subtuples("Platform")[0]
    with pytest.raises(SchemaError, match="Station"):
        model.insert_object(platform)
    assert disk_digest(model.engine) == digest
