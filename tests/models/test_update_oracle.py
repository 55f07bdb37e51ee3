"""``update_roots`` by byte patch == ``update_roots`` by value round trip.

The end-to-end checksums hash counters, not page bytes; this is the
oracle for the bytes.  Two clones of one snapshot replay the same seeded
update trace — one through the model's ``update_roots`` (the byte patch
of ``NF2Serializer.compile_patch``), one through the value round trip in
``reference_updates`` — and after *every* batch the flushed disk image
and the counter snapshot must be equal: same bytes, same fixes, same
I/O calls (DASDBS-DSM's write-through ones included), over the memory,
file and mmap backends, with a buffer small enough that dirty pages are
evicted and written back mid-trace.

A change ``update_roots`` must refuse — an unknown attribute, a value
of the wrong type or size, the identifying ``Key`` — is refused with the
same typed error on all five models and the sharded facade, before any
page is fixed.
"""

from __future__ import annotations

import random

import pytest

from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.generator import generate_stations
from repro.benchmark.schema import key_of_oid
from repro.benchmark.snapshots import SnapshotStore
from repro.errors import ModelError, SchemaError, SerializationError
from repro.models.registry import MODEL_CLASSES
from repro.nf2.oid import Rid
from tests.conftest import build_loaded_model
from tests.fuzz.conftest import fuzz_seeds
from tests.fuzz.test_serializer_fuzz import _random_string
from tests.models.reference_updates import reference_update_roots
from tests.sharding.conftest import build_sharded, disk_digest

ALL_MODELS = tuple(MODEL_CLASSES)

#: Mixed small/long objects (DSM: 36 heap records + 24 long objects)
#: behind a buffer a fraction of the data's size.
CONFIG = BenchmarkConfig(n_objects=60, max_sightseeing=5, probability=0.5, buffer_pages=12)


@pytest.fixture(scope="module")
def stations():
    return generate_stations(CONFIG)


@pytest.fixture(scope="module")
def store():
    return SnapshotStore()


def _clone_pair(store, stations, name, backend, tmp_path):
    snapshot = store.get(CONFIG, name, lambda: stations)
    config = CONFIG.with_changes(backend=backend)
    return [
        store.clone(
            snapshot,
            config,
            backend_path=None if backend == "memory" else str(tmp_path / f"{role}.pages"),
        )
        for role in ("patched", "reference")
    ]


def _random_batch(rng: random.Random, model, n_objects: int):
    refs = [model.ref_of(rng.randrange(n_objects)) for _ in range(rng.randint(0, 6))]
    refs += rng.sample(refs, rng.randint(0, len(refs)))  # duplicate refs
    changes = {}
    if rng.random() < 0.7:
        changes["Name"] = _random_string(rng, 100)
    if rng.random() < 0.5:
        changes["NoSeeing"] = rng.choice((0, -(2**31), 2**31 - 1, rng.randint(-99, 99)))
    if rng.random() < 0.3:
        changes["NoPlatform"] = rng.randint(0, 9)
    return refs, changes


@pytest.mark.parametrize("backend", ["memory", "file", "mmap"])
@pytest.mark.parametrize("name", ALL_MODELS)
@pytest.mark.parametrize("seed", fuzz_seeds()[:3])
def test_patched_updates_equal_value_round_trip(store, stations, tmp_path, name, backend, seed):
    patched, reference = _clone_pair(store, stations, name, backend, tmp_path)
    try:
        if name in ("DSM", "DASDBS-DSM"):
            kinds = {type(patched._handle(oid)) is Rid for oid in range(len(stations))}
            assert kinds == {True, False}  # heap-resident and long objects
        rng = random.Random(seed)
        expected = list(stations)
        for _ in range(12):
            refs, changes = _random_batch(rng, patched, len(stations))
            patched.update_roots(refs, changes)
            reference_update_roots(reference, refs, changes)
            assert patched.engine.metrics.snapshot() == reference.engine.metrics.snapshot()
            assert disk_digest(patched.engine) == disk_digest(reference.engine)
            for oid in {patched.oid_of(ref) for ref in refs}:
                expected[oid] = expected[oid].replace_atoms(**changes)
            probe = refs[:2]
            assert patched.fetch_roots(probe) == reference.fetch_roots(probe)
        for oid, station in enumerate(expected):
            assert patched.fetch_full_by_key(key_of_oid(oid)) == station
    finally:
        patched.engine.close()
        reference.engine.close()


# -- refusals -------------------------------------------------------------------------

REFUSED = {
    "key": ({"Name": "fine", "Key": 999_999}, ModelError),
    "unknown-attribute": ({"Name": "fine", "Nope": 1}, SchemaError),
    "mistyped": ({"NoSeeing": "seven"}, SerializationError),
    "over-long": ({"Name": "x" * 101}, SerializationError),
    "out-of-range": ({"NoSeeing": 2**31}, SerializationError),
}


@pytest.mark.parametrize("bad", sorted(REFUSED))
@pytest.mark.parametrize("name", ALL_MODELS)
def test_refused_changes_touch_nothing(stations, name, bad):
    changes, error = REFUSED[bad]
    model = build_loaded_model(name, stations, buffer_pages=CONFIG.buffer_pages)
    digest = disk_digest(model.engine)
    model.engine.buffer.clear()
    before = model.engine.metrics.snapshot()
    refs = [model.ref_of(oid) for oid in (3, 41, 3)]
    with pytest.raises(error):
        model.update_roots(refs, changes)
    with pytest.raises(error):
        model.update_roots([], changes)
    assert model.engine.metrics.snapshot() == before  # not one page fixed
    assert disk_digest(model.engine) == digest
    assert model.fetch_full_by_key(key_of_oid(41)) == stations[41]


@pytest.mark.parametrize("bad", sorted(REFUSED))
@pytest.mark.parametrize("name", ALL_MODELS)
def test_sharded_facade_refuses_before_routing(stations, name, bad):
    changes, error = REFUSED[bad]
    facade = build_sharded(CONFIG, stations, name, n_shards=3, policy="hash")
    digests = [disk_digest(engine) for engine in facade.engine.engines]
    facade.engine.reset_metrics()
    refs = [facade.ref_of(oid) for oid in range(9)]
    with pytest.raises(error):
        facade.update_roots(refs, changes)
    assert facade.cross_shard_hops == 0
    assert all(
        engine.metrics.snapshot().page_fixes == 0 for engine in facade.engine.engines
    )
    assert [disk_digest(engine) for engine in facade.engine.engines] == digests
