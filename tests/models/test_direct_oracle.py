"""Differential oracle for the direct models' rule-derived layout.

DSM and DASDBS-DSM cut a long object into sections by the schema
(section 0 the root's flat part, one per sub-relation after it), find
the references navigation reads with ``links``/``links_of``, and share
one value selection.  The specification is the Station-shaped code they
replaced, kept in ``tests/models/reference_direct.py``.  Every test runs
one operation on two twin models — one through the model, one through
the reference — over an extension of small (shared-page) and long
objects, and requires equal results and an equal
:class:`MetricsSnapshot` after every operation, in every state a model
can be in.  The stored image itself is held to the reference cut.
"""

from __future__ import annotations

import pytest

from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.generator import generate_stations
from repro.benchmark.schema import key_of_oid
from repro.benchmark.snapshots import SnapshotStore
from repro.errors import InvalidAddressError
from repro.nf2.oid import Rid
from tests.conftest import build_loaded_model
from tests.models.reference_direct import encode_sections, reference
from tests.sharding.conftest import disk_digest

NAMES = ("DSM", "DASDBS-DSM")
#: A buffer smaller than the extension: reads miss and evict.
CONFIG = BenchmarkConfig(n_objects=120, buffer_pages=96, seed=11)
UPDATED_OIDS = (2, 11, 30, 119)
CHANGES = {"Name": "renamed", "NoSeeing": 99}
DELETED_OIDS = (0, 7, 60)


@pytest.fixture(scope="module")
def stations():
    return generate_stations(CONFIG)


def _fresh(name, stations):
    return build_loaded_model(name, stations, CONFIG.buffer_pages)


def _updated(name, stations):
    model = _fresh(name, stations)
    model.update_roots([model.ref_of(oid) for oid in UPDATED_OIDS], CHANGES)
    return model


def _reclustered(name, stations):
    model = _fresh(name, stations)
    model.recluster(list(reversed(range(len(stations)))))
    return model


def _cloned(name, stations):
    store = SnapshotStore()
    return store.clone(store.get(CONFIG, name, lambda: stations), CONFIG)


def _deleted(name, stations):
    model = _fresh(name, stations)
    for oid in DELETED_OIDS:
        model.delete_object(model.ref_of(oid))
    return model


STATES = {
    "fresh": _fresh,
    "updated": _updated,
    "reclustered": _reclustered,
    "snapshot-clone": _cloned,
    "after-delete": _deleted,
}


@pytest.fixture
def twins():
    """``make(name, state)`` -> (model, reference twin); closed after."""
    made = []

    def make(name, state, stations):
        pair = tuple(STATES[state](name, stations) for _ in range(2))
        made.extend(pair)
        return pair

    yield make
    for model in made:
        model.engine.close()


def run_both(pair, operation, *args):
    """``operation`` on the model and the reference on its twin: the
    result, or the error type, and the counters after must agree."""
    model, twin = pair
    outcomes = []
    for side in (
        lambda: getattr(model, operation)(*args),
        lambda: reference(twin, operation, *args),
    ):
        try:
            outcomes.append(side())
        except Exception as exc:  # compared, not swallowed
            outcomes.append(type(exc))
    if operation == "scan_all" and not isinstance(outcomes[1], type):
        outcomes[1] = len(outcomes[1])
    assert outcomes[0] == outcomes[1]
    assert model.engine.metrics.snapshot() == twin.engine.metrics.snapshot()
    return outcomes[0]


def test_the_extension_mixes_small_and_long_objects(twins, stations):
    model, _ = twins("DSM", "fresh", stations)
    kinds = {type(model.table.row(oid)[0][0]) is Rid for oid in model.table.live_oids()}
    assert kinds == {True, False}


@pytest.mark.parametrize("state", sorted(STATES))
@pytest.mark.parametrize("name", NAMES)
def test_every_access_path_equals_the_reference(twins, stations, name, state):
    model, _ = pair = twins(name, state, stations)
    live = model.table.live_oids()
    refs = [model.ref_of(oid) for oid in live]
    for ref in refs:
        run_both(pair, "fetch_full", ref)
    for oid in live[::15]:
        run_both(pair, "fetch_full_by_key", key_of_oid(oid))
    # Navigation follows references to live objects only.
    children = [ref for ref in run_both(pair, "fetch_refs", refs[:40]) if ref in refs]
    assert children
    grand = [ref for ref in run_both(pair, "fetch_refs", model._dedupe(children)) if ref in refs]
    run_both(pair, "fetch_refs_grouped", refs[40:80] + refs[:3])
    run_both(pair, "fetch_roots", refs[::2] + model._dedupe(grand))
    assert run_both(pair, "scan_all") == len(live)
    # A deleted object is refused by every path, counters alike.
    for oid in DELETED_OIDS if state == "after-delete" else ():
        assert run_both(pair, "fetch_full", oid) is InvalidAddressError
        assert run_both(pair, "fetch_full_by_key", key_of_oid(oid)) is InvalidAddressError
        assert run_both(pair, "fetch_refs", [oid]) is InvalidAddressError
        assert run_both(pair, "fetch_roots", [oid]) is InvalidAddressError


@pytest.mark.parametrize("name", NAMES)
def test_the_stored_image_is_the_reference_cut(name, stations):
    """Each long object's sections are the hand-cut three, and a model
    loaded through the reference cut has the same disk image."""
    model = _fresh(name, stations)
    longs = 0
    for oid in model.table.live_oids():
        handle = model.table.row(oid)[0][0]
        if type(handle) is not Rid:
            stored = model.relations[0].long_store.read(handle)
            assert stored == encode_sections(model, stations[oid])
            longs += 1
    assert longs
    twin = build_loaded_model(name, [], CONFIG.buffer_pages)
    twin.relations[0].sections = lambda station: encode_sections(twin, station)
    twin.load(stations)
    assert disk_digest(model.engine) == disk_digest(twin.engine)
    assert model.relation_pages() == twin.relation_pages()
