"""Shard-parity: a 1-shard facade is byte-identical to no facade at all.

The whole sharding layer hangs off one invariant: a shard is a full
replica running the canonical layout, so routing everything to a single
shard must reproduce the unsharded engine *exactly* — every counter and
every on-disk byte.  These tests pin that for all five storage models
over a mixed trace (points, navigation, scans, updates), which is what
licenses the runner's ``shards=1`` fast path: if the facade is
indistinguishable at one shard, skipping it cannot change output.
"""

import gc
import weakref

import pytest

from repro.benchmark.workload import WorkloadExecutor, WorkloadSpec, compile_trace
from tests.sharding.conftest import (
    MODEL_NAMES,
    PARITY_CONFIG,
    build_plain,
    build_sharded,
    counters,
    disk_digest,
)

#: A mixed trace touching every operation kind on a pressured buffer.
PARITY_SPEC = WorkloadSpec(
    name="parity",
    point_weight=0.4,
    navigate_weight=0.3,
    scan_weight=0.1,
    update_weight=0.2,
    n_ops=60,
    seed=1993,
)


@pytest.mark.parametrize("model_name", MODEL_NAMES)
def test_one_shard_facade_matches_plain_model(parity_stations, model_name):
    trace = compile_trace(PARITY_SPEC, PARITY_CONFIG.n_objects)
    plain = build_plain(PARITY_CONFIG, parity_stations, model_name)
    facade = build_sharded(
        PARITY_CONFIG, parity_stations, model_name, n_shards=1, policy="hash"
    )
    try:
        shadow = WorkloadExecutor(plain, trace).run()
        sharded = WorkloadExecutor(facade, trace).run()
        assert counters(sharded.raw) == counters(shadow.raw)
        assert sharded.op_counts == shadow.op_counts
        # The single shard never changes owner, so no hops are charged.
        assert facade.cross_shard_hops == 0
        # Byte-for-byte on disk: the replica ran the canonical layout.
        assert disk_digest(facade.engine.engines[0]) == disk_digest(
            plain.engine
        )
    finally:
        plain.engine.close()
        facade.engine.close()


@pytest.mark.parametrize("model_name", MODEL_NAMES)
@pytest.mark.parametrize("policy", ("hash", "range"))
def test_scan_counters_sum_exactly_across_shards(
    parity_stations, model_name, policy
):
    """Partitioned scans are disjoint and complete: summed counters over
    4 shards equal one unsharded scan, and so does the object count."""
    spec = WorkloadSpec(
        name="scan-only",
        point_weight=0.0,
        navigate_weight=0.0,
        scan_weight=1.0,
        update_weight=0.0,
        n_ops=4,
        seed=5,
    )
    trace = compile_trace(spec, PARITY_CONFIG.n_objects)
    plain = build_plain(PARITY_CONFIG, parity_stations, model_name)
    facade = build_sharded(
        PARITY_CONFIG, parity_stations, model_name, n_shards=4, policy=policy
    )
    try:
        shadow = WorkloadExecutor(plain, trace).run()
        sharded = WorkloadExecutor(facade, trace).run()
        assert counters(sharded.raw) == counters(shadow.raw)
        per_shard = facade.engine.shard_snapshots()
        rolled = counters(sum(per_shard[1:], per_shard[0]))
        assert rolled == counters(sharded.raw)
    finally:
        plain.engine.close()
        facade.engine.close()


@pytest.mark.parametrize("model_name", MODEL_NAMES)
def test_scatter_gather_results_match_shadow(parity_stations, model_name):
    """Stitched navigation and scans return exactly the shadow's data."""
    plain = build_plain(PARITY_CONFIG, parity_stations, model_name)
    facade = build_sharded(
        PARITY_CONFIG, parity_stations, model_name, n_shards=3, policy="hash"
    )
    try:
        assert facade.scan_all() == plain.scan_all()
        refs = [plain.ref_of(oid) for oid in range(0, PARITY_CONFIG.n_objects, 3)]
        assert facade.fetch_roots(refs) == plain.fetch_roots(refs)
        children = plain.fetch_refs(refs)
        assert facade.fetch_refs(refs) == children
        if children:
            assert facade.fetch_refs(children) == plain.fetch_refs(children)
        for oid in (0, 7, PARITY_CONFIG.n_objects - 1):
            if plain.supports_oid_access:
                ref = plain.ref_of(oid)
                assert facade.fetch_full(ref) == plain.fetch_full(ref)
            else:
                # Plain NSM stores no identifiers; point access is the
                # value selection, routed to the key's owner replica.
                from repro.benchmark.schema import key_of_oid

                key = key_of_oid(oid)
                assert facade.fetch_full_by_key(key) == plain.fetch_full_by_key(key)
    finally:
        plain.engine.close()
        facade.engine.close()


def test_closed_facade_is_freed_by_reference_counting(parity_stations):
    """Closing a sharded engine drops the facade's reset hook, so the
    facade and its replicas' frames go at once, not at the next full
    cyclic collection (replays building facades per trace would
    otherwise pile closed shard sets up in memory)."""
    facade = build_sharded(
        PARITY_CONFIG, parity_stations, "DSM", n_shards=2, policy="hash"
    )
    alive = weakref.ref(facade)
    gc.disable()
    try:
        facade.engine.close()
        del facade
        assert alive() is None
    finally:
        gc.enable()
