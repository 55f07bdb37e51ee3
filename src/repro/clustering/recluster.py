"""Trace-driven reorganisation: train from the trace, rewrite the layout.

Both placements read only per-object heat and co-access affinity, the
usage-plus-links statistic of DSTC-style clustering.  Both are
functions of the trace and of the extension's reference graph, so
training needs no replay:

1. :func:`access_stats` walks the trace over the graph built from
   :func:`~repro.benchmark.generator.child_oids`, touching what the
   executor's operations touch;
2. :func:`~repro.clustering.placement.placement_order` turns the
   statistics into an object permutation;
3. :func:`recluster_model` applies the trace's root writes, the only
   part of a replay that changes the stored image, then
   :meth:`~repro.models.base.StorageModel.recluster` rewrites the
   model's shared-page segments into the new order, preserving every
   record id through forwarding maps.

The trained image is the one a full training replay leaves behind.
Callers re-arm the buffer and zero the counters before measuring, so
reorganisation cost never leaks into a reported metric.  Everything is
deterministic, which is what lets the benchmark snapshot store cache
reclustered extensions and serve bit-identical clones (see
:meth:`repro.benchmark.snapshots.SnapshotStore.get_reclustered`).
"""

from __future__ import annotations

from typing import Sequence

from repro.benchmark.generator import child_oids
from repro.benchmark.workload import OP_KINDS, WorkloadTrace
from repro.clustering.placement import placement_order, validate_policy
from repro.clustering.stats import AccessStats
from repro.errors import BenchmarkError
from repro.models.base import StorageModel
from repro.nf2.values import NestedTuple


def access_stats(trace: WorkloadTrace, stations: Sequence[NestedTuple]) -> AccessStats:
    """Heat and affinity of ``trace`` over the extension ``stations``.

    A point or update touches its object; a navigation touches the
    root, then its children, then their children, in the order
    :func:`~repro.benchmark.workload.navigate` fetches them (the order
    decides which objects fall under the affinity pair cap); a scan
    touches everything.  The statistics are sized by the extension, not
    the trace: navigations reach objects the trace never targets, and
    the placement must order every object.
    """
    for kind in trace.op_counts():
        if kind not in OP_KINDS:
            raise BenchmarkError(
                f"cannot train a placement on {kind!r} operations "
                f"(trainable kinds: {', '.join(OP_KINDS)})"
            )
    graph = [child_oids(station) for station in stations]
    stats = AccessStats(len(stations))
    for op in trace.ops:
        kind = op.kind
        if kind == "navigate":
            # record_operation keeps each object's first occurrence:
            # the order navigate fetches in, each level de-duplicated.
            children = graph[op.oid]
            stats.record_operation(
                [op.oid, *children, *(oid for child in children for oid in graph[child])]
            )
        elif kind == "scan":
            stats.record_scan()
        else:
            stats.record_operation((op.oid,))
    return stats


def recluster_model(
    model: StorageModel,
    trace: WorkloadTrace,
    policy: str,
    stations: Sequence[NestedTuple],
) -> AccessStats:
    """Train on ``trace``, then rewrite ``model`` into the new placement.

    ``stations`` is the extension ``model`` was loaded from: its
    reference graph is what the training walk follows.  Returns the
    statistics (the experiment modules report their digests).
    ``policy`` must be an *active* policy ("affinity" or "hotcold");
    ``"none"`` is rejected rather than silently trained: an
    insertion-order baseline needs no training, so callers skip the
    call (which is what :meth:`~repro.benchmark.runner.BenchmarkRunner.
    build_model_for_trace` does).  An extension of another size, a
    trace larger than the model or one holding the paper queries'
    ``key``/``navigate_update`` kinds is refused before anything is
    written.
    """
    validate_policy(policy)
    if policy == "none":
        raise BenchmarkError(
            "recluster_model needs an active placement policy; "
            "'none' keeps the loaded layout — skip the call instead"
        )
    if len(stations) != model.n_objects:
        raise BenchmarkError(
            f"training graph has {len(stations)} objects but {model.name} "
            f"holds {model.n_objects}"
        )
    if trace.n_objects > model.n_objects:
        raise BenchmarkError(
            f"trace targets {trace.n_objects} objects but {model.name} "
            f"holds only {model.n_objects}"
        )
    stats = access_stats(trace, stations)
    engine = model.engine
    engine.restart_buffer()
    engine.reset_metrics()
    for index, op in enumerate(trace.ops):
        if op.kind == "update":
            model.update_roots([model.ref_of(op.oid)], {"Name": f"workload-{index}"})
    engine.flush()
    model.recluster(placement_order(policy, stats))
    return stats
