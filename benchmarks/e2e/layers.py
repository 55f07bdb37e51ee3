"""The layers the benchmark spans, and the metrics derived per layer.

Layers are this repository's modules.  ``layer_targets`` lists the
entry points of each one (the table of ``README.md``); the *shallow*
pass spans only one seam per workload operation (``operation_targets``)
so per-operation host latency is measured at well under 1 % overhead.
``layer_metrics`` turns one traced replay into the per-layer metrics of
``BENCHMARK.json``; every name is emitted on every workload, 0 where a
layer is idle, because an idle layer is a prediction the table makes.
"""

from __future__ import annotations

import math
from statistics import median

from tracer import Target, Tracer

#: Every spanned layer, in stack order (outermost first).
LAYERS = (
    "experiments.sweep",
    "benchmark.runner",
    "benchmark.snapshots",
    "benchmark.workload",
    "serving",
    "sharding",
    "models",
    "nf2",
    "storage.longobj",
    "storage.heap",
    "storage.buffer",
    "storage.disk",
    "storage.backends",
)

#: Extra per-layer metrics beside ``<layer>.self_s/.self_share/.calls``:
#: name -> unit.
EXTRA_METRICS = {
    "nf2.decode_us_per_call": "us",
    "nf2.bytes_decoded": "bytes",
    "models.point_p50_us": "us",
    "models.point_p99_us": "us",
    "models.point_samples": "count",
    "models.navigate_p50_us": "us",
    "models.navigate_p99_us": "us",
    "models.navigate_samples": "count",
    "models.update_p50_us": "us",
    "models.update_p99_us": "us",
    "models.update_samples": "count",
    "models.scan_p50_ms": "ms",
    "models.scan_samples": "count",
    "storage.heap.records_per_call": "records/call",
    "storage.buffer.hit_rate": "ratio",
    "storage.buffer.evictions": "count",
    "storage.buffer.misses": "count",
    "storage.buffer.us_per_fix": "us",
    "storage.disk.read_calls": "count",
    "storage.disk.write_calls": "count",
    "storage.disk.pages_per_call": "pages/call",
    "storage.backends.bytes_read": "bytes",
    "storage.backends.bytes_written": "bytes",
    "storage.backends.us_per_page": "us",
    "benchmark.workload.compile_s": "s",
    "benchmark.workload.dispatch_us_per_op": "us",
    "benchmark.snapshots.builds": "count",
    "benchmark.snapshots.clones": "count",
    "benchmark.snapshots.clone_ms_p50": "ms",
    "benchmark.snapshots.build_s": "s",
    "benchmark.runner.fixed_ms_per_replay": "ms",
    "experiments.sweep.cells": "count",
    "experiments.sweep.fixed_share": "ratio",
    "experiments.sweep.json_bytes": "bytes",
    "sharding.cross_shard_hops": "count",
    "sharding.us_per_op": "us",
    "sharding.replica_pages_total": "pages",
    "serving.us_per_request": "us",
    "serving.sim_p50_ms": "sim_ms",
    "serving.sim_p99_ms": "sim_ms",
    "serving.sim_rps": "sim_1/s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}


#: Per-layer metrics where more is better; every other one is a cost.
HIGHER_IS_BETTER = frozenset(
    {
        "storage.heap.records_per_call",
        "storage.buffer.hit_rate",
        "storage.disk.pages_per_call",
        "serving.sim_rps",
    }
)


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in ``BENCHMARK.json`` order."""
    units: dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.self_share"] = "ratio"
        units[f"{layer}.calls"] = "count"
    units.update(EXTRA_METRICS)
    return units


#: The model primitives the executors call (paper Section 4's access
#: operations); spanned wherever a model class defines one.
MODEL_PRIMITIVES = (
    "fetch_full",
    "fetch_full_by_key",
    "fetch_roots",
    "fetch_refs",
    "scan_all",
    "update_roots",
)


def _model_classes() -> list[type]:
    """Every concrete model class and the bases they inherit from."""
    from repro.models.base import StorageModel
    from repro.models.registry import MODEL_CLASSES

    classes: dict[type, None] = {}
    for cls in MODEL_CLASSES.values():
        for base in cls.__mro__:
            if issubclass(base, StorageModel) and base is not StorageModel:
                classes[base] = None
    return list(classes)


def _data_length(_self, _schema, data, start: int = 0) -> int:
    return len(data) - start


def layer_targets() -> list[Target]:
    """Every entry point of every layer (imports the package on call)."""
    import repro.benchmark.runner as runner_module
    import repro.benchmark.workload as workload_module
    import repro.experiments.sweep as sweep_module
    import repro.serving.server as server_module
    from repro.benchmark.runner import BenchmarkRunner
    from repro.benchmark.snapshots import SnapshotStore
    from repro.benchmark.workload import WorkloadExecutor
    from repro.experiments.sweep import SweepResult
    from repro.nf2.serializer import NF2Serializer
    from repro.serving.scheduler import (
        FIFOScheduler,
        PriorityScheduler,
        RoundRobinScheduler,
    )
    from repro.serving.server import ServingExecutor
    from repro.serving.session import Session
    from repro.sharding.model import ShardedModel
    from repro.sharding.router import ShardRouter
    from repro.storage.backends import FileBackend, MemoryBackend, MmapBackend
    from repro.storage.buffer import BufferManager
    from repro.storage.disk import SimulatedDisk
    from repro.storage.heap import HeapFile
    from repro.storage.longobj import LongObjectStore

    def spans(layer: str, owner: object, *attrs: str) -> list[Target]:
        return [Target(layer, owner, attr) for attr in attrs]

    targets = [
        Target("experiments.sweep", sweep_module, "run_sweep"),
        Target("experiments.sweep", SweepResult, "to_json"),
        *spans(
            "benchmark.runner",
            BenchmarkRunner,
            "build_model_for_trace",
            "run_trace",
            "run_trace_serving",
        ),
        *spans("benchmark.snapshots", SnapshotStore, "get", "clone"),
        Target("benchmark.workload", WorkloadExecutor, "run"),
        # ``compile_trace`` is a module function imported by name, so it
        # is spanned in every module that calls it during a replay.
        *(
            Target("benchmark.workload", module, "compile_trace")
            for module in (workload_module, runner_module, sweep_module, server_module)
        ),
        *spans("serving", ServingExecutor, "run", "_execute_granted"),
        *(
            Target("serving", scheduler, "order")
            for scheduler in (FIFOScheduler, RoundRobinScheduler, PriorityScheduler)
        ),
        Target("serving", Session, "next_operation"),
        *spans("sharding", ShardedModel, *MODEL_PRIMITIVES),
        Target("sharding", ShardRouter, "shard_of"),
        *(
            Target("models", cls, attr)
            for cls in _model_classes()
            for attr in MODEL_PRIMITIVES
        ),
        *spans(
            "nf2",
            NF2Serializer,
            "encode_flat",
            "encode_nested",
            "encode_subtuple_list",
            "decode_atom",
        ),
        # ``_decode_flat_part`` is private by name but a seam in fact:
        # the DSM models call it directly for root-only decodes.
        *(
            Target("nf2", NF2Serializer, attr, units=_data_length)
            for attr in (
                "decode_flat",
                "decode_nested",
                "decode_subtuple_list",
                "_decode_flat_part",
            )
        ),
        *spans(
            "storage.longobj",
            LongObjectStore,
            "read",
            "read_directory",
            "replace",
            "patch_section",
        ),
        *spans("storage.heap", HeapFile, "read", "scan", "scan_pages", "insert", "update"),
        Target("storage.heap", HeapFile, "read_many", units=lambda _self, rids: len(rids)),
        *spans(
            "storage.buffer",
            BufferManager,
            "fix",
            "fix_many",
            "fix_view",
            "view_of",
            "unfix",
            "page_data",
            "new_page",
            "write_through",
            "flush",
            "clear",
            "reset",
            "session_fix",
            "session_fix_view",
            "session_unfix",
            "release_session",
        ),
        *spans("storage.disk", SimulatedDisk, "read_pages", "write_pages", "allocate_many"),
        *(
            Target("storage.backends", backend, attr)
            for backend in (MemoryBackend, FileBackend, MmapBackend)
            for attr in ("read_run", "write_run", "allocate_run", "sync")
        ),
    ]
    return targets


def _operation_label(_self, op, _index) -> str:
    return f"op.{op.kind}"


def operation_targets() -> list[Target]:
    """One span per workload operation, for the shallow pass.

    The flat executor dispatches points and navigations through its own
    ``_point``/``_navigate`` and calls ``scan_all``/``update_roots`` on
    the model directly; the serving executor funnels every kind through
    ``_execute_op``.  Only top-level spans count as operations (a
    sharded ``update_roots`` fans out into its replicas' ones).
    """
    from repro.benchmark.workload import WorkloadExecutor
    from repro.serving.server import ServingExecutor
    from repro.sharding.model import ShardedModel

    targets = [
        Target("models", WorkloadExecutor, "_point", label=lambda *_: "op.point"),
        Target("models", WorkloadExecutor, "_navigate", label=lambda *_: "op.navigate"),
        Target("models", ServingExecutor, "_execute_op", label=_operation_label),
    ]
    for cls in (*_model_classes(), ShardedModel):
        targets.append(Target("models", cls, "scan_all", label=lambda *_: "op.scan"))
        targets.append(
            Target("models", cls, "update_roots", label=lambda *_a, **_k: "op.update")
        )
    return targets


# -- derivation ----------------------------------------------------------------


def _percentile(ordered: list[int], q: float) -> int:
    """Nearest-rank percentile of an ascending series."""
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def operation_metrics(tracer: Tracer) -> dict[str, float]:
    """Host latency per operation kind from the shallow pass.

    p99 is reported only where at least ten samples lie beyond it
    (1000 samples); otherwise it reads 0 and the sample count says why.
    """
    by_kind: dict[str, list[int]] = {}
    names, parents = tracer.span_name, tracer.span_parent
    starts, ends = tracer.span_start, tracer.span_end
    for index, name_id in enumerate(names):
        if parents[index] < 0:
            by_kind.setdefault(tracer.names[name_id], []).append(ends[index] - starts[index])
    out: dict[str, float] = {}
    for kind in ("point", "navigate", "update"):
        samples = sorted(by_kind.get(f"op.{kind}", ()))
        out[f"models.{kind}_samples"] = len(samples)
        out[f"models.{kind}_p50_us"] = _percentile(samples, 0.50) / 1e3 if samples else 0.0
        out[f"models.{kind}_p99_us"] = (
            _percentile(samples, 0.99) / 1e3 if len(samples) >= 1000 else 0.0
        )
    scans = sorted(by_kind.get("op.scan", ()))
    out["models.scan_samples"] = len(scans)
    out["models.scan_p50_ms"] = _percentile(scans, 0.50) / 1e6 if scans else 0.0
    return out


def layer_metrics(tracer: Tracer, traced_wall_s: float, outcome, setup) -> dict[str, float]:
    """Per-layer metrics of one fully traced replay.

    ``outcome`` is the replay's :class:`workloads.Outcome` (counters and
    the reports the layers themselves produce); ``setup`` the
    :class:`workloads.Prepared` whose build/compile times were taken
    directly, with tracing off.
    """
    by_name = tracer.by_name()
    by_layer = tracer.by_layer(by_name)
    out: dict[str, float] = {}
    for layer in LAYERS:
        stats = by_layer.get(layer)
        self_s = stats.self_ns / 1e9 if stats else 0.0
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.self_share"] = self_s / traced_wall_s
        out[f"{layer}.calls"] = stats.calls if stats else 0

    def self_us(layer: str) -> float:
        return out[f"{layer}.self_s"] * 1e6

    def total(field: str, *names: str) -> int:
        return sum(getattr(by_name[name], field) for name in names if name in by_name)

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    counters = outcome.counters
    ops = outcome.ops

    decodes = [stats for name, stats in by_name.items() if "decode" in name]
    out["nf2.decode_us_per_call"] = per(
        sum(stats.self_ns for stats in decodes) / 1e3, sum(stats.calls for stats in decodes)
    )
    out["nf2.bytes_decoded"] = by_layer["nf2"].units if "nf2" in by_layer else 0

    heap = by_layer.get("storage.heap")
    if heap:
        # Every heap call moves one record (a scan resumption yields
        # one), except read_many, which moves as many as it was given.
        batched = by_name.get("HeapFile.read_many")
        records = heap.calls + heap.units - (batched.calls if batched else 0)
        out["storage.heap.records_per_call"] = records / heap.calls
    else:
        out["storage.heap.records_per_call"] = 0.0

    out["storage.buffer.hit_rate"] = per(counters.buffer_hits, counters.page_fixes)
    out["storage.buffer.evictions"] = counters.evictions
    out["storage.buffer.misses"] = counters.buffer_misses
    out["storage.buffer.us_per_fix"] = per(self_us("storage.buffer"), counters.page_fixes)

    out["storage.disk.read_calls"] = counters.read_calls
    out["storage.disk.write_calls"] = counters.write_calls
    out["storage.disk.pages_per_call"] = per(counters.io_pages, counters.io_calls)

    out["storage.backends.bytes_read"] = counters.pages_read * outcome.page_size
    out["storage.backends.bytes_written"] = counters.pages_written * outcome.page_size
    out["storage.backends.us_per_page"] = per(self_us("storage.backends"), counters.io_pages)

    out["benchmark.workload.compile_s"] = setup.compile_s
    out["benchmark.workload.dispatch_us_per_op"] = per(
        total("self_ns", "WorkloadExecutor.run") / 1e3, ops
    )

    clone_ms = [d / 1e6 for d in tracer.durations_ns("SnapshotStore.clone")]
    out["benchmark.snapshots.builds"] = setup.builds
    out["benchmark.snapshots.clones"] = len(clone_ms)
    out["benchmark.snapshots.clone_ms_p50"] = median(clone_ms) if clone_ms else 0.0
    out["benchmark.snapshots.build_s"] = setup.build_s

    replay_names = ("BenchmarkRunner.run_trace", "BenchmarkRunner.run_trace_serving")
    replays = total("calls", *replay_names)
    replay_ns = total("inclusive_ns", *replay_names)
    executor_ns = total("inclusive_ns", "WorkloadExecutor.run", "ServingExecutor.run")
    out["benchmark.runner.fixed_ms_per_replay"] = per((replay_ns - executor_ns) / 1e6, replays)

    out["experiments.sweep.cells"] = outcome.cells
    out["experiments.sweep.fixed_share"] = (
        1.0 - executor_ns / 1e9 / traced_wall_s if outcome.cells else 0.0
    )
    out["experiments.sweep.json_bytes"] = outcome.json_bytes

    out["sharding.cross_shard_hops"] = outcome.cross_shard_hops
    out["sharding.us_per_op"] = per(self_us("sharding"), ops) if outcome.shards > 1 else 0.0
    out["sharding.replica_pages_total"] = setup.stored_pages if outcome.shards > 1 else 0

    serving = outcome.serving_stats
    out["serving.us_per_request"] = per(self_us("serving"), ops) if serving else 0.0
    out["serving.sim_p50_ms"] = median(s["latency_p50_ms"] for s in serving) if serving else 0.0
    out["serving.sim_p99_ms"] = median(s["latency_p99_ms"] for s in serving) if serving else 0.0
    out["serving.sim_rps"] = (
        median(s["requests_per_second"] for s in serving) if serving else 0.0
    )
    out["trace.spans"] = len(tracer)
    return out
