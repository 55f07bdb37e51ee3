"""Benchmark runner: generate once, load per model, measure per query.

The runner reproduces the measurement discipline of Section 5: every
storage model loads the *identical* generated extension, each query
starts with a cold buffer, queries 2b/3b keep the buffer warm across
their loops, and the metrics cover everything up to the final flush
("database disconnect").  Load I/O is excluded, as are all address-table
accesses (Section 5.1's accounting rules).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from repro.benchmark.config import BenchmarkConfig, DEFAULT_CONFIG
from repro.benchmark.snapshots import DEFAULT_STORE, ExtensionSnapshot
from repro.errors import BenchmarkError, ConfigError
from repro.benchmark.generator import generate_stations
from repro.benchmark.queries import QUERY_NAMES, QueryResult, QuerySuite
from repro.benchmark.stats import DatabaseStatistics
from repro.benchmark.workload import (
    WorkloadExecutor,
    WorkloadResult,
    WorkloadSpec,
    WorkloadTrace,
    compile_trace,
)
from repro.models.base import StorageModel
from repro.models.registry import MEASURED_MODELS, create_model
from repro.nf2.serializer import DASDBS_FORMAT, StorageFormat
from repro.nf2.values import NestedTuple
from repro.storage import StorageEngine
from repro.storage.buffer import ReferenceString


@dataclass
class ModelRun:
    """All measurements of one storage model on one extension."""

    model_name: str
    results: dict[str, QueryResult | None]
    relation_pages: dict[str, int]

    @property
    def total_pages(self) -> int:
        return sum(self.relation_pages.values())

    def metric(self, query: str, attribute: str) -> float | None:
        """Normalised metric value, or None if the query is unsupported."""
        result = self.results.get(query)
        if result is None:
            return None
        return getattr(result.normalized, attribute)


@dataclass
class BenchmarkRunner:
    """Runs query suites over storage models on one generated extension."""

    config: BenchmarkConfig = field(default_factory=lambda: DEFAULT_CONFIG)
    fmt: StorageFormat = DASDBS_FORMAT

    def __post_init__(self) -> None:
        self._stations: list[NestedTuple] | Callable[[], list[NestedTuple]] | None = None

    @property
    def stations(self) -> list[NestedTuple]:
        """The generated extension (lazily created, then reused)."""
        if self._stations is None:
            self._stations = generate_stations(self.config)
        elif callable(self._stations):
            self._stations = self._stations()
        return self._stations

    def adopt_extension(
        self, stations: list[NestedTuple] | Callable[[], list[NestedTuple]]
    ) -> None:
        """Share an already generated extension instead of regenerating.

        The sensitivity sweeps build one runner per engine configuration
        (buffer capacity × policy); the extension depends only on the
        data knobs, so one generation feeds every grid cell.  The list
        is adopted as-is (models never mutate loaded stations).  A
        zero-argument callable (the form ``SnapshotStore.get`` takes) is
        called on first use: a runner whose models all clone from the
        snapshot store never asks, so nothing is generated for it.
        """
        if self._stations is not None:
            raise BenchmarkError("runner already has a generated extension")
        self._stations = stations

    def statistics(self) -> DatabaseStatistics:
        return DatabaseStatistics.from_stations(self.stations)

    def build_model(
        self, name: str, references: ReferenceString | None = None
    ) -> StorageModel:
        """A loaded model over its own engine, snapshot-cloned when possible.

        With ``config.snapshots`` (the default) the extension is built
        once per ``(model, data knobs, page size)`` in the process-wide
        snapshot store and every call returns a restored clone — the
        same page bytes and the same counters as a rebuild, without the
        generate/serialise/load cost.  The trace backend always takes
        the rebuild path so its recorded call trace stays complete and
        replayable.  Callers that do not run a full suite should
        ``model.engine.close()`` when done (run_model does this), so
        file-backed engines release their backing files.

        With ``references`` the engine records its page-reference
        string into it from the start: right after the snapshot restore,
        or, when rebuilding, from the empty disk on, load included (see
        :meth:`replay_trace`).
        """
        if self.config.shards > 1:
            if references is not None:
                raise BenchmarkError("a sharded model cannot record one reference string")
            return self._build_sharded(name)
        return self._build_replica(name, self.config, name, references)

    def _build_replica(
        self,
        name: str,
        config: BenchmarkConfig,
        file_stem: str,
        references: ReferenceString | None = None,
    ) -> StorageModel:
        """One loaded model over one fresh engine sized by ``config``.

        The single construction both the unsharded model and every
        shard replica go through; ``file_stem`` names the engine's
        backing file under ``backend_path``.
        """
        backend_path = self._backend_path_for(file_stem)
        if self.snapshots_active:
            # Keyed (and, on a miss, built) under the runner's own config:
            # the image is buffer-independent, so a shard's slice only
            # sizes the clone.
            snapshot = DEFAULT_STORE.get(
                self.config, name, lambda: self.stations, self.fmt
            )
            model = DEFAULT_STORE.clone(
                snapshot, config, fmt=self.fmt, backend_path=backend_path
            )
            if references is not None:
                references.record(model.engine)
            return model
        backend: str | object = config.backend
        plan = None
        if config.faults != "none":
            # Fault-injecting stack: the plan-driven wrapper goes
            # *outside* any trace backend, so recorded traces show the
            # post-fault reality the engine actually saw.  The plan
            # starts disarmed — load and reorganisation prep run clean;
            # run_trace arms it around the measured replay only.
            from repro.fault.backend import FaultyBackend
            from repro.fault.plan import FaultPlan
            from repro.storage.backends import make_backend

            plan = FaultPlan.parse(config.faults)
            backend = FaultyBackend(
                make_backend(config.backend, config.page_size, path=backend_path),
                plan,
            )
            backend_path = None
        engine = StorageEngine(
            page_size=config.page_size,
            buffer_pages=config.buffer_pages,
            policy=config.policy,
            backend=backend,
            backend_path=backend_path,
            io_scheduler=config.io_scheduler,
        )
        if references is not None:
            references.record(engine)
        try:
            if plan is not None:
                engine.enable_journaling()
                engine.enable_checksums()
                engine.fault_plan = plan
            model = create_model(name, engine, self.fmt)
            model.load(self.stations)
        except Exception:
            engine.close()
            raise
        return model

    def _build_sharded(self, name: str) -> StorageModel:
        """N full-replica shards behind a scatter-gather facade.

        Every shard restores the *same* canonical snapshot (the cache
        key excludes buffer and shard knobs, so one build serves all
        clones) onto its own engine, with the configured buffer budget
        split across the shards and per-shard backend files.  Without
        snapshots each replica is rebuilt independently — bit-identical
        pages either way, as the snapshot parity suite guarantees.
        """
        from repro.sharding import (
            ShardRouter,
            ShardedEngine,
            ShardedModel,
            split_buffer_pages,
        )

        config = self.config
        router = ShardRouter(
            n_objects=config.n_objects,
            n_shards=config.shards,
            policy=config.shard_policy,
            seed=config.seed,
        )
        replicas: list[StorageModel] = []
        try:
            for index, pages in enumerate(
                split_buffer_pages(config.buffer_pages, config.shards)
            ):
                replicas.append(
                    self._build_replica(
                        name,
                        config.with_changes(buffer_pages=pages),
                        f"{name}-shard{index}",
                    )
                )
            sharded_engine = ShardedEngine([r.engine for r in replicas])
            return ShardedModel(replicas, sharded_engine, router)
        except Exception:
            for replica in replicas:
                replica.engine.close()
            raise

    @staticmethod
    def _attach_sharding(model: StorageModel, result: WorkloadResult) -> WorkloadResult:
        """Attach the per-shard drill-down to a sharded run's result."""
        from repro.sharding import ShardedModel

        if isinstance(model, ShardedModel):
            return replace(result, sharding=model.sharding_report())
        return result

    @property
    def snapshots_active(self) -> bool:
        """Whether build_model serves snapshot clones (see above).

        A faulted run never snapshots: injected damage (and the
        journaling/checksum state that heals it) belongs to one build.
        """
        return (
            self.config.snapshots
            and self.config.backend != "trace"
            and self.config.faults == "none"
        )

    def _backend_path_for(self, name: str) -> str | None:
        """Per-model backend path under ``config.backend_path``.

        Each model gets its own engine, so each gets its own backing
        file / trace file; distinct paths also keep the shard replicas
        of one model from interleaving one file.  When the same
        model runs again into the same directory (several experiments
        or config variants in one invocation), a ``-2``/``-3``/...
        suffix keeps the earlier file instead of clobbering it.
        """
        root = self.config.backend_path
        if root is None or self.config.backend == "memory":
            # The memory backend takes no path; creating reservation
            # files for it would litter the directory with empty decoys.
            return None
        try:
            os.makedirs(root, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise BenchmarkError(
                f"backend_path {root!r} must be a directory (one file per model "
                f"is created inside it): {exc}"
            ) from None
        suffix = ".jsonl" if self.config.backend == "trace" else ".pages"
        serial = 1
        while True:
            stem = name if serial == 1 else f"{name}-{serial}"
            path = os.path.join(root, f"{stem}{suffix}")
            try:
                # O_EXCL reserves the name atomically, so concurrent runs
                # into one directory cannot race to the same file.
                os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644))
                return path
            except FileExistsError:
                serial += 1

    def run_model(
        self, name: str, queries: Sequence[str] = QUERY_NAMES
    ) -> ModelRun:
        """Load one model and run the requested queries."""
        model = self.build_model(name)
        try:
            suite = QuerySuite(model, self.config)
            results = suite.run_all(queries)
            return ModelRun(
                model_name=name,
                results=results,
                relation_pages=model.relation_pages(),
            )
        finally:
            model.engine.close()

    def run_workload(self, name: str, spec: WorkloadSpec) -> WorkloadResult:
        """Load one model and execute a synthetic workload against it.

        The trace is compiled from ``(spec, n_objects)`` before the
        model is built, so every model — and every engine configuration
        sharing the extension — replays the identical operation
        sequence.
        """
        return self.run_trace(name, compile_trace(spec, self.config.n_objects))

    def run_trace(
        self,
        name: str,
        trace: WorkloadTrace,
        references: ReferenceString | None = None,
    ) -> WorkloadResult:
        """Load one model and replay an already compiled trace.

        The sweep compiles each workload spec once and feeds the same
        trace to every grid cell; compilation is deterministic, so this
        is purely a cost saving over :meth:`run_workload`.

        With ``references`` (an empty string) the run also records its
        page-reference string into it, for :meth:`replay_trace` to run
        the same trace under other buffers without executing the model.

        With an offline ``config.recluster`` policy the model is first
        reorganised for exactly this trace (training walk → placement
        → rewrite, see :meth:`build_model_for_trace`) and the measured
        replay runs over the adapted layout.  With ``"online"`` the
        model starts in insertion order and an
        :class:`~repro.clustering.online.OnlineRecluster` controller
        moves bounded page batches *during* the measured replay.
        """
        model = self.build_model_for_trace(name, trace, references)
        try:
            executor = WorkloadExecutor(
                model,
                trace,
                online=self._online_controller(model),
                retry_limit=self._retry_limit(),
            )
            with self._armed(model):
                return self._attach_sharding(model, executor.run())
        finally:
            model.engine.close()

    def replay_trace(
        self, name: str, trace: WorkloadTrace, references: ReferenceString
    ) -> WorkloadResult:
        """:meth:`run_trace`'s result under this runner's buffer, from the
        page-reference string another configuration recorded.

        The string must come from a run of the same model and trace under
        a configuration equal to this one but for ``buffer_pages`` and
        ``policy``.  A fresh engine — this configuration's buffer,
        backend and I/O scheduler — is restored from the same snapshot
        image the recording started from (the empty disk when
        rebuilding: the string then holds the load), and the string is
        driven through it.  No model is created and no model, nf2 or
        heap code runs.  Fault injection, serving, shards, online
        reclustering and engine files that outlive the run have no
        replay (``experiments.sweep.direct_reason`` keeps them on
        :meth:`run_trace`).
        """
        config = self.config
        engine = StorageEngine(
            page_size=config.page_size,
            buffer_pages=config.buffer_pages,
            policy=config.policy,
            backend=config.backend,
            io_scheduler=config.io_scheduler,
        )
        try:
            if self.snapshots_active:
                engine.disk.restore(self._snapshot_for_trace(name, trace).disk)
            references.replay(engine)
            return WorkloadResult(
                spec=trace.spec,
                model_name=name,
                raw=engine.metrics.snapshot(),
                op_counts=trace.op_counts(),
            )
        finally:
            engine.close()

    def run_trace_serving(
        self,
        name: str,
        trace: WorkloadTrace,
        clients: int,
        scheduler: str = "fifo",
        workers: int = 1,
    ):
        """Serve ``clients`` sessions of ``trace``'s workload on one model.

        The multi-session counterpart of :meth:`run_trace`: client 0
        replays ``trace`` itself, further clients replay derived traces
        (same mix/skew, derived seeds), and the serving layer runs them
        in ``scheduler``'s deterministic grant order, one operation at a
        time.  Returns the full
        :class:`~repro.serving.server.ServingResult` (aggregate
        counters plus the throughput/latency digest).  Reclustering
        applies exactly as in :meth:`run_trace`, trained on the primary
        trace.

        ``workers`` is a residue kept only because the frozen caller
        ``benchmarks/e2e/workloads.py`` passes ``workers=1``; any other
        value is refused.  It goes with the benchmark-tagged follow-up
        of ROADMAP item 5.
        """
        if workers != 1:
            raise ConfigError(
                "threaded serving was removed in PR 23; worker count never "
                f"moved a counter (got workers={workers!r})"
            )
        from repro.serving import make_client_traces, make_scheduler, ServingExecutor

        kwargs = {"seed": trace.spec.seed} if scheduler == "round-robin" else {}
        model = self.build_model_for_trace(name, trace)
        try:
            traces = make_client_traces(trace.spec, trace.n_objects, clients)
            executor = ServingExecutor(
                model,
                traces,
                scheduler=make_scheduler(scheduler, **kwargs),
                online=self._online_controller(model),
            )
            with self._armed(model):
                serving = executor.run()
            return replace(
                serving, result=self._attach_sharding(model, serving.result)
            )
        finally:
            model.engine.close()

    def _retry_limit(self) -> int:
        """Flat-replay retry budget: on only when faults are injected."""
        if self.config.faults == "none":
            return 0
        from repro.fault.retry import DEFAULT_RETRY_LIMIT

        return DEFAULT_RETRY_LIMIT

    def _armed(self, model: StorageModel):
        """Context arming the model engine's fault plan, if it has one.

        Faults are injected only inside the measured replay: load and
        reorganisation prep always run clean, so every faulted run
        starts from the same well-formed extension.
        """
        from contextlib import contextmanager

        @contextmanager
        def armed():
            plan = getattr(model.engine, "fault_plan", None)
            if plan is not None:
                plan.arm()
            try:
                yield
            finally:
                if plan is not None:
                    plan.disarm()

        return armed()

    def _online_controller(self, model: StorageModel):
        """The configured online-recluster controller, or None.

        Built fresh per run — the controller's observation window and
        move/trigger counters belong to one replay.
        """
        if self.config.recluster != "online":
            return None
        from repro.clustering.online import OnlineRecluster

        return OnlineRecluster(
            model,
            trigger_ops=self.config.online_trigger_ops,
            max_moves_per_trigger=self.config.online_move_pages,
        )

    def build_model_for_trace(
        self,
        name: str,
        trace: WorkloadTrace,
        references: ReferenceString | None = None,
    ) -> StorageModel:
        """A loaded model, reclustered for ``trace`` when configured.

        ``recluster="none"`` is exactly :meth:`build_model` — and so is
        ``"online"``: the online mode starts from the untrained
        insertion-order layout (its controller reorganises *during* the
        measured replay, so there is nothing to pre-train or cache).
        For the offline policies, with snapshots active, the snapshot
        store caches the trained and reorganised extension per
        ``(model, data knobs, policy, trace)`` and serves restored
        clones — the training and rewrite happen once per key, not once
        per sweep cell.  Training executes no workload: it walks the
        trace over :attr:`stations`' reference graph and applies the
        trace's root writes (:func:`~repro.clustering.recluster.
        recluster_model`).  Without snapshots (or under the trace
        backend) the model is rebuilt and reorganised inline; both
        paths yield bit-identical pages and counters.  ``references``
        records as for :meth:`build_model` (the inline training writes
        and rewrite included).
        """
        policy = self.config.recluster
        if policy in ("none", "online"):
            return self.build_model(name, references)
        from repro.clustering.recluster import recluster_model

        if self.snapshots_active:
            model = DEFAULT_STORE.clone(
                self._snapshot_for_trace(name, trace),
                self.config,
                fmt=self.fmt,
                backend_path=self._backend_path_for(name),
            )
            if references is not None:
                references.record(model.engine)
            return model
        model = self.build_model(name, references)
        try:
            recluster_model(model, trace, policy, self.stations)
        except Exception:
            model.engine.close()
            raise
        return model

    def _snapshot_for_trace(self, name: str, trace: WorkloadTrace) -> ExtensionSnapshot:
        """The snapshot :meth:`build_model_for_trace` clones from."""
        policy = self.config.recluster
        if policy in ("none", "online"):
            return DEFAULT_STORE.get(self.config, name, lambda: self.stations, self.fmt)
        return DEFAULT_STORE.get_reclustered(
            self.config, name, lambda: self.stations, self.fmt, trace, policy
        )

    def run_models(
        self,
        names: Sequence[str] = MEASURED_MODELS,
        queries: Sequence[str] = QUERY_NAMES,
    ) -> dict[str, ModelRun]:
        """Run several models over the same extension, in ``names`` order."""
        return {name: self.run_model(name, queries) for name in names}
