"""Build-once/clone-many snapshots of loaded benchmark extensions.

Before this module existed, every table experiment, sweep grid cell and
process-pool worker regenerated and re-loaded the entire deterministic
extension before running a single query — the largest fixed cost in the
repository.  The fix is the classic benchmark-platform move (Darmont's
object-database platforms instantiate a database once and reuse it):
build each ``(model, data knobs, page size)`` extension **once**, keep a
restorable image, and hand out cheap clones.

A snapshot consists of two halves:

* a :class:`~repro.storage.disk.DiskSnapshot` — the canonical page
  image plus allocation bookkeeping of the engine's disk, taken after
  the bulk load's final flush, and
* the model's :meth:`~repro.models.base.StorageModel.capture_state` —
  its in-memory address tables (handles, transformation tables, rid
  indexes, segment page lists, long-object directories).

Cloning builds a **fresh** engine (fresh buffer, fresh policy, fresh
metrics) with the caller's backend/capacity/policy, restores the disk
image into it and re-attaches the captured model state.  Because the
paper's measurement discipline cold-starts the buffer and zeroes the
counters before anything is measured, a clone is *bit-identical* to a
rebuild in every paper-visible way: same page bytes, same I/O calls,
same page transfers, same fixes.  ``tests/benchmark/test_snapshots.py``
enforces exactly that, for all five models.

The disk image is independent of the build engine's buffer capacity and
replacement policy (every dirty page is eventually written with the same
content, and allocation order is fixed by the load), so one snapshot
serves **every** cell of a sweep grid regardless of its buffer regime.
Builds therefore always run over a plain in-memory backend; clones
restore onto whatever backend the caller configured (the canonical image
restores across backends).

For ``--processes`` sweeps the parent spills each snapshot to a pickle
file (:meth:`SnapshotStore.spill`) and the workers map it back with
:meth:`SnapshotStore.preload` — one file read per worker per model
instead of one full rebuild per cell.

The module-level :data:`DEFAULT_STORE` is shared process-wide so that
independent :class:`~repro.benchmark.runner.BenchmarkRunner` instances
(the sweeps create one per grid cell) reuse each other's builds.
"""

from __future__ import annotations

import os
import pickle
from collections import OrderedDict
from dataclasses import dataclass

from repro.benchmark.config import BenchmarkConfig
from repro.errors import BenchmarkError
from repro.models.base import StorageModel
from repro.models.registry import create_model
from repro.nf2.serializer import DASDBS_FORMAT, StorageFormat
from repro.storage import StorageEngine
from repro.storage.disk import DiskSnapshot

#: File suffix of spilled snapshots (``<model>.snapshot.pkl``).
SPILL_SUFFIX = ".snapshot.pkl"

#: Default bound on cached snapshots; the oldest is dropped beyond it
#: (a drop only costs a rebuild if that key is ever needed again).
DEFAULT_MAX_SNAPSHOTS = 16


def snapshot_key(
    config: BenchmarkConfig,
    model_name: str,
    fmt: StorageFormat = DASDBS_FORMAT,
) -> tuple:
    """Cache key of one built extension.

    Exactly the inputs the loaded extension depends on: the data knobs
    (what :func:`~repro.benchmark.generator.generate_stations` reads),
    the page size and the storage format — *not* the buffer capacity,
    replacement policy or disk backend, which affect how the extension
    is later accessed but never its bytes.
    """
    return (
        model_name,
        config.n_objects,
        config.fanout,
        config.probability,
        config.max_sightseeing,
        config.seed,
        config.page_size,
        fmt,
    )


@dataclass(frozen=True)
class ExtensionSnapshot:
    """One built extension: disk image + model address state.

    Immutable and picklable.  ``disk.image`` shares ``bytes`` page
    objects with whatever backend produced it — safe, because backends
    never mutate stored page images in place — while ``model_state``
    follows the copy discipline of ``capture_state`` (containers copied,
    leaf values immutable), so clones and the source can never corrupt
    the snapshot or each other.
    """

    model_name: str
    key: tuple
    page_size: int
    n_objects: int
    disk: DiskSnapshot
    model_state: dict


class SnapshotStore:
    """Build-once cache of :class:`ExtensionSnapshot` values."""

    def __init__(self, max_snapshots: int = DEFAULT_MAX_SNAPSHOTS) -> None:
        self._snapshots: OrderedDict[tuple, ExtensionSnapshot] = OrderedDict()
        #: Spilled-artifact memo: path -> the key it loaded into.  Only
        #: honoured while that key is still cached, so an eviction makes
        #: the next preload re-read the artifact instead of silently
        #: degrading to a full rebuild.
        self._preloaded_paths: dict[str, tuple] = {}
        self.max_snapshots = max_snapshots
        #: Number of full builds this store has performed (observability
        #: for tests and for anyone asking "did the cache work?").
        self.builds = 0

    # -- building -----------------------------------------------------------

    def get(
        self,
        config: BenchmarkConfig,
        model_name: str,
        stations,
        fmt: StorageFormat = DASDBS_FORMAT,
    ) -> ExtensionSnapshot:
        """The snapshot for ``(config, model_name, fmt)``; built on miss.

        ``stations`` is a zero-argument callable returning the generated
        extension — a callable, not a list, so a cache hit never forces
        generation.
        """
        key = snapshot_key(config, model_name, fmt)
        return self._get_or_build(
            key, lambda: self._build(config, model_name, stations(), fmt, key)
        )

    def get_reclustered(
        self,
        config: BenchmarkConfig,
        model_name: str,
        stations,
        fmt: StorageFormat,
        trace,
        policy: str,
    ) -> ExtensionSnapshot:
        """The snapshot of a trace-reclustered extension; built on miss.

        The key extends the base extension's key with the recluster
        policy and the training trace's identity ``(spec, n_objects)``
        — exactly the inputs the reorganised layout depends on.  Like
        the base key it deliberately excludes buffer capacity and
        replacement policy: the placement is computed from the trace
        and the extension's reference graph alone, and the training
        writes' final page bytes are buffer-independent (every dirty
        page is eventually written with the same content), so one
        reclustered image serves every cell of a sweep grid.

        Building clones the *base* snapshot (one bulk load, ever),
        trains on a walk of the trace over ``stations()``, applies the
        trace's root writes and the reorganisation over a plain memory
        backend, and images the result; no workload executes.  Clones
        of that image are bit-identical to an inline train-and-recluster
        on a rebuilt model, which
        ``tests/benchmark/test_recluster_parity.py`` enforces.
        """
        key = snapshot_key(config, model_name, fmt) + (
            "recluster",
            policy,
            trace.spec,
            trace.n_objects,
        )

        def build() -> ExtensionSnapshot:
            # Deferred import: repro.clustering reads workload traces,
            # which imports the benchmark layer this module lives in.
            from repro.clustering.recluster import recluster_model

            base = self.get(config, model_name, stations, fmt)
            model = self.clone(base, config.with_changes(backend="memory"), fmt=fmt)
            try:
                recluster_model(model, trace, policy, stations())
                snapshot = ExtensionSnapshot(
                    model_name=model_name,
                    key=key,
                    page_size=config.page_size,
                    n_objects=model.n_objects,
                    disk=model.engine.snapshot(),
                    model_state=model.capture_state(),
                )
            finally:
                model.engine.close()
            self.builds += 1
            return snapshot

        return self._get_or_build(key, build)

    def _get_or_build(self, key: tuple, build) -> ExtensionSnapshot:
        snapshot = self._snapshots.get(key)
        if snapshot is None:
            snapshot = build()
            self.put(snapshot)
        return snapshot

    def _build(
        self,
        config: BenchmarkConfig,
        model_name: str,
        stations: list,
        fmt: StorageFormat,
        key: tuple,
    ) -> ExtensionSnapshot:
        # The build always runs over a memory backend: the disk image is
        # canonical (it restores onto any backend), and file/trace
        # backends must not grow an extra backing file per build.
        engine = StorageEngine(
            page_size=config.page_size,
            buffer_pages=config.buffer_pages,
            policy=config.policy,
            backend="memory",
        )
        try:
            model = create_model(model_name, engine, fmt)
            model.load(stations)
            snapshot = ExtensionSnapshot(
                model_name=model_name,
                key=key,
                page_size=config.page_size,
                n_objects=model.n_objects,
                disk=engine.snapshot(),
                model_state=model.capture_state(),
            )
        finally:
            engine.close()
        self.builds += 1
        return snapshot

    def put(self, snapshot: ExtensionSnapshot) -> None:
        """Insert (or refresh) a snapshot under its own key."""
        self._snapshots[snapshot.key] = snapshot
        self._snapshots.move_to_end(snapshot.key)
        while len(self._snapshots) > self.max_snapshots:
            self._snapshots.popitem(last=False)

    def clear(self) -> None:
        """Drop every cached snapshot (and the preloaded-path memo)."""
        self._snapshots.clear()
        self._preloaded_paths.clear()

    # -- cloning ------------------------------------------------------------

    def clone(
        self,
        snapshot: ExtensionSnapshot,
        config: BenchmarkConfig,
        fmt: StorageFormat = DASDBS_FORMAT,
        backend_path: str | None = None,
    ) -> StorageModel:
        """A loaded model over a fresh engine, restored from ``snapshot``.

        The engine takes its page size, buffer capacity, replacement
        policy and backend from ``config`` — a brand-new buffer and
        policy instance, so the clone's replacement behaviour is
        bit-identical to a freshly rebuilt model's (an in-place
        ``StorageEngine.restore`` would reuse the policy's RNG state).
        The caller owns the engine and must ``model.engine.close()``.
        """
        if snapshot.page_size != config.page_size:
            raise BenchmarkError(
                f"snapshot built for {snapshot.page_size}-byte pages cannot "
                f"serve a {config.page_size}-byte configuration"
            )
        engine = StorageEngine(
            page_size=config.page_size,
            buffer_pages=config.buffer_pages,
            policy=config.policy,
            backend=config.backend,
            backend_path=backend_path,
            io_scheduler=config.io_scheduler,
        )
        try:
            engine.disk.restore(snapshot.disk)
            model = create_model(snapshot.model_name, engine, fmt)
            model.restore_state(snapshot.model_state)
        except Exception:
            engine.close()
            raise
        return model

    # -- spilling (process-pool workers) ------------------------------------

    def spill(
        self, snapshot: ExtensionSnapshot, directory: str, stem: str | None = None
    ) -> str:
        """Write a snapshot to ``directory``; returns the artifact path.

        ``stem`` overrides the file name (default: the model name) —
        needed when one directory holds several artifacts of the same
        model, e.g. its base extension plus reclustered variants.
        """
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, (stem or snapshot.model_name) + SPILL_SUFFIX)
        with open(path, "wb") as handle:
            pickle.dump(snapshot, handle, protocol=pickle.HIGHEST_PROTOCOL)
        return path

    @staticmethod
    def load(path: str) -> ExtensionSnapshot:
        """Read a spilled snapshot back."""
        with open(path, "rb") as handle:
            snapshot = pickle.load(handle)
        if not isinstance(snapshot, ExtensionSnapshot):
            raise BenchmarkError(f"{path!r} does not hold an extension snapshot")
        return snapshot

    def preload(self, path: str) -> None:
        """Map a spilled snapshot into the store (idempotent per path).

        Worker processes call this once per cell; the path memo makes
        repeat calls free while the snapshot stays cached, so a worker
        running many cells of one model reads the artifact once — and
        re-reads it (rather than falling back to a rebuild) if cache
        pressure evicted it in between.
        """
        key = self._preloaded_paths.get(path)
        if key is not None and key in self._snapshots:
            return
        snapshot = self.load(path)
        self.put(snapshot)
        self._preloaded_paths[path] = snapshot.key


#: Process-wide store shared by every runner (one build per key per
#: process, no matter how many runners a sweep creates).
DEFAULT_STORE = SnapshotStore()
