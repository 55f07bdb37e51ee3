"""Sharded storage-model facade: ownership routing + scatter-gather.

Each shard holds a **full replica** of the loaded extension on its own
engine, and the :class:`~repro.sharding.router.ShardRouter` assigns
every OID an *owner* shard.  Operations route to owners:

* single-object operations run wholly on the owner replica;
* batched navigation splits the reference list into per-owner groups,
  runs each group on its shard, and stitches the results back into the
  exact order the unsharded model would produce;
* full scans scatter: every replica scans only the disjoint page/long
  subset it owns (precomputed by ``prepare_scan_partition``), so the
  union — counts, page fixes, and I/O summed over shards — is exactly
  one unsharded scan.

Because every replica is byte-identical to the canonical layout, each
routed operation performs the same page accesses the unsharded engine
would, just on its owner's buffer and disk.  That is what makes the
per-shard counter roll-up *exact* for scans and for cold single-object
operations, and it is the invariant the shard-parity test layer pins.

Cross-shard navigation accounting: the facade tracks which shard served
the previous access and counts an ownership transfer (``cross_shard_
hops``) every time the next access lands elsewhere — the locality
signal that separates a colocating ``range`` policy from a scattering
``hash`` policy on hot-block workloads.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Mapping, Sequence

from repro.errors import ShardingError
from repro.models.base import Ref, StorageModel
from repro.sharding.engine import ShardedEngine
from repro.sharding.router import ShardRouter
from repro.storage.disk import DiskGeometry
from repro.storage.metrics import MetricsSnapshot


@dataclass(frozen=True)
class ShardingReport:
    """Per-shard accounting of one measured run (picklable).

    ``per_shard`` holds each shard's own counter snapshot; their sum is
    the aggregate the experiment tables render, so nothing is lost by
    rolling up — this report is the drill-down.
    """

    n_shards: int
    policy: str
    cross_shard_hops: int
    per_shard: tuple[MetricsSnapshot, ...]
    buffer_pages: tuple[int, ...]
    objects: tuple[int, ...]

    def to_dict(self, geometry: DiskGeometry | None = None) -> dict[str, Any]:
        """JSON-ready form; adds per-shard Equation-1 service times when
        a disk geometry is given."""
        shards = []
        for index, snapshot in enumerate(self.per_shard):
            entry: dict[str, Any] = {
                "shard": index,
                "objects": self.objects[index],
                "buffer_pages": self.buffer_pages[index],
                **asdict(snapshot),
            }
            if geometry is not None:
                entry["service_time_ms"] = round(
                    geometry.service_time_of(snapshot), 3
                )
            shards.append(entry)
        return {
            "n_shards": self.n_shards,
            "policy": self.policy,
            "cross_shard_hops": self.cross_shard_hops,
            "shards": shards,
        }


class ShardedModel(StorageModel):
    """Scatter-gather facade over N full-replica shards.

    Constructed over *loaded* replicas (one per shard, all restored from
    the same canonical snapshot) and their :class:`ShardedEngine`.  The
    facade is a drop-in :class:`StorageModel`: the workload and serving
    executors drive it exactly like a single-engine model.
    """

    def __init__(
        self,
        replicas: Sequence[StorageModel],
        engine: ShardedEngine,
        router: ShardRouter,
    ) -> None:
        if len(replicas) != router.n_shards or len(engine.engines) != router.n_shards:
            raise ShardingError(
                f"router expects {router.n_shards} shards, got "
                f"{len(replicas)} replicas over {len(engine.engines)} engines"
            )
        # No super().__init__: the facade owns no serializer state and
        # no address table of its own — it mirrors the primary replica's
        # identity attributes.
        primary = replicas[0]
        self.replicas = tuple(replicas)
        self.engine = engine
        self.router = router
        self.name = primary.name
        self.format = primary.format
        self.serializer = primary.serializer
        self.root_schema = primary.root_schema
        self.n_objects = primary.n_objects
        self.supports_oid_access = primary.supports_oid_access
        self.cross_shard_hops = 0
        self._current_shard: int | None = None
        for index, replica in enumerate(self.replicas):
            replica.prepare_scan_partition(
                router.owned(index), take_orphans=(index == 0)
            )
        engine.on_reset.append(self.reset_accounting)

    @property
    def table(self):
        """The facade holds no addresses: reorganisation, snapshots and
        object lifecycle are operations on a replica."""
        raise ShardingError(
            "a sharded facade has no address table of its own; "
            "reorganise, snapshot or mutate its replicas"
        )

    # -- hop accounting -------------------------------------------------------

    def reset_accounting(self) -> None:
        """Clear the hop counter and locality state (ties to the
        engine's ``reset_metrics``, keeping measured windows aligned)."""
        self.cross_shard_hops = 0
        self._current_shard = None

    def _visit(self, shard: int) -> None:
        if self._current_shard is None:
            self._current_shard = shard
        elif shard != self._current_shard:
            self.cross_shard_hops += 1
            self._current_shard = shard

    # -- routing helpers -------------------------------------------------------

    def ref_of(self, oid: int) -> Ref:
        return self.replicas[0].ref_of(oid)

    def oid_of(self, ref: Ref) -> int:
        return self.replicas[0].oid_of(ref)

    def all_refs(self) -> list[Ref]:
        return self.replicas[0].all_refs()

    def _shard_of_ref(self, ref: Ref) -> int:
        return self.router.shard_of(self.oid_of(ref))

    def _group(self, refs: Sequence[Ref]) -> dict[int, tuple[list[int], list[Ref]]]:
        """Split ``refs`` into per-owner groups, preserving input order.

        Returns ``{shard: (positions, refs)}`` in first-appearance
        order (insertion-ordered dict) — the order shards are visited,
        which the hop counter charges.
        """
        groups: dict[int, tuple[list[int], list[Ref]]] = {}
        for position, ref in enumerate(refs):
            shard = self._shard_of_ref(ref)
            entry = groups.get(shard)
            if entry is None:
                entry = groups[shard] = ([], [])
            entry[0].append(position)
            entry[1].append(ref)
        return groups

    # -- operations ------------------------------------------------------------

    def load(self, stations) -> None:
        raise ShardingError(
            "a sharded facade is constructed over already-loaded replicas"
        )

    def fetch_full(self, ref: Ref):
        shard = self._shard_of_ref(ref)
        self._visit(shard)
        return self.replicas[shard].fetch_full(ref)

    def fetch_full_by_key(self, key: int):
        # A value selection scans the whole relation; the owner replica
        # holds the full layout, so its scan equals the unsharded one.
        from repro.benchmark.schema import oid_of_key

        shard = self.router.shard_of(oid_of_key(key))
        self._visit(shard)
        return self.replicas[shard].fetch_full_by_key(key)

    def scan_all(self) -> int:
        count = 0
        for shard, replica in enumerate(self.replicas):
            self._visit(shard)
            count += replica.scan_partition()
        return count

    def fetch_refs(self, refs: Sequence[Ref]) -> list[Ref]:
        if not refs:
            return []
        if self.supports_oid_access:
            slots: list[list[Ref]] = [[] for _ in refs]
            for shard, (positions, group) in self._group(refs).items():
                self._visit(shard)
                grouped = self.replicas[shard].fetch_refs_grouped(group)
                for position, children in zip(positions, grouped):
                    slots[position] = children
            return [child for children in slots for child in children]
        # Scan-based NSM: one connection-relation scan per owner group;
        # the merged rows are re-sorted into the unsharded scan order
        # (heap order groups rows by ascending root OID under bulk
        # load, which shards never reorganise — recluster is refused).
        pairs: list[tuple[int, Ref]] = []
        for shard, (_, group) in self._group(refs).items():
            self._visit(shard)
            pairs.extend(self.replicas[shard].fetch_ref_pairs(group))
        pairs.sort(key=lambda pair: self.oid_of(pair[0]))
        return [child for _, child in pairs]

    def fetch_roots(self, refs: Sequence[Ref]) -> list[dict[str, Any]]:
        if not refs:
            return []
        if self.supports_oid_access:
            slots: list[dict[str, Any] | None] = [None] * len(refs)
            for shard, (positions, group) in self._group(refs).items():
                self._visit(shard)
                roots = self.replicas[shard].fetch_roots(group)
                for position, root in zip(positions, roots):
                    slots[position] = root
            return [root for root in slots if root is not None]
        # Scan-based NSM returns matches in heap (= ascending key)
        # order whatever the input order; merge accordingly.
        merged: list[dict[str, Any]] = []
        for shard, (_, group) in self._group(refs).items():
            self._visit(shard)
            merged.extend(self.replicas[shard].fetch_roots(group))
        merged.sort(key=lambda atoms: self.oid_of(atoms["Key"]))
        return merged

    def update_roots(self, refs: Sequence[Ref], changes: Mapping[str, Any]) -> None:
        # Refused here, before a shard is visited: the replicas' own
        # checks come after the hop accounting.
        self._root_patch(changes)
        if not refs:
            return
        for shard, (_, group) in self._group(refs).items():
            self._visit(shard)
            self.replicas[shard].update_roots(group, changes)

    # -- statistics ------------------------------------------------------------

    def relation_pages(self) -> dict[str, int]:
        # Every replica holds the canonical layout; report it once.
        return self.replicas[0].relation_pages()

    def sharding_report(self) -> ShardingReport:
        return ShardingReport(
            n_shards=self.router.n_shards,
            policy=self.router.policy,
            cross_shard_hops=self.cross_shard_hops,
            per_shard=self.engine.shard_snapshots(),
            buffer_pages=tuple(
                engine.buffer.capacity for engine in self.engine.engines
            ),
            objects=tuple(self.router.shard_sizes()),
        )


__all__ = ["ShardedModel", "ShardingReport"]
