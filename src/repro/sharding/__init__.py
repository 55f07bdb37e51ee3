"""Sharded scale-out layer: OID-space routing over replica engines.

The extension's OID space is partitioned by a deterministic
:class:`ShardRouter` (hash or range policy) across N shards, each a
complete :class:`~repro.storage.StorageEngine` + model replica with its
own buffer pool, disk backend, and counters.  A :class:`ShardedModel`
facade routes single-object operations to owners, scatter-gathers
batched navigation and full scans, and attributes every page read,
buffer hit, and Equation-1 service-time contribution to its owning
shard — plus a ``cross_shard_hops`` counter measuring ownership
transfers along navigation paths.  :class:`ShardedEngine` rolls the
per-shard counters up live, so the experiment tables render unchanged.
"""

from repro.sharding.engine import AggregateMetrics, ShardedEngine
from repro.sharding.model import ShardedModel, ShardingReport
from repro.sharding.router import SHARD_POLICIES, ShardRouter, split_buffer_pages

__all__ = [
    "AggregateMetrics",
    "SHARD_POLICIES",
    "ShardRouter",
    "ShardedEngine",
    "ShardedModel",
    "ShardingReport",
    "split_buffer_pages",
]
