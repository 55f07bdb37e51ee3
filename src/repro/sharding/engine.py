"""Aggregate engine facade over N independent per-shard engines.

Each shard owns a complete :class:`~repro.storage.StorageEngine` — its
own buffer pool, simulated disk, and metrics collector.  The facade
presents the union to the benchmark executors with the exact surface
they already consume from a single engine (live counter attributes,
``metrics.snapshot()``, ``restart_buffer``, ``flush``),
so the workload and serving layers run unchanged on sharded
deployments.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.storage import StorageEngine
from repro.storage.metrics import MetricsSnapshot

#: Counter attributes mirrored live from the per-shard collectors.
_COUNTER_FIELDS = (
    "read_calls",
    "write_calls",
    "pages_read",
    "pages_written",
    "page_fixes",
    "buffer_hits",
    "buffer_misses",
    "evictions",
)


class AggregateMetrics:
    """Live roll-up of the per-shard metrics collectors.

    Every counter read sums the shard collectors at that instant, so
    executors that sample ``engine.metrics.pages_read`` between
    operations see exactly the same accounting they would against a
    single engine whose collector had absorbed all shard traffic.
    """

    def __init__(self, engines: Sequence[StorageEngine]) -> None:
        self._collectors = tuple(engine.metrics for engine in engines)

    def snapshot(self) -> MetricsSnapshot:
        total = MetricsSnapshot()
        for collector in self._collectors:
            total = total + collector.snapshot()
        return total

    def reset(self) -> None:
        for collector in self._collectors:
            collector.reset()

    @property
    def io_pages(self) -> int:
        return self.pages_read + self.pages_written

    @property
    def io_calls(self) -> int:
        return self.read_calls + self.write_calls


def _make_counter(field: str) -> property:
    def getter(self: AggregateMetrics) -> int:
        return sum(getattr(collector, field) for collector in self._collectors)

    getter.__name__ = field
    getter.__doc__ = f"Sum of per-shard ``{field}``."
    return property(getter)


for _field in _COUNTER_FIELDS:
    setattr(AggregateMetrics, _field, _make_counter(_field))
del _field


class ShardedEngine:
    """The union of N per-shard engines, with a single-engine surface."""

    def __init__(self, engines: Sequence[StorageEngine]) -> None:
        if not engines:
            raise ValueError("a sharded engine needs at least one shard")
        self.engines = tuple(engines)
        self.page_size = self.engines[0].page_size
        self.metrics = AggregateMetrics(self.engines)
        #: Hooks run on ``reset_metrics`` (the sharded model registers
        #: one to clear its cross-shard hop counter alongside the I/O
        #: counters, keeping measured windows aligned).
        self.on_reset: list[Callable[[], None]] = []

    @property
    def n_shards(self) -> int:
        return len(self.engines)

    def restart_buffer(self) -> None:
        for engine in self.engines:
            engine.restart_buffer()

    def reset_metrics(self) -> None:
        for engine in self.engines:
            engine.reset_metrics()
        for hook in self.on_reset:
            hook()

    def flush(self) -> None:
        for engine in self.engines:
            engine.flush()

    def close(self) -> None:
        for engine in self.engines:
            engine.close()
        # The sharded model's hook is a bound method, so the engine and
        # the model hold each other: dropping it lets reference counting
        # free a closed shard set at once instead of at the next full
        # cyclic collection.
        self.on_reset.clear()

    def shard_snapshots(self) -> tuple[MetricsSnapshot, ...]:
        """Per-shard counter snapshots, in shard order."""
        return tuple(engine.metrics.snapshot() for engine in self.engines)


__all__ = ["AggregateMetrics", "ShardedEngine"]
