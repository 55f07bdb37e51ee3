"""Workload access statistics: per-object heat and co-access affinity.

Trace-driven reclustering (Darmont et al.'s DSTC/DRO studies) needs two
observations about a workload before it can improve a layout:

* **heat** — how often each object is touched (drives hot/cold
  segregation), and
* **affinity** — how often two objects are touched *by the same
  operation* (drives affinity chaining: objects that navigate together
  should share pages).

:class:`AccessStats` collects both by piggybacking on the existing
measurement machinery instead of adding a second instrumentation layer:

* the :class:`~repro.benchmark.workload.WorkloadExecutor` reports the
  OIDs each replayed operation touches (``stats=`` parameter), which
  feeds heat and affinity;
* the :class:`~repro.storage.buffer.BufferManager` reports every page
  fix to its registered fix listeners, which feeds the page-level
  touch counters — the physical-layout view of the same replay.

Everything here is deterministic: the collector only counts, the trace
is seeded, and no counter feeding the paper's metrics is touched —
attaching a collector never changes a measured I/O.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

#: Cap on the distinct objects of one operation that enter the pairwise
#: affinity counts.  Operations touching more objects (deep navigations
#: on high-fanout extensions) still heat every object; the pair
#: enumeration is bounded so one operation costs O(cap²), not O(n²).
AFFINITY_PAIR_CAP = 64


class AccessStats:
    """Heat, affinity and page-touch counters of one workload replay."""

    __slots__ = ("n_objects", "heat", "affinity", "n_ops", "page_touches", "page_fixes")

    def __init__(self, n_objects: int) -> None:
        self.n_objects = n_objects
        #: Operations that touched each OID (index = OID).
        self.heat: list[int] = [0] * n_objects
        #: Unordered OID pair -> number of operations touching both.
        self.affinity: dict[tuple[int, int], int] = {}
        #: Operations recorded.
        self.n_ops = 0
        #: Page id -> fixes observed through the buffer hook.
        self.page_touches: dict[int, int] = {}
        #: Total fixes observed through the buffer hook.
        self.page_fixes = 0

    # -- executor-side recording --------------------------------------------

    def record_operation(self, oids: Iterable[int], pairs: bool = True) -> None:
        """Record one operation's touched objects.

        Duplicates collapse (an operation heats an object once);
        ``pairs=False`` records heat only — full scans touch everything,
        and an all-pairs count over the whole extension would both
        swamp the affinity signal and cost O(n²).
        """
        distinct = list(dict.fromkeys(oids))
        self.n_ops += 1
        heat = self.heat
        for oid in distinct:
            heat[oid] += 1
        if not pairs or len(distinct) < 2:
            return
        capped = distinct[:AFFINITY_PAIR_CAP]
        affinity = self.affinity
        for index, a in enumerate(capped):
            for b in capped[index + 1 :]:
                pair = (a, b) if a < b else (b, a)
                affinity[pair] = affinity.get(pair, 0) + 1

    def record_scan(self) -> None:
        """Record a full scan: every object heated once, no pairs."""
        self.record_operation(range(self.n_objects), pairs=False)

    # -- buffer-side recording ----------------------------------------------

    def page_fixed(self, page_id: int) -> None:
        """``BufferManager.add_fix_listener`` hook: one page fix observed."""
        self.page_fixes += 1
        self.page_touches[page_id] = self.page_touches.get(page_id, 0) + 1

    # -- queries -------------------------------------------------------------

    def affinity_of(self, a: int, b: int) -> int:
        """Co-access count of an unordered object pair."""
        pair = (a, b) if a < b else (b, a)
        return self.affinity.get(pair, 0)

    def neighbours(self) -> dict[int, list[tuple[int, int]]]:
        """Per-object affinity lists: oid -> [(count, other), ...].

        Each list is sorted strongest-first with OID tie-breaks, the
        deterministic order the greedy chaining policy consumes.
        """
        out: dict[int, list[tuple[int, int]]] = {}
        for (a, b), count in self.affinity.items():
            out.setdefault(a, []).append((count, b))
            out.setdefault(b, []).append((count, a))
        for oid in out:
            out[oid].sort(key=lambda item: (-item[0], item[1]))
        return out

    def summary(self) -> dict:
        """JSON-stable digest of the collected statistics."""
        touched = sum(1 for h in self.heat if h)
        total_heat = sum(self.heat)
        hot = sorted(self.heat, reverse=True)
        top = max(1, self.n_objects // 10)
        top_heat = sum(hot[:top])
        return {
            "n_objects": self.n_objects,
            "n_ops": self.n_ops,
            "objects_touched": touched,
            "total_object_touches": total_heat,
            "max_heat": hot[0] if hot else 0,
            "top_decile_touch_share": (top_heat / total_heat) if total_heat else 0.0,
            "affinity_pairs": len(self.affinity),
            "page_fixes_observed": self.page_fixes,
            "pages_touched": len(self.page_touches),
        }


@dataclass(frozen=True)
class TraceStats:
    """Deterministic digest of a compiled trace (no replay needed).

    Computed purely from the operation list, so it is an exact function
    of ``(spec, n_objects)`` — the sweep surfaces it in its JSON so a
    grid's skew regime is visible next to the measured counters.
    """

    n_ops: int
    op_counts: Mapping[str, int]
    distinct_targets: int
    max_target_hits: int
    top_decile_target_share: float

    def to_dict(self) -> dict:
        return {
            "n_ops": self.n_ops,
            "op_counts": dict(sorted(self.op_counts.items())),
            "distinct_targets": self.distinct_targets,
            "max_target_hits": self.max_target_hits,
            "top_decile_target_share": self.top_decile_target_share,
        }


def trace_stats(trace) -> TraceStats:
    """Digest a :class:`~repro.benchmark.workload.WorkloadTrace`."""
    hits: dict[int, int] = {}
    for op in trace.ops:
        if op.oid >= 0:
            hits[op.oid] = hits.get(op.oid, 0) + 1
    ranked = sorted(hits.values(), reverse=True)
    total = sum(ranked)
    top = max(1, trace.n_objects // 10)
    return TraceStats(
        n_ops=len(trace.ops),
        op_counts=trace.op_counts(),
        distinct_targets=len(hits),
        max_target_hits=ranked[0] if ranked else 0,
        top_decile_target_share=(sum(ranked[:top]) / total) if total else 0.0,
    )
