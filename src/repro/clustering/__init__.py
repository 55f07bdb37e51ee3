"""Trace-driven object clustering and on-disk reorganisation.

The paper's central claim is that physical page I/O for complex objects
is dominated by *placement* — which subobjects land on which pages —
yet the storage models can only produce the placement bulk loading
gives them.  This package adds the missing axis (following Darmont et
al.'s clustering studies): observe a workload, derive a better object
order, and rewrite the extension in place while preserving record ids.

* :mod:`repro.clustering.stats` — the heat / co-access affinity
  counters both placements read;
* :mod:`repro.clustering.placement` — the ``affinity`` (greedy DSTC-lite
  chaining) and ``hotcold`` (heat segregation) policies;
* :mod:`repro.clustering.recluster` — the train-then-rewrite driver
  used by the benchmark runner, the sweep's ``--recluster`` axis and
  the ``clustering`` experiment: it trains by one walk of the trace
  over the extension's reference graph, no replay;
* :mod:`repro.clustering.online` — the incremental controller behind
  ``--recluster online``: windowed stats, deterministic triggers,
  bounded page-move batches under live (possibly drifting) traffic.
"""

from repro.clustering.online import OnlineRecluster
from repro.clustering.placement import (
    RECLUSTER_MODES,
    RECLUSTER_POLICIES,
    affinity_order,
    hotcold_order,
    is_permutation,
    placement_order,
    validate_mode,
    validate_policy,
)
from repro.clustering.recluster import access_stats, recluster_model
from repro.clustering.stats import AccessStats, TraceStats, trace_stats

__all__ = [
    "AccessStats",
    "OnlineRecluster",
    "RECLUSTER_MODES",
    "RECLUSTER_POLICIES",
    "TraceStats",
    "access_stats",
    "affinity_order",
    "hotcold_order",
    "is_permutation",
    "placement_order",
    "recluster_model",
    "trace_stats",
    "validate_mode",
    "validate_policy",
]
