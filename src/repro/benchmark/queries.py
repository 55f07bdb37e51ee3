"""The seven benchmark queries (paper Section 2.2), as traces.

Query 1 — database scans: **1a** retrieves a single Station given its
OID, **1b** given its key value (a value selection: relation scan),
each averaged over a sample with a cold buffer per retrieval; **1c**
retrieves all Stations, normalised per object.

Query 2 — navigation: "randomly select an object (given its OID), find
the identifiers of the objects it refers to ..., fetch these
child-objects, find the identifiers of the objects they refer to ...,
and retrieve the atomic attributes of these grand-children."  Only the
needed parts are projected.  **2b** runs ``config.effective_loops``
loops (300 for 1500 objects) against one warm buffer, normalised per
loop.  **2a** is one loop, and one random root varies hugely (the
paper's "happened to have 4 children and 12 grand-children"), so it
averages ``q2a_sample`` loops, each against a cold buffer.

Query 3 — **3a/3b** are 2a/2b followed by an update of the root records
of the grand-children (atomic attributes only; structure unchanged).

:func:`paper_trace` compiles each query into a trace for the one
:class:`~repro.benchmark.workload.WorkloadExecutor`, the loop of the
synthetic workloads and sweeps.  A :class:`QueryResult` holds the raw
counters and the divisor (per object for query 1, else per loop).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.workload import Operation, WorkloadExecutor, WorkloadSpec, WorkloadTrace
from repro.errors import BenchmarkError, UnsupportedOperationError
from repro.models.base import StorageModel
from repro.storage.metrics import MetricsSnapshot, ScaledMetrics

#: Query names in table-column order.
QUERY_NAMES = ("1a", "1b", "1c", "2a", "2b", "3a", "3b")

#: Per query: operation kind, offset of its seed from ``query_seed``,
#: warm buffer, and its operation count for ``(config, n_objects)``
#: (None: one scan).  2a/3a and 2b/3b draw the same roots.
_QUERIES = {
    "1a": ("point", 0, False, lambda config, n: min(config.q1a_sample, n)),
    "1b": ("key", 1, False, lambda config, n: min(config.q1b_sample, n)),
    "1c": ("scan", 0, True, None),
    "2a": ("navigate", 2, False, lambda config, n: config.q2a_sample),
    "2b": ("navigate", 2, True, lambda config, n: config.effective_loops),
    "3a": ("navigate_update", 2, False, lambda config, n: config.q2a_sample),
    "3b": ("navigate_update", 2, True, lambda config, n: config.effective_loops),
}


def paper_trace(query: str, config: BenchmarkConfig, model: StorageModel) -> WorkloadTrace:
    """Compile one paper query into a trace over ``model``'s extension.

    A cold query (``warm=False``) restarts the buffer before every
    operation.  Query 1a raises :class:`UnsupportedOperationError` on a
    model that stores no object identifiers.
    """
    if query not in _QUERIES:
        raise BenchmarkError(f"unknown query {query!r} (known: {', '.join(QUERY_NAMES)})")
    kind, offset, warm, count = _QUERIES[query]
    if kind == "point" and not model.supports_oid_access:
        raise UnsupportedOperationError(f"{model.name} stores no object identifiers (query 1a)")
    n, seed = model.n_objects, config.query_seed + offset
    if count is None:
        ops: tuple[Operation, ...] = (Operation("scan"),)
    else:
        rng = random.Random(seed)
        ops = tuple(Operation(kind, rng.randrange(n)) for _ in range(count(config, n)))
    spec = WorkloadSpec(f"query {query}", warm=warm, n_ops=len(ops), seed=seed)
    return WorkloadTrace(spec, n, ops)


@dataclass(frozen=True)
class QueryResult:
    """Metrics of one query execution."""

    query: str
    model: str
    raw: MetricsSnapshot
    divisor: float

    @property
    def normalized(self) -> ScaledMetrics:
        """Counters normalised the way the paper's tables report them."""
        return self.raw.scaled(self.divisor)


class QuerySuite:
    """Runs the benchmark queries against one loaded storage model."""

    def __init__(self, model: StorageModel, config: BenchmarkConfig) -> None:
        self.model = model
        self.config = config

    def run(self, query: str) -> QueryResult | None:
        """Run a query by name; None if the model does not support it."""
        try:
            trace = paper_trace(query, self.config, self.model)
            raw = WorkloadExecutor(self.model, trace).run().raw
        except UnsupportedOperationError:
            return None
        divisor = self.model.n_objects if query == "1c" else len(trace.ops)
        return QueryResult(query, self.model.name, raw, divisor)

    def run_all(self, queries: Sequence[str] = QUERY_NAMES) -> dict[str, QueryResult | None]:
        return {query: self.run(query) for query in queries}
