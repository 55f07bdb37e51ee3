"""The per-client session: one trace, one set of counters, one clock.

A :class:`Session` is the unit the serving layer schedules.  It owns
everything client-visible — which operation comes next, how many of
each kind have run, the simulated-time latency of every completed
request — and nothing engine-visible: the shared
:class:`~repro.storage.StorageEngine` and its metrics belong to the
:class:`~repro.serving.server.ServingExecutor`, which charges each
granted operation's page fixes (the engine counter's delta across it)
back to the session.  That split is the isolation contract: sessions can be added,
reordered or interleaved without one session's state leaking into
another's.
"""

from __future__ import annotations

from repro.benchmark.workload import OP_KINDS, WorkloadTrace
from repro.errors import ServingError


class SessionCounters:
    """Per-session accounting: operations, fixes, simulated latencies."""

    __slots__ = ("ops", "page_fixes", "service_ms", "latencies_ms", "retries", "errors")

    def __init__(self) -> None:
        #: Completed operations by kind (trace-order keys).
        self.ops: dict[str, int] = {kind: 0 for kind in OP_KINDS}
        #: Page fixes of this session's operations (counter deltas).
        self.page_fixes = 0
        #: Total simulated service time of this session's operations.
        self.service_ms = 0.0
        #: Simulated request latency (queue wait + service) per
        #: completed operation, in completion order.
        self.latencies_ms: list[float] = []
        #: Transient faults absorbed by the bounded retry loop.
        self.retries = 0
        #: Operations abandoned after the retry budget ran out.
        self.errors = 0

    @property
    def n_ops(self) -> int:
        return sum(self.ops.values())

    def to_dict(self) -> dict[str, object]:
        """JSON-stable summary (the latency series is reduced to sums).

        Retry/error counters appear only when non-zero: fault-free runs
        — every run of the default benchmarks — keep the exact summary
        shape (and JSON bytes) they had before fault injection existed.
        """
        out: dict[str, object] = {
            "ops": dict(sorted(self.ops.items())),
            "page_fixes": self.page_fixes,
            "service_ms": self.service_ms,
            "latency_total_ms": sum(self.latencies_ms),
        }
        if self.retries:
            out["retries"] = self.retries
        if self.errors:
            out["errors"] = self.errors
        return out


class Session:
    """One client of the shared engine: a compiled trace plus state.

    ``session_id`` is the owner identity a caller of the buffer's
    session_* entry points passes, and ``priority`` is the weight the
    priority scheduler grants by.  ``ready_at_ms`` is the closed-loop
    clock: a session submits its next operation the instant its
    previous one completes, so request latency is measured from here.
    """

    __slots__ = ("session_id", "trace", "priority", "cursor", "counters", "ready_at_ms")

    def __init__(self, session_id: int, trace: WorkloadTrace, priority: int = 1) -> None:
        if priority < 1:
            raise ServingError("session priority must be at least 1")
        self.session_id = session_id
        self.trace = trace
        self.priority = priority
        #: Index of the next unexecuted operation of the trace.
        self.cursor = 0
        self.counters = SessionCounters()
        self.ready_at_ms = 0.0

    @property
    def n_ops(self) -> int:
        return len(self.trace.ops)

    @property
    def remaining(self) -> int:
        return len(self.trace.ops) - self.cursor

    def next_operation(self):
        """Claim the next operation; its session-local index rides along."""
        if self.cursor >= len(self.trace.ops):
            raise ServingError(
                f"session {self.session_id} was granted more operations "
                f"than its trace holds ({len(self.trace.ops)})"
            )
        index = self.cursor
        self.cursor = index + 1
        return index, self.trace.ops[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Session {self.session_id}: {self.cursor}/{self.n_ops} ops, "
            f"priority {self.priority}>"
        )
