"""The serving executor: N sessions, one engine, deterministic counters.

Execution model
---------------

The executor takes one compiled trace per client, asks the scheduler
for a grant order (:mod:`repro.serving.scheduler`), and replays the
granted operations against the **shared** model/engine with exactly the
measurement discipline of the single-stream
:class:`~repro.benchmark.workload.WorkloadExecutor`, through the same
operation definitions: buffer restarted
cold, counters zeroed, ``warm=False`` restarts before every operation,
one final flush models the database disconnect.  With one client and
the original trace, the replay *is* the single-stream replay — same
calls, same pages, same fixes — which the parity tests pin down.

The grant order *is* the execution order: one plain loop walks the
scheduler's plan and runs each granted operation to completion before
the next begins.  Nothing else decides the interleaving, so a run is a
pure function of (traces, scheduler, engine configuration) — the
determinism suite checks it by serving the same population twice and
by running served grids sequentially and under ``--processes``.

Throughput and tail latency
---------------------------

Wall-clock latency of a simulated engine is meaningless (and
non-reproducible), so the serving layer measures time the same way the
sweeps do: from the counters.  Every operation's **service time** is
Equation 1 over its own I/O-call/page deltas plus a per-fix CPU term
(the paper reads page fixes as "an indicator of the CPU load",
Table 6).  A closed-loop queueing recurrence turns service times into
request latencies: the serial server starts each granted operation the
moment the previous one finishes, a session re-submits the instant its
last request completes, and a request's latency is completion minus
submission — queue wait plus service.  p50/p99, makespan and
requests-per-second all fall out of that recurrence, byte-reproducible
because their only inputs are integer counters and the deterministic
grant order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.benchmark.workload import (
    WorkloadResult,
    WorkloadSpec,
    WorkloadTrace,
    compile_trace,
    fetch_point,
    navigate,
)
from repro.errors import RetryExhaustedError, ServingError
from repro.fault.retry import (
    DEFAULT_BACKOFF_BASE_MS,
    DEFAULT_RETRY_LIMIT,
    backoff_delay_ms,
    call_with_retries,
)
from repro.models.base import StorageModel

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.clustering.online import OnlineRecluster
from repro.serving.scheduler import RoundRobinScheduler, Scheduler
from repro.serving.session import Session
from repro.storage.disk import DiskGeometry

#: CPU charge per page fix in the simulated service time, in
#: milliseconds.  Keeps pure-buffer-hit operations from costing zero
#: (which would degenerate the latency distribution); the value is a
#: deliberately small fraction of one positioning delay so I/O still
#: dominates, as in Equation 1.
SERVING_CPU_MS_PER_FIX = 0.05

#: Seed stride between derived per-client traces; any constant works,
#: a prime keeps derived seeds from colliding with hand-picked ones.
CLIENT_SEED_STRIDE = 7919


@dataclass(frozen=True)
class ServiceTimeModel:
    """Operation cost: Equation 1 plus a per-fix CPU term."""

    geometry: DiskGeometry = field(default_factory=DiskGeometry)
    cpu_ms_per_fix: float = SERVING_CPU_MS_PER_FIX

    def op_ms(self, io_calls: int, io_pages: int, page_fixes: int) -> float:
        return (
            self.geometry.service_time_ms(io_calls, io_pages)
            + self.cpu_ms_per_fix * page_fixes
        )


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending series (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


@dataclass(frozen=True)
class ServingStats:
    """Deterministic throughput/latency digest of one serving run."""

    clients: int
    scheduler: str
    n_ops: int
    latency_p50_ms: float
    latency_p99_ms: float
    latency_mean_ms: float
    makespan_ms: float
    requests_per_second: float
    #: Transient faults absorbed by retries / operations abandoned,
    #: summed over all sessions.  Zero (and absent from the digest)
    #: whenever no faults are injected.
    retries: int = 0
    errors: int = 0

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "clients": self.clients,
            "scheduler": self.scheduler,
            "n_ops": self.n_ops,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p99_ms": self.latency_p99_ms,
            "latency_mean_ms": self.latency_mean_ms,
            "makespan_ms": self.makespan_ms,
            "requests_per_second": self.requests_per_second,
        }
        if self.retries:
            out["retries"] = self.retries
        if self.errors:
            out["errors"] = self.errors
        return out


@dataclass(frozen=True)
class ServingResult:
    """Everything one serving run produced.

    ``result`` is the aggregate :class:`WorkloadResult` over the shared
    engine (counters of all sessions together, op counts summed), shaped
    exactly like a single-stream result so sweep cells can hold either.
    """

    result: WorkloadResult
    stats: ServingStats
    session_summaries: tuple[dict, ...]


def make_client_traces(
    spec: WorkloadSpec, n_objects: int, clients: int
) -> list[WorkloadTrace]:
    """One deterministic trace per client.

    Client 0 replays the spec's own trace — with ``clients=1`` the
    serving layer therefore executes the exact single-stream access
    pattern.  Every further client runs the same mix/skew with a derived
    seed (and a suffixed name), the DOEF-style "many statistically
    identical clients" population.
    """
    if clients < 1:
        raise ServingError("clients must be at least 1")
    traces = [compile_trace(spec, n_objects)]
    for client in range(1, clients):
        derived = spec.with_changes(
            seed=spec.seed + CLIENT_SEED_STRIDE * client,
            name=f"{spec.name}+c{client}",
        )
        traces.append(compile_trace(derived, n_objects))
    return traces


class ServingExecutor:
    """Replay N sessions' traces against one shared loaded model."""

    def __init__(
        self,
        model: StorageModel,
        traces: Sequence[WorkloadTrace],
        scheduler: Scheduler | None = None,
        priorities: Sequence[int] | None = None,
        service_model: ServiceTimeModel | None = None,
        online: "OnlineRecluster | None" = None,
        retry_limit: int = DEFAULT_RETRY_LIMIT,
        backoff_base_ms: float = DEFAULT_BACKOFF_BASE_MS,
    ) -> None:
        if retry_limit < 0:
            raise ServingError("retry_limit must be non-negative")
        if not traces:
            raise ServingError("at least one client trace is required")
        if priorities is not None and len(priorities) != len(traces):
            raise ServingError("one priority per client trace is required")
        for trace in traces:
            if trace.n_objects > model.n_objects:
                raise ServingError(
                    f"trace targets {trace.n_objects} objects but {model.name} "
                    f"holds only {model.n_objects}"
                )
        self.model = model
        self.engine = model.engine
        self.scheduler = scheduler or RoundRobinScheduler(seed=traces[0].spec.seed)
        self.service_model = service_model or ServiceTimeModel()
        self.sessions = [
            Session(i, trace, priority=(priorities[i] if priorities else 1))
            for i, trace in enumerate(traces)
        ]
        #: Graceful degradation under injected faults: transient read
        #: errors are retried up to ``retry_limit``
        #: times with a deterministic exponential backoff charged to the
        #: simulated clock; an operation that exhausts its budget is
        #: abandoned (counted in the session's ``errors``) and serving
        #: continues.  Fault-free runs never enter any of these paths.
        self.retry_limit = retry_limit
        self.backoff_base_ms = backoff_base_ms
        #: Optional online-recluster controller, fed after each granted
        #: operation completes (outside any session's fix attribution):
        #: its deterministic triggers run bounded page-move batches
        #: between operations, when no session holds page fixes.
        self.online = online
        # Replay state (reset per run).
        self._clock_ms = 0.0
        self._global_index = 0

    # -- the grant plan ------------------------------------------------------

    def _plan(self) -> list[Session]:
        demands = [session.n_ops for session in self.sessions]
        priorities = [session.priority for session in self.sessions]
        grants = self.scheduler.order(demands, priorities)
        if len(grants) != sum(demands):
            raise ServingError(
                f"scheduler {self.scheduler.name!r} granted {len(grants)} "
                f"operations for a demand of {sum(demands)}"
            )
        counts = [0] * len(self.sessions)
        for index in grants:
            if not 0 <= index < len(self.sessions):
                raise ServingError(
                    f"scheduler {self.scheduler.name!r} granted unknown "
                    f"session {index!r}"
                )
            counts[index] += 1
        if counts != demands:
            raise ServingError(
                f"scheduler {self.scheduler.name!r} granted {counts} "
                f"operations against demands {demands}"
            )
        return [self.sessions[index] for index in grants]

    # -- execution -----------------------------------------------------------

    def run(self) -> ServingResult:
        engine = self.engine
        engine.restart_buffer()
        engine.reset_metrics()
        self._clock_ms = 0.0
        self._global_index = 0
        for session in self.sessions:
            session.cursor = 0
            session.ready_at_ms = 0.0
        for session in self._plan():
            self._execute_granted(session)
        engine.flush()
        return self._collect()

    def _execute_granted(self, session: Session) -> None:
        """One granted operation: replay, cost, closed-loop accounting.

        Called from :meth:`run`'s loop, one grant at a time, so the
        engine, the simulated clock and the session ledgers are only
        ever touched by the operation in progress.
        """
        index, op = session.next_operation()
        counters = session.counters
        engine = self.engine
        if not session.trace.spec.warm and self._global_index > 0:
            engine.restart_buffer()
        self._global_index += 1
        metrics = engine.metrics
        calls_before = metrics.read_calls + metrics.write_calls
        pages_before = metrics.pages_read + metrics.pages_written
        fixes_before = metrics.page_fixes
        backoff_ms = 0.0
        errored = False

        def on_retry(attempt: int, exc: Exception) -> None:
            # Each retry waits an exponentially growing slice of
            # *simulated* time — deterministic, charged to the clock.
            nonlocal backoff_ms
            backoff_ms += backoff_delay_ms(attempt, self.backoff_base_ms)

        try:
            touched, retries_used = call_with_retries(
                lambda: self._execute_op(op, index),
                limit=self.retry_limit,
                on_retry=on_retry,
            )
        except RetryExhaustedError:
            # Degrade, don't die: the operation is abandoned, its cost
            # (all attempts + backoff) still burdens this session.
            touched, retries_used = None, self.retry_limit
            errored = True
            counters.errors += 1
        counters.retries += retries_used
        # Every fix since ``fixes_before`` is this operation's, all its
        # attempts included: the session is charged the counter delta.
        fixes = metrics.page_fixes - fixes_before
        counters.page_fixes += fixes
        service_ms = backoff_ms + self.service_model.op_ms(
            metrics.read_calls + metrics.write_calls - calls_before,
            metrics.pages_read + metrics.pages_written - pages_before,
            fixes,
        )
        # Closed-loop queueing recurrence: the serial server picks the
        # grant up at max(submission, server-free); with work always
        # queued the server is never idle, so start == clock.
        start_ms = self._clock_ms if self._clock_ms > session.ready_at_ms else session.ready_at_ms
        completion_ms = start_ms + service_ms
        self._clock_ms = completion_ms
        counters.ops[op.kind] += 1
        counters.service_ms += service_ms
        counters.latencies_ms.append(completion_ms - session.ready_at_ms)
        session.ready_at_ms = completion_ms
        # The controller runs after the operation's counter deltas were
        # taken, so a triggered move batch charges its fixes to no
        # session and no service time — the "background" half of online
        # reclustering, at a fixed point of the grant order.
        online = self.online
        if online is not None and not errored:  # abandoned: feeds nothing
            if touched is None:
                online.note_scan()
            else:
                online.note_operation(touched)

    def _execute_op(self, op, index: int) -> list[int] | tuple[int, ...] | None:
        """One operation, with exactly the single-stream semantics.

        Returns the touched OIDs in the single-stream executor's
        reporting order (root, children, grand-children), or ``None``
        for a full scan — the shape the online controller consumes.
        Kinds outside :data:`~repro.benchmark.workload.OP_KINDS` are refused.
        """
        model = self.model
        kind = op.kind
        if kind == "point":
            fetch_point(model, op.oid)
            return (op.oid,)
        elif kind == "navigate":
            children, grand = navigate(model, op.oid)
            return [op.oid, *map(model.oid_of, children), *map(model.oid_of, grand)]
        elif kind == "scan":
            model.scan_all()
            return None
        elif kind == "update":
            model.update_roots([model.ref_of(op.oid)], {"Name": f"workload-{index}"})
            return (op.oid,)
        else:
            raise ServingError(f"cannot serve operation kind {kind!r}")

    # -- results -------------------------------------------------------------

    def _collect(self) -> ServingResult:
        latencies = sorted(
            latency
            for session in self.sessions
            for latency in session.counters.latencies_ms
        )
        n_ops = len(latencies)
        makespan_ms = self._clock_ms
        stats = ServingStats(
            clients=len(self.sessions),
            scheduler=self.scheduler.name,
            n_ops=n_ops,
            latency_p50_ms=_percentile(latencies, 0.50),
            latency_p99_ms=_percentile(latencies, 0.99),
            latency_mean_ms=(sum(latencies) / n_ops) if n_ops else 0.0,
            makespan_ms=makespan_ms,
            requests_per_second=(
                n_ops * 1000.0 / makespan_ms if makespan_ms > 0 else 0.0
            ),
            retries=sum(session.counters.retries for session in self.sessions),
            errors=sum(session.counters.errors for session in self.sessions),
        )
        op_counts: dict[str, int] = {}
        for session in self.sessions:
            for kind, count in session.trace.op_counts().items():
                op_counts[kind] = op_counts.get(kind, 0) + count
        result = WorkloadResult(
            spec=self.sessions[0].trace.spec,
            model_name=self.model.name,
            raw=self.engine.metrics.snapshot(),
            op_counts=op_counts,
        )
        return ServingResult(
            result=result,
            stats=stats,
            session_summaries=tuple(
                session.counters.to_dict() for session in self.sessions
            ),
        )


def run_serving(
    model: StorageModel,
    spec: WorkloadSpec,
    clients: int,
    scheduler: Scheduler | None = None,
    n_objects: int | None = None,
    **kwargs,
) -> ServingResult:
    """Compile per-client traces for ``spec`` (by default over the whole
    extension) and serve them.

    The convenience entry point mirroring
    :func:`repro.benchmark.workload.run_workload` for the multi-session
    case; extra keyword arguments pass through to
    :class:`ServingExecutor`.
    """
    n_objects = model.n_objects if n_objects is None else n_objects
    traces = make_client_traces(spec, n_objects, clients)
    return ServingExecutor(model, traces, scheduler=scheduler, **kwargs).run()
