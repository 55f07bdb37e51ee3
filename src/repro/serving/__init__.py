"""Concurrent multi-session serving layer over one shared engine.

The paper drives the storage engine with a single client; the serving
layer multiplexes **many sessions onto one** :class:`~repro.storage.
StorageEngine`, the way a production object server faces its users:

* :mod:`repro.serving.session` — the per-client :class:`Session`: its
  own compiled trace, its own counters, its own latency series, all
  isolated from every other session while the engine underneath is
  shared;
* :mod:`repro.serving.scheduler` — the admission/scheduling queue that
  decides the deterministic grant order of operations (FIFO closed
  loop, seeded round-robin, weighted priority);
* :mod:`repro.serving.server` — the :class:`ServingExecutor` that
  replays the granted schedule against the shared engine in one plain
  loop — the grant order is the execution order — and derives
  throughput plus p50/p99 tail latency from a simulated-time queueing
  model whose inputs are the paper's own integer counters —
  byte-reproducible, like every other number this repository emits.

A served run is single-threaded and charges each operation's page
fixes, the engine counter's delta across it, to the session that
granted it.  The per-frame owner ledger behind
:meth:`repro.storage.buffer.BufferManager.session_fix` and friends is a
checked protocol available to callers that hold fixes on a session's
behalf; nothing in this package takes it, and the latch and session
fuzz suites are what exercise it.
"""

from __future__ import annotations

from repro.serving.scheduler import (
    FIFOScheduler,
    PriorityScheduler,
    RoundRobinScheduler,
    SCHEDULER_NAMES,
    Scheduler,
    make_scheduler,
)
from repro.serving.server import (
    SERVING_CPU_MS_PER_FIX,
    ServiceTimeModel,
    ServingExecutor,
    ServingResult,
    ServingStats,
    make_client_traces,
    run_serving,
)
from repro.serving.session import Session, SessionCounters

__all__ = [
    "FIFOScheduler",
    "PriorityScheduler",
    "RoundRobinScheduler",
    "SCHEDULER_NAMES",
    "Scheduler",
    "make_scheduler",
    "SERVING_CPU_MS_PER_FIX",
    "ServiceTimeModel",
    "ServingExecutor",
    "ServingResult",
    "ServingStats",
    "make_client_traces",
    "run_serving",
    "Session",
    "SessionCounters",
]
