"""Application-scenario trace compilers: ticket holds and activity feeds.

The mix/skew compiler of :mod:`repro.benchmark.workload` draws every
operation independently; real contention does not.  These compilers run
small deterministic application simulations and emit their access
patterns as ordinary :class:`~repro.benchmark.workload.Operation`
streams, so every executor (flat replay, serving layer, sweeps) runs
them unchanged:

* **ticket-inventory** — an on-sale event: a *contiguous low-OID block*
  of hot records (the inventory) absorbs nearly all traffic while the
  rest of the extension sees background lookups.  Each hot record walks
  a hold state machine (AVAILABLE → HELD → SOLD, with holds expiring
  back to AVAILABLE after :attr:`~repro.benchmark.workload.WorkloadSpec.
  hold_ops` operations).  Availability checks compile to ``point``
  operations, holds/purchases/releases to single-record ``update``\\ s.

* **activity-stream** — a feed: a small poster population (again the
  low-OID block) posts (``update``), and followers poll recent posters
  with strong recency bias — each poll is a ``navigate`` fanning out
  from the poster, plus occasional timeline ``scan``\\ s.

Both scenarios put the hot set on *contiguous low OIDs* deliberately:
bulk loading stores those records together, so a ``range`` shard policy
colocates the contention on few shards (few cross-shard hops along an
operation sequence) while ``hash`` scatters it across all of them —
the locality contrast the sharding experiment measures.

Everything is a pure function of ``(spec, n_objects)``: same spec, same
trace, byte for byte.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from repro.errors import BenchmarkError
from repro.benchmark.workload import Operation, WorkloadSpec, WorkloadTrace

#: Ticket states (the hold state machine's nodes).
AVAILABLE = "available"
HELD = "held"
SOLD = "sold"


@dataclass(frozen=True)
class Transition:
    """One hold-state-machine edge taken during compilation."""

    op_index: int
    record: int
    source: str
    target: str
    cause: str  # "hold" | "buy" | "release" | "expire" | "restock"


def hot_block(spec: WorkloadSpec, n_objects: int) -> tuple[int, int]:
    """``(start, size)`` of the scenario's hot record block.

    Always the lowest OIDs (see module docstring); default size is a
    tenth of the extension, floored at one record, capped at the
    extension.
    """
    if spec.scenario_records:
        return 0, min(n_objects, spec.scenario_records)
    return 0, max(1, n_objects // 10)


def compile_scenario_trace(spec: WorkloadSpec, n_objects: int) -> WorkloadTrace:
    """Dispatch to the scenario's compiler (``spec.scenario != "none"``)."""
    if spec.scenario == "ticket-inventory":
        ops, _ = compile_ticket_trace(spec, n_objects)
    elif spec.scenario == "activity-stream":
        ops = compile_activity_trace(spec, n_objects)
    else:
        raise BenchmarkError(f"unknown scenario {spec.scenario!r}")
    return WorkloadTrace(spec=spec, n_objects=n_objects, ops=tuple(ops))


class TicketMachine:
    """Hold state machine of one inventory of hot records.

    Deterministic given its RNG; every taken edge is recorded in
    :attr:`transitions` so tests can assert the exact state history
    (holds expire after ``hold_ops`` operations, sold-out inventories
    restock).
    """

    def __init__(self, n_records: int, hold_ops: int) -> None:
        if n_records < 1:
            raise BenchmarkError("a ticket inventory needs at least one record")
        self.n_records = n_records
        self.hold_ops = hold_ops
        self.states = [AVAILABLE] * n_records
        self.held_since = [-1] * n_records
        self.transitions: list[Transition] = []
        #: ``(held_since, record)`` per hold taken, oldest first; an
        #: entry is stale once its record left that hold.
        self._holds: deque[tuple[int, int]] = deque()
        self._sold = 0

    def _move(self, index: int, record: int, target: str, cause: str) -> None:
        """Take one edge: the only writer of :attr:`states`."""
        source = self.states[record]
        self.transitions.append(Transition(index, record, source, target, cause))
        self.states[record] = target
        self._sold += (target == SOLD) - (source == SOLD)
        if target == HELD:
            self.held_since[record] = index
            self._holds.append((index, record))
        else:
            self.held_since[record] = -1

    def expire_holds(self, index: int) -> list[int]:
        """Records whose holds lapse at operation ``index`` (in record
        order); each transitions back to AVAILABLE.  Operation indices
        never decrease, so the lapsed holds lead the queue."""
        holds, lapsing = self._holds, set()
        while holds and index - holds[0][0] >= self.hold_ops:
            since, record = holds.popleft()
            if self.states[record] == HELD and self.held_since[record] == since:
                lapsing.add(record)
        lapsed = sorted(lapsing)
        for record in lapsed:
            self._move(index, record, AVAILABLE, "expire")
        return lapsed

    def act(self, index: int, record: int, roll: float) -> str:
        """One customer action against ``record``; returns the operation
        kind it costs ("point" for checks, "update" for state writes)."""
        state = self.states[record]
        if state == AVAILABLE:
            if roll < 0.55:
                return "point"  # availability check
            self._move(index, record, HELD, "hold")
            return "update"
        if state == HELD:
            if roll < 0.50:
                self._move(index, record, SOLD, "buy")
            elif roll < 0.70:
                self._move(index, record, AVAILABLE, "release")
            else:
                return "point"  # impatient re-check of the held ticket
            return "update"
        # SOLD: fans keep checking; a fully sold-out inventory restocks
        # (the next event goes on sale) so the machine never dead-ends.
        if self._sold == self.n_records:
            for rec in range(self.n_records):
                self._move(index, rec, AVAILABLE, "restock")
            return "update"
        return "point"


def compile_ticket_trace(
    spec: WorkloadSpec, n_objects: int
) -> tuple[list[Operation], list[Transition]]:
    """The ticket scenario's operations plus the full transition log.

    ~90 % of operations target the hot inventory block (uniformly —
    every ticket of an on-sale event is equally wanted); the rest are
    background point lookups over the remaining extension.  Hold expiry
    is processed *before* each operation, charging one update per
    lapsed record — the write that returns the ticket to the pool.
    """
    rng = random.Random(f"ticket-{spec.seed}")
    start, size = hot_block(spec, n_objects)
    machine = TicketMachine(size, spec.hold_ops)
    ops: list[Operation] = []
    index = 0
    while len(ops) < spec.n_ops:
        for record in machine.expire_holds(index):
            ops.append(Operation("update", start + record))
            if len(ops) >= spec.n_ops:
                break
        if len(ops) >= spec.n_ops:
            break
        if size < n_objects and rng.random() < 0.10:
            ops.append(
                Operation("point", rng.randrange(start + size, n_objects))
            )
        else:
            record = rng.randrange(size)
            kind = machine.act(index, record, rng.random())
            ops.append(Operation(kind, start + record))
        index += 1
    return ops, machine.transitions


def compile_activity_trace(spec: WorkloadSpec, n_objects: int) -> list[Operation]:
    """The activity-stream scenario's operations.

    Posters are the hot block; each post is an ``update`` on the poster
    record, and ~70 % of operations are follower polls — a ``navigate``
    fan-out from a *recently active* poster (recency bias: the newest
    posters absorb most polls).  A small background of timeline
    ``scan``\\ s (2 %) and profile ``point`` lookups rounds out the mix.
    """
    rng = random.Random(f"activity-{spec.seed}")
    start, size = hot_block(spec, n_objects)
    recent: list[int] = []
    ops: list[Operation] = []
    for _ in range(spec.n_ops):
        roll = rng.random()
        if roll < 0.20 or not recent:
            poster = start + rng.randrange(size)
            ops.append(Operation("update", poster))
            if poster in recent:
                recent.remove(poster)
            recent.append(poster)
            if len(recent) > 8:
                recent.pop(0)
        elif roll < 0.90:
            # Poll a recent poster, newest-biased: draw two candidate
            # recency positions and keep the newer one.
            position = max(
                rng.randrange(len(recent)), rng.randrange(len(recent))
            )
            ops.append(Operation("navigate", recent[position]))
        elif roll < 0.92:
            ops.append(Operation("scan"))
        else:
            ops.append(Operation("point", rng.randrange(n_objects)))
    return ops


__all__ = [
    "AVAILABLE",
    "HELD",
    "SOLD",
    "TicketMachine",
    "Transition",
    "compile_activity_trace",
    "compile_scenario_trace",
    "compile_ticket_trace",
    "hot_block",
]
