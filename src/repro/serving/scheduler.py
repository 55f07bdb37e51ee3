"""Admission scheduling: the deterministic grant order of a serving run.

A scheduler turns per-session demands (how many operations each session
wants to run) into one flat **grant order** — the sequence in which the
serving executor lets operations touch the shared engine.  Determinism
is the whole design: the grant order is a pure function of the demands,
the priorities and (for the seeded policy) a seed, and the executor
runs the grants in exactly that order.  That makes the order an
*oracle* for the determinism tests — if two runs of the same population
disagree on a single counter, the engine underneath is not
deterministic; the schedule cannot be the cause.

Three policies, mirroring classic admission queues:

* :class:`FIFOScheduler` — the closed-loop arrival queue: every session
  enqueues its first request in session order; a completed request
  re-enqueues the session's next.  With a serial server this drains as
  strict round-robin until sessions run out of work.
* :class:`RoundRobinScheduler` — seeded fairness: each round grants one
  operation per live session in a freshly drawn (seeded) shuffle, so
  different seeds exercise different interleavings of the same traces.
* :class:`PriorityScheduler` — weighted round-robin: a session of
  priority *k* is granted up to *k* consecutive operations per round,
  so high-priority clients drain faster without starving anyone.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Sequence

from repro.errors import ServingError


class Scheduler:
    """Strategy interface: demands (+ priorities) → grant order."""

    name = "abstract"

    def order(
        self, demands: Sequence[int], priorities: Sequence[int] | None = None
    ) -> list[int]:
        """Grant order: one session index per operation.

        ``demands[i]`` is the number of operations session *i* will
        run; the result contains index *i* exactly ``demands[i]`` times.
        """
        raise NotImplementedError

    @staticmethod
    def _check(demands: Sequence[int]) -> None:
        if any(d < 0 for d in demands):
            raise ServingError("session demands must be non-negative")


class FIFOScheduler(Scheduler):
    """Closed-loop FIFO admission queue (see module docstring)."""

    name = "fifo"

    def order(
        self, demands: Sequence[int], priorities: Sequence[int] | None = None
    ) -> list[int]:
        self._check(demands)
        remaining = list(demands)
        queue = deque(i for i, d in enumerate(remaining) if d > 0)
        grants: list[int] = []
        while queue:
            session = queue.popleft()
            grants.append(session)
            remaining[session] -= 1
            if remaining[session] > 0:
                queue.append(session)
        return grants


class RoundRobinScheduler(Scheduler):
    """Seeded round-robin: per-round shuffled fair cycling."""

    name = "round-robin"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def order(
        self, demands: Sequence[int], priorities: Sequence[int] | None = None
    ) -> list[int]:
        self._check(demands)
        rng = random.Random(self.seed)
        remaining = list(demands)
        live = [i for i, d in enumerate(remaining) if d > 0]
        grants: list[int] = []
        while live:
            round_order = list(live)
            rng.shuffle(round_order)
            for session in round_order:
                grants.append(session)
                remaining[session] -= 1
            live = [i for i in live if remaining[i] > 0]
        return grants


class PriorityScheduler(Scheduler):
    """Weighted round-robin by session priority (weight ≥ 1)."""

    name = "priority"

    def order(
        self, demands: Sequence[int], priorities: Sequence[int] | None = None
    ) -> list[int]:
        self._check(demands)
        if priorities is None:
            priorities = [1] * len(demands)
        if len(priorities) != len(demands):
            raise ServingError("one priority per session is required")
        if any(p < 1 for p in priorities):
            raise ServingError("priorities must be at least 1")
        remaining = list(demands)
        live = [i for i, d in enumerate(remaining) if d > 0]
        grants: list[int] = []
        while live:
            for session in list(live):
                burst = min(priorities[session], remaining[session])
                grants.extend([session] * burst)
                remaining[session] -= burst
            live = [i for i in live if remaining[i] > 0]
        return grants


SCHEDULERS = {
    "fifo": FIFOScheduler,
    "round-robin": RoundRobinScheduler,
    "priority": PriorityScheduler,
}

#: Scheduler names accepted by :func:`make_scheduler` and ``--scheduler``.
SCHEDULER_NAMES = tuple(SCHEDULERS)


def make_scheduler(name: str, **kwargs) -> Scheduler:
    """Instantiate a scheduler by name (kwargs pass through, e.g. seed)."""
    try:
        cls = SCHEDULERS[name]
    except KeyError:
        raise ServingError(
            f"unknown scheduler {name!r} (known: {', '.join(SCHEDULERS)})"
        ) from None
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ServingError(
            f"scheduler {name!r} rejected arguments {kwargs!r}: {exc}"
        ) from None
