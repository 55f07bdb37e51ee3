"""Online (incremental) reclustering under live traffic.

PR 5's recluster is offline: train on a finished trace, rewrite the
whole layout, then measure.  That is the right tool for a *static*
workload, but once the hot region drifts (DOEF-style dynamic workloads)
a layout trained on yesterday's traffic mixes objects that are hot in
different phases onto the same pages.  Darmont's dynamic-clustering line
("Advocacy for Simplicity" / DSTC) argues the fix is a deliberately
simple *online* policy: watch recent accesses, periodically move a small
bounded batch of hot objects together, repeat.

:class:`OnlineRecluster` is that controller:

* it keeps a **windowed** :class:`~repro.clustering.stats.AccessStats`
  (reset at every trigger), so the placement follows the *current* hot
  set instead of the whole history;
* triggers fire at deterministic operation counts — every
  ``trigger_ops`` recorded operations — never from wall clock — so a
  run is byte-reproducible across repeated invocations, flat or served
  (a served run feeds the controller in grant order);
* each trigger moves the window's **newly** hot objects through
  :meth:`~repro.models.base.StorageModel.move_objects`, which bounds the
  batch at ``max_moves_per_trigger`` freshly written pages per shared
  segment and remaps every address through partial rid forwarding.
  Objects the controller already placed are never re-moved: a move
  co-locates its batch, so repeating it would buy nothing and cost a
  batch of page I/O per trigger — under a *static* hot set the
  controller therefore converges (one paid move batch, then quiet),
  and under drift it pays one batch per newly heated window;
* the move I/O flows through the ordinary buffer paths **inside** the
  measured interval — online reorganisation pays its cost where the
  counters can see it, unlike the offline rewrite that runs before
  measurement starts.

With ``max_moves_per_trigger=0`` the controller still counts operations
(triggers fire, moving nothing) and a run is counter-identical to no
reclustering at all — the equivalence the golden parity suite pins.
"""

from __future__ import annotations

from typing import Iterable

from repro.clustering.placement import placement_order, validate_policy
from repro.clustering.stats import AccessStats
from repro.errors import BenchmarkError
from repro.models.base import StorageModel


class OnlineRecluster:
    """Rate-limited background reorganisation driven by recent accesses."""

    def __init__(
        self,
        model: StorageModel,
        policy: str = "hotcold",
        trigger_ops: int = 50,
        max_moves_per_trigger: int = 8,
        min_heat: int = 2,
    ) -> None:
        validate_policy(policy)
        if policy == "none":
            raise BenchmarkError(
                "online reclustering needs a placement policy; "
                "'none' would never move anything"
            )
        if trigger_ops < 1:
            raise BenchmarkError("trigger_ops must be at least 1")
        if max_moves_per_trigger < 0:
            raise BenchmarkError("max_moves_per_trigger must be non-negative")
        if min_heat < 1:
            raise BenchmarkError("min_heat must be at least 1")
        self.model = model
        self.policy = policy
        self.trigger_ops = trigger_ops
        self.max_moves_per_trigger = max_moves_per_trigger
        #: Window accesses an object needs before it is worth moving.
        #: Skewed traffic trickles one-touch tail objects through every
        #: window; at the default (2) only the repeatedly hit core
        #: moves, so the batch is the working set, not sampling noise.
        self.min_heat = min_heat
        #: Sliding observation window, reset at every trigger.
        self.window = AccessStats(model.n_objects)
        #: Operations observed over the controller's whole lifetime.
        self.ops_seen = 0
        #: Triggers fired (deterministic: ``ops_seen // trigger_ops``).
        self.triggers = 0
        #: Pages written by move batches, summed over all triggers.
        self.pages_moved = 0
        #: Objects already relocated by an earlier trigger.  A batch is
        #: moved *together* (co-located on its destination pages), so a
        #: placed object stays clustered until the traffic changes what
        #: it should be clustered *with* — and even then, re-moving the
        #: survivors next to the newcomers costs more I/O than it saves.
        #: Skipping them is what lets the controller converge instead of
        #: churning the same hot set onto fresh pages forever.
        self.placed: set[int] = set()

    # -- executor-side hooks --------------------------------------------------
    #
    # Mirrors the AccessStats recording interface.  Each note_* is one
    # operation; the trigger check runs after recording, so a trigger
    # sees the window including the operation that tripped it.

    def note_operation(self, oids: Iterable[int]) -> None:
        """Record one operation's touched objects, maybe trigger."""
        self.window.record_operation(oids)
        self._tick()

    def note_scan(self) -> None:
        """Record a full scan, maybe trigger."""
        self.window.record_scan()
        self._tick()

    def _tick(self) -> None:
        self.ops_seen += 1
        if self.ops_seen % self.trigger_ops == 0:
            self._trigger()

    def _trigger(self) -> None:
        """Move the window's newly hot objects, then reset the window."""
        self.triggers += 1
        window = self.window
        if self.max_moves_per_trigger > 0:
            heat = window.heat
            # The policy orders ALL oids; only currently-hot objects the
            # controller has not placed before move (see ``placed``).
            hot = [
                oid
                for oid in placement_order(self.policy, window)
                if heat[oid] >= self.min_heat and oid not in self.placed
            ]
            if hot:
                self.pages_moved += self.model.move_objects(
                    hot, self.max_moves_per_trigger
                )
                self.placed.update(hot)
        self.window = AccessStats(self.model.n_objects)

    # -- reporting -------------------------------------------------------------

    def summary(self) -> dict:
        """JSON-stable digest of the controller's activity."""
        return {
            "policy": self.policy,
            "trigger_ops": self.trigger_ops,
            "max_moves_per_trigger": self.max_moves_per_trigger,
            "min_heat": self.min_heat,
            "ops_seen": self.ops_seen,
            "triggers": self.triggers,
            "pages_moved": self.pages_moved,
        }


__all__ = ["OnlineRecluster"]
