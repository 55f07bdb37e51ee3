"""Every compiled ticket trace and its hold-state history, pinned.

``goldens/ticket_traces.json`` holds one SHA-256 per ``hold_ops`` and
inventory shape over the operations *and* the transition log of
``compile_ticket_trace`` for 40 seeds.  The shapes run from a single
hot record (holds, purchases and restocks back to back) to a
150-record block (many concurrent holds lapsing in record order), so
any change to the hold bookkeeping that reorders one expiry, restock
or operation moves a digest.  Regenerate only when the scenario
deliberately changes:
``PYTHONPATH=src python tests/benchmark/test_ticket_traces.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.benchmark.scenarios import AVAILABLE, HELD, TicketMachine, compile_ticket_trace
from repro.benchmark.workload import WorkloadSpec

GOLDEN_PATH = Path(__file__).parent / "goldens" / "ticket_traces.json"

SEEDS = range(40)
HOLD_OPS = (1, 2, 3, 25, 200)
#: ``(n_objects, scenario_records)``; 0 records is the default tenth.
SHAPES = ((10, 0), (60, 3), (200, 0), (1500, 0))
N_OPS = 400


def capture() -> dict:
    """``{"hold=<h> objects=<n> records=<r>": sha256}`` over all seeds."""
    captured = {}
    for hold_ops in HOLD_OPS:
        for n_objects, records in SHAPES:
            digest = hashlib.sha256()
            for seed in SEEDS:
                spec = WorkloadSpec(
                    scenario="ticket-inventory",
                    scenario_records=records,
                    hold_ops=hold_ops,
                    n_ops=N_OPS,
                    seed=seed,
                )
                ops, transitions = compile_ticket_trace(spec, n_objects)
                digest.update(repr((ops, transitions)).encode())
            captured[f"hold={hold_ops} objects={n_objects} records={records}"] = digest.hexdigest()
    return captured


@pytest.fixture(scope="module")
def captured() -> dict:
    return capture()


def test_every_ticket_trace_matches_golden(captured):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert len(golden) == len(HOLD_OPS) * len(SHAPES)
    assert set(captured) == set(golden)
    moved = sorted(name for name, value in golden.items() if captured[name] != value)
    assert not moved, f"ticket traces drifted: {moved}"


def test_a_hold_retaken_lapses_once_and_records_lapse_in_order():
    machine = TicketMachine(n_records=3, hold_ops=4)
    machine.act(0, 2, 0.9)  # hold
    machine.act(0, 2, 0.6)  # release
    machine.act(0, 2, 0.9)  # hold again, at the same operation
    machine.act(0, 0, 0.9)
    machine.act(1, 1, 0.9)
    machine.act(1, 1, 0.6)  # released: its queue entry is stale
    assert machine.expire_holds(3) == []
    assert machine.expire_holds(4) == [0, 2]
    assert machine.states == [AVAILABLE, AVAILABLE, AVAILABLE]
    assert machine.expire_holds(9) == []
    machine.act(9, 1, 0.9)
    assert machine.states[1] == HELD
    assert machine.expire_holds(13) == [1]


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
