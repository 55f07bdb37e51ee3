"""What deleting and inserting objects costs, off the golden configuration.

No other test pins the counters of ``delete_object`` and
``insert_object``: the oracles build their after-delete state with the
model itself on both sides.  This golden pins, for all five registered
models at the four unsharded configurations of
``test_query_snapshots.py``, the full
:class:`~repro.storage.metrics.MetricsSnapshot` of every call of one
fixed lifecycle — three objects deleted (the first, one in the middle,
the last), then two new stations keyed past the extension and one that
reuses a deleted key inserted — each call run after a cold restart and
measured after a flush, and the digest of the disk at the end.

Regenerate only when a lifecycle's semantics deliberately change:
``PYTHONPATH=src python tests/experiments/test_lifecycle_snapshots.py``.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.benchmark.generator import generate_stations
from repro.benchmark.runner import BenchmarkRunner
from repro.benchmark.schema import key_of_oid
from repro.models.registry import MODEL_CLASSES
from tests.experiments.test_query_snapshots import CONFIGS as QUERY_CONFIGS
from tests.sharding.conftest import disk_digest

GOLDEN_PATH = Path(__file__).parent / "goldens" / "lifecycle_snapshots.json"

CONFIGS = {
    name: QUERY_CONFIGS[name]
    for name in ("lru-k-24", "2q-64-childless", "sight-0", "sight-30-lru-k-24")
}

#: The objects deleted, in this order.
DELETED = (0, 61, 119)


def new_stations(config) -> list:
    """Three stations generated outside the extension: two keyed past
    its end, the last under the key of a deleted object."""
    n = config.n_objects
    donors = generate_stations(config.with_changes(n_objects=n + 3, seed=config.seed + 1))
    keys = (key_of_oid(n), key_of_oid(n + 1), key_of_oid(DELETED[1]))
    return [donor.replace_atoms(Key=key) for donor, key in zip(donors[n:], keys)]


def capture(name: str) -> dict:
    """``{model: {"calls": [{"result": …, "raw": {counter: …}}, …], "disk": sha256}}``."""
    config = CONFIGS[name]
    runner = BenchmarkRunner(config)
    stations = new_stations(config)
    captured = {}
    for model_name in MODEL_CLASSES:
        model = runner.build_model(model_name)
        engine = model.engine
        calls = [
            *((model.delete_object, model.ref_of(oid)) for oid in DELETED),
            *((model.insert_object, station) for station in stations),
        ]
        steps = []
        for call, argument in calls:
            engine.restart_buffer()
            engine.reset_metrics()
            result = call(argument)
            engine.flush()
            steps.append({"result": result, "raw": asdict(engine.metrics.snapshot())})
        captured[model_name] = {"calls": steps, "disk": disk_digest(engine)}
        engine.close()
    return captured


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_lifecycle_snapshots_match_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())[name]
    got = capture(name)
    assert set(got) == set(golden) == set(MODEL_CLASSES)
    for model, want in golden.items():
        for index, (step, expected) in enumerate(zip(got[model]["calls"], want["calls"])):
            assert step == expected, f"{name}: {model} call {index} drifted"
        assert len(got[model]["calls"]) == len(want["calls"])
        assert got[model]["disk"] == want["disk"], f"{name}: {model} disk drifted"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({name: capture(name) for name in sorted(CONFIGS)}, indent=1, sort_keys=True)
        + "\n"
    )
