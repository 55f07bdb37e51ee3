"""The paper queries' full counters, off the golden configuration.

``goldens/seed_metrics.json`` pins five counters per (model, query) at
one configuration (LRU, 240 pages, 60 objects).  This golden pins the
whole :class:`~repro.storage.metrics.MetricsSnapshot` and the divisor
of every (model, query) pair for all five registered models, at 120
objects, under three configurations that reach paths the seed golden
does not: an LRU-K buffer small enough to evict, a 2Q buffer over
objects without children, and three hash shards.

Regenerate only when a query's semantics deliberately change:
``PYTHONPATH=src python tests/experiments/test_query_snapshots.py``.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.benchmark.queries import QUERY_NAMES
from repro.benchmark.runner import BenchmarkRunner
from repro.experiments.measure import FAST_CONFIG
from repro.models.registry import MODEL_CLASSES

GOLDEN_PATH = Path(__file__).parent / "goldens" / "query_snapshots.json"

BASE = FAST_CONFIG.with_changes(n_objects=120)

CONFIGS = {
    "lru-k-24": BASE.with_changes(policy="lru-k", buffer_pages=24),
    "2q-64-childless": BASE.with_changes(policy="2q", buffer_pages=64, probability=0.0),
    "shards-3": BASE.with_changes(shards=3),
}


def capture(name: str) -> dict:
    """``{model: {query: {"divisor": …, "raw": {counter: …}} | None}}``."""
    runs = BenchmarkRunner(CONFIGS[name]).run_models(tuple(MODEL_CLASSES), QUERY_NAMES)
    return {
        model: {
            query: None
            if result is None
            else {"divisor": result.divisor, "raw": asdict(result.raw)}
            for query, result in run.results.items()
        }
        for model, run in runs.items()
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_query_snapshots_match_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())[name]
    got = capture(name)
    assert set(got) == set(golden) == set(MODEL_CLASSES)
    for model, per_query in golden.items():
        for query, want in per_query.items():
            assert got[model][query] == want, f"{name}: {model}/{query} drifted"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({name: capture(name) for name in sorted(CONFIGS)}, indent=1, sort_keys=True)
        + "\n"
    )
