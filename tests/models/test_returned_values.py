"""Every value the five models return, pinned.

``goldens/returned_values.json`` holds one SHA-256 per model and access
path over the canonical ``repr`` of everything that path returns for
every object of the ``--fast --objects 60`` extension: ``fetch_full``
(``fetch_full_by_key`` on plain NSM, which stores no identifiers),
``_scan_objects``, ``fetch_roots`` and ``fetch_refs``.  The canonical
form recurses into sub-relations and sorts atoms and sub-relations by
name, so a digest moves with any decoded value, its type included
(``'x'`` and ``b'x'`` differ), and with nothing else.

Each path is read twice and both reads must agree: the second decodes
stored strings the codec has already seen.  Regenerate only when the
stored database deliberately changes:
``PYTHONPATH=src python tests/models/test_returned_values.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.benchmark.generator import generate_stations
from repro.benchmark.schema import key_of_oid
from repro.experiments.measure import FAST_CONFIG
from repro.models.registry import MODEL_CLASSES
from repro.nf2.values import NestedTuple
from tests.conftest import build_loaded_model

GOLDEN_PATH = Path(__file__).parent / "goldens" / "returned_values.json"

CONFIG = FAST_CONFIG.with_changes(n_objects=60)
PATHS = ("fetch_full", "_scan_objects", "fetch_roots", "fetch_refs")


def canonical(value):
    """A ``repr``-able rendering of ``value`` that sees every nested level."""
    if isinstance(value, NestedTuple):
        return (
            value.schema.name,
            sorted(value._atoms.items()),
            sorted((name, canonical(children)) for name, children in value._subs.items()),
        )
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, dict):
        return sorted((key, canonical(item)) for key, item in value.items())
    return value


def returned(model, path: str) -> list:
    """What ``path`` returns for every object of the loaded extension."""
    refs = [model.ref_of(oid) for oid in range(CONFIG.n_objects)]
    if path == "fetch_full":
        if model.supports_oid_access:
            return [model.fetch_full(ref) for ref in refs]
        return [model.fetch_full_by_key(key_of_oid(oid)) for oid in range(CONFIG.n_objects)]
    if path == "_scan_objects":
        return list(model._scan_objects())
    if path == "fetch_roots":
        return model.fetch_roots(refs)
    return [model.fetch_refs([ref]) for ref in refs]


def digest(values: list) -> str:
    return hashlib.sha256(repr(canonical(values)).encode()).hexdigest()


def capture() -> dict:
    """``{"<model> <path>": sha256}``; each path read twice, equal both times."""
    stations = generate_stations(CONFIG)
    captured = {}
    for name in MODEL_CLASSES:
        model = build_loaded_model(name, stations, buffer_pages=CONFIG.buffer_pages)
        for path in PATHS:
            first = digest(returned(model, path))
            assert digest(returned(model, path)) == first, f"{name} {path}: repeat differs"
            captured[f"{name} {path}"] = first
    return captured


@pytest.fixture(scope="module")
def captured() -> dict:
    return capture()


def test_every_returned_value_matches_golden(captured):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert len(golden) == len(MODEL_CLASSES) * len(PATHS)
    assert set(captured) == set(golden)
    moved = sorted(name for name, value in golden.items() if captured[name] != value)
    assert not moved, f"returned values drifted: {moved}"


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
