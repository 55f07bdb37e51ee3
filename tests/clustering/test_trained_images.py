"""Every trained and reclustered extension image, pinned.

``goldens/trained_images.json`` holds one SHA-256 per image
:meth:`SnapshotStore.get_reclustered` builds for the five models × the
two active policies × five training traces at the ``clustering``
experiment's ``--fast --objects 60`` configuration:

* the experiment's three navigation traces (uniform, zipf(1.0),
  zipf(1.4));
* a mix with full scans and 20 % root updates;
* a navigation trace over the first half of the extension only (its
  navigations still reach every object).

An image digest covers the disk's page bytes, its allocation state and
a rendering of the model's ``capture_state()``, so any change to the
training writes, to the placement or to the rewrite moves it.
Regenerate only when a trained layout deliberately changes, and list
every moved image in CHANGES.md:
``PYTHONPATH=src python tests/clustering/test_trained_images.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.benchmark.generator import generate_stations
from repro.benchmark.snapshots import SnapshotStore
from repro.benchmark.workload import WorkloadSpec, compile_trace
from repro.clustering.placement import RECLUSTER_POLICIES
from repro.experiments.clustering import (
    CLUSTERED_MODELS,
    SKEW_LEVELS,
    experiment_config,
    navigation_spec,
    operation_count,
)
from repro.experiments.measure import FAST_CONFIG
from repro.nf2.serializer import DASDBS_FORMAT

GOLDEN_PATH = Path(__file__).parent / "goldens" / "trained_images.json"

CONFIG = experiment_config(FAST_CONFIG.with_changes(n_objects=60))
N_OPS = operation_count(CONFIG)

#: The active placement policies (``none`` trains nothing).
POLICIES = tuple(policy for policy in RECLUSTER_POLICIES if policy != "none")


def traces() -> dict:
    """The training traces, by name."""
    out = {
        skew: compile_trace(navigation_spec(skew, theta, N_OPS), CONFIG.n_objects)
        for skew, theta in SKEW_LEVELS
    }
    scan_mix = WorkloadSpec(
        name="scan-mix",
        point_weight=0.3,
        navigate_weight=0.4,
        scan_weight=0.1,
        update_weight=0.2,
        n_ops=N_OPS,
        seed=2027,
    )
    out["scan-mix"] = compile_trace(scan_mix, CONFIG.n_objects)
    out["half-extension"] = compile_trace(
        navigation_spec("zipf(1.0)", 1.0, N_OPS), CONFIG.n_objects // 2
    )
    return out


def image_digest(snapshot) -> str:
    """SHA-256 over page bytes, allocation state and the model state."""
    digest = hashlib.sha256()
    disk = snapshot.disk
    digest.update(f"{disk.page_size}:{disk.next_page_id}:{sorted(disk.allocated)}".encode())
    for page in disk.image:
        digest.update(b"\x00" if page is None else b"\x01" + page)
    digest.update(repr(snapshot.model_state).encode())
    return digest.hexdigest()


def capture() -> dict:
    """``{"<model> <policy> <trace>": sha256}`` for every trained image."""
    store = SnapshotStore(max_snapshots=64)
    stations = generate_stations(CONFIG)
    captured = {}
    for trace_name, trace in traces().items():
        for model in CLUSTERED_MODELS:
            for policy in POLICIES:
                snapshot = store.get_reclustered(
                    CONFIG, model, lambda: stations, DASDBS_FORMAT, trace, policy
                )
                captured[f"{model} {policy} {trace_name}"] = image_digest(snapshot)
    return captured


@pytest.fixture(scope="module")
def captured() -> dict:
    return capture()


def test_every_trained_image_matches_golden(captured):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert len(golden) == len(CLUSTERED_MODELS) * len(POLICIES) * 5
    assert set(captured) == set(golden)
    moved = sorted(name for name, digest in golden.items() if captured[name] != digest)
    assert not moved, f"trained images drifted: {moved}"


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
