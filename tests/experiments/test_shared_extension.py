"""Each placement experiment generates its extension once.

``clustering`` and ``drift`` build one runner per (workload, model,
placement) cell; the cells differ only in placement, so every runner
adopts the one extension the experiment's ``CellInputs`` generates on
first use.  The
snapshot store is fresh, so every cell that needs stations asks for
them and the count is not masked by images cached earlier in the
session.
"""

from __future__ import annotations

import pytest

import repro.benchmark.runner as runner_module
import repro.experiments.sweep as sweep_module
from repro.benchmark.generator import generate_stations
from repro.benchmark.snapshots import SnapshotStore
from repro.experiments import clustering, drift
from repro.experiments.measure import FAST_CONFIG


@pytest.mark.parametrize("experiment", (clustering, drift), ids=("clustering", "drift"))
def test_one_generation_per_experiment(experiment, monkeypatch):
    generated = []

    def counted(config):
        generated.append(config)
        return generate_stations(config)

    for module in (runner_module, sweep_module):
        monkeypatch.setattr(module, "generate_stations", counted)
    monkeypatch.setattr(runner_module, "DEFAULT_STORE", SnapshotStore())
    experiment.run_comparison(FAST_CONFIG.with_changes(n_objects=60))
    assert len(generated) == 1
