"""Shared fixtures: small engines, tiny extensions, loaded models."""

from __future__ import annotations

import pytest

from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.generator import generate_stations
from repro.benchmark.runner import BenchmarkRunner
from repro.clustering.stats import AccessStats
from repro.models.registry import create_model
from repro.storage import StorageEngine


@pytest.fixture
def engine() -> StorageEngine:
    """A default-size engine (2 KB pages, 1200-page buffer, LRU)."""
    return StorageEngine()


@pytest.fixture
def tiny_engine() -> StorageEngine:
    """An engine with a very small buffer, to exercise eviction."""
    return StorageEngine(buffer_pages=8)


@pytest.fixture(scope="session")
def small_config() -> BenchmarkConfig:
    """A small but fully featured benchmark configuration."""
    return BenchmarkConfig(
        n_objects=60,
        loops=12,
        q1a_sample=10,
        q1b_sample=2,
        q2a_sample=5,
        buffer_pages=400,
        seed=7,
    )


@pytest.fixture(scope="session")
def small_stations(small_config):
    return generate_stations(small_config)


@pytest.fixture(scope="session")
def small_runner(small_config) -> BenchmarkRunner:
    return BenchmarkRunner(small_config)


def build_loaded_model(name: str, stations, buffer_pages: int = 400):
    """Fresh engine + model loaded with the given stations."""
    engine = StorageEngine(buffer_pages=buffer_pages)
    model = create_model(name, engine)
    model.load(stations)
    engine.reset_metrics()
    return model


class TouchRecorder(AccessStats):
    """Heat and affinity of the objects an executor reports touching.

    Passed as an executor's ``online=`` controller, it records every
    operation's touched OIDs and never moves anything, so the run's
    counters are those of a run without it.
    """

    note_operation = AccessStats.record_operation
    note_scan = AccessStats.record_scan


@pytest.fixture(params=["DSM", "DASDBS-DSM", "NSM", "NSM+index", "DASDBS-NSM"])
def any_model_name(request) -> str:
    return request.param


@pytest.fixture
def loaded_model(any_model_name, small_stations):
    return build_loaded_model(any_model_name, small_stations)
