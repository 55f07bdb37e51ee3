"""Package-surface tests: public API, errors, oid."""

import pytest

import repro
from repro.errors import (
    BenchmarkError,
    BufferError_,
    BufferFullError,
    InvalidAddressError,
    ModelError,
    PageOverflowError,
    ReproError,
    SchemaError,
    SerializationError,
    StorageError,
    UnsupportedOperationError,
)
from repro.nf2.oid import Rid


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_headline_types_importable(self):
        assert callable(repro.create_model)
        assert callable(repro.generate_stations)
        assert repro.DEFAULT_CONFIG.n_objects == 1500

    def test_model_registry_exposed(self):
        assert set(repro.MODEL_CLASSES) == {
            "DSM",
            "DASDBS-DSM",
            "NSM",
            "NSM+index",
            "DASDBS-NSM",
        }


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            SchemaError,
            SerializationError,
            StorageError,
            ModelError,
            BenchmarkError,
        ],
    )
    def test_direct_subclasses(self, exc):
        assert issubclass(exc, ReproError)

    def test_storage_sub_hierarchy(self):
        assert issubclass(PageOverflowError, StorageError)
        assert issubclass(InvalidAddressError, StorageError)
        assert issubclass(BufferError_, StorageError)
        assert issubclass(BufferFullError, BufferError_)

    def test_model_sub_hierarchy(self):
        assert issubclass(UnsupportedOperationError, ModelError)

    def test_one_except_catches_all(self):
        with pytest.raises(ReproError):
            raise BufferFullError("full")


class TestRid:
    def test_ordering(self):
        assert Rid(1, 0) < Rid(1, 1) < Rid(2, 0)

    def test_hashable(self):
        assert len({Rid(1, 0), Rid(1, 0), Rid(1, 1)}) == 2

    def test_repr(self):
        assert repr(Rid(3, 4)) == "Rid(3, 4)"


class TestMeasureCache:
    def test_measured_runs_cached(self):
        from repro.benchmark.config import BenchmarkConfig
        from repro.experiments.measure import measured_runs

        cfg = BenchmarkConfig(n_objects=20, buffer_pages=30, loops=2, q1a_sample=2, q1b_sample=1, q2a_sample=1)
        first = measured_runs(cfg, ("DSM",), ("1c",))
        second = measured_runs(cfg, ("DSM",), ("1c",))
        assert first is second  # lru_cache hit

    def test_fast_config_shape(self):
        from repro.experiments.measure import FAST_CONFIG

        assert FAST_CONFIG.n_objects < 1500
        assert FAST_CONFIG.buffer_pages < 1200
