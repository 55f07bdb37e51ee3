"""Typed refusals: incompatible knob combinations raise ``ConfigError``.

Regression layer for the refusal paths: they must raise the *typed*
:class:`~repro.errors.ConfigError` (a :class:`BenchmarkError`), not a
bare string error from whichever subsystem noticed first, so the CLI
and the sweeps can rely on one exception family for bad configurations.
"""

import pytest

from repro.benchmark.config import BenchmarkConfig
from repro.errors import BenchmarkError, ConfigError


def test_io_scheduler_with_faults_raises_config_error():
    # The historical refusal, retyped: it used to surface as a plain
    # BenchmarkError; callers now get the ConfigError subtype.
    with pytest.raises(ConfigError, match="io.scheduler|scheduler"):
        BenchmarkConfig(io_scheduler=True, faults="torn=1")


def test_shards_with_faults_raises_config_error():
    with pytest.raises(ConfigError, match="fault"):
        BenchmarkConfig(shards=2, faults="torn=1")


def test_shards_with_recluster_raises_config_error():
    with pytest.raises(ConfigError, match="recluster"):
        BenchmarkConfig(shards=2, recluster="affinity")


def test_shards_with_trace_backend_raises_config_error():
    with pytest.raises(ConfigError, match="trace"):
        BenchmarkConfig(shards=2, backend="trace")


def test_bad_shard_policy_raises_config_error():
    with pytest.raises(ConfigError, match="policy"):
        BenchmarkConfig(shards=2, shard_policy="round-robin")


def test_non_positive_shards_raises_config_error():
    with pytest.raises(ConfigError):
        BenchmarkConfig(shards=0)
    with pytest.raises(ConfigError):
        BenchmarkConfig(shards=-1)


def test_config_error_is_a_benchmark_error():
    # Existing except-BenchmarkError callers keep catching refusals.
    assert issubclass(ConfigError, BenchmarkError)
    with pytest.raises(BenchmarkError):
        BenchmarkConfig(shards=2, faults="torn=1")


def test_valid_sharded_configs_are_accepted():
    config = BenchmarkConfig(shards=4, shard_policy="range")
    assert config.shards == 4 and config.shard_policy == "range"
    assert BenchmarkConfig(shards=1).shard_policy == "hash"
    # shards=1 composes with everything: it is the plain engine path.
    assert BenchmarkConfig(shards=1, faults="torn=1").shards == 1


# -- the facade holds no address table ---------------------------------------

FACADE_OPERATIONS = {
    "recluster": lambda facade, stations: facade.recluster(list(range(facade.n_objects))),
    "move_objects": lambda facade, stations: facade.move_objects([0, 1], 2),
    "apply_recovery": lambda facade, stations: facade.apply_recovery(None),
    "capture_state": lambda facade, stations: facade.capture_state(),
    "restore_state": lambda facade, stations: facade.restore_state({}),
    "insert_object": lambda facade, stations: facade.insert_object(stations[0]),
    "delete_object": lambda facade, stations: facade.delete_object(facade.ref_of(0)),
    "prepare_scan_partition": lambda facade, stations: facade.prepare_scan_partition(
        lambda oid: True
    ),
    "scan_partition": lambda facade, stations: facade.scan_partition(),
    "load": lambda facade, stations: facade.load(stations),
}


@pytest.mark.parametrize("operation", sorted(FACADE_OPERATIONS))
def test_table_backed_operations_are_refused_on_the_facade(operation, parity_stations):
    """``ShardedModel`` skips ``StorageModel.__init__`` and owns no table:
    what the kernel implements must be refused with a typed error (never
    an ``AttributeError``) and leave every replica untouched."""
    from repro.errors import ShardingError, UnsupportedOperationError
    from tests.sharding.conftest import PARITY_CONFIG, build_sharded, disk_digest

    facade = build_sharded(PARITY_CONFIG, parity_stations, "DASDBS-NSM", 2, "hash")
    digests = [disk_digest(replica.engine) for replica in facade.replicas]
    with pytest.raises((ShardingError, UnsupportedOperationError)):
        FACADE_OPERATIONS[operation](facade, parity_stations)
    assert [disk_digest(replica.engine) for replica in facade.replicas] == digests
    assert facade.scan_all() == len(parity_stations)
    assert len(facade.all_refs()) == len(parity_stations)
