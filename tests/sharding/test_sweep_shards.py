"""Sweep-level parity: the shards axis never moves a default-axis byte.

Three contracts, in increasing strength:

* the default-format JSON digest is **pinned** — the axis-absent
  encoding must stay byte-for-byte what it was before sharding existed
  (the golden below predates nothing: it is computed from the exact
  pre-axis format, which ``shards=(1,)`` must keep reproducing);
* passing ``shards=(1,)`` explicitly is byte-identical to not passing
  the axis at all, in text and in JSON;
* a sharded grid is byte-deterministic across worker counts — 2 and 4
  pool workers, and the sequential run, produce identical JSON.
"""

import hashlib

from repro.benchmark.config import BenchmarkConfig
from repro.experiments.sweep import render_result, run_sweep

#: The golden grid: small, fixed, and fully deterministic.
GOLDEN_CONFIG = BenchmarkConfig(n_objects=48, buffer_pages=32, seed=7)
GOLDEN_GRID = dict(
    workloads=("uniform,ops=30",),
    capacities=(16,),
    policies=("lru",),
    models=("DSM", "NSM+index"),
)

#: SHA-256 of the default-axis sweep JSON above.  This is the pre-shard
#: byte format: any change to it — a new field, a reordered key, a
#: moved counter — is a breaking change to every committed artifact.
GOLDEN_JSON_SHA = "832da178020b0cfa2102fb218acbf70d606e814517734a5b43c27986e8861669"


def test_default_axis_json_digest_is_pinned():
    result = run_sweep(GOLDEN_CONFIG, **GOLDEN_GRID)
    digest = hashlib.sha256(result.to_json().encode()).hexdigest()
    assert digest == GOLDEN_JSON_SHA


def test_shards_one_is_byte_identical_to_axis_absent():
    base = run_sweep(GOLDEN_CONFIG, **GOLDEN_GRID)
    explicit = run_sweep(
        GOLDEN_CONFIG, **GOLDEN_GRID, shards=(1,), shard_policy="hash"
    )
    assert explicit.to_json() == base.to_json()
    assert render_result(explicit) == render_result(base)
    # The policy name alone must not leak into default-axis output.
    ranged = run_sweep(
        GOLDEN_CONFIG, **GOLDEN_GRID, shards=(1,), shard_policy="range"
    )
    assert ranged.to_json() == base.to_json()


def test_sharded_sweep_is_byte_deterministic_across_workers():
    # Larger cell buffers: a 4-way split must leave each shard enough
    # frames for the widest grouped fix of the replay.
    kwargs = dict(
        GOLDEN_GRID, capacities=(32,), shards=(1, 4), shard_policy="hash"
    )
    two = run_sweep(GOLDEN_CONFIG, processes=2, **kwargs)
    four = run_sweep(GOLDEN_CONFIG, processes=4, **kwargs)
    assert two.to_json() == four.to_json()
    assert render_result(two) == render_result(four)


def test_sharded_sweep_process_pool_matches_sequential():
    kwargs = dict(GOLDEN_GRID, shards=(2,), shard_policy="range")
    sequential = run_sweep(GOLDEN_CONFIG, **kwargs)
    pooled = run_sweep(GOLDEN_CONFIG, processes=2, **kwargs)
    assert pooled.to_json() == sequential.to_json()


def test_sharded_cells_roll_up_to_the_per_shard_sums():
    result = run_sweep(
        GOLDEN_CONFIG, **dict(GOLDEN_GRID, capacities=(32,)), shards=(4,)
    )
    for cell in result.cells:
        report = cell.result.sharding
        assert report is not None and report.n_shards == 4
        total = report.per_shard[0]
        for snapshot in report.per_shard[1:]:
            total = total + snapshot
        raw = cell.result.raw
        assert total == raw
        encoded = cell.to_dict(result.active_axes)
        assert encoded["shards"] == 4
        assert len(encoded["sharding"]["shards"]) == 4
        assert encoded["sharding"]["cross_shard_hops"] == report.cross_shard_hops


def test_served_sharded_run_attributes_fixes_on_every_shard():
    """Each session is charged the aggregate counter's delta across its
    operations, so fixes on shards 1..N-1 reach a session's ledger as
    surely as shard 0's."""
    from repro.benchmark.runner import BenchmarkRunner
    from repro.benchmark.workload import WorkloadSpec
    from repro.serving import ServingExecutor, make_client_traces

    model = BenchmarkRunner(GOLDEN_CONFIG.with_changes(shards=3)).build_model("NSM+index")
    try:
        spec = WorkloadSpec(name="fanout", n_ops=6, seed=2)
        traces = make_client_traces(spec, GOLDEN_CONFIG.n_objects, clients=2)
        outcome = ServingExecutor(model, traces).run()
        attributed = sum(s["page_fixes"] for s in outcome.session_summaries)
        assert attributed == outcome.result.raw.page_fixes > 0
    finally:
        model.engine.close()


def test_sharded_recluster_grid_is_refused_by_the_config_before_any_build():
    """One place for refusals: the grid is laid out (every cell's config
    built) before the first cell runs, so the config's own typed error
    surfaces and the snapshot store has built nothing."""
    import pytest

    from repro.benchmark.snapshots import DEFAULT_STORE
    from repro.errors import ConfigError

    fresh = GOLDEN_CONFIG.with_changes(seed=70707)  # no cached extension
    builds = DEFAULT_STORE.builds
    with pytest.raises(ConfigError, match="recluster"):
        run_sweep(fresh, **GOLDEN_GRID, shards=(1, 2), reclusters=("none", "affinity"))
    assert DEFAULT_STORE.builds == builds
