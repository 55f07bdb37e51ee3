"""AccessStats under the serving layer (the fix-listener regression).

The serving executor installs its own fix-attribution listener;
an attached :class:`AccessStats` joins it *alongside*, through the
multi-listener hook — it must neither displace the serving listener nor
be displaced by it.  The regression these tests pin: with one client
and no online moves, serving a trace collects exactly the statistics a
flat single-stream replay collects, hook observations included; with
many clients, heat is the sum of the per-client replays.  And feeding
an online controller through the serving layer stays deterministic
from run to run — the property the CI concurrency gate byte-diffs at
the sweep level, sequentially against ``--processes``.
"""

from __future__ import annotations

from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.generator import generate_stations
from repro.benchmark.workload import WorkloadExecutor, WorkloadSpec, compile_trace
from repro.clustering.online import OnlineRecluster
from repro.clustering.stats import AccessStats
from repro.serving.server import ServingExecutor, make_client_traces
from tests.conftest import build_loaded_model

CONFIG = BenchmarkConfig(n_objects=48, buffer_pages=32)

SPEC = WorkloadSpec(
    name="served",
    point_weight=0.45,
    navigate_weight=0.3,
    scan_weight=0.05,
    update_weight=0.2,
    n_ops=90,
    seed=23,
    skew="zipf",
    zipf_theta=1.1,
)


def _stations():
    return generate_stations(CONFIG)


def _collected(stats: AccessStats):
    return (
        stats.heat,
        stats.affinity,
        stats.n_ops,
        stats.page_touches,
        stats.page_fixes,
    )


def test_single_client_serving_stats_equal_flat_replay():
    stations = _stations()
    trace = compile_trace(SPEC, CONFIG.n_objects)

    flat_model = build_loaded_model("DASDBS-NSM", stations, CONFIG.buffer_pages)
    flat_stats = AccessStats(flat_model.n_objects)
    flat = WorkloadExecutor(flat_model, trace, stats=flat_stats).run()

    served_model = build_loaded_model("DASDBS-NSM", stations, CONFIG.buffer_pages)
    served_stats = AccessStats(served_model.n_objects)
    served = ServingExecutor(served_model, [trace], stats=served_stats).run()
    try:
        assert served.result.raw == flat.raw
        assert _collected(served_stats) == _collected(flat_stats)
    finally:
        flat_model.engine.close()
        served_model.engine.close()


def test_multi_client_heat_is_the_sum_of_per_client_replays():
    stations = _stations()
    traces = make_client_traces(SPEC, CONFIG.n_objects, clients=3)

    expected_heat = [0] * CONFIG.n_objects
    expected_ops = 0
    for trace in traces:
        model = build_loaded_model("DASDBS-NSM", stations, CONFIG.buffer_pages)
        stats = AccessStats(model.n_objects)
        WorkloadExecutor(model, trace, stats=stats).run()
        model.engine.close()
        expected_heat = [a + b for a, b in zip(expected_heat, stats.heat)]
        expected_ops += stats.n_ops

    served_model = build_loaded_model("DASDBS-NSM", stations, CONFIG.buffer_pages)
    served_stats = AccessStats(served_model.n_objects)
    ServingExecutor(served_model, traces, stats=served_stats).run()
    try:
        assert served_stats.heat == expected_heat
        assert served_stats.n_ops == expected_ops
    finally:
        served_model.engine.close()


def test_served_online_controller_is_repeatable():
    stations = _stations()
    spec = SPEC.with_changes(
        name="served-drift", drift="step", drift_period=15, hot_fraction=0.15,
        skew="uniform",
    )
    traces = make_client_traces(spec, CONFIG.n_objects, clients=3)

    outcomes = []
    for _ in range(2):
        model = build_loaded_model("NSM+index", stations, CONFIG.buffer_pages)
        online = OnlineRecluster(
            model, trigger_ops=20, max_moves_per_trigger=4, min_heat=1
        )
        result = ServingExecutor(model, traces, online=online).run()
        outcomes.append((result.result.raw, online.summary()))
        model.engine.close()
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1]["pages_moved"] > 0
