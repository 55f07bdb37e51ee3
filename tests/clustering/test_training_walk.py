"""Training without a replay: the walk, the writes, the refusals.

:func:`~repro.clustering.recluster.recluster_model` trains on one walk
of the trace over the extension's reference graph and applies the
trace's root writes directly.  The reference it must equal is a full
training replay, kept here and only here: :func:`replayed_stats` runs
every operation through the executor's own primitives
(``workload.fetch_point``/``navigate``, ``update_roots``, ``scan_all``)
and maps what each navigation fetched back to OIDs with
``model.oid_of``.  The walk must give the same heat and affinity on
every model, and the replay-trained layout must be byte for byte the
walk-trained one.
"""

from __future__ import annotations

import pytest

from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.generator import child_oids, generate_stations
from repro.benchmark.queries import paper_trace
from repro.benchmark.snapshots import SnapshotStore
from repro.benchmark.workload import (
    WorkloadExecutor,
    WorkloadSpec,
    compile_trace,
    fetch_point,
    navigate,
)
from repro.clustering.placement import placement_order
from repro.clustering.recluster import access_stats, recluster_model
from repro.clustering.stats import AFFINITY_PAIR_CAP, AccessStats
from repro.errors import BenchmarkError
from repro.experiments.cli import main
from repro.experiments.clustering import CLUSTERED_MODELS
from repro.nf2.serializer import DASDBS_FORMAT
from repro.serving.server import ServingExecutor
from tests.clustering.test_trained_images import CONFIG, POLICIES, traces
from tests.conftest import build_loaded_model

TRACES = traces()

#: An extension on which nearly every navigation reaches more objects
#: than ``AFFINITY_PAIR_CAP``, so the order of the touched objects
#: decides which pairs are counted.
FANOUT_CONFIG = BenchmarkConfig(n_objects=120, fanout=3, max_sightseeing=2, seed=7)
FANOUT_TRACE = compile_trace(
    WorkloadSpec(name="fan-out", navigate_weight=0.6, update_weight=0.2, n_ops=60, seed=5),
    FANOUT_CONFIG.n_objects,
)


@pytest.fixture(scope="module")
def stations():
    return generate_stations(CONFIG)


def replayed_stats(model, trace) -> AccessStats:
    """The reference training: replay ``trace`` on ``model`` and count
    the objects each operation reached."""
    stats = AccessStats(model.n_objects)
    for index, op in enumerate(trace.ops):
        kind = op.kind
        if kind == "navigate":
            children, grand = navigate(model, op.oid)
            oid_of = model.oid_of
            stats.record_operation([op.oid, *map(oid_of, children), *map(oid_of, grand)])
        elif kind == "scan":
            model.scan_all()
            stats.record_scan()
        else:
            if kind == "point":
                fetch_point(model, op.oid)
            else:
                model.update_roots([model.ref_of(op.oid)], {"Name": f"workload-{index}"})
            stats.record_operation((op.oid,))
    return stats


def image(model) -> tuple:
    snapshot = model.engine.snapshot()
    return snapshot.image, snapshot.allocated, snapshot.next_page_id, repr(model.capture_state())


def assert_walk_equals_replay(model_name, trace, stations, buffer_pages):
    walked = access_stats(trace, stations)
    for policy in POLICIES:
        replayed_model = build_loaded_model(model_name, stations, buffer_pages)
        walked_model = build_loaded_model(model_name, stations, buffer_pages)
        try:
            replayed = replayed_stats(replayed_model, trace)
            replayed_model.engine.flush()
            assert walked.heat == replayed.heat
            assert walked.affinity == replayed.affinity
            assert walked.n_ops == replayed.n_ops == len(trace.ops)
            replayed_model.recluster(placement_order(policy, replayed))
            recluster_model(walked_model, trace, policy, stations)
            assert image(walked_model) == image(replayed_model), policy
        finally:
            replayed_model.engine.close()
            walked_model.engine.close()


@pytest.mark.parametrize("trace_name", sorted(TRACES))
@pytest.mark.parametrize("model_name", CLUSTERED_MODELS)
def test_walk_equals_a_training_replay(model_name, trace_name, stations):
    assert_walk_equals_replay(model_name, TRACES[trace_name], stations, CONFIG.buffer_pages)


@pytest.fixture(scope="module")
def fanout_stations():
    stations = generate_stations(FANOUT_CONFIG)
    graph = [child_oids(station) for station in stations]
    reached = [
        len({oid, *graph[oid], *(g for child in graph[oid] for g in graph[child])})
        for oid in range(len(stations))
    ]
    assert sum(size > AFFINITY_PAIR_CAP for size in reached) > len(stations) // 2
    return stations


@pytest.mark.parametrize("model_name", [m for m in CLUSTERED_MODELS if m != "NSM"])
def test_walk_equals_a_training_replay_past_the_pair_cap(model_name, fanout_stations):
    assert_walk_equals_replay(model_name, FANOUT_TRACE, fanout_stations, 64)


def test_plain_nsm_replay_orders_grandchildren_by_heap(fanout_stations):
    """Plain NSM navigates set-oriented: one selection returns every
    child's connections in heap order, not in reference order.  Past
    the pair cap its replay therefore counted other pairs than the
    other models' replays; the walk counts the same pairs on every
    model.  (At the default fanout no navigation reaches the cap.)"""
    walked = access_stats(FANOUT_TRACE, fanout_stations)
    models = {name: build_loaded_model(name, fanout_stations, 64) for name in ("NSM", "DSM")}
    try:
        nsm, dsm = (replayed_stats(models[name], FANOUT_TRACE) for name in ("NSM", "DSM"))
    finally:
        for model in models.values():
            model.engine.close()
    assert walked.heat == nsm.heat == dsm.heat
    assert walked.affinity == dsm.affinity != nsm.affinity


class TestRefusals:
    """Each refusal is typed and comes before anything is written."""

    def _refused(self, model, trace, stations):
        before = image(model)
        with pytest.raises(BenchmarkError):
            recluster_model(model, trace, "affinity", stations)
        assert image(model) == before

    def test_graph_of_another_size(self, stations):
        model = build_loaded_model("NSM+index", stations)
        try:
            trace = TRACES["zipf(1.0)"]
            self._refused(model, trace, stations[:-1])
            self._refused(model, trace, [*stations, stations[0]])
        finally:
            model.engine.close()

    @pytest.mark.parametrize("query", ["1b", "3b"])
    def test_paper_only_kinds(self, query, stations):
        """1b holds ``key`` and 3b ``navigate_update`` operations."""
        model = build_loaded_model("DASDBS-NSM", stations)
        try:
            self._refused(model, paper_trace(query, CONFIG, model), stations)
        finally:
            model.engine.close()

    def test_trace_larger_than_the_model(self, stations):
        model = build_loaded_model("DSM", stations[:30])
        try:
            trace = compile_trace(WorkloadSpec(n_ops=20, seed=3), 60)
            self._refused(model, trace, stations[:30])
        finally:
            model.engine.close()


@pytest.fixture
def executions(monkeypatch):
    """Names of the executor classes whose ``run`` was called, in order."""
    calls: list[str] = []
    for cls in (WorkloadExecutor, ServingExecutor):

        def counted(self, _run=cls.run):
            calls.append(type(self).__name__)
            return _run(self)

        monkeypatch.setattr(cls, "run", counted)
    return calls


class TestExecutions:
    def test_training_executes_nothing(self, executions, stations):
        store = SnapshotStore()
        for policy in POLICIES:
            store.get_reclustered(
                CONFIG, "DASDBS-NSM", lambda: stations, DASDBS_FORMAT, TRACES["scan-mix"], policy
            )
        model = build_loaded_model("NSM", stations)
        try:
            recluster_model(model, TRACES["uniform"], "hotcold", stations)
        finally:
            model.engine.close()
        assert executions == []

    def test_clustering_experiment_executes_its_measured_cells(self, executions, capsys):
        """3 skews x 5 models x 3 placements, one execution each."""
        assert main(["clustering", "--fast", "--objects", "60"]) == 0
        assert "Clustering — measured page reads" in capsys.readouterr().out
        assert executions == ["WorkloadExecutor"] * 45
