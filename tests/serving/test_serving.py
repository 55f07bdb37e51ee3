"""Deterministic-interleaving suite of the serving layer.

The two contracts everything else hangs off:

* **Repeatability** — serving the same client population twice produces
  identical counters, identical latency digests and byte-identical
  final extension state, seed by seed: the grant order is the execution
  order and nothing else decides the interleaving.
* **Single-stream parity** — one client under the serving layer is
  *exactly* the ``WorkloadExecutor`` replay, on every storage model and
  through the runner's ``run_trace``/``run_trace_serving`` pair.
"""

import pytest

from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.queries import paper_trace
from repro.benchmark.runner import BenchmarkRunner
from repro.benchmark.workload import WorkloadExecutor, WorkloadSpec, compile_trace
from repro.errors import BenchmarkError, ConfigError, ServingError
from repro.models.registry import MODEL_CLASSES
from repro.serving import (
    FIFOScheduler,
    Scheduler,
    ServingExecutor,
    make_client_traces,
    make_scheduler,
    run_serving,
)

#: Small but non-trivial extension; buffer pressure included.
CFG = BenchmarkConfig(
    n_objects=40,
    buffer_pages=48,
    loops=5,
    q1a_sample=4,
    q1b_sample=1,
    q2a_sample=2,
    seed=3,
)

#: Seeds of the determinism sweep (mirrors the fuzz layer's defaults).
SEEDS = (1, 7, 93, 1993, 20260)

MODEL = "DASDBS-NSM"


@pytest.fixture(scope="module")
def runner():
    return BenchmarkRunner(CFG)


def serve(runner, spec, clients, scheduler=None, **kwargs):
    """One serving run on a fresh model clone; returns (result, disk image)."""
    model = runner.build_model(MODEL)
    try:
        traces = make_client_traces(spec, model.n_objects, clients)
        outcome = ServingExecutor(
            model,
            traces,
            scheduler=scheduler or make_scheduler("round-robin", seed=spec.seed),
            **kwargs,
        ).run()
        return outcome, model.engine.snapshot()
    finally:
        model.engine.close()


class TestDeterminism:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_repeated_runs_identical(self, runner, seed):
        spec = WorkloadSpec(name="det", n_ops=24, seed=seed)
        first, image_a = serve(runner, spec, clients=3)
        second, image_b = serve(runner, spec, clients=3)
        assert first.result.raw == second.result.raw
        assert first.stats == second.stats
        assert first.session_summaries == second.session_summaries
        assert image_a == image_b  # final extension bytes


class TestSingleClientParity:
    def test_one_client_is_the_single_stream_replay(self, runner):
        spec = WorkloadSpec(name="par", n_ops=30, seed=7)
        model = runner.build_model(MODEL)
        try:
            single = WorkloadExecutor(model, compile_trace(spec, model.n_objects)).run()
            single_image = model.engine.snapshot()
        finally:
            model.engine.close()
        served, served_image = serve(runner, spec, clients=1, scheduler=FIFOScheduler())
        assert served.result.raw == single.raw
        assert served.result.op_counts == single.op_counts
        assert served_image == single_image

    def test_cold_regime_parity_too(self, runner):
        spec = WorkloadSpec(name="cold", n_ops=12, seed=7, warm=False)
        model = runner.build_model(MODEL)
        try:
            single = WorkloadExecutor(model, compile_trace(spec, model.n_objects)).run()
        finally:
            model.engine.close()
        served, _ = serve(runner, spec, clients=1, scheduler=FIFOScheduler())
        assert served.result.raw == single.raw

    @pytest.mark.parametrize("model", MODEL_CLASSES)
    def test_runner_parity_on_every_model(self, runner, model):
        """``run_trace_serving(clients=1)`` == ``run_trace``, counter for
        counter: the oracle behind every 1-client cell of a served grid."""
        trace = compile_trace(WorkloadSpec(name="par", n_ops=20, seed=7), CFG.n_objects)
        single = runner.run_trace(model, trace)
        served = runner.run_trace_serving(model, trace, clients=1)
        assert served.result.raw == single.raw
        assert served.result.op_counts == single.op_counts


class TestWorkersResidue:
    """``BenchmarkRunner.run_trace_serving`` keeps ``workers`` only for
    the frozen ``benchmarks/e2e`` caller, which passes 1."""

    def test_any_other_worker_count_is_refused(self, runner):
        trace = compile_trace(WorkloadSpec(name="w", n_ops=6, seed=2), CFG.n_objects)
        with pytest.raises(ConfigError, match="threaded serving was removed"):
            runner.run_trace_serving(MODEL, trace, clients=2, workers=2)

    def test_workers_one_is_the_same_run(self, runner):
        trace = compile_trace(WorkloadSpec(name="w", n_ops=12, seed=2), CFG.n_objects)
        omitted = runner.run_trace_serving(MODEL, trace, clients=3)
        explicit = runner.run_trace_serving(MODEL, trace, clients=3, workers=1)
        assert explicit == omitted


class TestSessions:
    def test_fix_attribution_sums_to_the_engine_total(self, runner):
        spec = WorkloadSpec(name="iso", n_ops=24, seed=5)
        outcome, _ = serve(runner, spec, clients=3)
        attributed = sum(s["page_fixes"] for s in outcome.session_summaries)
        assert attributed == outcome.result.raw.page_fixes > 0

    def test_sessions_complete_their_own_traces(self, runner):
        spec = WorkloadSpec(name="iso", n_ops=24, seed=5)
        outcome, _ = serve(runner, spec, clients=3)
        for summary in outcome.session_summaries:
            assert sum(summary["ops"].values()) == 24
        assert outcome.stats.n_ops == 3 * 24

    def test_derived_clients_replay_distinct_traces(self):
        spec = WorkloadSpec(name="iso", n_ops=24, seed=5)
        traces = make_client_traces(spec, 40, 3)
        assert traces[0] == compile_trace(spec, 40)  # client 0 untouched
        assert traces[1].spec.name == "iso+c1"
        assert traces[1].ops != traces[0].ops
        assert traces[2].spec.seed != traces[1].spec.seed

    def test_scheduler_moves_interleaving_not_completeness(self, runner):
        spec = WorkloadSpec(name="iso", n_ops=24, seed=5)
        by_policy = {
            name: serve(runner, spec, clients=3, scheduler=make_scheduler(
                name, **({"seed": 5} if name == "round-robin" else {})
            ))[0]
            for name in ("fifo", "round-robin", "priority")
        }
        totals = {name: o.stats.n_ops for name, o in by_policy.items()}
        assert set(totals.values()) == {3 * 24}
        ops = {name: o.result.op_counts for name, o in by_policy.items()}
        assert len({tuple(sorted(c.items())) for c in ops.values()}) == 1

    def test_run_serving_convenience(self, runner):
        model = runner.build_model(MODEL)
        try:
            outcome = run_serving(
                model, WorkloadSpec(name="conv", n_ops=8, seed=2), clients=2
            )
            assert outcome.stats.clients == 2
            assert outcome.stats.requests_per_second > 0
        finally:
            model.engine.close()

    def test_an_explicit_empty_extension_is_refused(self, runner):
        """``n_objects=0`` is not "the whole extension"."""
        model = runner.build_model(MODEL)
        try:
            with pytest.raises(BenchmarkError, match="empty extension"):
                run_serving(model, WorkloadSpec(name="conv", n_ops=8), clients=1, n_objects=0)
            assert model.engine.metrics.snapshot().page_fixes == 0
        finally:
            model.engine.close()


class _BrokenScheduler(Scheduler):
    name = "broken"

    def __init__(self, grants):
        self._grants = grants

    def order(self, demands, priorities=None):
        return list(self._grants)


class TestValidation:
    def test_no_traces_rejected(self, runner):
        model = runner.build_model(MODEL)
        try:
            with pytest.raises(ServingError):
                ServingExecutor(model, [])
        finally:
            model.engine.close()

    def test_one_priority_per_trace_required(self, runner):
        spec = WorkloadSpec(name="v", n_ops=4, seed=2)
        model = runner.build_model(MODEL)
        try:
            traces = make_client_traces(spec, model.n_objects, 1)
            with pytest.raises(ServingError):
                ServingExecutor(model, traces, priorities=[1, 2])
        finally:
            model.engine.close()

    @pytest.mark.parametrize("query", ["1b", "3b"])
    def test_paper_query_kinds_are_refused(self, runner, query):
        """Serving runs the four mix kinds; ``key``/``navigate_update`` are refused."""
        model = runner.build_model(MODEL)
        try:
            executor = ServingExecutor(model, [paper_trace(query, CFG, model)])
            with pytest.raises(ServingError, match="cannot serve operation kind"):
                executor.run()
        finally:
            model.engine.close()

    def test_bad_client_count_rejected(self):
        with pytest.raises(ServingError):
            make_client_traces(WorkloadSpec(name="v", n_ops=4), 40, 0)

    @pytest.mark.parametrize(
        "grants",
        [
            [],            # too few
            [0, 0, 0, 0],  # too many for one session
            [0, 1],        # unknown session index
        ],
    )
    def test_invalid_grant_orders_rejected(self, runner, grants):
        spec = WorkloadSpec(name="v", n_ops=3, seed=2)
        model = runner.build_model(MODEL)
        try:
            traces = make_client_traces(spec, model.n_objects, 1)
            executor = ServingExecutor(model, traces, scheduler=_BrokenScheduler(grants))
            with pytest.raises(ServingError):
                executor.run()
        finally:
            model.engine.close()
