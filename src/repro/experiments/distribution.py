"""Extension experiment — the distributed-system forecast of Section 5.5.

The paper ends its skew study with an untested forecast: "in a
distributed system the data skew might cause more effects ... the disk
I/Os are likely to be less equally distributed over the nodes if we
store a single object on a single node."  This experiment measures it
on the shard engine: every model runs over eight shared-nothing
replica engines (``hash`` routing), each object's accesses run on its
owner's engine, and each query-2b loop runs against cold buffers.  The
per-loop, per-shard ``pages_read`` deltas give

* the concentration of I/Os into loops (CV of per-loop totals — the
  effect the paper did measure centrally),
* the per-node imbalance and the parallel inefficiency (how much a
  loop's I/O serialises on single nodes).
"""

from __future__ import annotations

from math import sqrt
from typing import Sequence

from repro.benchmark.config import BenchmarkConfig, DEFAULT_CONFIG, SKEWED_CONFIG
from repro.benchmark.queries import paper_trace
from repro.benchmark.runner import BenchmarkRunner
from repro.benchmark.workload import navigate
from repro.experiments.report import render_table

#: Shared-nothing nodes: one shard engine each.
N_NODES = 8

#: The rows of the table.  Plain NSM is left out: it stores no object
#: identifiers, so each owner group scans the whole relation and its
#: sharded loops read 4.6 times the unsharded pages at 300 objects.
#: NSM+index (1.3 times) is not a row yet.
MODELS = ("DSM", "DASDBS-DSM", "DASDBS-NSM")

#: Pages read by each node (shard) within each loop.
LoopPages = Sequence[Sequence[int]]


def loop_pages(config: BenchmarkConfig, name: str) -> list[tuple[int, ...]]:
    """Per-shard pages read by every query-2b loop, each loop cold.

    ``config.shards`` sets the node count; every loop starts with
    empty buffers on all shards, so a loop reads what its objects'
    owners need, as if it ran alone.
    """
    model = BenchmarkRunner(config).build_model(name)
    engine = model.engine
    loops = []
    try:
        before = [shard.pages_read for shard in engine.shard_snapshots()]
        for operation in paper_trace("2b", config, model).ops:
            engine.restart_buffer()
            navigate(model, operation.oid)
            after = [shard.pages_read for shard in engine.shard_snapshots()]
            loops.append(tuple(a - b for a, b in zip(after, before)))
            before = after
    finally:
        engine.close()
    return loops


def coefficient_of_variation(values: Sequence[float]) -> float:
    """Standard deviation / mean (0.0 for no values or a zero mean)."""
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    if mean == 0:
        return 0.0
    variance = sum((x - mean) ** 2 for x in values) / len(values)
    return sqrt(variance) / mean


def loop_totals(loops: LoopPages) -> list[int]:
    return [sum(loop) for loop in loops]


def node_totals(loops: LoopPages) -> list[int]:
    return [sum(column) for column in zip(*loops)]


def loop_concentration(loops: LoopPages) -> float:
    """CV of the per-loop page totals.

    Quantifies Section 5.5: "the number of physical I/Os was somewhat
    more concentrated into fewer loops" under data skew.
    """
    return coefficient_of_variation(loop_totals(loops))


def node_imbalance(loops: LoopPages) -> float:
    """Busiest node's pages / the mean node's: 1.0 is perfectly balanced."""
    nodes = node_totals(loops)
    total = sum(nodes)
    if total == 0:
        return 1.0
    return max(nodes) * len(nodes) / total


def parallel_inefficiency(loops: LoopPages) -> float:
    """Σ per-loop busiest-node pages / the evenly spread share per node.

    1.0 means every loop spreads its I/Os perfectly over the nodes;
    larger values mean single nodes serialise the loop — the
    distributed-system effect the paper forecasts for skewed data.
    """
    total = sum(loop_totals(loops))
    if total == 0:
        return 1.0
    return sum(max(loop) for loop in loops) * len(loops[0]) / total


def build_rows(config: BenchmarkConfig = DEFAULT_CONFIG) -> list[list[object]]:
    uniform = config.with_changes(shards=N_NODES)
    skewed = uniform.with_changes(
        probability=SKEWED_CONFIG.probability, fanout=SKEWED_CONFIG.fanout
    )
    rows: list[list[object]] = []
    for name in MODELS:
        u, s = loop_pages(uniform, name), loop_pages(skewed, name)
        rows.append(
            [
                name,
                loop_concentration(u),
                loop_concentration(s),
                node_imbalance(u),
                node_imbalance(s),
                parallel_inefficiency(u),
                parallel_inefficiency(s),
            ]
        )
    return rows


def render(config: BenchmarkConfig = DEFAULT_CONFIG) -> str:
    return render_table(
        f"Extension — shared-nothing distribution under data skew ({N_NODES} nodes)",
        [
            "model",
            "loop conc. (unif)",
            "loop conc. (skew)",
            "node imbal. (unif)",
            "node imbal. (skew)",
            "par. ineff. (unif)",
            "par. ineff. (skew)",
        ],
        build_rows(config),
        note=(
            f"Pages read by query-2b loops, each cold, on {N_NODES} "
            "hash-routed shard engines. loop conc.: CV of the per-loop "
            "totals; node imbal.: busiest shard / mean shard; par. ineff.: "
            f"sum of each loop's busiest shard / (total / {N_NODES})."
        ),
    )
