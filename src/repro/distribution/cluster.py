"""Shared-nothing placement and per-node I/O accounting.

Implements the experiment the paper forecasts but does not run
(Section 5.5 closing remark): place each complex object on one node of
a shared-nothing cluster, replay the query-2 navigation workload, and
charge every object access to the node that stores the object.  The
page cost per access is the storage model's navigation cost (the same
quantity the analytical model uses), so the *total* load matches the
centralised results and the new information is its *distribution* over
nodes.

Under the uniform benchmark the per-node loads even out; under data
skew (probability 0.2 / fanout 8) a few objects own most of the
references, and models that pay many pages per object access (DSM)
amplify the imbalance in page terms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import ceil, sqrt
from typing import Sequence

from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.generator import child_oids, generate_stations
from repro.errors import BenchmarkError
from repro.models.dasdbs_nsm import DNSM_LINKED, DNSM_PARTS
from repro.nf2.codec import compiled_assembly
from repro.nf2.serializer import DASDBS_FORMAT, StorageFormat
from repro.nf2.values import NestedTuple
from repro.storage.constants import EFFECTIVE_PAGE_SIZE


@dataclass(frozen=True)
class NodePlacement:
    """Assignment of objects to cluster nodes (one object, one node)."""

    n_nodes: int
    node_of: tuple[int, ...]  #: node id per oid

    @staticmethod
    def round_robin(n_objects: int, n_nodes: int) -> "NodePlacement":
        """Deterministic round-robin placement (declustering by OID)."""
        if n_nodes < 1:
            raise BenchmarkError("a cluster needs at least one node")
        return NodePlacement(
            n_nodes, tuple(oid % n_nodes for oid in range(n_objects))
        )

    @staticmethod
    def hashed(n_objects: int, n_nodes: int, seed: int = 0) -> "NodePlacement":
        """Pseudo-random placement (hash partitioning)."""
        if n_nodes < 1:
            raise BenchmarkError("a cluster needs at least one node")
        rng = random.Random(seed)
        return NodePlacement(
            n_nodes, tuple(rng.randrange(n_nodes) for _ in range(n_objects))
        )


@dataclass(frozen=True)
class ClusterLoad:
    """Per-node and per-loop page I/Os of one workload replay."""

    pages_per_node: tuple[float, ...]
    #: Total pages of each navigation loop (Section 5.5's concentration).
    loop_totals: tuple[float, ...] = ()
    #: Busiest node's pages within each loop.
    loop_max_node: tuple[float, ...] = ()

    @property
    def total(self) -> float:
        return sum(self.pages_per_node)

    @property
    def mean(self) -> float:
        return self.total / len(self.pages_per_node)

    @property
    def max_node(self) -> float:
        return max(self.pages_per_node)

    @property
    def imbalance(self) -> float:
        """Peak-to-mean ratio: 1.0 is a perfectly balanced cluster."""
        if self.mean == 0:
            return 1.0
        return self.max_node / self.mean

    @property
    def coefficient_of_variation(self) -> float:
        """Std-deviation / mean of the per-node loads."""
        if self.mean == 0:
            return 0.0
        variance = sum((x - self.mean) ** 2 for x in self.pages_per_node) / len(
            self.pages_per_node
        )
        return sqrt(variance) / self.mean

    @property
    def loop_concentration(self) -> float:
        """CV of the per-loop page totals.

        Quantifies Section 5.5: "the number of physical I/Os was
        somewhat more concentrated into fewer loops" under data skew.
        """
        return _cv(self.loop_totals)

    @property
    def parallel_inefficiency(self) -> float:
        """Σ per-loop busiest-node pages / ideal evenly-spread pages.

        1.0 means every loop spreads its I/Os perfectly over the nodes;
        larger values mean single nodes serialise the loop — the
        distributed-system effect the paper forecasts for skewed data.
        """
        if not self.loop_totals or self.total == 0:
            return 1.0
        ideal = self.total / len(self.pages_per_node)
        return sum(self.loop_max_node) / ideal


def _cv(values: tuple[float, ...]) -> float:
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    if mean == 0:
        return 0.0
    variance = sum((x - mean) ** 2 for x in values) / len(values)
    return sqrt(variance) / mean


#: Storage models supported by the placement simulation.
DISTRIBUTED_MODELS = ("DSM", "DASDBS-DSM", "DASDBS-NSM")


def navigation_page_costs(
    stations: Sequence[NestedTuple],
    model: str,
    fmt: StorageFormat = DASDBS_FORMAT,
) -> list[float]:
    """Pages charged when navigating *through* each specific object.

    This is where skew bites: a node holding an oversized object pays
    that object's real page count on every visit.

    * DSM reads the whole object: all its header + data pages;
    * DASDBS-DSM reads the header plus the pages of the root + Platform
      sections;
    * DASDBS-NSM reads the object's (nested) Connection tuple, the
      record its layout stores in the linked relation.
    """
    page, store = EFFECTIVE_PAGE_SIZE, compiled_assembly(fmt, DNSM_PARTS).store
    costs: list[float] = []
    for station in stations:
        total = fmt.nested_size(station)
        platforms = station.subtuples("Platform")
        if model == "DSM":
            if total <= page:
                costs.append(1.0)
            else:
                costs.append(1.0 + ceil(total / page))
        elif model == "DASDBS-DSM":
            if total <= page:
                costs.append(1.0)
            else:
                nav_bytes = (
                    fmt.flat_size(station.schema)
                    + fmt.subrel_overhead
                    + sum(fmt.nested_size(p) for p in platforms)
                )
                costs.append(1.0 + max(1.0, ceil(nav_bytes / page)))
        elif model == "DASDBS-NSM":
            records: dict[int, NestedTuple] = {}
            store(station, records.setdefault)
            costs.append(max(1.0, ceil(fmt.nested_size(records[DNSM_LINKED]) / page)))
        else:
            raise BenchmarkError(
                f"unknown model {model!r}; choose from {DISTRIBUTED_MODELS}"
            )
    return costs


def simulate_navigation_load(
    stations: Sequence[NestedTuple] | None = None,
    config: BenchmarkConfig | None = None,
    model: str = "DSM",
    placement: NodePlacement | None = None,
    n_nodes: int = 8,
    loops: int | None = None,
    seed: int = 99,
) -> ClusterLoad:
    """Replay query-2b navigation, charging page costs per node.

    Either pass a generated extension or a config to generate one.  The
    root sequence is seeded; each loop charges the root, its children
    and its grand-children to their nodes at the model's per-access
    page cost.
    """
    if stations is None:
        config = config or BenchmarkConfig()
        stations = generate_stations(config)
    n = len(stations)
    costs = navigation_page_costs(stations, model)
    placement = placement or NodePlacement.round_robin(n, n_nodes)
    if len(placement.node_of) != n:
        raise BenchmarkError("placement size does not match the extension")
    loops = loops if loops is not None else max(1, n // 5)

    children_of = [child_oids(station) for station in stations]
    pages = [0.0] * placement.n_nodes
    loop_totals: list[float] = []
    loop_max: list[float] = []
    rng = random.Random(seed)
    for _ in range(loops):
        loop_pages = [0.0] * placement.n_nodes
        root = rng.randrange(n)
        loop_pages[placement.node_of[root]] += costs[root]
        level1 = list(dict.fromkeys(children_of[root]))
        for child in level1:
            loop_pages[placement.node_of[child]] += costs[child]
        level2 = list(
            dict.fromkeys(oid for child in level1 for oid in children_of[child])
        )
        for grand in level2:
            # The last navigation step reads only root records; charge
            # one page (root tuples never span pages).
            loop_pages[placement.node_of[grand]] += 1.0
        for node, value in enumerate(loop_pages):
            pages[node] += value
        loop_totals.append(sum(loop_pages))
        loop_max.append(max(loop_pages))
    return ClusterLoad(tuple(pages), tuple(loop_totals), tuple(loop_max))
