"""Analytical page-I/O estimators: Table 3 of the paper.

For every storage model and every benchmark query this module predicts
the expected number of page I/Os, combining the formulas of
:mod:`repro.core.formulas` with the Table 2 parameters of
:mod:`repro.core.parameters`.  Like the paper's Table 3:

* estimates assume a large cache ("Since we assumed a large cache, all
  estimates are best case") — ``worst=True`` disables cross-loop cache
  reuse instead, giving the worst-case curves of Figure 6;
* ``primed=True`` computes the primed rows ("the imaginary situation
  without wasted disk space"): fractional instead of whole-page
  occupancy, and object headers merged into the data stream;
* query-1 results are per object, query-2/3 results per loop;
* query-3 results include the pages written back.

One costing serves every model of ``models.registry.MODEL_CLASSES``:
it prices what the model declares (its parts, whether it has addresses,
the sections it reads, whether root patches write through) with its
Table 2 rows, so a new layout needs no code here.  Derivations of the
individual terms are documented inline; each closed form was
cross-checked against the legible Table 3 anchor values (DSM row, DSM′
2a = 65.2, NSM+index 1a = 5.96 / 2a = 23.2, DASDBS-NSM′ 1b = 120 /
2a = 21.8) and against the engine's measurements.
"""

from __future__ import annotations

from math import ceil

from repro.benchmark.queries import QUERY_NAMES as QUERIES
from repro.core import formulas
from repro.core.parameters import ModelParameters, RelationParameters, WorkloadParameters
from repro.errors import BenchmarkError
from repro.models.registry import MODEL_CLASSES
from repro.nf2.schema import links
from repro.storage.constants import EFFECTIVE_PAGE_SIZE


def _run_pages(t: float, k: float) -> float:
    """Expected pages of one cluster of t consecutive small tuples."""
    if t <= 0:
        return 0.0
    return 1.0 + max(0.0, t - 1.0) / k


class AnalyticalEvaluator:
    """Computes the Table 3 estimates for one parameter set."""

    def __init__(self, params: dict[str, ModelParameters], workload: WorkloadParameters) -> None:
        self.params = params
        self.workload = workload

    def estimate(
        self, model: str, query: str, primed: bool = False, worst: bool = False
    ) -> float | None:
        """Expected page I/Os for ``model`` on ``query``.

        Returns None where the paper's table shows "-" (query 1a on
        plain NSM).  ``worst`` affects only the looped queries 2b/3b,
        for which the single-loop estimate is the worst case ("we may
        regard the analytically calculated value for query 2a as a
        worst case estimate for query 2b").
        """
        if query not in QUERIES:
            raise BenchmarkError(f"unknown query {query!r}")
        if worst and query in ("2b", "3b"):
            return self.estimate(model, "2a" if query == "2b" else "3a", primed=primed)
        if model not in MODEL_CLASSES or model not in self.params:
            raise BenchmarkError(f"unknown storage model {model!r}")
        relations = self.params[model].relations
        return _Costing(MODEL_CLASSES[model], relations, self.workload, primed).query(query)

    def estimate_all(self, model: str, primed: bool = False) -> dict[str, float | None]:
        return {query: self.estimate(model, query, primed) for query in QUERIES}


class _Costing:
    """Table 3 of one model, read off its declarations and Table 2 rows."""

    def __init__(self, cls: type, relations: tuple, w: WorkloadParameters, primed: bool) -> None:
        self.cls, self.relations, self.w, self.primed = cls, relations, w, primed
        #: The relation whose records hold the references (relation 0 without parts).
        self.linked = next((i for i, part in enumerate(cls.parts) if links(part.stored)), 0)

    def pages(self, rel: RelationParameters, sections: tuple[int, ...] | None = None) -> float:
        """Pages of one object's records in ``rel``: all of them, or the
        leading ``sections`` of a cut record (laid out back to back from
        the start of the data stream, so a prefix of the sections
        occupies a prefix of the data pages)."""
        if not rel.is_large:
            return _run_pages(rel.tuples_per_object, rel.k)
        if sections is None:
            # All data pages hold used data, so a section-guided full
            # retrieval reads header + S_data/S_page pages in expectation
            # — waste never transfers (this is why DASDBS-DSM == DSM′ in
            # Table 3 for query 1, both 3.00).
            by_section = self.cls.root_sections is not None
            return rel.p_unwasted if self.primed or by_section else float(rel.p)
        page, prefix = EFFECTIVE_PAGE_SIZE, sum(rel.section_bytes[: 1 + max(sections)])
        if self.primed:
            # Without wasted space the (unpadded) directory shares the
            # data stream: root + Platform fit one page — the paper's
            # DASDBS-DSM' values of 21.7 (2a) and 4.94 (2b).
            return max(1.0, ceil((rel.directory_bytes + prefix) / page))
        return max(1, ceil(rel.header_bytes / page)) + max(1.0, ceil(prefix / page))

    def touched(self, rel: RelationParameters, x: float, sections=None) -> float:
        """Pages of ``rel`` holding the records of ``x`` distinct objects:
        a long record of a layout without parts is read on its own pages,
        everything else in clusters over the relation (Equation 7, which
        for one tuple per object is Equation 4)."""
        if rel.is_large and not self.cls.parts:
            return x * self.pages(rel, sections)
        return formulas.pages_clustered_groups(x, rel.tuples_per_object, rel.m, rel.k or 1)

    def reads(self, rel: RelationParameters, x: float, sections=None) -> float:
        """Pages read finding ``x`` objects' records in ``rel``: by
        address, or — "with NSM we have no identifiers" — a scan."""
        return self.touched(rel, x, sections) if self.cls.supports_oid_access else rel.m

    def scan(self, rel: RelationParameters, sections=None) -> float:
        """Pages of a scan of ``rel`` reading ``sections`` of each record."""
        return rel.tuples_total * self.pages(rel, sections) if rel.is_large else rel.m

    def objects(self, refs: float, cold: bool) -> float:
        """Distinct objects of the root and ``refs`` references per loop:
        in one cold loop, or over all loops (Equation 8)."""
        n, loops = self.w.n_objects, self.w.loops
        if cold:
            return 1.0 + formulas.distinct_selected(n, refs)
        return formulas.distinct_selected(n, loops * (1.0 + refs))

    def navigation(self, cold: bool) -> float:
        """Pages one loop reads: the linked relation for the root and its
        children, relation 0 for the root and its grand-children (plain
        NSM: one scan pass of each, the second from cache); a layout of
        one relation reads the union.  Warm loops amortise all loops."""
        w, rels, cls = self.w, self.relations, self.cls
        if len(rels) == 1:
            x = w.distinct_per_loop() if cold else w.distinct_over_loops()
            pages = self.reads(rels[0], x, cls.navigation_sections)
        else:
            linked = self.objects(w.children, cold)
            pages = self.reads(rels[self.linked], linked, cls.navigation_sections) + self.reads(
                rels[0], self.objects(w.grandchildren, cold), cls.root_sections
            )
        return pages if cold else pages / w.loops

    def query(self, query: str) -> float | None:
        rels, w, cls = self.relations, self.w, self.cls
        root = rels[0]
        if query == "1a":
            return sum(map(self.pages, rels)) if cls.supports_oid_access else None
        if query == "1b":
            if not cls.supports_oid_access:
                return sum(map(self.scan, rels))
            # Value selection on the root relation only (the root
            # sections of every object), then everything else by
            # address through the transformation table.
            sections = cls.root_sections
            rest = max(0.0, self.pages(root) - self.pages(root, sections))
            return self.scan(root, sections) + rest + sum(map(self.pages, rels[1:]))
        if query == "1c":
            return sum(self.pages(rel) if rel.is_large else rel.m / w.n_objects for rel in rels)
        cold = query in ("2a", "3a")
        reads = self.navigation(cold)
        if query in ("2a", "2b"):
            return reads
        if cls.write_through:
            # Updates: one change-attribute call per object, each writing
            # its single-page page pool immediately (Section 5.3) — no
            # write batching, no cross-loop coalescing.
            return reads + w.distinct_updated_per_loop()
        # Otherwise the dirty root pages are written back once, coalesced across loops.
        updated = w.distinct_updated_per_loop() if cold else w.distinct_updated_over_loops()
        dirty = self.touched(root, updated)
        return reads + (dirty if cold else dirty / w.loops)
