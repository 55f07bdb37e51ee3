"""Cost-model parameters: the content of the paper's Table 2.

For every storage model and every relation it stores, the analytical
model needs the average tuple size ``S_tuple`` and the derived
parameters ``k`` (tuples per page), ``p`` (pages per large tuple) and
``m`` (pages per relation).  The paper measured these "by analyzing the
DASDBS storage structures"; we obtain them two ways:

* :func:`derive_parameters` computes them from the
  :class:`~repro.nf2.serializer.StorageFormat` and the benchmark
  configuration — the self-consistent mode whose estimates the engine
  measurements should match;
* :func:`paper_parameters` returns the published Table 2 constants
  (reconstructed where the scan is illegible, see the docstring), for
  digit-exact reproduction of Table 3.

Direct models store one relation; the normalized models four.  For the
direct models the Station "relation" additionally carries the byte
layout of its three sections (root, Platform sub-tree, Sightseeing
sub-tree), which Equation 5-style partial-access estimates need.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from math import ceil

from repro.benchmark.config import BenchmarkConfig, DEFAULT_CONFIG
from repro.benchmark.schema import (
    CONNECTION_SCHEMA,
    PLATFORM_SCHEMA,
    SIGHTSEEING_SCHEMA,
    STATION_SCHEMA,
)
from repro.core import formulas
from repro.errors import BenchmarkError
from repro.models.dasdbs_nsm import DNSM_PARTS
from repro.models.nsm import NSM_PARTS
from repro.nf2.schema import Part, RelationSchema
from repro.nf2.serializer import DASDBS_FORMAT, StorageFormat
from repro.storage.constants import EFFECTIVE_PAGE_SIZE, SLOT_ENTRY_SIZE


@dataclass(frozen=True)
class RelationParameters:
    """Table 2 row: one relation of one storage model."""

    relation: str
    tuples_per_object: float
    tuples_total: float
    s_tuple: float  #: average stored tuple size in bytes (incl. overheads)
    is_large: bool  #: tuple exceeds one page (header/data split)
    k: int | None  #: small tuples per page (None for large tuples)
    p: int | None  #: pages per large tuple, Eq. 2 (None for small tuples)
    m: float  #: pages storing the whole relation
    header_bytes: float = 0.0  #: directory bytes of a large tuple (page-padded share)
    data_bytes: float = 0.0  #: data bytes of a large tuple
    section_bytes: tuple[float, ...] = ()  #: per-section data bytes (direct models)
    true_header_bytes: float | None = None  #: unpadded directory bytes (primed mode)

    @property
    def directory_bytes(self) -> float:
        """Unpadded directory size; defaults to ``header_bytes``."""
        if self.true_header_bytes is not None:
            return self.true_header_bytes
        return self.header_bytes

    @property
    def p_unwasted(self) -> float:
        """Fractional pages per tuple, header page(s) counted in full.

        The primed (no wasted space) rows of Table 3: the paper's
        S_tuple of 6078 for DSM-Station already counts the full header
        page, so p' = S/S_page = 3.02 against the ceiling value 4.
        """
        if not self.is_large:
            return 0.0
        page = EFFECTIVE_PAGE_SIZE
        header_pages = ceil(self.header_bytes / page) if self.header_bytes else 0
        return header_pages + self.data_bytes / page


@dataclass(frozen=True)
class ModelParameters:
    """All Table 2 rows of one storage model."""

    model: str
    page_bytes: int
    slot_bytes: int
    relations: tuple[RelationParameters, ...]

    def relation(self, name: str) -> RelationParameters:
        for rel in self.relations:
            if rel.relation == name:
                return rel
        raise BenchmarkError(f"model {self.model} has no relation {name!r}")

    @property
    def total_pages(self) -> float:
        return sum(rel.m for rel in self.relations)


@dataclass(frozen=True)
class WorkloadParameters:
    """Workload constants of the benchmark queries (Section 2)."""

    n_objects: int
    children: float  #: expected outgoing references per object (4.096)
    loops: int  #: loops of queries 2b/3b (300)

    @property
    def grandchildren(self) -> float:
        return self.children**2

    @property
    def draws_per_loop(self) -> float:
        """Objects referenced per navigation loop, with multiplicity."""
        return 1.0 + self.children + self.grandchildren

    def distinct_per_loop(self) -> float:
        """Expected distinct objects accessed in one loop (root + Eq. 8)."""
        return 1.0 + formulas.distinct_selected(
            self.n_objects, self.children + self.grandchildren
        )

    def distinct_over_loops(self) -> float:
        """Expected distinct objects accessed over all loops (Eq. 8)."""
        return formulas.distinct_selected(
            self.n_objects, self.loops * self.draws_per_loop
        )

    def distinct_updated_per_loop(self) -> float:
        """Expected distinct grand-children updated in one loop."""
        return formulas.distinct_selected(self.n_objects, self.grandchildren)

    def distinct_updated_over_loops(self) -> float:
        """Expected distinct objects updated over all loops."""
        return formulas.distinct_selected(
            self.n_objects, self.loops * self.grandchildren
        )

    @staticmethod
    def from_config(config: BenchmarkConfig) -> "WorkloadParameters":
        return WorkloadParameters(
            n_objects=config.n_objects,
            children=config.expected_children,
            loops=config.effective_loops,
        )


# ---------------------------------------------------------------------------
# Derivation from the storage format (our self-consistent Table 2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructureCounts:
    """Average sub-object counts driving all size computations."""

    platforms: float
    connections: float  #: per object (= platforms * connections_per_platform)
    sightseeings: float

    @property
    def connections_per_platform(self) -> float:
        return self.per_parent(CONNECTION_SCHEMA, PLATFORM_SCHEMA)

    @property
    def subtuples(self) -> float:
        return self.platforms + self.connections + self.sightseeings

    def per_object(self, relation: RelationSchema) -> float:
        """Average tuples of ``relation`` in one Station (1 for the root)."""
        return {
            STATION_SCHEMA.name: 1.0,
            PLATFORM_SCHEMA.name: self.platforms,
            CONNECTION_SCHEMA.name: self.connections,
            SIGHTSEEING_SCHEMA.name: self.sightseeings,
        }[relation.name]

    def per_parent(self, relation: RelationSchema, parent: RelationSchema) -> float:
        """Average tuples of ``relation`` per tuple of its ``parent``."""
        above = self.per_object(parent)
        return self.per_object(relation) / above if above else 0.0

    @staticmethod
    def from_config(config: BenchmarkConfig) -> "StructureCounts":
        platforms = config.expected_platforms
        return StructureCounts(
            platforms=platforms,
            connections=config.expected_children,
            sightseeings=config.expected_sightseeings,
        )


def _small_k(page: int, slot: int, s_tuple: float) -> int:
    return formulas.tuples_per_page(page, s_tuple, slot)


def _direct_sections(fmt: StorageFormat, counts: StructureCounts) -> tuple[float, float, float]:
    """Byte sizes of the three sections of a direct-model Station."""
    root = float(fmt.flat_size(STATION_SCHEMA))
    platform_each = fmt.flat_size(PLATFORM_SCHEMA) + fmt.subrel_overhead + (
        counts.connections_per_platform * fmt.flat_size(CONNECTION_SCHEMA)
    )
    platforms = fmt.subrel_overhead + counts.platforms * platform_each
    sights = fmt.subrel_overhead + counts.sightseeings * fmt.flat_size(SIGHTSEEING_SCHEMA)
    return root, platforms, sights


def _row(
    name: str,
    per_object: float,
    n_objects: int,
    data: float,
    header: float,
    page_bytes: int,
    slot_bytes: int,
    sections: tuple[float, ...] = (),
) -> RelationParameters:
    """Table 2 row of a relation keeping ``per_object`` records of
    ``data`` bytes per object; a record larger than a page is a large
    tuple, its ``header`` directory on pages of their own."""
    total = per_object * n_objects
    if data > page_bytes - slot_bytes:
        p = formulas.pages_per_large_tuple(header, data, page_bytes)
        return RelationParameters(
            name, per_object, total, header + data, is_large=True, k=None, p=p,
            m=float(total * p), header_bytes=header, data_bytes=data, section_bytes=sections,
        )
    k = _small_k(page_bytes, slot_bytes, data)
    m = float(formulas.pages_for_relation(total, k))
    return RelationParameters(
        name, per_object, total, data, is_large=False, k=k, p=None, m=m, section_bytes=sections
    )


def derive_direct_parameters(
    model: str,
    config: BenchmarkConfig = DEFAULT_CONFIG,
    fmt: StorageFormat = DASDBS_FORMAT,
    counts: StructureCounts | None = None,
    page_bytes: int = EFFECTIVE_PAGE_SIZE,
    slot_bytes: int = SLOT_ENTRY_SIZE,
) -> ModelParameters:
    """Table 2 rows of DSM / DASDBS-DSM under our storage format."""
    counts = counts or StructureCounts.from_config(config)
    root, platforms, sights = _direct_sections(fmt, counts)
    # The inline nested encoding has the same payload as the sections.
    data_bytes = root + platforms + sights
    header_bytes = float(fmt.directory_size(3, round(counts.subtuples)))
    rel = _row(
        f"{model}_Station", 1.0, config.n_objects, data_bytes, header_bytes,
        page_bytes, slot_bytes, (root, platforms, sights),
    )
    return ModelParameters(model, page_bytes, slot_bytes, (rel,))


def _derived_parameters(
    model: str,
    parts: tuple[Part, ...],
    config: BenchmarkConfig,
    fmt: StorageFormat,
    counts: StructureCounts | None,
    page_bytes: int,
    slot_bytes: int,
) -> ModelParameters:
    """Table 2 rows of a layout derived by rule, one per part.

    Each stored level of a part holds tuples of one relation on the path
    from the root down to the part's nested relation, and the relation
    keeps one record per tuple of its top level's (a row per tuple of a
    flat part, one record per object of a nested one).  A record's
    expected size folds its levels from the items up, ``flat +
    subrel_overhead + n * below`` with ``n`` the tuples per tuple of the
    level above; one larger than a page carries a directory over the
    sub-tuples below its top level.
    """
    counts = counts or StructureCounts.from_config(config)
    parents = {sub: up for up in parts[0].target.walk() for sub in up.subrelations}
    rows = []
    for part in parts:
        levels, path = [part.stored], [part.target]
        while levels[-1].subrelations:
            levels.append(levels[-1].subrelations[0])
        while path[0] in parents:
            path.insert(0, parents[path[0]])
        path = path[len(path) - len(levels) :]
        s_tuple = float(fmt.flat_size(levels[-1]))
        for level, above, relation in reversed(list(zip(levels, path, path[1:]))):
            n = counts.per_parent(relation, above)
            s_tuple = fmt.flat_size(level) + fmt.subrel_overhead + n * s_tuple
        subtuples = round(sum(map(counts.per_object, path[1:])))
        header = float(fmt.directory_size(1, subtuples))
        rows.append(
            _row(
                part.stored.name, counts.per_object(path[0]), config.n_objects, s_tuple, header,
                page_bytes, slot_bytes,
            )
        )
    return ModelParameters(model, page_bytes, slot_bytes, tuple(rows))


def derive_nsm_parameters(
    config: BenchmarkConfig = DEFAULT_CONFIG,
    fmt: StorageFormat = DASDBS_FORMAT,
    counts: StructureCounts | None = None,
    page_bytes: int = EFFECTIVE_PAGE_SIZE,
    slot_bytes: int = SLOT_ENTRY_SIZE,
) -> ModelParameters:
    """Table 2 rows of NSM (also used by NSM+index): Figure 3's rows."""
    return _derived_parameters("NSM", NSM_PARTS, config, fmt, counts, page_bytes, slot_bytes)


def derive_dasdbs_nsm_parameters(
    config: BenchmarkConfig = DEFAULT_CONFIG,
    fmt: StorageFormat = DASDBS_FORMAT,
    counts: StructureCounts | None = None,
    page_bytes: int = EFFECTIVE_PAGE_SIZE,
    slot_bytes: int = SLOT_ENTRY_SIZE,
) -> ModelParameters:
    """Table 2 rows of DASDBS-NSM: one nested tuple per relation per object."""
    return _derived_parameters(
        "DASDBS-NSM", DNSM_PARTS, config, fmt, counts, page_bytes, slot_bytes
    )


def derive_parameters(
    config: BenchmarkConfig = DEFAULT_CONFIG,
    fmt: StorageFormat = DASDBS_FORMAT,
    counts: StructureCounts | None = None,
    page_bytes: int = EFFECTIVE_PAGE_SIZE,
    slot_bytes: int = SLOT_ENTRY_SIZE,
) -> dict[str, ModelParameters]:
    """Table 2 for all storage models under our storage format."""
    counts = counts or StructureCounts.from_config(config)
    nsm = derive_nsm_parameters(config, fmt, counts, page_bytes, slot_bytes)
    return {
        "DSM": derive_direct_parameters("DSM", config, fmt, counts, page_bytes, slot_bytes),
        "DASDBS-DSM": derive_direct_parameters(
            "DASDBS-DSM", config, fmt, counts, page_bytes, slot_bytes
        ),
        "NSM": nsm,
        "NSM+index": ModelParameters("NSM+index", page_bytes, slot_bytes, nsm.relations),
        "DASDBS-NSM": derive_dasdbs_nsm_parameters(
            config, fmt, counts, page_bytes, slot_bytes
        ),
    }


# ---------------------------------------------------------------------------
# The paper's published Table 2 (reconstructed where illegible)
# ---------------------------------------------------------------------------

def paper_parameters(n_objects: int = 1500) -> dict[str, ModelParameters]:
    """The published Table 2 constants, scaled to ``n_objects``.

    Legible in the scan: DSM-Station S=6078, p=4, m=6000;
    NSM_Connection S=170, k=11, m=559; NSM_Sightseeing 7.5 per object,
    11250 total, S=456, m=2813; DASDBS_NSM_Connection m=500.  The
    remaining cells are reconstructed from the same sizes the legible
    cells imply (S_station=154 → k=13 → m=116, matching the "120" and
    "121" query-1b estimates of Table 3) and are flagged in
    EXPERIMENTS.md.  k here excludes slot overhead, as the paper's
    values imply (2012 // 170 = 11).
    """
    page = EFFECTIVE_PAGE_SIZE

    def row(
        name: str,
        per_object: float,
        s_tuple: float,
        is_large: bool = False,
        p: int | None = None,
        header: float = 0.0,
        data: float = 0.0,
        sections: tuple[float, ...] = (),
        k: int | None = None,
    ) -> RelationParameters:
        total = per_object * n_objects
        if is_large:
            assert p is not None
            return RelationParameters(
                relation=name,
                tuples_per_object=per_object,
                tuples_total=total,
                s_tuple=s_tuple,
                is_large=True,
                k=None,
                p=p,
                m=total * p,
                header_bytes=header,
                data_bytes=data,
                section_bytes=sections,
            )
        k = k if k is not None else int(page // s_tuple)
        return RelationParameters(
            relation=name,
            tuples_per_object=per_object,
            tuples_total=total,
            s_tuple=s_tuple,
            is_large=False,
            k=k,
            p=None,
            m=float(ceil(total / k)),
        )

    # DSM-Station: S=6078 with a full 2012-byte header page ⇒ 4066 data
    # bytes; the root + Platform part is ~1040 bytes (fits one page),
    # the Sightseeing part the rest.
    dsm_station = dataclasses.replace(
        row(
            "DSM_Station",
            1.0,
            6078.0,
            is_large=True,
            p=4,
            header=2012.0,
            data=4066.0,
            sections=(130.0, 910.0, 3026.0),
        ),
        # The S_tuple of 6078 counts the full header page; the actual
        # directory of an average object is a few hundred bytes.
        true_header_bytes=174.0,
    )
    dsm = ModelParameters("DSM", page, 0, (dsm_station,))
    dasdbs_dsm = ModelParameters(
        "DASDBS-DSM",
        page,
        0,
        (dataclasses.replace(dsm_station, relation="DASDBS-DSM_Station"),),
    )

    nsm_relations = (
        row("NSM_Station", 1.0, 154.0, k=13),
        row("NSM_Platform", 1.6, 170.0, k=11),
        row("NSM_Connection", 4.096, 170.0, k=11),
        row("NSM_Sightseeing", 7.5, 456.0, k=4),
    )
    nsm = ModelParameters("NSM", page, 0, nsm_relations)
    nsm_index = ModelParameters("NSM+index", page, 0, nsm_relations)

    dasdbs_nsm = ModelParameters(
        "DASDBS-NSM",
        page,
        0,
        (
            row("DASDBS_NSM_Station", 1.0, 154.0, k=13),
            row("DASDBS_NSM_Platform", 1.0, 330.0, k=6),
            row("DASDBS_NSM_Connection", 1.0, 670.0, k=3),
            row(
                "DASDBS_NSM_Sightseeing",
                1.0,
                2012.0 + 3420.0,
                is_large=True,
                p=3,
                header=2012.0,
                data=3420.0,
            ),
        ),
    )

    return {
        "DSM": dsm,
        "DASDBS-DSM": dasdbs_dsm,
        "NSM": nsm,
        "NSM+index": nsm_index,
        "DASDBS-NSM": dasdbs_nsm,
    }
