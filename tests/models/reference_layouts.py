"""The models' layouts and Table 2 rows, written out by hand.

The specification the Section 3 rules (``nf2.schema.unnest`` /
``nest_by_root`` / ``links``) and ``core.parameters``' derived row
sizes are held to: every storage schema of Figures 3 and 4 attribute by
attribute, the ``Part`` declarations over them, the link projections
navigation reads, and the derivations of Table 2 rows with their
key-column arithmetic (``6, width + 8``) and the direct models' three
sections spelt out.
"""

from __future__ import annotations

from repro.benchmark.config import BenchmarkConfig, DEFAULT_CONFIG
from repro.benchmark.schema import (
    CONNECTION_SCHEMA,
    PLATFORM_SCHEMA,
    SIGHTSEEING_SCHEMA,
    STATION_SCHEMA,
)
from repro.core import formulas
from repro.core.parameters import (
    ModelParameters,
    RelationParameters,
    StructureCounts,
    _row,
)
from repro.nf2.schema import Part, Projection, RelationSchema, int_attr, link_attr, str_attr
from repro.nf2.serializer import DASDBS_FORMAT, StorageFormat
from repro.storage.constants import EFFECTIVE_PAGE_SIZE, SLOT_ENTRY_SIZE

# -- Figure 3: NSM ---------------------------------------------------------------------

NSM_STATION = RelationSchema.flat(
    "NSM_Station",
    int_attr("Key"),
    int_attr("NoPlatform"),
    int_attr("NoSeeing"),
    str_attr("Name"),
)

NSM_PLATFORM = RelationSchema.flat(
    "NSM_Platform",
    int_attr("RootKey"),
    int_attr("OwnKey"),
    int_attr("PlatformNr"),
    int_attr("NoLine"),
    int_attr("TicketCode"),
    str_attr("Information"),
)

NSM_CONNECTION = RelationSchema.flat(
    "NSM_Connection",
    int_attr("RootKey"),
    int_attr("ParentKey"),
    int_attr("LineNr"),
    int_attr("KeyConnection"),
    link_attr("OidConnection"),
    str_attr("DepartureTimes"),
)

NSM_SIGHTSEEING = RelationSchema.flat(
    "NSM_Sightseeing",
    int_attr("RootKey"),
    int_attr("SeeingNr"),
    str_attr("Description"),
    str_attr("Location"),
    str_attr("History"),
    str_attr("Remarks"),
)

NSM_PARTS = (
    Part(NSM_STATION, STATION_SCHEMA, root_key="Key"),
    Part(NSM_PLATFORM, PLATFORM_SCHEMA, root_key="RootKey", own_key="OwnKey"),
    Part(NSM_CONNECTION, CONNECTION_SCHEMA, root_key="RootKey", parent_key="ParentKey"),
    Part(NSM_SIGHTSEEING, SIGHTSEEING_SCHEMA, root_key="RootKey"),
)

# -- Figure 4: DASDBS-NSM --------------------------------------------------------------

DNSM_STATION = RelationSchema.flat(
    "DASDBS_NSM_Station",
    int_attr("Key"),
    int_attr("NoPlatform"),
    int_attr("NoSeeing"),
    str_attr("Name"),
)

PLATFORM_ITEM = RelationSchema(
    "PlatformOfStation",
    (
        int_attr("OwnKey"),
        int_attr("PlatformNr"),
        int_attr("NoLine"),
        int_attr("TicketCode"),
        str_attr("Information"),
    ),
)

DNSM_PLATFORM = RelationSchema("DASDBS_NSM_Platform", (int_attr("RootKey"),), (PLATFORM_ITEM,))

CONNECTION_ITEM = RelationSchema(
    "ConnectionOfPlatform",
    (
        int_attr("LineNr"),
        int_attr("KeyConnection"),
        link_attr("OidConnection"),
        str_attr("DepartureTimes"),
    ),
)

CONNECTION_GROUP = RelationSchema(
    "ConnectionsOfPlatform", (int_attr("ParentKey"),), (CONNECTION_ITEM,)
)

DNSM_CONNECTION = RelationSchema(
    "DASDBS_NSM_Connection", (int_attr("RootKey"),), (CONNECTION_GROUP,)
)

SIGHTSEEING_ITEM = RelationSchema(
    "SightseeingOfStation",
    (
        int_attr("SeeingNr"),
        str_attr("Description"),
        str_attr("Location"),
        str_attr("History"),
        str_attr("Remarks"),
    ),
)

DNSM_SIGHTSEEING = RelationSchema(
    "DASDBS_NSM_Sightseeing", (int_attr("RootKey"),), (SIGHTSEEING_ITEM,)
)

DNSM_PARTS = (
    Part(DNSM_STATION, STATION_SCHEMA, root_key="Key"),
    Part(DNSM_PLATFORM, PLATFORM_SCHEMA, root_key="RootKey", own_key="OwnKey"),
    Part(DNSM_CONNECTION, CONNECTION_SCHEMA, root_key="RootKey", parent_key="ParentKey"),
    Part(DNSM_SIGHTSEEING, SIGHTSEEING_SCHEMA, root_key="RootKey"),
)

# -- what navigation reads: the references, nothing else ------------------------------

#: Of a Platform section, and of a whole stored Station (DSM family).
PLATFORM_LINKS = Projection(
    PLATFORM_SCHEMA, (), (Projection(CONNECTION_SCHEMA, ("OidConnection",)),)
)
STATION_LINKS = Projection(STATION_SCHEMA, (), (PLATFORM_LINKS,))

#: Of a stored DASDBS_NSM_Connection tuple.
CONNECTION_LINKS = Projection(
    DNSM_CONNECTION,
    (),
    (Projection(CONNECTION_GROUP, (), (Projection(CONNECTION_ITEM, ("OidConnection",)),)),),
)

# -- Table 2 rows with the key columns counted by hand ---------------------------------


def nsm_parameters(
    config: BenchmarkConfig = DEFAULT_CONFIG,
    fmt: StorageFormat = DASDBS_FORMAT,
    counts: StructureCounts | None = None,
) -> ModelParameters:
    """Table 2 rows of NSM (also used by NSM+index)."""
    counts = counts or StructureCounts.from_config(config)
    n = config.n_objects

    def flat_row(name: str, per_object: float, n_attrs_extra: int, base_width: int) -> RelationParameters:
        s_tuple = float(fmt.tuple_header + fmt.attr_overhead * n_attrs_extra + base_width)
        k = formulas.tuples_per_page(EFFECTIVE_PAGE_SIZE, s_tuple, SLOT_ENTRY_SIZE)
        total = per_object * n
        return RelationParameters(
            relation=name,
            tuples_per_object=per_object,
            tuples_total=total,
            s_tuple=s_tuple,
            is_large=False,
            k=k,
            p=None,
            m=float(formulas.pages_for_relation(total, k)),
        )

    # Attribute widths from Figure 3: flat attributes plus the added
    # foreign keys (RootKey and, for Connection, ParentKey; Platform
    # carries its OwnKey).
    station = flat_row("NSM_Station", 1.0, 4, STATION_SCHEMA.atomic_width)
    platform = flat_row(
        "NSM_Platform", counts.platforms, 6, PLATFORM_SCHEMA.atomic_width + 8
    )
    connection = flat_row(
        "NSM_Connection", counts.connections, 6, CONNECTION_SCHEMA.atomic_width + 8
    )
    sightseeing = flat_row(
        "NSM_Sightseeing", counts.sightseeings, 6, SIGHTSEEING_SCHEMA.atomic_width + 4
    )
    return ModelParameters("NSM", (station, platform, connection, sightseeing))


def dasdbs_nsm_parameters(
    config: BenchmarkConfig = DEFAULT_CONFIG,
    fmt: StorageFormat = DASDBS_FORMAT,
    counts: StructureCounts | None = None,
) -> ModelParameters:
    """Table 2 rows of DASDBS-NSM: one nested tuple per relation per object."""
    counts = counts or StructureCounts.from_config(config)
    n = config.n_objects

    def nested_row(name: str, s_tuple: float, n_subtuples: float) -> RelationParameters:
        is_large = s_tuple > EFFECTIVE_PAGE_SIZE - SLOT_ENTRY_SIZE
        if is_large:
            header = float(fmt.directory_size(1, round(n_subtuples)))
            p = formulas.pages_per_large_tuple(header, s_tuple, EFFECTIVE_PAGE_SIZE)
            return RelationParameters(
                relation=name,
                tuples_per_object=1.0,
                tuples_total=float(n),
                s_tuple=header + s_tuple,
                is_large=True,
                k=None,
                p=p,
                m=float(n * p),
                header_bytes=header,
                data_bytes=s_tuple,
            )
        k = formulas.tuples_per_page(EFFECTIVE_PAGE_SIZE, s_tuple, SLOT_ENTRY_SIZE)
        return RelationParameters(
            relation=name,
            tuples_per_object=1.0,
            tuples_total=float(n),
            s_tuple=s_tuple,
            is_large=False,
            k=k,
            p=None,
            m=float(formulas.pages_for_relation(n, k)),
        )

    wrapper = fmt.tuple_header + fmt.attr_overhead + 4  # RootKey-only flat part
    station = nested_row("DASDBS_NSM_Station", float(fmt.flat_size(STATION_SCHEMA)), 0)
    platform_item = fmt.tuple_header + 5 * fmt.attr_overhead + PLATFORM_SCHEMA.atomic_width + 4
    platform = nested_row(
        "DASDBS_NSM_Platform",
        wrapper + fmt.subrel_overhead + counts.platforms * platform_item,
        counts.platforms,
    )
    conn_item = float(fmt.flat_size(CONNECTION_SCHEMA))
    group = wrapper + fmt.subrel_overhead  # ParentKey wrapper per platform
    connection = nested_row(
        "DASDBS_NSM_Connection",
        wrapper
        + fmt.subrel_overhead
        + counts.platforms * (group + counts.connections_per_platform * conn_item),
        counts.platforms + counts.connections,
    )
    sight_item = fmt.tuple_header + 5 * fmt.attr_overhead + SIGHTSEEING_SCHEMA.atomic_width
    sightseeing = nested_row(
        "DASDBS_NSM_Sightseeing",
        wrapper + fmt.subrel_overhead + counts.sightseeings * sight_item,
        counts.sightseeings,
    )
    return ModelParameters("DASDBS-NSM", (station, platform, connection, sightseeing))


def _direct_sections(fmt: StorageFormat, counts: StructureCounts) -> tuple[float, float, float]:
    """Byte sizes of the three sections of a direct-model Station."""
    root = float(fmt.flat_size(STATION_SCHEMA))
    platform_each = fmt.flat_size(PLATFORM_SCHEMA) + fmt.subrel_overhead + (
        counts.connections_per_platform * fmt.flat_size(CONNECTION_SCHEMA)
    )
    platforms = fmt.subrel_overhead + counts.platforms * platform_each
    sights = fmt.subrel_overhead + counts.sightseeings * fmt.flat_size(SIGHTSEEING_SCHEMA)
    return root, platforms, sights


def direct_parameters(
    model: str,
    config: BenchmarkConfig = DEFAULT_CONFIG,
    fmt: StorageFormat = DASDBS_FORMAT,
    counts: StructureCounts | None = None,
) -> ModelParameters:
    """Table 2 rows of DSM / DASDBS-DSM under our storage format."""
    counts = counts or StructureCounts.from_config(config)
    root, platforms, sights = _direct_sections(fmt, counts)
    # The inline nested encoding has the same payload as the sections.
    data_bytes = root + platforms + sights
    header_bytes = float(fmt.directory_size(3, round(counts.subtuples)))
    rel = _row(
        f"{model}_Station", 1.0, config.n_objects, data_bytes, header_bytes,
        (root, platforms, sights),
    )
    return ModelParameters(model, (rel,))
