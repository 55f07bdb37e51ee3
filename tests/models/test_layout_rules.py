"""The paper's Section 3 rules derive the models' layouts.

``nf2.schema.unnest`` (Figure 3) and ``nest_by_root`` (Figure 4) must
reproduce the hand-written storage schemas and ``Part``s kept in
``reference_layouts`` exactly, ``links`` the hand-written projections
navigation reads, Table 2's derived row sizes (the direct models' cut
into sections included) must equal the hand-counted ones bit for bit,
and the rules must lay out any schema the assembly reaches — here a toy
order schema whose stored records go through the generated ``store``,
the decoders and the join back to the object they came from, and whose
long-object sections and references round-trip like the Station's.
"""

from __future__ import annotations

import random

import pytest

from repro.benchmark.config import DEFAULT_CONFIG
from repro.benchmark.schema import (
    CONNECTION_SCHEMA,
    PLATFORM_SCHEMA,
    SIGHTSEEING_SCHEMA,
    STATION_SCHEMA,
)
from repro.core.parameters import (
    StructureCounts,
    derive_dasdbs_nsm_parameters,
    derive_direct_parameters,
    derive_nsm_parameters,
)
from repro.errors import SchemaError
from repro.models.dasdbs_nsm import DNSM_CONNECTION, DNSM_LINKED, DNSM_PARTS
from repro.models.base import link_sections
from repro.models.dsm import DSMModel
from repro.models.nsm import NSM_LINKED, NSM_PARTS
from repro.nf2.codec import compiled_assembly
from repro.nf2.schema import (
    RelationSchema,
    int_attr,
    link_attr,
    links,
    nest_by_root,
    str_attr,
    unnest,
)
from repro.nf2.serializer import DASDBS_FORMAT, NF2Serializer, StorageFormat
from repro.nf2.values import NestedTuple, links_of
from repro.storage import StorageEngine
from tests.models import reference_layouts as reference

RULES = {"unnest": unnest, "nest_by_root": nest_by_root}


class TestStationLayouts:
    def test_unnest_is_figure_3(self):
        assert unnest(STATION_SCHEMA, "NSM") == reference.NSM_PARTS
        assert NSM_PARTS == reference.NSM_PARTS

    def test_nest_by_root_is_figure_4(self):
        assert nest_by_root(STATION_SCHEMA, "DASDBS_NSM") == reference.DNSM_PARTS
        assert DNSM_PARTS == reference.DNSM_PARTS

    def test_storage_schemas_match_attribute_for_attribute(self):
        # ``==`` on the parts already covers this; spelt out so a
        # mismatch names the level and attribute that moved.
        written_parts = reference.NSM_PARTS + reference.DNSM_PARTS
        for derived, written in zip(NSM_PARTS + DNSM_PARTS, written_parts):
            for got, want in zip(derived.stored.walk(), written.stored.walk()):
                assert got.name == want.name
                assert got.attributes == want.attributes

    def test_links_are_the_hand_written_projections(self):
        assert links(STATION_SCHEMA) == reference.STATION_LINKS
        assert links(PLATFORM_SCHEMA) == reference.PLATFORM_LINKS
        assert links(DNSM_CONNECTION) == reference.CONNECTION_LINKS
        assert links(CONNECTION_SCHEMA) == reference.PLATFORM_LINKS.subrelations[0]
        assert links(SIGHTSEEING_SCHEMA) is None

    def test_the_relation_holding_references_is_connection(self):
        assert NSM_PARTS[NSM_LINKED].target is CONNECTION_SCHEMA
        assert DNSM_PARTS[DNSM_LINKED].target is CONNECTION_SCHEMA


FORMATS = [
    DASDBS_FORMAT,
    StorageFormat(tuple_header=40, attr_overhead=2, subrel_overhead=12, dir_preamble=64),
]
COUNTS = [
    None,  # the configuration's expected counts
    StructureCounts(platforms=0.0, connections=0.0, sightseeings=3.0),
    StructureCounts(platforms=2.7, connections=9.31, sightseeings=17.3),
]


def _direct(model):
    def derive(config, fmt, counts):
        return derive_direct_parameters(model, config, fmt, counts)

    def written(config, fmt, counts):
        return reference.direct_parameters(model, config, fmt, counts)

    return derive, written


DERIVATIONS = {
    "NSM": (derive_nsm_parameters, reference.nsm_parameters),
    "DASDBS-NSM": (derive_dasdbs_nsm_parameters, reference.dasdbs_nsm_parameters),
    "DSM": _direct("DSM"),
    "DASDBS-DSM": _direct("DASDBS-DSM"),
}


@pytest.mark.parametrize("fmt", FORMATS, ids=["dasdbs", "wide"])
@pytest.mark.parametrize("counts", COUNTS, ids=["config", "no-platforms", "large"])
@pytest.mark.parametrize("n_objects", [1500, 77])
def test_derived_table2_rows_are_bit_identical(fmt, counts, n_objects):
    config = DEFAULT_CONFIG.with_changes(n_objects=n_objects)
    for model, (derive, written) in DERIVATIONS.items():
        got, want = derive(config, fmt, counts), written(config, fmt, counts)
        assert got == want, model
        for got_row, want_row in zip(got.relations, want.relations):
            for field in got_row.__dataclass_fields__:
                # ``repr`` tells 1500 from 1500.0 and -0.0 from 0.0.
                assert repr(getattr(got_row, field)) == repr(getattr(want_row, field)), field


# -- any schema the assembly reaches ----------------------------------------------------

SHIPMENT = RelationSchema.flat(
    "Shipment", int_attr("ShipNo"), str_attr("Carrier", 12), link_attr("Depot")
)
LINE = RelationSchema("Line", (int_attr("LineNo"), link_attr("Product"), int_attr("Qty")), (SHIPMENT,))
NOTE = RelationSchema.flat("Note", str_attr("Text", 30))
ORDER = RelationSchema("Order", (int_attr("Id"), str_attr("Customer", 20)), (LINE, NOTE))


def _order(rng: random.Random, key: int) -> NestedTuple:
    lines = [
        NestedTuple(
            LINE,
            {"LineNo": n, "Product": rng.randrange(500), "Qty": rng.randrange(100)},
            {
                "Shipment": [
                    NestedTuple(
                        SHIPMENT,
                        {"ShipNo": s, "Carrier": rng.choice(["ups", "dhl"]), "Depot": -s},
                    )
                    for s in range(rng.randrange(3))
                ]
            },
        )
        for n in range(rng.randrange(4))
    ]
    notes = [NestedTuple(NOTE, {"Text": f"note {i}"}) for i in range(rng.randrange(3))]
    return NestedTuple(ORDER, {"Id": key, "Customer": f"c{key}"}, {"Line": lines, "Note": notes})


def test_rules_name_the_toy_schema_like_the_figures():
    rows = unnest(ORDER, "SHOP")
    assert [part.stored.name for part in rows] == [
        "SHOP_Order",
        "SHOP_Line",
        "SHOP_Shipment",
        "SHOP_Note",
    ]
    shipment = rows[2].stored.attributes
    assert [attr.name for attr in shipment] == [
        "RootKey",
        "ParentKey",
        "ShipNo",
        "Carrier",
        "Depot",
    ]
    records = nest_by_root(ORDER, "SHOP")
    assert [level.name for level in records[2].stored.walk()] == [
        "SHOP_Shipment",
        "ShipmentsOfLine",
        "ShipmentOfLine",
    ]
    assert [level.name for level in records[1].stored.walk()] == ["SHOP_Line", "LineOfOrder"]
    assert records[0].root_key == rows[0].root_key == "Id"


@pytest.mark.parametrize("rule", sorted(RULES))
def test_store_decode_join_round_trips_a_toy_schema(rule):
    parts = RULES[rule](ORDER, "SHOP")
    assembly = compiled_assembly(DASDBS_FORMAT, parts)
    serializer = NF2Serializer(DASDBS_FORMAT)
    rng = random.Random(17)
    for key in range(40):
        order = _order(rng, key)
        stored: list[list[bytes]] = [[] for _ in parts]

        def insert(index, value):
            encode = serializer.encode_flat if value.schema.is_flat else serializer.encode_nested
            stored[index].append(encode(value))
            return (index, len(stored[index]) - 1)

        row = assembly.store(order, insert)
        handles = [[(i, n) for n in range(len(records))] for i, records in enumerate(stored)]
        assert row == tuple(map(tuple, handles))
        decoded = [
            decode(records if index and part.stored.is_flat else records[0])
            for index, (decode, part, records) in enumerate(zip(assembly.decode, parts, stored))
        ]
        assert assembly.join(*decoded) == order


@pytest.mark.parametrize("rule", sorted(RULES))
def test_a_relation_three_levels_below_the_root_is_refused(rule):
    parcel = RelationSchema.flat("Parcel", int_attr("ParcelNo"))
    shipment = RelationSchema("Shipment", (int_attr("ShipNo"),), (parcel,))
    line = RelationSchema("Line", (int_attr("LineNo"),), (shipment,))
    too_deep = RelationSchema("Order", (int_attr("Id"),), (line,))
    with pytest.raises(SchemaError, match="three levels"):
        RULES[rule](too_deep, "SHOP")


class OrderDSM(DSMModel):
    """A direct model of the toy schema: the section cut is the rule's."""

    root_schema = ORDER


def test_the_section_cut_round_trips_a_toy_schema():
    """Section 0 is the root's flat part, then one section per
    sub-relation in schema order; stored as a long object and read back,
    the sections decode to the order they came from, and joined they
    decode as its nested encoding.  Navigation finds the same references
    in a nested decode under ``links(ORDER)`` as in the decode of the
    leading sections through the last one holding any, the only ones it
    copies."""
    model = OrderDSM(StorageEngine(buffer_pages=64))
    relation, serializer = model.relations[0], model.serializer
    order_links = links(ORDER)
    assert [sub.stored for sub in order_links.subrelations] == [LINE]
    assert order_links.subrelations[0].attributes == ("Product",)
    assert link_sections(ORDER) == model._navigation_copy == (0, 1)
    rng = random.Random(23)
    for key in range(40):
        order = _order(rng, key)
        sections = relation.sections(order)
        assert len(sections) == 1 + len(ORDER.subrelations)
        assert sections[0] == serializer.encode_flat(order)
        address = relation.long_store.store(sections, order.count_subtuples())
        stored = relation.long_store.read(address)
        assert stored == sections
        assert serializer.decode_nested(ORDER, relation.read_record(address)) == order
        # The inline nested encoding has the same payload (Table 2).
        assert sum(map(len, stored)) == DASDBS_FORMAT.nested_size(order)

        whole = links_of([serializer.decode_nested(order_links, serializer.encode_nested(order))])
        leading = relation.read_record(address, copy=link_sections(ORDER))
        by_section = links_of([serializer.decode_nested(order_links, leading)])
        expected = [
            ref
            for line in order.subtuples("Line")
            for ref in (line["Product"], *(s["Depot"] for s in line.subtuples("Shipment")))
        ]
        assert whole == by_section == expected
