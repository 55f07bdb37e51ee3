"""Plan-based serializer vs the retained naive reference: byte parity.

The optimised :class:`NF2Serializer` compiles per-schema layout plans
and fuses the flat part into one ``struct`` pack/unpack; the seed's
field-by-field implementation is retained as
:class:`ReferenceNF2Serializer`.  These property-style tests drive both
over randomized schemas, tuples and :class:`StorageFormat` knobs and
assert the encodings are byte-identical and the decodings equal — the
reference is the specification, the plan is only allowed to be faster.
"""

from __future__ import annotations

import random

import pytest

from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.generator import generate_stations
from repro.nf2.schema import (
    Attribute,
    AttributeType,
    RelationSchema,
    int_attr,
    link_attr,
    str_attr,
)
from repro.nf2.serializer import DASDBS_FORMAT, NF2Serializer, StorageFormat
from repro.nf2.values import NestedTuple

from tests.nf2.reference_serializer import ReferenceNF2Serializer

#: Format knobs the parity must hold under: the calibrated default, the
#: minimum legal overheads, and deliberately lopsided paddings.
FORMATS = (
    DASDBS_FORMAT,
    StorageFormat(tuple_header=8, attr_overhead=2, subrel_overhead=4),
    StorageFormat(tuple_header=40, attr_overhead=6, subrel_overhead=12),
    StorageFormat(tuple_header=13, attr_overhead=3, subrel_overhead=5),
)


def _random_schema(rng: random.Random, depth: int, name: str) -> RelationSchema:
    """A random relation: 1-4 atomic attributes, 0-2 sub-relations."""
    attributes: list[Attribute] = []
    for index in range(rng.randint(1, 4)):
        kind = rng.choice(["int", "str", "link"])
        attr_name = f"{name}_a{index}"
        if kind == "int":
            attributes.append(int_attr(attr_name))
        elif kind == "link":
            attributes.append(link_attr(attr_name))
        else:
            attributes.append(str_attr(attr_name, size=rng.choice([5, 20, 100])))
    subrelations = []
    if depth > 1:
        for index in range(rng.randint(0, 2)):
            subrelations.append(
                _random_schema(rng, depth - 1, f"{name}_s{index}")
            )
    return RelationSchema(
        name=name, attributes=tuple(attributes), subrelations=tuple(subrelations)
    )


def _random_tuple(rng: random.Random, schema: RelationSchema) -> NestedTuple:
    atoms = {}
    for attr in schema.attributes:
        if attr.type in (AttributeType.INT, AttributeType.LINK):
            atoms[attr.name] = rng.randint(-(2**31), 2**31 - 1)
        else:
            length = rng.randint(0, attr.size)
            atoms[attr.name] = "".join(
                rng.choice("abcdefghijklmnop-XYZ0123456789") for _ in range(length)
            )
    subs = {
        sub.name: [_random_tuple(rng, sub) for _ in range(rng.randint(0, 3))]
        for sub in schema.subrelations
    }
    return NestedTuple(schema, atoms, subs)


@pytest.mark.parametrize("fmt_index", range(len(FORMATS)))
@pytest.mark.parametrize("seed", [1, 7, 93, 1993])
def test_randomized_nested_roundtrip_parity(fmt_index, seed):
    fmt = FORMATS[fmt_index]
    rng = random.Random(seed * 1000 + fmt_index)
    fast = NF2Serializer(fmt)
    reference = ReferenceNF2Serializer(fmt)
    for case in range(10):
        schema = _random_schema(rng, depth=rng.randint(1, 3), name=f"R{case}")
        value = _random_tuple(rng, schema)

        fast_bytes = fast.encode_nested(value)
        assert fast_bytes == reference.encode_nested(value)
        assert len(fast_bytes) == fmt.nested_size(value)

        decoded_fast = fast.decode_nested(schema, fast_bytes)
        decoded_ref = reference.decode_nested(schema, fast_bytes)
        assert decoded_fast == decoded_ref == value

        flat_fast = fast.encode_flat(value)
        assert flat_fast == reference.encode_flat(value)
        assert fast.decode_flat(schema, flat_fast) == reference.decode_flat(
            schema, flat_fast
        )

        for attr in schema.attributes:
            assert fast.decode_atom(schema, flat_fast, attr.name) == (
                reference.decode_atom(schema, flat_fast, attr.name)
            )


@pytest.mark.parametrize("fmt", FORMATS)
def test_randomized_subtuple_list_parity(fmt):
    rng = random.Random(42)
    fast = NF2Serializer(fmt)
    reference = ReferenceNF2Serializer(fmt)
    for case in range(10):
        schema = _random_schema(rng, depth=2, name=f"L{case}")
        children = [_random_tuple(rng, schema) for _ in range(rng.randint(0, 4))]
        fast_bytes = fast.encode_subtuple_list(schema, children)
        assert fast_bytes == reference.encode_subtuple_list(schema, children)
        assert (
            fast.decode_subtuple_list(schema, fast_bytes)
            == reference.decode_subtuple_list(schema, fast_bytes)
            == children
        )


@pytest.mark.parametrize("fmt", FORMATS)
def test_benchmark_extension_parity(fmt):
    """The real generated extension, not just synthetic schemas: whole
    objects and the three sections the direct models store them as."""
    stations = generate_stations(BenchmarkConfig(n_objects=40))
    fast = NF2Serializer(fmt)
    reference = ReferenceNF2Serializer(fmt)
    for station in stations:
        blob = fast.encode_nested(station)
        assert blob == reference.encode_nested(station)
        assert len(blob) == fmt.nested_size(station)
        assert fast.decode_nested(station.schema, blob) == station
        assert reference.decode_nested(station.schema, blob) == station
        root = fast.encode_flat(station)
        assert root == reference.encode_flat(station)
        assert fast._decode_flat_part(station.schema, root, 0) == (
            reference._decode_flat_part(station.schema, root, 0)
        )
        for sub in station.schema.subrelations:
            children = station.subtuples(sub.name)
            section = fast.encode_subtuple_list(sub, children)
            assert section == reference.encode_subtuple_list(sub, children)
            assert (
                fast.decode_subtuple_list(sub, section)
                == reference.decode_subtuple_list(sub, section)
                == children
            )


def test_decoded_tuples_behave_like_validated_ones():
    """Trusted-constructor decodes expose the full NestedTuple API."""
    stations = generate_stations(BenchmarkConfig(n_objects=5))
    fast = NF2Serializer()
    decoded = fast.decode_nested(
        stations[0].schema, fast.encode_nested(stations[0])
    )
    assert decoded.atoms() == stations[0].atoms()
    assert decoded.count_subtuples() == stations[0].count_subtuples()
    replaced = decoded.replace_atoms(Name="renamed")
    assert replaced["Name"] == "renamed"
