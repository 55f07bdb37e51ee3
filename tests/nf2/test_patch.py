"""Stored bytes are sacred: the byte patch vs the value round trip.

``NF2Serializer.compile_patch`` / ``patch_flat`` overwrite atomic
attributes in the stored bytes; ``NestedTuple.replace_atoms`` followed
by a re-encode is their specification.  For every schema a storage model
stores a root or a row under, for random deep schemas and for
hypothesis-generated ones:

    patch_flat(schema, b, c) == encode(decode(b).replace_atoms(**c))

on flat and on nested encodings (where only the leading flat part may
change), with the same exception *types* as the specification for every
refused change, and with nothing written when a change is refused.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmark.schema import STATION_SCHEMA
from repro.errors import SchemaError, SerializationError
from repro.models.dasdbs_nsm import (
    DNSM_CONNECTION,
    DNSM_PLATFORM,
    DNSM_SIGHTSEEING,
    DNSM_STATION,
)
from repro.models.nsm import NSM_CONNECTION, NSM_PLATFORM, NSM_SIGHTSEEING, NSM_STATION
from repro.nf2.codec import compiled_plan
from repro.nf2.schema import (
    AttributeType,
    Projection,
    RelationSchema,
    int_attr,
    link_attr,
    str_attr,
)
from repro.nf2.serializer import DASDBS_FORMAT, NF2Serializer
from repro.nf2.values import NestedTuple

from tests.fuzz.conftest import fuzz_seeds
from tests.fuzz.test_serializer_fuzz import (
    _random_format,
    _random_schema,
    _random_string,
    _random_tuple,
)

#: Every schema one of the five models stores tuples under.
STORED_SCHEMAS = (
    STATION_SCHEMA,
    NSM_STATION,
    NSM_PLATFORM,
    NSM_CONNECTION,
    NSM_SIGHTSEEING,
    DNSM_STATION,
    DNSM_PLATFORM,
    DNSM_CONNECTION,
    DNSM_SIGHTSEEING,
)

INT_EDGES = (0, -1, 1, -(2**31), 2**31 - 1)


def _random_changes(rng: random.Random, schema: RelationSchema) -> dict:
    """New values for a random subset of the atomic attributes: bounds
    of the 32-bit range, strings at exactly their byte width, multi-byte
    UTF-8."""
    changes = {}
    for attr in schema.attributes:
        if rng.random() < 0.5:
            continue
        if attr.type is AttributeType.STR:
            changes[attr.name] = _random_string(rng, attr.size)
        else:
            changes[attr.name] = rng.choice((*INT_EDGES, rng.randint(-(2**31), 2**31 - 1)))
    return changes


def _assert_patch_is_the_round_trip(serializer, schema, value, changes):
    expected = value.replace_atoms(**changes)
    flat = serializer.encode_flat(value)
    nested = serializer.encode_nested(value)
    patch = serializer.compile_patch(schema, changes)
    for wrap in (bytes, bytearray, memoryview):
        patched = patch(wrap(flat))
        assert type(patched) is bytes
        assert patched == serializer.encode_flat(expected)
        assert patch(wrap(nested)) == serializer.encode_nested(expected)
    assert serializer.patch_flat(schema, flat, changes) == serializer.encode_flat(expected)
    # The specification, spelled out on the stored bytes themselves
    # (byte equality, not value equality: a string's trailing NULs are
    # indistinguishable from padding once stored, in both forms alike).
    assert patch(nested) == serializer.encode_nested(
        serializer.decode_nested(schema, nested).replace_atoms(**changes)
    )


@pytest.mark.parametrize("schema", STORED_SCHEMAS, ids=lambda schema: schema.name)
@pytest.mark.parametrize("seed", fuzz_seeds())
def test_stored_schemas_patch_equals_round_trip(schema, seed):
    rng = random.Random(seed)
    serializer = NF2Serializer()
    for _ in range(6):
        value = _random_tuple(rng, schema, fanout=3)
        _assert_patch_is_the_round_trip(serializer, schema, value, _random_changes(rng, schema))
    _assert_patch_is_the_round_trip(serializer, schema, value, {})


@pytest.mark.parametrize("seed", fuzz_seeds())
def test_random_schemas_and_formats_patch_equals_round_trip(seed):
    rng = random.Random(seed * 17 + 5)
    for case in range(10):
        serializer = NF2Serializer(_random_format(rng))
        schema = _random_schema(rng, depth=rng.randint(1, 3), name=f"U{case}")
        value = _random_tuple(rng, schema, fanout=3)
        _assert_patch_is_the_round_trip(serializer, schema, value, _random_changes(rng, schema))


# -- hypothesis-generated schemas ----------------------------------------------------

_INTS = st.integers(min_value=-(2**31), max_value=2**31 - 1)


def _values(attr):
    if attr.type is AttributeType.STR:
        return st.text(max_size=attr.size).filter(
            lambda text: len(text.encode("utf-8")) <= attr.size
        )
    return _INTS


@st.composite
def _schemas(draw, depth: int = 2, name: str = "H"):
    makers = (int_attr, link_attr, lambda n: str_attr(n, draw(st.sampled_from((1, 4, 9, 30)))))
    attributes = [
        draw(st.sampled_from(makers))(f"{name}_a{index}")
        for index in range(draw(st.integers(0, 4)))
    ]
    subrelations = []
    if depth > 1:
        subrelations = [
            draw(_schemas(depth - 1, f"{name}_s{index}"))
            for index in range(draw(st.integers(0, 2)))
        ]
    if not attributes and not subrelations:
        attributes.append(int_attr(f"{name}_pad"))
    return RelationSchema(name, tuple(attributes), tuple(subrelations))


@st.composite
def _tuples(draw, schema):
    atoms = {attr.name: draw(_values(attr)) for attr in schema.attributes}
    subs = {
        sub.name: draw(st.lists(_tuples(sub), max_size=2)) for sub in schema.subrelations
    }
    return NestedTuple(schema, atoms, subs)


@st.composite
def _cases(draw):
    schema = draw(_schemas())
    value = draw(_tuples(schema))
    changed = (
        draw(st.lists(st.sampled_from(schema.attributes), unique=True))
        if schema.attributes
        else []
    )
    return schema, value, {attr.name: draw(_values(attr)) for attr in changed}


@given(_cases())
@settings(max_examples=120, deadline=None)
def test_property_patch_equals_round_trip(case):
    schema, value, changes = case
    _assert_patch_is_the_round_trip(NF2Serializer(), schema, value, changes)


# -- refusals: the specification's exception types, nothing written -----------------------

REFUSED = {
    "unknown-name": {"Nope": 1},
    "int-for-str": {"Name": 7},
    "str-for-int": {"NoSeeing": "seven"},
    "bool-for-int": {"NoSeeing": True},
    "over-long-str": {"Name": "x" * 101},
    "over-long-utf8": {"Name": "é" * 51},
    "int-too-large": {"NoPlatform": 2**31},
    "int-too-small": {"NoPlatform": -(2**31) - 1},
}


@pytest.mark.parametrize("bad", sorted(REFUSED))
@pytest.mark.parametrize("schema", (STATION_SCHEMA, NSM_STATION, DNSM_STATION), ids=lambda s: s.name)
def test_refused_changes_raise_what_replace_atoms_raises(schema, bad):
    serializer = NF2Serializer()
    value = _random_tuple(random.Random(3), schema, fanout=2)
    # A good change first: a patch that wrote as it checked would have
    # written it before reaching the bad one.
    changes = {"Key": 41, **REFUSED[bad]}
    with pytest.raises((SchemaError, SerializationError)) as specified:
        value.replace_atoms(**changes)
    stored = bytearray(serializer.encode_nested(value))
    before = bytes(stored)
    with pytest.raises(specified.type):
        serializer.patch_flat(schema, stored, changes)
    with pytest.raises(specified.type):
        serializer.compile_patch(schema, changes)
    assert bytes(stored) == before


def test_patch_never_writes_into_its_input():
    serializer = NF2Serializer()
    value = _random_tuple(random.Random(5), STATION_SCHEMA, fanout=2)
    stored = bytearray(serializer.encode_nested(value))
    before = bytes(stored)
    patched = serializer.patch_flat(STATION_SCHEMA, stored, {"Name": "renamed"})
    assert bytes(stored) == before and patched != before


def test_a_buffer_shorter_than_the_flat_part_is_refused():
    serializer = NF2Serializer()
    flat = serializer.encode_flat(_random_tuple(random.Random(9), NSM_STATION, fanout=0))
    patch = serializer.compile_patch(NSM_STATION, {"Name": "n"})
    assert patch(flat)
    for cut in (0, 1, len(flat) - 1):
        with pytest.raises(SerializationError, match="too small"):
            patch(flat[:cut])


def test_a_projection_cannot_be_patched():
    with pytest.raises(SerializationError, match="only decodes"):
        NF2Serializer().compile_patch(Projection(NSM_STATION, ("Key",)), {"Key": 1})


def test_writers_mirror_the_readers():
    """One writer per stored attribute, at the offset its reader reads."""
    plan = compiled_plan(DASDBS_FORMAT, STATION_SCHEMA)
    assert list(plan.writers) == [attr.name for attr in STATION_SCHEMA.attributes]
    buffer = bytearray(b"\xaa" * plan.flat_size)
    put, pos, attr = plan.writers["NoSeeing"]
    put(buffer, pos, 1234)
    assert plan.atoms["NoSeeing"][0](buffer) == (1234,)
    # Only the four bytes of the value moved.
    assert buffer[:pos] == b"\xaa" * pos and buffer[pos + attr.size :] == b"\xaa" * (
        plan.flat_size - pos - attr.size
    )
    assert compiled_plan(DASDBS_FORMAT, Projection(STATION_SCHEMA, ("Key",))).writers is None
