"""The codec's table of decoded text: a cache, never a second decoder.

Every generated decoder and ``NF2Serializer.decode_atom`` look a stored
string field up in ``repro.nf2.codec._TEXT`` before decoding it.  What
they return must be exactly ``raw.rstrip(b"\\0").decode("utf-8")`` — on
the first read of those bytes and on every repeat — and bytes that do
not decode must raise :class:`SerializationError` every time, never
leave an entry behind, and never be served from the table.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.benchmark.schema import STATION_SCHEMA
from repro.errors import SerializationError
from repro.nf2 import codec
from repro.nf2.schema import AttributeType, RelationSchema, int_attr, str_attr
from repro.nf2.serializer import NF2Serializer
from repro.nf2.values import NestedTuple

ser = NF2Serializer()

#: Every string width the benchmark schema declares, and the narrow
#: widths where padding cuts a multi-byte character.
WIDTHS = sorted(
    {
        attr.size
        for schema in STATION_SCHEMA.walk()
        for attr in schema.attributes
        if attr.type is AttributeType.STR
    }
    | {1, 2, 3, 4, 7}
)


def _schemas(width: int) -> tuple[RelationSchema, RelationSchema]:
    """A flat relation with one string of ``width`` bytes, and a nested
    one holding it as a sub-relation (decoded as one batch)."""
    leaf = RelationSchema.flat(f"Text{width}", int_attr("n"), str_attr("s", width))
    return leaf, RelationSchema(f"Outer{width}", (int_attr("k"),), (leaf,))


SCHEMAS = {width: _schemas(width) for width in WIDTHS}


def _stored(width: int, raw: bytes) -> tuple[bytes, bytes]:
    """A stored flat tuple and a stored nested one whose string field
    holds exactly ``raw``: encoded with a marker, the marker overwritten."""
    leaf, outer = SCHEMAS[width]
    marker = "\x07" * width
    child = NestedTuple(leaf, {"n": 5, "s": marker})
    parent = NestedTuple(outer, {"k": 9}, {leaf.name: [child]})
    out = []
    for blob in (ser.encode_flat(child), ser.encode_nested(parent)):
        assert blob.count(marker.encode()) == 1
        at = blob.index(marker.encode())
        out.append(blob[:at] + raw + blob[at + width :])
    return out[0], out[1]


def _paths(width: int) -> list:
    """Each decode path, as ``read(flat, nested) -> the field``."""
    leaf, outer = SCHEMAS[width]
    return [
        lambda flat, nested: ser.decode_flat(leaf, flat)["s"],
        lambda flat, nested: ser.decode_atom(leaf, flat, "s"),
        lambda flat, nested: ser.decode_nested(outer, nested).subtuples(leaf.name)[0]["s"],
    ]


@st.composite
def fields(draw) -> tuple[int, bytes]:
    """``(width, raw)``: field bytes of exactly ``width`` bytes, padded
    with NULs the way a stored string is."""
    width = draw(st.sampled_from(WIDTHS))
    body = draw(
        st.one_of(
            st.text(alphabet=st.sampled_from("aZ9 \x00é€😀"), max_size=width).map(
                lambda text: text.encode("utf-8")
            ),
            st.binary(max_size=width),
        )
    )
    return width, body[:width].ljust(width, b"\x00")


@settings(max_examples=300, deadline=None)
@given(fields())
@example((100, b"\x00" * 100))  # all NUL
@example((100, b"x" * 100))  # full width
@example((100, b"a\x00b".ljust(100, b"\x00")))  # embedded NUL
@example((2, "é".encode()))  # a 2-byte character at full width
@example((3, "€".encode()[:2] + b"\x00"))  # a 3-byte character cut by the padding
@example((4, b"\xff\xfe\x00\x00"))  # not UTF-8 at all
def test_table_decode_equals_strip_and_decode(field):
    width, raw = field
    flat, nested = _stored(width, raw)
    try:
        expected = raw.rstrip(b"\x00").decode("utf-8")
    except UnicodeDecodeError:
        for read in _paths(width) * 2:
            with pytest.raises(SerializationError, match="corrupt string"):
                read(flat, nested)
        assert raw not in codec._TEXT
    else:
        for read in _paths(width):
            first = read(flat, nested)
            assert type(first) is str and first == expected
            assert read(flat, nested) == expected
        assert codec._TEXT[raw] == expected
    assert len(codec._TEXT) <= codec._TEXT_BOUND


def test_table_is_emptied_at_its_bound():
    leaf, _ = SCHEMAS[100]
    flat, _ = _stored(100, b"\x01" * 100)
    blob = bytearray(flat)
    at = flat.index(b"\x01" * 100)
    codec._TEXT.clear()
    sizes = []
    for number in range(codec._TEXT_BOUND + 3):
        text = f"value {number}"
        blob[at : at + 100] = text.encode().ljust(100, b"\x00")
        assert ser.decode_atom(leaf, bytes(blob), "s") == text
        sizes.append(len(codec._TEXT))
    assert max(sizes) == codec._TEXT_BOUND
    # The entry after the bound-th starts an empty table.
    assert sizes[codec._TEXT_BOUND - 1 :] == [codec._TEXT_BOUND, 1, 2, 3]
