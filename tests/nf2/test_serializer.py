"""Unit and property tests for the NF² serialiser."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.generator import generate_stations
from repro.benchmark.schema import STATION_SCHEMA
from repro.errors import SerializationError
from repro.nf2.schema import RelationSchema, int_attr, link_attr, str_attr
from repro.nf2.serializer import DASDBS_FORMAT, NF2Serializer, StorageFormat
from repro.nf2.values import NestedTuple

INNER = RelationSchema.flat("Inner", int_attr("x"), str_attr("s", 16))
OUTER = RelationSchema("Outer", (int_attr("a"), link_attr("ref")), (INNER,))

ser = NF2Serializer()


def outer(a=1, ref=2, inners=()):
    return NestedTuple(OUTER, {"a": a, "ref": ref}, {"Inner": list(inners)})


def inner(x=0, s=""):
    return NestedTuple(INNER, {"x": x, "s": s})


class TestStorageFormat:
    def test_default_is_calibrated(self):
        assert DASDBS_FORMAT.tuple_header == 26
        assert DASDBS_FORMAT.attr_overhead == 4

    def test_flat_size_formula(self):
        # header + 2 attrs * overhead + 4 + 4 value bytes
        assert DASDBS_FORMAT.flat_size(OUTER) == 26 + 8 + 8

    def test_nsm_connection_size_matches_paper(self):
        """Table 2 anchor: NSM_Connection tuples are 170 bytes."""
        from repro.models.nsm import NSM_CONNECTION

        assert DASDBS_FORMAT.flat_size(NSM_CONNECTION) == 170

    def test_nsm_sightseeing_size_near_paper(self):
        """Table 2 anchor: NSM_Sightseeing tuples are 456 bytes."""
        from repro.models.nsm import NSM_SIGHTSEEING

        assert abs(DASDBS_FORMAT.flat_size(NSM_SIGHTSEEING) - 456) <= 4

    def test_nested_size_matches_encoding(self):
        value = outer(inners=[inner(1, "a"), inner(2, "bb")])
        assert DASDBS_FORMAT.nested_size(value) == len(ser.encode_nested(value))

    def test_expected_size_matches_exact_for_integer_counts(self):
        value = outer(inners=[inner(), inner(), inner()])
        expected = DASDBS_FORMAT.expected_nested_size(OUTER, {"Inner": 3})
        assert expected == DASDBS_FORMAT.nested_size(value)

    def test_directory_size_monotone(self):
        f = DASDBS_FORMAT
        assert f.directory_size(3, 10) > f.directory_size(3, 5) > f.directory_size(1, 0)

    def test_invalid_format_rejected(self):
        with pytest.raises(SerializationError):
            StorageFormat(tuple_header=4)
        with pytest.raises(SerializationError):
            StorageFormat(attr_overhead=1)
        with pytest.raises(SerializationError):
            StorageFormat(subrel_overhead=2)


class TestFlatRoundtrip:
    def test_simple(self):
        value = inner(42, "hello")
        assert ser.decode_flat(INNER, ser.encode_flat(value)) == value

    def test_negative_int(self):
        value = inner(-12345, "")
        assert ser.decode_flat(INNER, ser.encode_flat(value))["x"] == -12345

    def test_int_boundaries(self):
        for x in (-(2**31), 2**31 - 1):
            value = inner(x, "")
            assert ser.decode_flat(INNER, ser.encode_flat(value))["x"] == x

    def test_string_padding_stripped(self):
        value = inner(0, "ab")
        decoded = ser.decode_flat(INNER, ser.encode_flat(value))
        assert decoded["s"] == "ab"

    def test_buffer_too_small_rejected(self):
        with pytest.raises(SerializationError):
            ser.decode_flat(INNER, b"\x00" * 4)

    def test_decode_atom_fast_path(self):
        blob = ser.encode_flat(inner(7, "xyz"))
        assert ser.decode_atom(INNER, blob, "x") == 7
        assert ser.decode_atom(INNER, blob, "s") == "xyz"

    def test_decode_atom_unknown_attr(self):
        blob = ser.encode_flat(inner())
        with pytest.raises(SerializationError):
            ser.decode_atom(INNER, blob, "zzz")


class TestNestedRoundtrip:
    def test_empty_subrelation(self):
        value = outer()
        assert ser.decode_nested(OUTER, ser.encode_nested(value)) == value

    def test_multiple_children(self):
        value = outer(inners=[inner(i, str(i)) for i in range(5)])
        assert ser.decode_nested(OUTER, ser.encode_nested(value)) == value

    def test_deep_nesting(self):
        leaf = RelationSchema.flat("Leaf", int_attr("v"))
        mid = RelationSchema("Mid", (int_attr("m"),), (leaf,))
        top = RelationSchema("Top", (int_attr("t"),), (mid,))
        value = NestedTuple(
            top,
            {"t": 1},
            {"Mid": [NestedTuple(mid, {"m": 2}, {"Leaf": [NestedTuple(leaf, {"v": 3})]})]},
        )
        assert ser.decode_nested(top, ser.encode_nested(value)) == value

    def test_subtuple_list_roundtrip(self):
        children = [inner(i, "c" * i) for i in range(4)]
        blob = ser.encode_subtuple_list(INNER, children)
        assert ser.decode_subtuple_list(INNER, blob) == children

    def test_empty_subtuple_list(self):
        blob = ser.encode_subtuple_list(INNER, [])
        assert ser.decode_subtuple_list(INNER, blob) == []

    def test_station_roundtrip(self):
        config = BenchmarkConfig(n_objects=5, seed=3)
        for station in generate_stations(config):
            blob = ser.encode_nested(station)
            assert ser.decode_nested(STATION_SCHEMA, blob) == station


class TestCorruptBytes:
    """Stored bytes that fail the decoder raise the typed error.

    The decoder is the only gate in front of trusted tuples, so neither
    a corrupt string (``UnicodeDecodeError``) nor a truncated buffer
    (``struct.error``) may escape it untyped, at any entry point.
    """

    @staticmethod
    def _station():
        return generate_stations(BenchmarkConfig(n_objects=1, seed=3))[0]

    @staticmethod
    def _with_bad_name(blob: bytes) -> bytes:
        """``blob`` with the first byte of the Station's ``Name`` set to 0xFF."""
        at = DASDBS_FORMAT.flat_size(STATION_SCHEMA) - STATION_SCHEMA.attribute("Name").size
        return blob[:at] + b"\xff" + blob[at + 1 :]

    def test_decode_nested_corrupt_string(self):
        blob = self._with_bad_name(ser.encode_nested(self._station()))
        with pytest.raises(SerializationError, match="corrupt string"):
            ser.decode_nested(STATION_SCHEMA, blob)

    def test_decode_flat_corrupt_string(self):
        blob = self._with_bad_name(ser.encode_flat(self._station()))
        with pytest.raises(SerializationError, match="corrupt string"):
            ser.decode_flat(STATION_SCHEMA, blob)
        with pytest.raises(SerializationError, match="corrupt string"):
            ser._decode_flat_part(STATION_SCHEMA, blob, 0)

    def test_decode_atom_corrupt_string(self):
        blob = self._with_bad_name(ser.encode_flat(self._station()))
        with pytest.raises(SerializationError, match="corrupt string"):
            ser.decode_atom(STATION_SCHEMA, blob, "Name")
        # An intact attribute of the same tuple still decodes.
        assert ser.decode_atom(STATION_SCHEMA, blob, "Key") == self._station()["Key"]

    def test_decode_subtuple_list_corrupt_string(self):
        blob = bytearray(ser.encode_subtuple_list(INNER, [inner(1, "ab"), inner(2, "cd")]))
        blob[-16] = 0xFF  # first byte of the last child's ``s``
        with pytest.raises(SerializationError, match="corrupt string"):
            ser.decode_subtuple_list(INNER, bytes(blob))

    def test_truncated_buffers_at_every_entry_point(self):
        nested = ser.encode_nested(outer(inners=[inner(1, "a")]))
        with pytest.raises(SerializationError, match="too small"):
            ser.decode_nested(OUTER, nested[:-1])
        listed = ser.encode_subtuple_list(INNER, [inner(1, "a")])
        with pytest.raises(SerializationError, match="too small"):
            ser.decode_subtuple_list(INNER, listed[:-1])
        with pytest.raises(SerializationError, match="too small"):
            ser.decode_subtuple_list(INNER, listed[:2])  # not even a count
        with pytest.raises(SerializationError, match="too small"):
            ser.decode_atom(INNER, ser.encode_flat(inner())[:-17], "x")

    def test_decode_atom_truncated_string_slot(self):
        """A string slot cut short is an error, not a shorter string.

        Slicing the slot out of the buffer clamps: a Station cut inside
        its ``Name`` used to read back as ``'Stati'``, cut before it as
        ``''``, where ``decode_flat`` on the same bytes raised.
        """
        blob = ser.encode_flat(self._station())
        for cut in (1, 95, 100, 101):
            with pytest.raises(SerializationError, match="too small"):
                ser.decode_atom(STATION_SCHEMA, blob[:-cut], "Name")
            with pytest.raises(SerializationError, match="too small"):
                ser.decode_flat(STATION_SCHEMA, blob[:-cut])
        # Attributes in front of the cut are whole and still readable.
        assert ser.decode_atom(STATION_SCHEMA, blob[:-95], "Key") == self._station()["Key"]


# -- property-based tests ----------------------------------------------------

inner_strategy = st.builds(
    inner,
    x=st.integers(min_value=-(2**31), max_value=2**31 - 1),
    s=st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=16
    ),
)

outer_strategy = st.builds(
    outer,
    a=st.integers(min_value=-(2**31), max_value=2**31 - 1),
    ref=st.integers(min_value=-(2**31), max_value=2**31 - 1),
    inners=st.lists(inner_strategy, max_size=8),
)


@given(outer_strategy)
@settings(max_examples=80)
def test_property_nested_roundtrip(value):
    assert ser.decode_nested(OUTER, ser.encode_nested(value)) == value


@given(outer_strategy)
@settings(max_examples=80)
def test_property_size_formula_exact(value):
    assert DASDBS_FORMAT.nested_size(value) == len(ser.encode_nested(value))


@given(outer_strategy, st.integers(min_value=0, max_value=64))
@settings(max_examples=40)
def test_property_decode_ignores_trailing_garbage(value, pad):
    blob = ser.encode_nested(value) + b"\xab" * pad
    assert ser.decode_nested(OUTER, blob) == value


@given(st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=50))
@settings(max_examples=40)
def test_property_expected_size_linear_in_counts(n_inner, extra):
    f = DASDBS_FORMAT
    base = f.expected_nested_size(OUTER, {"Inner": n_inner})
    more = f.expected_nested_size(OUTER, {"Inner": n_inner + extra})
    assert more - base == pytest.approx(extra * f.flat_size(INNER))
