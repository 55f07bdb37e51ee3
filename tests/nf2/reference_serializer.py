"""The original, field-by-field NF² serializer — the specification.

The parity, codec and fuzz suites and the hot-path golden suite hold
:class:`~repro.nf2.serializer.NF2Serializer`'s generated codecs against
it, byte for byte on encode and value for value on decode.  It lives
under ``tests/`` because tests are its only importers.
"""

from __future__ import annotations

import struct
from typing import Sequence

from repro.errors import SerializationError
from repro.nf2.schema import AttributeType, RelationSchema
from repro.nf2.serializer import DASDBS_FORMAT, StorageFormat
from repro.nf2.values import NestedTuple

_FLAT_TAG = 0x01
_NESTED_TAG = 0x02


class ReferenceNF2Serializer:
    """The original, field-by-field serializer — retained as the oracle.

    Byte-for-byte identical output to :class:`NF2Serializer` is asserted
    by the parity tests.  Keep this implementation boring and obviously
    correct; it is the specification.
    """

    def __init__(self, fmt: StorageFormat = DASDBS_FORMAT) -> None:
        self.format = fmt

    # -- flat encoding -----------------------------------------------------

    def encode_flat(self, value: NestedTuple) -> bytes:
        """Encode only the flat part (atomic attributes) of ``value``."""
        return self._encode_flat_part(value, _FLAT_TAG, self.format.flat_size(value.schema))

    def _encode_flat_part(self, value: NestedTuple, tag: int, total_len: int) -> bytes:
        fmt = self.format
        schema = value.schema
        out = bytearray()
        out += struct.pack("<IBBH", total_len, tag, len(schema.attributes), 0)
        out += b"\x00" * (fmt.tuple_header - len(out))

        # Offset array: byte offset of each value from the start of the
        # value area, padded to attr_overhead bytes per entry.
        offset = 0
        for attr in schema.attributes:
            entry = struct.pack("<H", offset & 0xFFFF)
            out += entry + b"\x00" * (fmt.attr_overhead - len(entry))
            offset += attr.size

        for attr in schema.attributes:
            raw = value[attr.name]
            if attr.type in (AttributeType.INT, AttributeType.LINK):
                out += struct.pack("<i", raw)
            else:
                encoded = raw.encode("utf-8")
                out += encoded + b"\x00" * (attr.size - len(encoded))
        return bytes(out)

    def decode_flat(self, schema: RelationSchema, data: bytes) -> NestedTuple:
        """Decode the flat part of a tuple of ``schema`` from ``data``."""
        atoms, _ = self._decode_flat_part(schema, data, 0)
        return NestedTuple(schema, atoms)

    def _decode_flat_part(
        self, schema: RelationSchema, data: bytes, start: int
    ) -> tuple[dict[str, object], int]:
        fmt = self.format
        if len(data) - start < fmt.flat_size(schema):
            raise SerializationError(
                f"buffer too small to decode a {schema.name!r} tuple"
            )
        pos = start + fmt.tuple_header + fmt.attr_overhead * len(schema.attributes)
        atoms: dict[str, object] = {}
        for attr in schema.attributes:
            if attr.type in (AttributeType.INT, AttributeType.LINK):
                (atoms[attr.name],) = struct.unpack_from("<i", data, pos)
            else:
                raw = bytes(data[pos : pos + attr.size])
                atoms[attr.name] = raw.rstrip(b"\x00").decode("utf-8")
            pos += attr.size
        return atoms, pos

    def decode_atom(self, schema: RelationSchema, data: bytes, attr_name: str):
        """Decode a single atomic attribute without materialising the tuple."""
        fmt = self.format
        pos = fmt.tuple_header + fmt.attr_overhead * len(schema.attributes)
        for attr in schema.attributes:
            if attr.name == attr_name:
                if attr.type in (AttributeType.INT, AttributeType.LINK):
                    return struct.unpack_from("<i", data, pos)[0]
                raw = bytes(data[pos : pos + attr.size])
                return raw.rstrip(b"\x00").decode("utf-8")
            pos += attr.size
        raise SerializationError(
            f"relation {schema.name!r} has no atomic attribute {attr_name!r}"
        )

    # -- nested encoding ----------------------------------------------------

    def encode_nested(self, value: NestedTuple) -> bytes:
        """Recursively encode ``value`` including all sub-relations."""
        fmt = self.format
        total = fmt.nested_size(value)
        if total >= 2**32:  # pragma: no cover - absurd objects only
            raise SerializationError("nested tuple exceeds 4 GiB encoding limit")
        out = bytearray(self._encode_flat_part(value, _NESTED_TAG, total))
        for sub_schema in value.schema.subrelations:
            children = value.subtuples(sub_schema.name)
            counter = struct.pack("<I", len(children))
            out += counter + b"\x00" * (fmt.subrel_overhead - len(counter))
            for child in children:
                out += self.encode_nested(child)
        if len(out) != total:  # defensive: the size formula must match
            raise SerializationError(
                f"encoding size mismatch for {value.schema.name!r}: "
                f"computed {total}, produced {len(out)}"
            )
        return bytes(out)

    def decode_nested(self, schema: RelationSchema, data: bytes, start: int = 0) -> NestedTuple:
        """Decode a recursive encoding produced by :meth:`encode_nested`."""
        value, _ = self._decode_nested(schema, data, start)
        return value

    def _decode_nested(
        self, schema: RelationSchema, data: bytes, start: int
    ) -> tuple[NestedTuple, int]:
        fmt = self.format
        atoms, pos = self._decode_flat_part(schema, data, start)
        subs: dict[str, list[NestedTuple]] = {}
        for sub_schema in schema.subrelations:
            (count,) = struct.unpack_from("<I", data, pos)
            pos += fmt.subrel_overhead
            children: list[NestedTuple] = []
            for _ in range(count):
                child, pos = self._decode_nested(sub_schema, data, pos)
                children.append(child)
            subs[sub_schema.name] = children
        return NestedTuple(schema, atoms, subs), pos

    # -- sub-tree lists (sections of long objects) ---------------------------

    def encode_subtuple_list(
        self, sub_schema: RelationSchema, children: Sequence[NestedTuple]
    ) -> bytes:
        """Encode a sub-relation instance as one self-contained blob."""
        fmt = self.format
        counter = struct.pack("<I", len(children))
        out = bytearray(counter + b"\x00" * (fmt.subrel_overhead - len(counter)))
        for child in children:
            out += self.encode_nested(child)
        return bytes(out)

    def decode_subtuple_list(
        self, sub_schema: RelationSchema, data: bytes, start: int = 0
    ) -> list[NestedTuple]:
        """Decode a blob produced by :meth:`encode_subtuple_list`."""
        fmt = self.format
        (count,) = struct.unpack_from("<I", data, start)
        pos = start + fmt.subrel_overhead
        children: list[NestedTuple] = []
        for _ in range(count):
            child, pos = self._decode_nested(sub_schema, data, pos)
            children.append(child)
        return children
