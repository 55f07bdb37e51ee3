"""Byte serialisation of nested tuples, with calibrated storage overheads.

The analytical model of the paper is driven entirely by *sizes*: the
byte size of each stored tuple determines ``k`` (tuples per page),
``p`` (pages per tuple) and ``m`` (pages per relation) of Table 2.  The
paper obtained those sizes "by analyzing the DASDBS storage structures".
DASDBS itself is unavailable, so this module provides a byte-exact
encoding whose fixed overheads are knobs of :class:`StorageFormat`.

The default :data:`DASDBS_FORMAT` is calibrated against the sizes the
paper publishes in Table 2 (e.g. a flat ``NSM_Connection`` tuple of
170 bytes: 120 bytes of attribute data + 26 bytes tuple header + 6 × 4
bytes attribute-offset entries), so the engine's layout reproduces the
paper's page counts closely.

Encoding layout (all integers little-endian):

* flat part of any tuple::

      [u32 total_len][u8 tag][u8 n_attrs][u16 reserved][pad to tuple_header]
      [offset array: attr_overhead bytes per atomic attribute]
      [values: INT/LINK as i32, STR padded with NUL to declared size]

* nested tuple: the flat part followed, for each sub-relation in schema
  order, by ``[u32 count][pad to subrel_overhead]`` and the recursive
  encodings of the sub-tuples.

Performance notes
-----------------

:class:`NF2Serializer` is a hot path: every stored tuple of every query
of every sweep cell passes through it.  It therefore compiles, per
``(StorageFormat, RelationSchema)`` pair, a :class:`_LayoutPlan` — one
fused :class:`struct.Struct` covering the whole flat part (header,
offset array and values in a single pack/unpack), the attribute name
order, and per-sub-relation child plans — cached on the serializer
instance.  Encoding writes into one preallocated ``bytearray`` via
``pack_into`` (no intermediate ``bytes`` concatenation); decoding
unpacks through the fused struct and builds tuples via the trusted
constructor (the bytes were validated when they were encoded).

:class:`ReferenceNF2Serializer` retains the original field-by-field
implementation.  It is the parity oracle: the optimized encoder must be
byte-identical to it (``tests/nf2/test_serializer_parity.py``) and the
perf harness (:mod:`repro.experiments.perf`) reports the speedup of the
plan-based paths against it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import SerializationError
from repro.nf2.schema import AttributeType, RelationSchema
from repro.nf2.values import NestedTuple

_FLAT_TAG = 0x01
_NESTED_TAG = 0x02

_U32 = struct.Struct("<I")
_I32 = struct.Struct("<i")


@dataclass(frozen=True)
class StorageFormat:
    """Fixed per-structure byte overheads of the on-disk format.

    Parameters
    ----------
    tuple_header:
        Bytes of header per stored (sub-)tuple.  Calibrated to 26 so
        that flat benchmark tuples match the paper's Table 2 sizes.
    attr_overhead:
        Bytes per atomic attribute for the offset array (DASDBS keeps
        per-attribute offsets to support variable-length attributes).
    subrel_overhead:
        Bytes per relation-valued attribute instance (sub-tuple count
        plus padding).
    dir_preamble:
        Fixed bytes of an object directory (header of a multi-page
        object).
    dir_section_entry:
        Bytes per section entry in an object directory.
    dir_subtuple_entry:
        Bytes per sub-tuple address entry in an object directory.
    """

    tuple_header: int = 26
    attr_overhead: int = 4
    subrel_overhead: int = 8
    dir_preamble: int = 32
    dir_section_entry: int = 12
    dir_subtuple_entry: int = 8

    def __post_init__(self) -> None:
        if self.tuple_header < 8:
            raise SerializationError("tuple_header must be at least 8 bytes")
        if self.attr_overhead < 2:
            raise SerializationError("attr_overhead must be at least 2 bytes")
        if self.subrel_overhead < 4:
            raise SerializationError("subrel_overhead must be at least 4 bytes")

    # -- size accounting (exact, mirrors the encoder) ---------------------

    def flat_size(self, schema: RelationSchema) -> int:
        """Byte size of the flat part of a tuple of ``schema``."""
        return (
            self.tuple_header
            + self.attr_overhead * len(schema.attributes)
            + schema.atomic_width
        )

    def nested_size(self, value: NestedTuple) -> int:
        """Exact byte size of the recursive encoding of ``value``."""
        size = self.flat_size(value.schema)
        for sub_schema in value.schema.subrelations:
            size += self.subrel_overhead
            for child in value.subtuples(sub_schema.name):
                size += self.nested_size(child)
        return size

    def expected_nested_size(
        self, schema: RelationSchema, avg_counts: Mapping[str, float]
    ) -> float:
        """Expected encoding size given average sub-tuple counts.

        ``avg_counts`` maps a sub-relation name to the average number of
        its tuples *per parent tuple* (e.g. ``{"Platform": 1.6,
        "Connection": 2.56, "Sightseeing": 7.5}``).  Names missing from
        the mapping count as zero.  This is the quantity the analytical
        model needs for Table 2.
        """
        size = float(self.flat_size(schema))
        for sub_schema in schema.subrelations:
            size += self.subrel_overhead
            count = float(avg_counts.get(sub_schema.name, 0.0))
            size += count * self.expected_nested_size(sub_schema, avg_counts)
        return size

    def directory_size(self, n_sections: int, n_subtuples: int) -> int:
        """Byte size of a multi-page object's directory (its header)."""
        return (
            self.dir_preamble
            + self.dir_section_entry * n_sections
            + self.dir_subtuple_entry * n_subtuples
        )


#: Format calibrated against the tuple sizes the paper reports (Table 2).
DASDBS_FORMAT = StorageFormat()


class _LayoutPlan:
    """Precompiled encode/decode layout of one schema under one format.

    ``flat_struct`` fuses the tuple header, the offset array and every
    atomic value of the flat part into one format string, so the whole
    flat part is a single ``pack_into``/``unpack_from``.  Its fields, in
    order: ``total_len, tag, n_attrs, reserved, *offset_array, *values``
    (pad bytes carry no fields).
    """

    __slots__ = (
        "schema",
        "flat_size",
        "flat_struct",
        "flat_unpack",
        "attr_names",
        "attr_is_str",
        "str_names",
        "value_index",
        "offset_values",
        "n_attrs",
        "atom_slots",
        "sub_names",
        "sub_plans",
        "counter_struct",
        "counter_unpack",
        "subrel_overhead",
        "empty_subs",
    )

    def __init__(self, fmt: StorageFormat, schema: RelationSchema) -> None:
        self.schema = schema
        self.flat_size = fmt.flat_size(schema)
        attrs = schema.attributes
        self.n_attrs = len(attrs)
        self.attr_names = tuple(attr.name for attr in attrs)
        self.attr_is_str = tuple(attr.type is AttributeType.STR for attr in attrs)

        parts = [f"<IBBH{fmt.tuple_header - 8}x"]
        offsets: list[int] = []
        offset = 0
        for attr in attrs:
            parts.append(f"H{fmt.attr_overhead - 2}x")
            offsets.append(offset & 0xFFFF)
            offset += attr.size
        value_base = fmt.tuple_header + fmt.attr_overhead * self.n_attrs
        self.atom_slots: dict[str, tuple[int, bool, int]] = {}
        pos = value_base
        for attr in attrs:
            if attr.type is AttributeType.STR:
                parts.append(f"{attr.size}s")
                self.atom_slots[attr.name] = (pos, True, attr.size)
            else:
                parts.append("i")
                self.atom_slots[attr.name] = (pos, False, attr.size)
            pos += attr.size
        self.flat_struct = struct.Struct("".join(parts))
        self.flat_unpack = self.flat_struct.unpack_from
        self.offset_values = tuple(offsets)
        self.str_names = tuple(
            attr.name for attr in attrs if attr.type is AttributeType.STR
        )
        self.value_index = 4 + self.n_attrs  # header fields + offset array

        self.sub_names = tuple(sub.name for sub in schema.subrelations)
        self.sub_plans: tuple[_LayoutPlan, ...] = ()  # filled by the cache
        self.counter_struct = struct.Struct(f"<I{fmt.subrel_overhead - 4}x")
        self.counter_unpack = self.counter_struct.unpack_from
        self.subrel_overhead = fmt.subrel_overhead
        self.empty_subs = not self.sub_names


_from_trusted = NestedTuple._from_trusted


def _undecodable(schema: RelationSchema, exc: Exception) -> SerializationError:
    """The typed error for bytes that are not a stored ``schema`` tuple.

    The decoder is the only gate in front of trusted tuples, so both
    ways stored bytes can fail it — a truncated buffer (``struct.error``)
    and a corrupt string (``UnicodeDecodeError``) — surface as
    :class:`SerializationError`, translated once per entry point.
    """
    if isinstance(exc, UnicodeDecodeError):
        return SerializationError(
            f"corrupt string attribute in a {schema.name!r} tuple: {exc}"
        )
    return SerializationError(f"buffer too small to decode a {schema.name!r} tuple")


def _decode_plan(plan: _LayoutPlan, data, pos: int) -> tuple[NestedTuple, int]:
    """Recursive plan-based decode; the flat unpack is inlined.

    This is the hottest decode loop of the whole simulator, so the body
    avoids per-tuple method dispatch: one fused ``unpack_from`` per flat
    part, ``dict(zip(...))`` for the atoms, a string fix-up pass, then
    the sub-relation recursion.  ``struct.error`` (truncated buffer)
    and ``UnicodeDecodeError`` (corrupt string) propagate; the entry
    points translate them to :class:`SerializationError`.
    """
    fields = plan.flat_unpack(data, pos)
    atoms: dict[str, object] = dict(zip(plan.attr_names, fields[plan.value_index :]))
    for name in plan.str_names:
        atoms[name] = atoms[name].rstrip(b"\x00").decode("utf-8")
    pos += plan.flat_size
    if plan.empty_subs:
        return _from_trusted(plan.schema, atoms, {}), pos
    subs: dict[str, list[NestedTuple]] = {}
    counter_unpack = plan.counter_unpack
    subrel_overhead = plan.subrel_overhead
    for name, sub_plan in zip(plan.sub_names, plan.sub_plans):
        (count,) = counter_unpack(data, pos)
        pos += subrel_overhead
        children: list[NestedTuple] = []
        append = children.append
        for _ in range(count):
            child, pos = _decode_plan(sub_plan, data, pos)
            append(child)
        subs[name] = children
    return _from_trusted(plan.schema, atoms, subs), pos


class NF2Serializer:
    """Encode/decode nested tuples using a :class:`StorageFormat`."""

    def __init__(self, fmt: StorageFormat = DASDBS_FORMAT) -> None:
        self.format = fmt
        # Plans keyed by id(schema); the schema object is pinned in the
        # value so a dead id can never be reused while the entry lives.
        self._plans: dict[int, _LayoutPlan] = {}

    def _plan(self, schema: RelationSchema) -> _LayoutPlan:
        plan = self._plans.get(id(schema))
        if plan is None:
            plan = _LayoutPlan(self.format, schema)
            plan.sub_plans = tuple(self._plan(sub) for sub in schema.subrelations)
            self._plans[id(schema)] = plan
        return plan

    # -- flat encoding -----------------------------------------------------

    def encode_flat(self, value: NestedTuple) -> bytes:
        """Encode only the flat part (atomic attributes) of ``value``."""
        plan = self._plan(value.schema)
        out = bytearray(plan.flat_size)
        self._pack_flat(plan, value, out, 0, _FLAT_TAG, plan.flat_size)
        return bytes(out)

    @staticmethod
    def _pack_flat(
        plan: _LayoutPlan,
        value: NestedTuple,
        out: bytearray,
        pos: int,
        tag: int,
        total_len: int,
    ) -> None:
        atoms = value._atoms
        values = [
            atoms[name].encode("utf-8") if is_str else atoms[name]
            for name, is_str in zip(plan.attr_names, plan.attr_is_str)
        ]
        plan.flat_struct.pack_into(
            out, pos, total_len, tag, plan.n_attrs, 0, *plan.offset_values, *values
        )

    def decode_flat(self, schema: RelationSchema, data: bytes) -> NestedTuple:
        """Decode the flat part of a tuple of ``schema`` from ``data``."""
        plan = self._plan(schema)
        atoms = self._unpack_flat(plan, data, 0)
        if plan.empty_subs:
            return _from_trusted(schema, atoms, {})
        return _from_trusted(schema, atoms, {name: [] for name in plan.sub_names})

    def _decode_flat_part(
        self, schema: RelationSchema, data: bytes, start: int
    ) -> tuple[dict[str, object], int]:
        plan = self._plan(schema)
        return self._unpack_flat(plan, data, start), start + plan.flat_size

    @staticmethod
    def _unpack_flat(plan: _LayoutPlan, data, start: int) -> dict[str, object]:
        try:
            fields = plan.flat_unpack(data, start)
            atoms: dict[str, object] = dict(
                zip(plan.attr_names, fields[plan.value_index :])
            )
            for name in plan.str_names:
                atoms[name] = atoms[name].rstrip(b"\x00").decode("utf-8")
        except (struct.error, UnicodeDecodeError) as exc:
            raise _undecodable(plan.schema, exc) from None
        return atoms

    def decode_atom(self, schema: RelationSchema, data: bytes, attr_name: str):
        """Decode a single atomic attribute without materialising the tuple.

        Scans evaluate selection predicates on every stored tuple; this
        fast path reads one value at its fixed offset, which is what a
        real engine's predicate evaluation over an offset array does.
        """
        plan = self._plan(schema)
        slot = plan.atom_slots.get(attr_name)
        if slot is None:
            raise SerializationError(
                f"relation {schema.name!r} has no atomic attribute {attr_name!r}"
            )
        pos, is_str, size = slot
        try:
            if is_str:
                return bytes(data[pos : pos + size]).rstrip(b"\x00").decode("utf-8")
            return _I32.unpack_from(data, pos)[0]
        except (struct.error, UnicodeDecodeError) as exc:
            raise _undecodable(schema, exc) from None

    # -- nested encoding ----------------------------------------------------

    def encode_nested(self, value: NestedTuple) -> bytes:
        """Recursively encode ``value`` including all sub-relations."""
        plan = self._plan(value.schema)
        total = self._planned_size(plan, value)
        if total >= 2**32:  # pragma: no cover - absurd objects only
            raise SerializationError("nested tuple exceeds 4 GiB encoding limit")
        out = bytearray(total)
        end = self._pack_nested(plan, value, out, 0)
        if end != total:  # defensive: the size formula must match
            raise SerializationError(
                f"encoding size mismatch for {value.schema.name!r}: "
                f"computed {total}, produced {end}"
            )
        return bytes(out)

    @classmethod
    def _planned_size(cls, plan: _LayoutPlan, value: NestedTuple) -> int:
        size = plan.flat_size
        if plan.empty_subs:
            return size
        subs = value._subs
        for name, sub_plan in zip(plan.sub_names, plan.sub_plans):
            size += plan.subrel_overhead
            for child in subs[name]:
                size += cls._planned_size(sub_plan, child)
        return size

    @classmethod
    def _pack_nested(
        cls, plan: _LayoutPlan, value: NestedTuple, out: bytearray, pos: int
    ) -> int:
        # Children are packed first; the flat header needs the subtree's
        # total length, which the recursion computes for free.
        start = pos
        pos += plan.flat_size
        if not plan.empty_subs:
            subs = value._subs
            for name, sub_plan in zip(plan.sub_names, plan.sub_plans):
                children = subs[name]
                plan.counter_struct.pack_into(out, pos, len(children))
                pos += plan.subrel_overhead
                for child in children:
                    pos = cls._pack_nested(sub_plan, child, out, pos)
        cls._pack_flat(plan, value, out, start, _NESTED_TAG, pos - start)
        return pos

    def decode_nested(self, schema: RelationSchema, data: bytes, start: int = 0) -> NestedTuple:
        """Decode a recursive encoding produced by :meth:`encode_nested`."""
        plan = self._plan(schema)
        try:
            return _decode_plan(plan, memoryview(data), start)[0]
        except (struct.error, UnicodeDecodeError) as exc:
            raise _undecodable(schema, exc) from None

    # -- sub-tree lists (sections of long objects) ---------------------------

    def encode_subtuple_list(
        self, sub_schema: RelationSchema, children: Sequence[NestedTuple]
    ) -> bytes:
        """Encode a sub-relation instance as one self-contained blob."""
        plan = self._plan(sub_schema)
        total = plan.subrel_overhead + sum(
            self._planned_size(plan, child) for child in children
        )
        out = bytearray(total)
        plan.counter_struct.pack_into(out, 0, len(children))
        pos = plan.subrel_overhead
        for child in children:
            pos = self._pack_nested(plan, child, out, pos)
        return bytes(out)

    def decode_subtuple_list(
        self, sub_schema: RelationSchema, data: bytes, start: int = 0
    ) -> list[NestedTuple]:
        """Decode a blob produced by :meth:`encode_subtuple_list`."""
        plan = self._plan(sub_schema)
        view = memoryview(data)
        children: list[NestedTuple] = []
        append = children.append
        try:
            (count,) = _U32.unpack_from(view, start)
            pos = start + plan.subrel_overhead
            for _ in range(count):
                child, pos = _decode_plan(plan, view, pos)
                append(child)
        except (struct.error, UnicodeDecodeError) as exc:
            raise _undecodable(sub_schema, exc) from None
        return children


class ReferenceNF2Serializer:
    """The original, field-by-field serializer — retained as the oracle.

    Byte-for-byte identical output to :class:`NF2Serializer` is asserted
    by the parity tests; the perf harness times both to report the
    plan-based speedup.  Keep this implementation boring and obviously
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
