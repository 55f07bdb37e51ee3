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
of every sweep cell passes through it.  It therefore does not interpret
schemas at all: :mod:`repro.nf2.codec` *generates*, per
``(StorageFormat, RelationSchema)`` pair, the source of straight-line
decode and encode functions (a values-only :class:`struct.Struct` whose
unpack result is the attribute values, a dict literal with each string
looked up in the codec's table of decoded text (decoded inline on a
miss), the tuple built in place, flat sub-relations decoded by
one ``iter_unpack`` per instance; ``pack_into`` with the atoms named in
the call) and compiles it with one ``exec``.  The compiled
:class:`~repro.nf2.codec._LayoutPlan` is cached **process-wide**
(:func:`~repro.nf2.codec.compiled_plan`, a bounded ``lru_cache`` keyed
by format and schema): every storage model owns a serializer, so a
per-instance cache would recompile the same plans for each of the
dozens of models a sweep builds.  A serializer only keeps an
``id(schema)`` dict in front of that cache; the entry points below are
each one dict lookup, one generated call and the translation of the two
errors stored bytes can cause.  A :class:`~repro.nf2.schema.Projection`
passed in place of a schema compiles through the same generator into a
decoder that skips what the caller does not want.  An update of atomic
attributes does not pass through values at all: :meth:`NF2Serializer.
compile_patch` overwrites the changed fields in the stored bytes
through the plan's per-attribute writers.

Tuples are built without re-validation (the bytes were validated when
they were encoded); the decoder is the only gate in front of such
trusted tuples, so a buffer too small for what it claims to hold or a
corrupt string always surfaces as :class:`SerializationError`.

The original field-by-field implementation is the specification and
lives with the tests that use it (``ReferenceNF2Serializer`` in
``tests/nf2/reference_serializer.py``): the generated encoder must be
byte-identical to it and the generated decoder value-identical
(``tests/nf2/test_serializer_parity.py``, ``tests/nf2/test_codec.py``,
``tests/fuzz/test_serializer_fuzz.py``).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro.errors import SchemaError, SerializationError
from repro.nf2.codec import _TEXT, _LayoutPlan, _keep, _undecodable, compiled_plan
from repro.nf2.schema import AttributeType, Projection, RelationSchema
from repro.nf2.values import NestedTuple, _check_atom

_U32 = struct.Struct("<I")


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


class NF2Serializer:
    """Encode/decode nested tuples using a :class:`StorageFormat`.

    Every decode entry point takes, where it says ``schema``, either the
    :class:`RelationSchema` the bytes were stored under or a
    :class:`~repro.nf2.schema.Projection` of it, and then yields tuples
    of the projection's derived schema.
    """

    def __init__(self, fmt: StorageFormat = DASDBS_FORMAT) -> None:
        self.format = fmt
        # The hot lookup: plans by id(schema), in front of the
        # process-wide cache (which must hash the whole schema).  The
        # entry points inline ``self._plans.get(id(schema)) or
        # self._plan(schema)``.
        self._plans: dict[int, _LayoutPlan] = {}
        # An id is only a key while its object lives; the shared plan
        # may have been compiled from an equal twin, so pin the object.
        self._pinned: list[RelationSchema | Projection] = []

    def _plan(self, schema: RelationSchema | Projection) -> _LayoutPlan:
        plan = self._plans[id(schema)] = compiled_plan(self.format, schema)
        self._pinned.append(schema)
        return plan

    # -- flat encoding -----------------------------------------------------

    def encode_flat(self, value: NestedTuple) -> bytes:
        """Encode only the flat part (atomic attributes) of ``value``."""
        schema = value.schema
        plan = self._plans.get(id(schema)) or self._plan(schema)
        return plan.encode_flat(value)

    def decode_flat(self, schema: RelationSchema, data: bytes) -> NestedTuple:
        """Decode the flat part of a tuple of ``schema`` from ``data``."""
        plan = self._plans.get(id(schema)) or self._plan(schema)
        try:
            return plan.decode_flat(data)
        except (struct.error, UnicodeDecodeError) as exc:
            raise _undecodable(plan.schema, exc) from None

    def _decode_flat_part(
        self, schema: RelationSchema, data: bytes, start: int
    ) -> tuple[dict[str, object], int]:
        plan = self._plans.get(id(schema)) or self._plan(schema)
        try:
            return plan.decode_atoms(data, start), start + plan.flat_size
        except (struct.error, UnicodeDecodeError) as exc:
            raise _undecodable(plan.schema, exc) from None

    def decode_atom(self, schema: RelationSchema, data: bytes, attr_name: str):
        """Decode a single atomic attribute without materialising the tuple.

        Scans evaluate selection predicates on every stored tuple; this
        fast path reads one value at its fixed offset, which is what a
        real engine's predicate evaluation over an offset array does.
        """
        plan = self._plans.get(id(schema)) or self._plan(schema)
        slot = plan.atoms.get(attr_name)
        if slot is None:
            raise SerializationError(
                f"relation {plan.schema.name!r} has no atomic attribute {attr_name!r}"
            )
        unpack, is_str = slot
        try:
            (raw,) = unpack(data)
            if not is_str:
                return raw
            text = _TEXT.get(raw)
            return text if text is not None else _keep(raw, raw.rstrip(b"\x00").decode("utf-8"))
        except (struct.error, UnicodeDecodeError) as exc:
            raise _undecodable(plan.schema, exc) from None

    # -- in-place update of atomic attributes ----------------------------------

    def compile_patch(
        self, schema: RelationSchema, changes: Mapping[str, Any]
    ) -> Callable[[bytes], bytes]:
        """Validate ``changes`` once; returns ``patch(data) -> bytes``.

        The byte-level form of :meth:`NestedTuple.replace_atoms
        <repro.nf2.values.NestedTuple.replace_atoms>`, which stays its
        specification: every changed name and value is checked exactly
        as there (:class:`~repro.errors.SchemaError` for a name the
        relation does not have, ``_check_atom``'s
        :class:`SerializationError` for a wrong type, an over-long
        string or an out-of-range int), here and only here — so a
        caller that compiles before it fixes a page has refused a bad
        update before touching anything.  ``patch`` overwrites the
        changed fields in a copy of a stored ``schema`` tuple — a flat
        encoding, or a nested one, whose flat part leads it — and leaves
        length, tag, offset array and every other byte alone, so for
        canonical stored bytes ``patch(b) ==
        encode(decode(b).replace_atoms(**changes))`` by construction.
        """
        plan = self._plans.get(id(schema)) or self._plan(schema)
        if plan.writers is None:
            raise SerializationError("a Projection only decodes; patch under its stored schema")
        writes = []
        for name, value in changes.items():
            writer = plan.writers.get(name)
            if writer is None:
                raise SchemaError(
                    f"relation {plan.schema.name!r} has no atomic attribute {name!r}"
                )
            put, pos, attr = writer
            value = _check_atom(name, attr.type, attr.size, value)
            if attr.type is AttributeType.STR:
                value = value.encode("utf-8")
            writes.append((put, pos, value))

        def patch(data: bytes) -> bytes:
            out = bytearray(data)
            try:
                for put, pos, value in writes:
                    put(out, pos, value)
            except struct.error as exc:
                raise _undecodable(plan.schema, exc) from None
            return bytes(out)

        return patch

    def patch_flat(
        self, schema: RelationSchema, data: bytes, changes: Mapping[str, Any]
    ) -> bytes:
        """``data`` with the atomic attributes in ``changes`` overwritten
        (one-shot form of :meth:`compile_patch`)."""
        return self.compile_patch(schema, changes)(data)

    # -- nested encoding ----------------------------------------------------

    def encode_nested(self, value: NestedTuple) -> bytes:
        """Recursively encode ``value`` including all sub-relations."""
        schema = value.schema
        plan = self._plans.get(id(schema)) or self._plan(schema)
        total = plan.size(value)
        if total >= 2**32:  # pragma: no cover - absurd objects only
            raise SerializationError("nested tuple exceeds 4 GiB encoding limit")
        out = bytearray(total)
        end = plan.pack(value, out, 0)
        if end != total:  # defensive: the size formula must match
            raise SerializationError(
                f"encoding size mismatch for {schema.name!r}: "
                f"computed {total}, produced {end}"
            )
        return bytes(out)

    def decode_nested(self, schema: RelationSchema, data: bytes, start: int = 0) -> NestedTuple:
        """Decode a recursive encoding produced by :meth:`encode_nested`."""
        plan = self._plans.get(id(schema)) or self._plan(schema)
        try:
            return plan.decode_top(memoryview(data), start)[0]
        except (struct.error, UnicodeDecodeError) as exc:
            raise _undecodable(plan.schema, exc) from None

    # -- sub-tree lists (sections of long objects) ---------------------------

    def encode_subtuple_list(
        self, sub_schema: RelationSchema, children: Sequence[NestedTuple]
    ) -> bytes:
        """Encode a sub-relation instance as one self-contained blob."""
        plan = self._plans.get(id(sub_schema)) or self._plan(sub_schema)
        pack = plan.pack
        if pack is None:
            raise SerializationError("a Projection only decodes; encode under its stored schema")
        pos = plan.overhead
        out = bytearray(pos + sum(map(plan.size, children)))
        _U32.pack_into(out, 0, len(children))
        for child in children:
            pos = pack(child, out, pos)
        return bytes(out)

    def decode_subtuple_list(
        self, sub_schema: RelationSchema, data: bytes, start: int = 0
    ) -> list[NestedTuple]:
        """Decode a blob produced by :meth:`encode_subtuple_list`."""
        plan = self._plans.get(id(sub_schema)) or self._plan(sub_schema)
        try:
            return plan.decode_list(memoryview(data), start)
        except (struct.error, UnicodeDecodeError) as exc:
            raise _undecodable(plan.schema, exc) from None
