"""The NF² codec compiler: generated decoders and encoders per layout.

:class:`~repro.nf2.serializer.NF2Serializer` does not interpret a
schema at run time.  For each *(storage format, relation)* pair this
module writes the Python source of straight-line functions — the way
:mod:`dataclasses` and :func:`collections.namedtuple` do —, runs it
through one ``exec`` and keeps the functions on a :class:`_LayoutPlan`:

* **decode** — one *values-only* :class:`struct.Struct` per level: the
  tuple header, the offset array and every attribute a reader does not
  want are pad bytes (``x``), so the result of the unpack *is* the
  values.  They go into a dict literal with the string fix-up inline and
  the :class:`~repro.nf2.values.NestedTuple` is built in place.  A
  sub-relation whose stored tuples are flat (fixed stride) is decoded by
  **one** ``iter_unpack`` over its whole instance instead of one call
  per child; because ``iter_unpack`` over a slice clamps silently, the
  number decoded is compared with the stored count.
* **encode / size** — the mirror image: the constant bytes between the
  tag and the values (attribute count, header padding, offset array) are
  one precomputed ``s`` field, and the atoms are named in the
  ``pack_into`` call.
* **patch** — one writer per atomic attribute (``pack_into`` of the one
  value at its constant offset), so an update of atomic attributes
  overwrites those fields in the stored bytes and nothing else
  (:meth:`~repro.nf2.serializer.NF2Serializer.compile_patch`).

A :class:`~repro.nf2.schema.Projection` compiles through the same
generator: dropped attributes become pad bytes, dropped sub-relations
are passed over by their counts, and the outermost tuple stops after its
last wanted sub-relation.  Projections only decode.

What enters the generated text: ``repr()`` of attribute and relation
names (which :mod:`repro.nf2.schema` validated as identifiers) and
integers.  Schemas, bound struct methods, the constant header bytes and
``NestedTuple.__new__`` enter through the ``exec`` namespace.  Each plan
keeps its :attr:`~_LayoutPlan.source` and registers it with
:mod:`linecache` under a pseudo-filename naming the relation
(``<nf2 codec Station #3>``), so tracebacks show real lines and a
profile keeps one row per relation.

Generated functions let ``struct.error`` (truncated buffer, count the
buffer cannot hold) and ``UnicodeDecodeError`` (corrupt string)
propagate; the serializer's entry points translate them, once per call,
into :class:`~repro.errors.SerializationError`.

Plans are compiled **once per process**: :func:`compiled_plan` is a
bounded ``lru_cache`` keyed by ``(StorageFormat, RelationSchema |
Projection)`` — all frozen dataclasses.  Every model and every
``MixedTupleStore`` owns a serializer and a sweep builds dozens of
models per replay, so a per-serializer cache would recompile the same
sixteen plans over and over; the bound is there because the fuzz suites
create thousands of schemas.  Nothing generated is ever pickled: a
snapshot holds model *state*, and a ``--processes`` worker compiles its
own plans.
"""

from __future__ import annotations

import linecache
import struct
import weakref
from functools import lru_cache
from itertools import count
from typing import TYPE_CHECKING

from repro.errors import SerializationError
from repro.nf2.schema import AttributeType, Projection, RelationSchema
from repro.nf2.values import NestedTuple

if TYPE_CHECKING:
    from repro.nf2.serializer import StorageFormat

_FLAT_TAG = 0x01
_NESTED_TAG = 0x02

_U32 = struct.Struct("<I")

#: Numbers the pseudo-filenames: two same-named relations (another
#: format, a projection, a fuzz schema) must not share a linecache entry.
_serial = count(1)

_STRING_FIXUP = '.rstrip(b"\\0").decode("utf-8")'
_STRING_ENCODE = '.encode("utf-8")'


class _LayoutPlan:
    """The compiled codec of one relation (or projection) under one format.

    ``schema`` is the schema of the tuples the decoders yield (the
    derived schema of a projection), ``flat_size`` the stored size of
    one flat part, ``atoms`` one single-slot reader per kept attribute
    (``decode_atom``) and ``writers`` its mirror, one single-slot writer
    per attribute: ``(pack_into, offset, attribute)`` (``None`` on the
    plan of a projection).  A writer packs at the attribute's offset —
    a ``"<{offset}x…"`` struct like the readers' would zero every byte
    before the value.  The generated functions:

    ``decode(data, pos) -> (tuple, end)``
        one nested tuple, walked to its true end (a sibling may follow);
    ``decode_top(data, pos) -> (tuple, _)``
        the same, but stops after the last wanted sub-relation;
    ``decode_flat(data) -> tuple`` / ``decode_atoms(data, pos) -> dict``
        the flat part only;
    ``decode_list(data, pos) -> list``
        a counted sub-relation instance of this relation;
    ``skip(data, pos) -> end``
        walk over one stored tuple without building anything;
    ``encode_flat(value) -> bytes``, ``size(value) -> int``,
    ``pack(value, out, pos) -> end``
        the encoders (``None`` on the plan of a projection).
    """

    __slots__ = (
        "schema",
        "flat_size",
        "overhead",
        "is_leaf",
        "fields",
        "atoms",
        "writers",
        "values",
        "packer",
        "prefix",
        "subs",
        "source",
        "filename",
        "decode",
        "decode_top",
        "decode_flat",
        "decode_atoms",
        "decode_list",
        "skip",
        "encode_flat",
        "size",
        "pack",
        "__weakref__",
    )

    def __init__(self, fmt: StorageFormat, spec: RelationSchema | Projection) -> None:
        if isinstance(spec, Projection):
            stored, self.schema = spec.stored, spec.schema
            kept = set(spec.attributes)
            wanted = {sub.stored.name: sub for sub in spec.subrelations}
        else:
            stored = self.schema = spec
            kept = {attr.name for attr in spec.attributes}
            wanted = {sub.name: sub for sub in spec.subrelations}
        full = spec is stored
        self.flat_size = fmt.flat_size(stored)
        self.overhead = fmt.subrel_overhead
        #: Stored tuples are flat, hence of one fixed size: a whole
        #: sub-relation instance of them decodes as one batch.
        self.is_leaf = stored.is_flat

        # -- the structs -----------------------------------------------------
        value_base = fmt.tuple_header + fmt.attr_overhead * len(stored.attributes)
        layout = [f"<{value_base}x"]
        codes: list[str] = []
        self.fields: list[tuple[str, bool]] = []
        self.atoms: dict[str, tuple] = {}
        self.writers: dict[str, tuple] | None = {} if full else None
        pos = value_base
        for attr in stored.attributes:
            is_str = attr.type is AttributeType.STR
            code = f"{attr.size}s" if is_str else "i"
            codes.append(code)
            if attr.name in kept:
                layout.append(code)
                self.fields.append((attr.name, is_str))
                self.atoms[attr.name] = (
                    struct.Struct(f"<{pos}x{code}").unpack_from,
                    is_str,
                )
            else:
                layout.append(f"{attr.size}x")
            if full:
                self.writers[attr.name] = (struct.Struct(f"<{code}").pack_into, pos, attr)
            pos += attr.size
        self.values = struct.Struct("".join(layout))
        self.packer = self.prefix = None
        if full:
            self._build_packer(fmt, stored, codes)

        # -- the sub-relations: (name, child plan, wanted?) ------------------------
        # A passed-over sub-relation is walked by the plan of its stored
        # schema; the child plans are pinned here so their source stays
        # in linecache while this plan's code can still call into them.
        self.subs = [
            (
                sub.name,
                compiled_plan(fmt, wanted.get(sub.name, sub)),
                sub.name in wanted,
            )
            for sub in stored.subrelations
        ]

        # -- generate, register, run -------------------------------------------------
        namespace = self._namespace(full)
        lines = [
            f"# relation {stored.name!r}, decoding "
            + ", ".join(repr(name) for name, _ in self.fields)
            + "".join(f" + {name!r}" for name, _, is_wanted in self.subs if is_wanted),
            f"# header {fmt.tuple_header}, per attribute {fmt.attr_overhead}, "
            f"per sub-relation {fmt.subrel_overhead} bytes",
        ]
        self._emit_decoders(lines)
        if full:
            if not self.is_leaf:
                self._emit_skip(lines)
            self._emit_encoders(lines)
        self.source = "\n".join(lines) + "\n"
        self.filename = f"<nf2 codec {stored.name} #{next(_serial)}>"
        linecache.cache[self.filename] = (
            len(self.source),
            None,
            self.source.splitlines(True),
            self.filename,
        )
        weakref.finalize(self, linecache.cache.pop, self.filename, None)
        exec(compile(self.source, self.filename, "exec"), namespace)
        for name in ("decode", "decode_top", "decode_flat", "decode_atoms", "decode_list"):
            setattr(self, name, namespace[name])
        for name in ("skip", "encode_flat", "size", "pack"):
            setattr(self, name, namespace.get(name))

    def _build_packer(
        self, fmt: StorageFormat, stored: RelationSchema, codes: list[str]
    ) -> None:
        """The encode struct: ``total_len, tag, <constant prefix>, *values``."""
        n_attrs = len(stored.attributes)
        offsets, offset = [], 0
        for attr in stored.attributes:
            offsets.append(offset & 0xFFFF)
            offset += attr.size
        try:
            self.prefix = struct.pack(
                f"<BH{fmt.tuple_header - 8}x" + f"H{fmt.attr_overhead - 2}x" * n_attrs,
                n_attrs,
                0,
                *offsets,
            )
        except struct.error:
            raise SerializationError(
                f"relation {stored.name!r} has more than 255 atomic attributes"
            ) from None
        self.packer = struct.Struct(f"<IB{len(self.prefix)}s" + "".join(codes))

    def _namespace(self, full: bool) -> dict[str, object]:
        namespace: dict[str, object] = {
            "u32": _U32.unpack_from,
            "error": struct.error,
            "new": NestedTuple.__new__,
            "NT": NestedTuple,
            "schema": self.schema,
            "unpack": self.values.unpack_from,
            "rows": self.values.iter_unpack,
        }
        if full:
            namespace.update(
                put=self.packer.pack_into,
                put_bytes=self.packer.pack,
                put_count=_U32.pack_into,
                prefix=self.prefix,
            )
        for index, (_, child, _) in enumerate(self.subs):
            namespace.update(
                {
                    f"schema_{index}": child.schema,
                    f"rows_{index}": child.values.iter_unpack,
                    f"decode_{index}": child.decode,
                    f"skip_{index}": child.skip,
                }
            )
            if full:
                namespace.update(
                    {
                        f"size_{index}": child.size,
                        f"pack_{index}": child.pack,
                        f"put_{index}": child.packer.pack_into,
                        f"prefix_{index}": child.prefix,
                    }
                )
        return namespace

    # -- decoders ------------------------------------------------------------------

    def _atoms_literal(self, stem: str) -> str:
        return (
            "{"
            + ", ".join(
                f"{name!r}: {stem}{index}{_STRING_FIXUP if is_str else ''}"
                for index, (name, is_str) in enumerate(self.fields)
            )
            + "}"
        )

    def _targets(self, stem: str) -> str:
        # "v0, v1, " — the trailing comma makes one attribute a 1-tuple
        # target; zero attributes have no target at all (the caller
        # emits a bare call, an empty target list is a SyntaxError).
        return "".join(f"{stem}{index}, " for index in range(len(self.fields)))

    def _emit_unpack(self, lines: list[str], pos: str) -> None:
        """The flat part at ``pos`` into ``atoms`` (bounds-checked)."""
        call = f"unpack(data, {pos})"
        lines.append(f"    {self._targets('v')}= {call}" if self.fields else f"    {call}")
        lines.append(f"    atoms = {self._atoms_literal('v')}")

    def _emit_children(self, lines: list[str], var: str, suffix: str) -> None:
        """``count`` stored tuples of this relation at ``pos`` into list ``var``.

        Emitted into a parent's decoder (``suffix`` selects the parent's
        names for this child) and into this plan's own ``decode_list``.
        """
        lines.append(f"    {var} = []")
        if not self.is_leaf:
            lines += [
                "    for _ in range(count):",
                f"        child, pos = decode{suffix}(data, pos)",
                f"        {var}.append(child)",
            ]
            return
        lines += [
            f"    end = pos + count * {self.flat_size}",
            f"    for {self._targets('c')}in rows{suffix}(data[pos:end]):",
            "        child = new(NT)",
            f"        child.schema = schema{suffix}",
            f"        child._atoms = {self._atoms_literal('c')}",
            "        child._subs = {}",
            f"        {var}.append(child)",
            # iter_unpack over a slice clamps: fewer rows, not an error.
            f"    if len({var}) != count:",
            '        raise error("stored count exceeds the buffer")',
            "    pos = end",
        ]

    def _emit_pass_over(self, lines: list[str], suffix: str) -> None:
        """Advance ``pos`` over ``count`` stored tuples of this relation."""
        if self.is_leaf:
            lines.append(f"    pos += count * {self.flat_size}")
        else:
            lines += [
                "    for _ in range(count):",
                f"        pos = skip{suffix}(data, pos)",
            ]

    def _emit_walk(self, lines: list[str], stop_early: bool) -> str:
        """The sub-relations after the flat part; returns the ``_subs`` literal."""
        last_wanted = max(
            (index for index, sub in enumerate(self.subs) if sub[2]), default=-1
        )
        built = []
        for index, (name, child, is_wanted) in enumerate(self.subs):
            if stop_early and index > last_wanted:
                break
            lines += [
                f"    # sub-relation {name!r}" + ("" if is_wanted else " (passed over)"),
                "    count, = u32(data, pos)",
                f"    pos += {self.overhead}",
            ]
            if is_wanted:
                child._emit_children(lines, f"subs_{index}", f"_{index}")
                built.append(f"{name!r}: subs_{index}")
            else:
                child._emit_pass_over(lines, f"_{index}")
        return "{" + ", ".join(built) + "}"

    def _emit_decoders(self, lines: list[str]) -> None:
        build = [
            "    value = new(NT)",
            "    value.schema = schema",
            "    value._atoms = atoms",
        ]
        variants = [("decode", False)]
        if self.subs and not self.subs[-1][2]:
            variants.append(("decode_top", True))
        for name, stop_early in variants:
            lines += ["", f"def {name}(data, pos):"]
            if self.fields or not self.subs:
                self._emit_unpack(lines, "pos")
            else:
                # No attribute wanted: the count read that follows at
                # pos + flat_size bounds-checks the flat part as well.
                lines.append("    atoms = {}")
            lines.append(f"    pos += {self.flat_size}")
            subs = self._emit_walk(lines, stop_early)
            lines += [*build, f"    value._subs = {subs}", "    return value, pos"]

        if len(variants) == 1:
            lines.append("decode_top = decode")

        empty = ", ".join(f"{name!r}: []" for name, _, wanted in self.subs if wanted)
        lines += ["", "def decode_flat(data):"]
        self._emit_unpack(lines, "0")
        lines += [*build, f"    value._subs = {{{empty}}}", "    return value"]

        lines += ["", "def decode_atoms(data, pos):"]
        self._emit_unpack(lines, "pos")
        lines.append("    return atoms")

        lines += [
            "",
            "def decode_list(data, pos):",
            "    count, = u32(data, pos)",
            f"    pos += {self.overhead}",
        ]
        self._emit_children(lines, "out", "")
        lines.append("    return out")

    def _emit_skip(self, lines: list[str]) -> None:
        lines += ["", "def skip(data, pos):", f"    pos += {self.flat_size}"]
        for index, (name, child, _) in enumerate(self.subs):
            lines += [
                f"    # sub-relation {name!r}",
                "    count, = u32(data, pos)",
                f"    pos += {self.overhead}",
            ]
            child._emit_pass_over(lines, f"_{index}")
        lines.append("    return pos")

    # -- encoders (full plans only) -----------------------------------------------------

    def _pack_arguments(self, total: str, tag: int, suffix: str) -> str:
        """``total, tag, prefix, atoms['a'], atoms['s'].encode(...)``."""
        return ", ".join(
            [total, str(tag), f"prefix{suffix}"]
            + [
                f"atoms[{name!r}]{_STRING_ENCODE if is_str else ''}"
                for name, is_str in self.fields
            ]
        )

    def _emit_encoders(self, lines: list[str]) -> None:
        flat = self.flat_size
        lines += [
            "",
            "def encode_flat(value):",
            "    atoms = value._atoms",
            f"    return put_bytes({self._pack_arguments(str(flat), _FLAT_TAG, '')})",
        ]

        lines += ["", "def size(value):"]
        if self.subs:
            lines += [
                "    subs = value._subs",
                f"    total = {flat + self.overhead * len(self.subs)}",
            ]
            for index, (name, child, _) in enumerate(self.subs):
                if child.is_leaf:
                    lines.append(f"    total += len(subs[{name!r}]) * {child.flat_size}")
                else:
                    lines += [
                        f"    for child in subs[{name!r}]:",
                        f"        total += size_{index}(child)",
                    ]
            lines.append("    return total")
        else:
            lines.append(f"    return {flat}")

        # Children are packed first: the flat header carries the length
        # of the whole subtree, which is known once they are written.
        lines += ["", "def pack(value, out, pos):", "    start = pos", f"    pos += {flat}"]
        if self.subs:
            lines.append("    subs = value._subs")
        for index, (name, child, _) in enumerate(self.subs):
            lines += [
                f"    children = subs[{name!r}]",
                "    put_count(out, pos, len(children))",
                f"    pos += {self.overhead}",
                "    for child in children:",
            ]
            if child.is_leaf:
                arguments = child._pack_arguments(
                    str(child.flat_size), _NESTED_TAG, f"_{index}"
                )
                lines += [
                    "        atoms = child._atoms",
                    f"        put_{index}(out, pos, {arguments})",
                    f"        pos += {child.flat_size}",
                ]
            else:
                lines.append(f"        pos = pack_{index}(child, out, pos)")
        lines += [
            "    atoms = value._atoms",
            f"    put(out, start, {self._pack_arguments('pos - start', _NESTED_TAG, '')})",
            "    return pos",
        ]


@lru_cache(maxsize=512)
def compiled_plan(fmt: StorageFormat, spec: RelationSchema | Projection) -> _LayoutPlan:
    """The process-wide plan of ``spec`` under ``fmt``, compiled on first use."""
    return _LayoutPlan(fmt, spec)
