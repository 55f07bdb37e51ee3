"""The NF² codec compiler: generated decoders and encoders per layout.

:class:`~repro.nf2.serializer.NF2Serializer` does not interpret a
schema at run time.  For each *(storage format, relation)* pair this
module writes the Python source of straight-line functions — the way
:mod:`dataclasses` and :func:`collections.namedtuple` do —, runs it
through one ``exec`` and keeps the functions on a :class:`_LayoutPlan`:

* **decode** — one *values-only* :class:`struct.Struct` per level: the
  tuple header, the offset array and every attribute a reader does not
  want are pad bytes (``x``), so the result of the unpack *is* the
  values.  They go into a dict literal, each string looked up in the
  table of decoded text (below), and the
  :class:`~repro.nf2.values.NestedTuple` is built in place.  A
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

An object stored in parts — one relation per nested relation, joined on
key columns (the NSM family) — compiles into an **assembly**
(:func:`compiled_assembly`): per relation one decoder that turns all of
an object's stored records into tuples of the *nested* schema, with the
key columns unpacked beside the values for the join and never put in an
atoms dict, one ``join`` that attaches them, and its inverse ``store``.
It unpacks with the same values-only structs (:func:`_values`) as the
layout decoders, so it reads exactly the bytes they would.

What enters the generated text: ``repr()`` of attribute and relation
names (which :mod:`repro.nf2.schema` validated as identifiers) and
integers.  Schemas, bound struct methods, the constant header bytes and
``NestedTuple.__new__`` enter through the ``exec`` namespace.  Each plan
keeps its :attr:`~_LayoutPlan.source` and registers it with
:mod:`linecache` under a pseudo-filename naming the relation
(``<nf2 codec Station #3>``), so tracebacks show real lines and a
profile keeps one row per relation.

**Decoded text is kept.**  A stored string is a NUL-padded field
(100 bytes in the benchmark schema), and turning it into a ``str`` —
``rstrip(b"\\0")``, which walks the padding one byte at a time, then
``decode("utf-8")`` — costs several times the unpack that produced it.
Most fields repeat a value another record holds (``History``,
``Remarks`` and ``DepartureTimes`` hold one value each across the
extension), so one module-level table, ``_TEXT``, maps stored
field bytes to their decoded ``str`` for every plan, every assembly
and ``NF2Serializer.decode_atom``.  The key is the whole padded field,
so equal keys decode to equal strings and every value, error and
counter is what decoding afresh would give.  A miss strips and decodes
*on the generated line* and only then enters the result, so a corrupt
string raises from the line naming its attribute, exactly as without
the table, and bytes that fail to decode are never kept.  The table is
emptied when it reaches ``_TEXT_BOUND`` (2**14) entries — a bound, not
an option: the benchmark's workloads hold about 4 000 distinct values.
A workload of all-distinct text pays the lookup and the entry on top
of the decode on every field.  Decoders in several threads need no lock:
however they interleave, every entry holds its own key's decoding (the
bound may be passed by one entry per racing thread until the next miss).

Generated layout functions let ``struct.error`` (truncated buffer, count
the buffer cannot hold) and ``UnicodeDecodeError`` (corrupt string)
propagate; the serializer's entry points translate them, once per call,
into :class:`~repro.errors.SerializationError`.  An assembly's decoders
are entry points themselves and translate the same way.

Plans are compiled **once per process**: :func:`compiled_plan` is a
bounded ``lru_cache`` keyed by ``(StorageFormat, RelationSchema |
Projection)`` — all frozen dataclasses.  Every model owns a serializer
and a sweep builds dozens of models per replay, so a per-serializer
cache would recompile the same sixteen plans over and over; the bound
is there because the fuzz suites create thousands of schemas.  Nothing
generated is ever pickled: a snapshot holds model *state*, and a
``--processes`` worker compiles its own plans.
"""

from __future__ import annotations

import linecache
import struct
import weakref
from functools import lru_cache
from itertools import count
from operator import itemgetter
from typing import TYPE_CHECKING

from repro.errors import SchemaError, SerializationError
from repro.nf2.schema import (
    Attribute,
    AttributeType,
    Part,
    Projection,
    RelationSchema,
    require_projection,
)
from repro.nf2.values import NestedTuple

if TYPE_CHECKING:
    from repro.nf2.serializer import StorageFormat

_FLAT_TAG = 0x01
_NESTED_TAG = 0x02

_U32 = struct.Struct("<I")

#: Numbers the pseudo-filenames: two same-named relations (another
#: format, a projection, a fuzz schema) must not share a linecache entry.
_serial = count(1)

_STRING_ENCODE = '.encode("utf-8")'

#: Stored string field bytes -> their decoded ``str`` ("Decoded text is
#: kept" above); emptied when it holds ``_TEXT_BOUND`` entries.
_TEXT: dict[bytes, str] = {}
_TEXT_BOUND = 1 << 14


def _keep(raw: bytes, text: str) -> str:
    """Enter ``text``, the decoding of ``raw``, in the table; return it."""
    if len(_TEXT) >= _TEXT_BOUND:
        _TEXT.clear()
    _TEXT[raw] = text
    return text


def _atom(var: str, is_str: bool) -> str:
    """The generated expression for the stored field unpacked into ``var``:
    a string is looked up in ``_TEXT``, and decoded on the generated line
    itself on a miss, so a corrupt string raises from the line naming
    its attribute and is never kept."""
    if not is_str:
        return var
    return (
        f"(hit if (hit := text.get({var})) is not None "
        f'else keep({var}, {var}.rstrip(b"\\0").decode("utf-8")))'
    )


def _undecodable(schema: RelationSchema, exc: Exception) -> SerializationError:
    """The typed error for bytes that are not a stored ``schema`` tuple.

    The decoder is the only gate in front of trusted tuples, so both
    ways stored bytes can fail it — a buffer too small for what it
    claims to hold (``struct.error``) and a corrupt string
    (``UnicodeDecodeError``) — surface as :class:`SerializationError`,
    translated once per entry point.
    """
    if isinstance(exc, UnicodeDecodeError):
        return SerializationError(
            f"corrupt string attribute in a {schema.name!r} tuple: {exc}"
        )
    return SerializationError(f"buffer too small to decode a {schema.name!r} tuple")


def _code(attr: Attribute) -> str:
    """The struct code of one stored attribute value."""
    return f"{attr.size}s" if attr.type is AttributeType.STR else "i"


def _values(
    fmt: StorageFormat, stored: RelationSchema, kept: set[str]
) -> tuple[struct.Struct, list[tuple[str, bool]]]:
    """The values-only struct of a ``stored`` flat part, and its fields
    ``(name, is_str)``: the header, the offset array and every attribute
    not in ``kept`` are pad bytes, so an unpack *is* the kept values."""
    layout = [f"<{fmt.tuple_header + fmt.attr_overhead * len(stored.attributes)}x"]
    fields = []
    for attr in stored.attributes:
        if attr.name in kept:
            layout.append(_code(attr))
            fields.append((attr.name, attr.type is AttributeType.STR))
        else:
            layout.append(f"{attr.size}x")
    return struct.Struct("".join(layout)), fields


def _run(owner: object, name: str, source: str, namespace: dict) -> str:
    """``exec`` generated ``source`` under a pseudo-filename registered
    with :mod:`linecache` for as long as ``owner`` lives; returns it."""
    filename = f"<nf2 codec {name} #{next(_serial)}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    weakref.finalize(owner, linecache.cache.pop, filename, None)
    exec(compile(source, filename, "exec"), namespace)
    return filename


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
        self.values, self.fields = _values(fmt, stored, kept)
        codes = [_code(attr) for attr in stored.attributes]
        self.atoms: dict[str, tuple] = {}
        self.writers: dict[str, tuple] | None = {} if full else None
        pos = fmt.tuple_header + fmt.attr_overhead * len(stored.attributes)
        for attr, code in zip(stored.attributes, codes):
            if attr.name in kept:
                self.atoms[attr.name] = (
                    struct.Struct(f"<{pos}x{code}").unpack_from,
                    attr.type is AttributeType.STR,
                )
            if full:
                self.writers[attr.name] = (struct.Struct(f"<{code}").pack_into, pos, attr)
            pos += attr.size
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
        self.filename = _run(self, stored.name, self.source, namespace)
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
            "text": _TEXT,
            "keep": _keep,
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
                f"{name!r}: {_atom(f'{stem}{index}', is_str)}"
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


# -- assemblies: objects joined back from stored parts ---------------------------------


def _except(index: int, pad: str) -> list[str]:
    """The handler closing a decoder's ``try`` at indentation ``pad``."""
    return [
        f"{pad}except (error, UnicodeDecodeError) as exc:",
        f"{pad}    raise undecodable(stored_{index}, exc) from None",
    ]


def _walk(root: RelationSchema) -> tuple[list[RelationSchema], list[int | None]]:
    """``root.walk()`` and, per relation, the index of its parent."""
    schemas: list[RelationSchema] = []
    parents: list[int | None] = []

    def visit(schema: RelationSchema, parent: int | None) -> None:
        schemas.append(schema)
        parents.append(parent)
        here = len(schemas) - 1
        for sub in schema.subrelations:
            visit(sub, here)

    visit(root, None)
    return schemas, parents


class _PartCode:
    """The generator's view of one part: its stored levels, the structs
    that unpack them, and the variable each unpacked field lands in.

    Four shapes are supported — what ``nf2.schema``'s two rules derive:

    * the root: one flat record per object;
    * rows: one flat record per tuple, keys beside the values;
    * a record: one per object, the root key over a list of tuples;
    * a grouped record: the root key over groups, each a parent key
      over a list of tuples.

    A relation nested more than two levels below the root would need a
    part with an own *and* a parent key, and is refused.
    """

    def __init__(
        self,
        fmt: StorageFormat,
        index: int,
        part: Part,
        target: RelationSchema,
        parent: int | None,
        namespace: dict,
    ) -> None:
        self.index, self.part, self.target = index, part, target
        stored = part.stored
        levels = [stored]
        while levels[-1].subrelations:
            sub, *others = levels[-1].subrelations
            if others:
                raise SchemaError(
                    f"part {stored.name!r}: {levels[-1].name!r} nests more than one relation"
                )
            levels.append(sub)
        self.levels, self.depth = levels, len(levels)
        item = levels[-1]

        wants_own = index > 0 and bool(target.subrelations)
        wants_parent = parent not in (None, 0)
        if wants_own and wants_parent:
            raise SchemaError(
                f"{target.name!r} is nested more than two levels below the root; "
                "an assembly does not reach that deep"
            )
        allowed = (1,) if index == 0 else (1, 3) if wants_parent else (1, 2)
        if self.depth not in allowed:
            raise SchemaError(
                f"part {stored.name!r} stores {target.name!r} {self.depth} levels deep, "
                f"not {' or '.join(map(str, allowed))}"
            )
        where = {"root_key": 0, "own_key": self.depth - 1, "parent_key": min(1, self.depth - 1)}
        needed = {"root_key": True, "own_key": wants_own, "parent_key": wants_parent}
        for role, level in where.items():
            name = getattr(part, role)
            if (name is not None) != needed[role]:
                verb = "needs" if needed[role] else "takes no"
                raise SchemaError(f"part {stored.name!r} of {target.name!r} {verb} {role}")
            if name is not None and [
                depth for depth, stage in enumerate(levels) if stage.has_attribute(name)
            ] != [level]:
                raise SchemaError(
                    f"part {stored.name!r}: {role} {name!r} must be stored on "
                    f"{levels[level].name!r} and nowhere else"
                )

        # The proof that licenses labelling decoded tuples with ``target``.
        keys = tuple(key for key in (part.root_key, part.own_key, part.parent_key) if key)
        for level in levels[:-1]:
            extra = [attr.name for attr in level.attributes if attr.name not in keys]
            if extra:
                raise SchemaError(f"{level.name!r} stores {extra} beside key columns")
        require_projection(
            item,
            target,
            tuple(key for key in keys if item.has_attribute(key) and not target.has_attribute(key)),
            target.subrelations,
        )

        # -- the structs: values-only, like the layout decoders' -----------------
        at_item = part.parent_key if self.depth == 1 else None
        wanted = {attr.name for attr in target.attributes}
        wanted |= {key for key in (part.own_key, at_item) if key}
        item_struct, self.fields = _values(fmt, item, wanted)
        self.item_size = fmt.flat_size(item)
        # A scan groups rows by their root key, so it unpacks that too.
        scan_struct, self.scan_fields = item_struct, self.fields
        if self.rows:
            scan_struct, self.scan_fields = _values(fmt, item, wanted | {part.root_key})
        i = index
        namespace.update(
            {
                f"schema_{i}": target,
                f"stored_{i}": stored,
                f"unpack_{i}": item_struct.unpack_from,
                f"items_{i}": item_struct.iter_unpack,
                f"scan_unpack_{i}": scan_struct.unpack_from,
                **{f"level_{i}_{depth}": level for depth, level in enumerate(levels[1:], 1)},
            }
        )
        self.root_var = self._variable(part.root_key)
        if self.depth > 1:
            self.envelope = fmt.flat_size(stored)
            self.overhead = fmt.subrel_overhead
            namespace[f"root_{i}"] = _values(fmt, stored, {part.root_key})[0].unpack_from
        if self.depth == 3:
            self.group = fmt.flat_size(levels[1])
            namespace[f"group_{i}"] = _values(fmt, levels[1], {part.parent_key})[0].unpack_from

    @property
    def rows(self) -> bool:
        """One stored record per tuple (and not the root)."""
        return self.index > 0 and self.depth == 1

    def _variable(self, name: str) -> str:
        part = self.part
        if self.target.has_attribute(name):
            return f"v{[attr.name for attr in self.target.attributes].index(name)}"
        return {part.root_key: "r", part.own_key: "k", part.parent_key: "p"}[name]

    def _targets(self, fields: list[tuple[str, bool]]) -> str:
        # "v0, k, v1, " — see ``_LayoutPlan._targets``.
        return "".join(f"{self._variable(name)}, " for name, _ in fields)

    def _build(self, lines: list[str], pad: str) -> None:
        """Lines building ``child`` from the unpacked values."""
        atoms = ", ".join(
            f"{attr.name!r}: {_atom(f'v{index}', attr.type is AttributeType.STR)}"
            for index, attr in enumerate(self.target.attributes)
        )
        lines += [
            f"{pad}child = new(NT)",
            f"{pad}child.schema = schema_{self.index}",
            f"{pad}child._atoms = {{{atoms}}}",
        ]
        if self.index and not self.target.subrelations:
            lines.append(f"{pad}child._subs = {{}}")

    def _add(self, lines: list[str], pad: str, container: str) -> None:
        """Lines adding ``child`` to ``container`` (a list, or a dict of
        lists by parent key for rows that carry one)."""
        if self.rows and self.part.parent_key:
            lines += [
                f"{pad}group = {container}.get(p)",
                f"{pad}if group is None:",
                f"{pad}    {container}[p] = [child]",
                f"{pad}else:",
                f"{pad}    group.append(child)",
            ]
        else:
            entry = "(k, child)" if self.part.own_key and self.index else "child"
            lines.append(f"{pad}{container}.append({entry})")

    @property
    def empty(self) -> str:
        """The part of an object that has no tuple in this relation."""
        return "{}" if self.part.parent_key else "[]"

    def _emit_items(self, lines: list[str], pad: str, var: str, count: str) -> None:
        """``count`` stored tuples at ``pos`` into list ``var`` — one
        ``iter_unpack``, checked against the count (a slice clamps)."""
        lines += [
            f"{pad}end = pos + {count} * {self.item_size}",
            f"{pad}{var} = []",
            f"{pad}for {self._targets(self.fields)}in items_{self.index}(data[pos:end]):",
        ]
        self._build(lines, pad + "    ")
        self._add(lines, pad + "    ", var)
        lines += [
            f"{pad}if len({var}) != {count}:",
            f'{pad}    raise error("stored count exceeds the buffer")',
        ]

    def emit(self, lines: list[str]) -> None:
        i, pad = self.index, " " * 8
        lines += ["", f"def decode_{i}(records):", "    try:"]
        if i == 0:
            lines.append(f"{pad}{self._targets(self.fields)}= unpack_{i}(records, 0)")
            self._build(lines, pad)
            lines.append(f"{pad}return child")
        elif self.rows:
            lines += [
                f"{pad}out = {self.empty}",
                f"{pad}for {self._targets(self.fields)}in map(unpack_{i}, records):",
            ]
            self._build(lines, pad + "    ")
            self._add(lines, pad + "    ", "out")
            lines.append(f"{pad}return out")
        else:
            # The envelope's root key is a pad here: the count read at
            # its end bounds-checks it as well.
            lines += [
                f"{pad}data = memoryview(records)",
                f"{pad}count, = u32(data, {self.envelope})",
                f"{pad}pos = {self.envelope + self.overhead}",
            ]
            if self.depth == 2:
                self._emit_items(lines, pad, "out", "count")
            else:
                lines += [
                    f"{pad}out = {{}}",
                    f"{pad}for _ in range(count):",
                    f"{pad}    p, = group_{i}(data, pos)",
                    f"{pad}    n, = u32(data, pos + {self.group})",
                    f"{pad}    pos += {self.group + self.overhead}",
                ]
                self._emit_items(lines, pad + "    ", "items", "n")
                lines += [f"{pad}    pos = end", f"{pad}    out[p] = items"]
            lines.append(f"{pad}return out")
        lines += _except(i, "    ")

        # A scan draws its records from storage inside the loop, so only
        # the decode of each is guarded: an error raised by a read
        # stays the reader's.
        lines += ["", f"def scan_{i}(records):", "    out = {}", "    for data in records:"]
        lines.append("        try:")
        if self.depth == 1:
            lines.append(f"{pad}    {self._targets(self.scan_fields)}= scan_unpack_{i}(data, 0)")
            self._build(lines, pad + "    ")
        else:
            lines.append(f"{pad}    r, = root_{i}(data, 0)")
        lines += _except(i, pad)
        if i == 0:
            lines.append(f"{pad}out[{self.root_var}] = child")
        elif self.rows:
            lines += [
                f"{pad}part = out.get(r)",
                f"{pad}if part is None:",
                f"{pad}    part = out[r] = {self.empty}",
            ]
            self._add(lines, pad, "part")
        else:
            lines.append(f"{pad}out[r] = decode_{i}(data)")
        lines.append("    return out")


class _AssemblyPlan:
    """The compiled reassembly of an object stored in parts, under one format.

    Compiled from a tuple of :class:`~repro.nf2.schema.Part` — one per
    relation of the object's schema, in walk order — after proving each
    (:func:`~repro.nf2.schema.require_projection` on its tuple level,
    key columns only on the levels above).  The generated functions:

    ``decode[i](records) -> part``
        one object's records of relation ``i``: the record's bytes where
        the relation keeps one record per object (always the root), a
        sequence of row bytes where it keeps one row per tuple.  The
        part is the root tuple (``i == 0``), else a list of tuples, of
        ``(own key, tuple)`` pairs, or a ``{parent key: [tuple, ...]}``
        dict;
    ``scan[i](records) -> {root key: part}``
        every record of relation ``i``, from an iterable of bytes drawn
        one record at a time (each is decoded before the next is read);
    ``join(part_0, part_1, ...) -> tuple``
        the object: own-keyed tuples in stable own-key order, each with
        the children its own key is the parent key of; children whose
        parent is missing are dropped;
    ``join_scanned(scan_0, scan_1, ...)``
        yields ``join`` of each root of a scan, in the root relation's
        order; a relation with no record for a root gives an empty part;
    ``store(value, insert) -> row``
        the inverse of ``join``: writes the records of one object
        through ``insert(relation index, record)`` and returns their
        handles per relation.  Rows go in the pre-order walk of the
        object's tuples (a platform, then its connections), records one
        per relation in walk order; own and parent keys are
        ``enumerate`` positions.

    Tuples are built in place, as the layout decoders build theirs: the
    proof is what licenses labelling them with the nested schemas, so
    ``schema`` is the nested schema at every level and the atoms follow
    its attribute order.  Every decoder translates ``struct.error`` and
    ``UnicodeDecodeError`` into :class:`SerializationError`, once per
    call.  What an assembly does *not* do is read: the caller reads each
    relation and decodes it before reading the next, so storage calls
    and their order are the caller's, and the same as without it.
    """

    __slots__ = (
        "parts",
        "decode",
        "scan",
        "join",
        "join_scanned",
        "store",
        "source",
        "filename",
        "__weakref__",
    )

    def __init__(self, fmt: StorageFormat, parts: tuple[Part, ...]) -> None:
        if not parts:
            raise SchemaError("an assembly needs a part per relation of the object")
        schemas, parents = _walk(parts[0].target)
        if [part.target for part in parts] != schemas:
            raise SchemaError(
                "an assembly needs one part per relation, in walk order: "
                f"{[schema.name for schema in schemas]}"
            )
        self.parts = parts
        namespace: dict[str, object] = {
            "u32": _U32.unpack_from,
            "error": struct.error,
            "undecodable": _undecodable,
            "text": _TEXT,
            "keep": _keep,
            "new": NestedTuple.__new__,
            "NT": NestedTuple,
            "first": itemgetter(0),
            "trusted": NestedTuple._from_trusted,
        }
        codes = [
            _PartCode(fmt, index, part, schemas[index], parents[index], namespace)
            for index, part in enumerate(parts)
        ]
        lines = [
            f"# assembly of {schemas[0].name!r} from "
            + ", ".join(repr(part.stored.name) for part in parts),
        ]
        for code in codes:
            code.emit(lines)
        self._emit_join(lines, codes, parents)
        self._emit_store(lines, codes, parents)
        self.source = "\n".join(lines) + "\n"
        self.filename = _run(self, f"{schemas[0].name} assembly", self.source, namespace)
        self.decode = tuple(namespace[f"decode_{index}"] for index in range(len(parts)))
        self.scan = tuple(namespace[f"scan_{index}"] for index in range(len(parts)))
        self.join = namespace["join"]
        self.join_scanned = namespace["join_scanned"]
        self.store = namespace["store"]

    @staticmethod
    def _emit_join(lines: list[str], codes: list[_PartCode], parents: list[int | None]) -> None:
        parts = ", ".join(f"part_{code.index}" for code in codes)
        lines += ["", f"def join({parts}):"]
        subs = []
        for code in codes:
            if parents[code.index] != 0:
                continue
            i, name = code.index, code.target.name
            if not code.part.own_key:
                subs.append(f"{name!r}: part_{i}")
                continue
            children = ", ".join(
                f"{child.target.name!r}: part_{child.index}.get(k) or []"
                for child in codes
                if parents[child.index] == i
            )
            lines += [
                f"    part_{i}.sort(key=first)",
                f"    subs_{i} = []",
                f"    for k, child in part_{i}:",
                f"        child._subs = {{{children}}}",
                f"        subs_{i}.append(child)",
            ]
            subs.append(f"{name!r}: subs_{i}")
        lines += [f"    part_0._subs = {{{', '.join(subs)}}}", "    return part_0"]

        scanned = "".join(
            f", part_{code.index}.get(key) or {code.empty}" for code in codes[1:]
        )
        lines += [
            "",
            f"def join_scanned({parts}):",
            "    for key, root in part_0.items():",
            f"        yield join(root{scanned})",
        ]

    @staticmethod
    def _emit_store(lines: list[str], codes: list[_PartCode], parents: list[int | None]) -> None:
        # Built through ``trusted``: the proofs that license labelling
        # decoded tuples license relabelling a validated object's parts.
        if len({code.rows for code in codes[1:]}) > 1:
            raise SchemaError("an assembly stores rows or records, not both")
        lines += [
            "",
            "def store(value, insert):",
            "    atoms = value._atoms",
            f"    key = atoms[{codes[0].part.root_key!r}]",
            "    out_0 = insert(0, trusted(stored_0, atoms, {}))",
            *[f"    out_{code.index} = []" for code in codes[1:] if code.rows],
        ]

        def rows(code: _PartCode, source: str, pad: str) -> None:
            i, part, up = code.index, code.part, parents[code.index]
            keys = {part.root_key: "key", part.own_key: f"k_{i}", part.parent_key: f"k_{up}"}
            row = "".join(f"{name!r}: {value}, " for name, value in keys.items() if name)
            lines.extend(
                [
                    f"{pad}for k_{i}, t_{i} in enumerate({source}._subs[{code.target.name!r}]):",
                    f"{pad}    out_{i}.append(insert({i}, trusted(stored_{i}, "
                    f"{{{row}**t_{i}._atoms}}, {{}})))",
                ]
            )
            for child in codes:
                if parents[child.index] == i:
                    rows(child, f"t_{i}", pad + "    ")

        for code in codes[1:]:
            i, part, levels, name = code.index, code.part, code.levels, code.target.name
            if code.rows:
                if parents[i] == 0:
                    rows(code, "value", "    ")
                continue
            atoms = f"{{{part.own_key!r}: k, **t._atoms}}" if part.own_key else "t._atoms"
            item = f"trusted(level_{i}_{code.depth - 1}, {atoms}, {{}})"
            loop = f"k, t in enumerate(value._subs[{name!r}])"
            if code.depth == 3:  # one group per parent tuple, its position the parent key
                item = (
                    f"trusted(level_{i}_1, {{{part.parent_key!r}: k}}, "
                    f"{{{levels[2].name!r}: [{item} for t in p._subs[{name!r}]]}})"
                )
                loop = f"k, p in enumerate(value._subs[{codes[parents[i]].target.name!r}])"
            lines += [
                f"    items = [{item} for {loop}]",
                f"    out_{i} = insert({i}, trusted(stored_{i}, {{{part.root_key!r}: key}}, "
                f"{{{levels[1].name!r}: items}}))",
            ]
        handles = [f"tuple(out_{c.index})" if c.rows else f"(out_{c.index},)" for c in codes]
        lines.append(f"    return ({', '.join(handles)},)")


@lru_cache(maxsize=64)
def compiled_assembly(fmt: StorageFormat, parts: tuple[Part, ...]) -> _AssemblyPlan:
    """The process-wide assembly of ``parts`` under ``fmt``, proved and
    compiled on first use; :class:`SchemaError` if the parts do not
    reassemble their object."""
    return _AssemblyPlan(fmt, parts)
