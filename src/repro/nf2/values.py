"""Nested tuple values.

A :class:`NestedTuple` holds the atomic values and the sub-relation
contents (lists of nested tuples) of one tuple of a nested relation.
Values are validated against a :class:`~repro.nf2.schema.RelationSchema`
on construction, so a tuple that exists is a tuple that is well formed.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.errors import SchemaError, SerializationError
from repro.nf2.schema import AttributeType, Projection, RelationSchema


class NestedTuple:
    """One tuple of a nested relation, validated against its schema.

    Atomic values are accessed with item syntax (``t["Key"]``); the
    tuples of a sub-relation with :meth:`subtuples`.
    """

    __slots__ = ("schema", "_atoms", "_subs")

    def __init__(
        self,
        schema: RelationSchema,
        atoms: Mapping[str, Any],
        subs: Mapping[str, Sequence["NestedTuple"]] | None = None,
    ) -> None:
        subs = subs or {}
        self.schema = schema
        self._atoms: dict[str, Any] = {}
        self._subs: dict[str, list[NestedTuple]] = {}

        for attr in schema.attributes:
            if attr.name not in atoms:
                raise SchemaError(
                    f"missing atomic attribute {attr.name!r} for relation {schema.name!r}"
                )
            self._atoms[attr.name] = _check_atom(attr.name, attr.type, attr.size, atoms[attr.name])
        extra = set(atoms) - set(self._atoms)
        if extra:
            raise SchemaError(f"unknown atomic attributes for {schema.name!r}: {sorted(extra)}")

        for sub_schema in schema.subrelations:
            children = list(subs.get(sub_schema.name, ()))
            for child in children:
                if child.schema is not sub_schema and child.schema != sub_schema:
                    raise SchemaError(
                        f"sub-tuple of {sub_schema.name!r} built against wrong schema "
                        f"{child.schema.name!r}"
                    )
            self._subs[sub_schema.name] = children
        extra = set(subs) - set(self._subs)
        if extra:
            raise SchemaError(f"unknown sub-relations for {schema.name!r}: {sorted(extra)}")

    @classmethod
    def _from_trusted(
        cls,
        schema: RelationSchema,
        atoms: dict[str, Any],
        subs: dict[str, list["NestedTuple"]],
    ) -> "NestedTuple":
        """Build a tuple without re-validating.

        Three callers may use this.  The serializer, which only decodes
        bytes that were validated when they were encoded; a storage
        model's reassembly, which relabels such decoded parts under a
        schema that :func:`repro.nf2.schema.require_projection` proved
        equivalent (the NSM family's generated assembly builds its
        tuples the same way, under the same proof); and a storage
        model's ``_store``, which relabels the parts of a validated
        Station (``insert_object`` checks the schema) the other way
        under the same proofs, adding only key columns that are the
        station's validated ``Key`` and ``enumerate`` indices.  In all
        three, the per-attribute checks of ``__init__`` would re-prove
        a known invariant on every tuple.  ``atoms`` must hold exactly the
        atomic attributes and ``subs`` exactly the sub-relations of
        ``schema``; the dicts are adopted, not copied.
        """
        self = cls.__new__(cls)
        self.schema = schema
        self._atoms = atoms
        self._subs = subs
        return self

    # -- access ----------------------------------------------------------

    def __getitem__(self, name: str) -> Any:
        try:
            return self._atoms[name]
        except KeyError:
            raise SchemaError(
                f"relation {self.schema.name!r} has no atomic attribute {name!r}"
            ) from None

    def atoms(self) -> dict[str, Any]:
        """A copy of the atomic attribute values."""
        return dict(self._atoms)

    def subtuples(self, name: str) -> list["NestedTuple"]:
        """The tuples of sub-relation ``name`` (may be empty)."""
        try:
            return list(self._subs[name])
        except KeyError:
            raise SchemaError(
                f"relation {self.schema.name!r} has no sub-relation {name!r}"
            ) from None

    def walk_subtuples(self) -> Iterator["NestedTuple"]:
        """Yield every sub-tuple at every nesting level, pre-order."""
        for name in self._subs:
            for child in self._subs[name]:
                yield child
                yield from child.walk_subtuples()

    def count_subtuples(self) -> int:
        """Total number of sub-tuples at every nesting level."""
        return sum(1 for _ in self.walk_subtuples())

    # -- functional updates ----------------------------------------------

    def replace_atoms(self, **changes: Any) -> "NestedTuple":
        """Return a copy with some atomic attributes changed.

        This is the operation of benchmark query 3: "We update atomic
        attributes, that is, the object structure is not changed."  The
        storage models apply it to stored bytes
        (``NF2Serializer.compile_patch``); this value form is the public
        API and the specification that patch is tested against.
        """
        atoms = dict(self._atoms)
        for name, value in changes.items():
            if name not in atoms:
                raise SchemaError(
                    f"relation {self.schema.name!r} has no atomic attribute {name!r}"
                )
            atoms[name] = value
        return NestedTuple(self.schema, atoms, self._subs)

    def project(self, projection: Projection) -> "NestedTuple":
        """This tuple reduced to what ``projection`` keeps.

        Built the slow way, through the validating constructor: it is
        the specification a projected decode must equal
        (``decode_nested(schema, blob).project(p) ==
        decode_nested(p, blob)``), not a read path.
        """
        schema = projection.schema
        return NestedTuple(
            schema,
            {attr.name: self[attr.name] for attr in schema.attributes},
            {
                sub.stored.name: [
                    child.project(sub) for child in self.subtuples(sub.stored.name)
                ]
                for sub in projection.subrelations
            },
        )

    # -- equality / repr ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NestedTuple):
            return NotImplemented
        return (
            self.schema.name == other.schema.name
            and self._atoms == other._atoms
            and self._subs == other._subs
        )

    def __hash__(self) -> int:  # pragma: no cover - tuples are not hashed in hot paths
        return hash((self.schema.name, tuple(sorted(self._atoms.items(), key=lambda kv: kv[0]))))

    def __repr__(self) -> str:
        subs = {name: len(children) for name, children in self._subs.items()}
        return f"NestedTuple({self.schema.name!r}, atoms={self._atoms!r}, subs={subs!r})"


def links_of(tuples: Iterable[NestedTuple], out: list[Any] | None = None) -> list[Any]:
    """The references in ``tuples`` decoded under a
    :func:`~repro.nf2.schema.links` projection, appended to ``out``:
    every atom, depth-first in schema order."""
    out = [] if out is None else out
    for value in tuples:
        out.extend(value._atoms.values())
        for children in value._subs.values():
            links_of(children, out)
    return out


def _check_atom(name: str, type_: AttributeType, size: int, value: Any) -> Any:
    """Validate one atomic value against its declared type."""
    if type_ in (AttributeType.INT, AttributeType.LINK):
        if isinstance(value, bool) or not isinstance(value, int):
            raise SerializationError(f"attribute {name!r} expects an int, got {value!r}")
        if not -(2**31) <= value < 2**31:
            raise SerializationError(f"attribute {name!r} out of 32-bit range: {value!r}")
        return value
    if type_ is AttributeType.STR:
        if not isinstance(value, str):
            raise SerializationError(f"attribute {name!r} expects a str, got {value!r}")
        if len(value.encode("utf-8")) > size:
            raise SerializationError(
                f"attribute {name!r} longer than its declared size of {size} bytes"
            )
        return value
    raise SerializationError(f"unsupported attribute type {type_!r}")  # pragma: no cover
