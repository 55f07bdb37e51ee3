"""Schema definitions for nested (NF²) relations.

A :class:`RelationSchema` describes a relation whose tuples have a fixed
list of atomic attributes followed by zero or more relation-valued
attributes (sub-relations).  This mirrors the benchmark object of the
paper (Figure 1): ``Station`` has atomic attributes plus the
``Platform`` and ``Sightseeing`` sub-relations; ``Platform`` in turn
nests ``Connection``.

Schemas are immutable; building one validates attribute names and types
eagerly so that downstream code can trust the structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator

from repro.errors import SchemaError


class AttributeType(Enum):
    """Atomic attribute types used by the benchmark schema.

    ``INT`` — 4-byte signed integer (paper: "INT, 4 bytes").
    ``STR`` — fixed-size string (paper: "STR, 100 bytes").
    ``LINK`` — 4-byte physical reference to another complex object
    (paper: ``OidConnection: LINK``).
    """

    INT = "int"
    STR = "str"
    LINK = "link"


#: Default byte width of each atomic type, as stated in Figure 1.
DEFAULT_TYPE_SIZES = {
    AttributeType.INT: 4,
    AttributeType.STR: 100,
    AttributeType.LINK: 4,
}


@dataclass(frozen=True)
class Attribute:
    """A single atomic attribute: name, type, and on-disk byte width."""

    name: str
    type: AttributeType
    size: int = 0

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid attribute name: {self.name!r}")
        if self.size == 0:
            object.__setattr__(self, "size", DEFAULT_TYPE_SIZES[self.type])
        if self.size <= 0:
            raise SchemaError(f"attribute {self.name!r} has non-positive size")
        if self.type in (AttributeType.INT, AttributeType.LINK) and self.size != 4:
            raise SchemaError(
                f"attribute {self.name!r}: {self.type.value} attributes are 4 bytes wide"
            )


@dataclass(frozen=True)
class RelationSchema:
    """Schema of a nested relation.

    Parameters
    ----------
    name:
        Relation name, unique within its parent.
    attributes:
        Atomic attributes of each tuple.
    subrelations:
        Relation-valued attributes (nested sub-relations), possibly
        empty for a flat relation.
    """

    name: str
    attributes: tuple[Attribute, ...]
    subrelations: tuple["RelationSchema", ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("-", "_").isidentifier():
            raise SchemaError(f"invalid relation name: {self.name!r}")
        if not self.attributes and not self.subrelations:
            raise SchemaError(f"relation {self.name!r} has no attributes at all")
        seen: set[str] = set()
        for attr in self.attributes:
            if attr.name in seen:
                raise SchemaError(f"duplicate attribute {attr.name!r} in {self.name!r}")
            seen.add(attr.name)
        for sub in self.subrelations:
            if sub.name in seen:
                raise SchemaError(f"duplicate attribute {sub.name!r} in {self.name!r}")
            seen.add(sub.name)

    # -- lookups ---------------------------------------------------------

    def attribute(self, name: str) -> Attribute:
        """Return the atomic attribute called ``name``."""
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise SchemaError(f"relation {self.name!r} has no atomic attribute {name!r}")

    def subrelation(self, name: str) -> "RelationSchema":
        """Return the sub-relation called ``name``."""
        for sub in self.subrelations:
            if sub.name == name:
                return sub
        raise SchemaError(f"relation {self.name!r} has no sub-relation {name!r}")

    def has_attribute(self, name: str) -> bool:
        return any(attr.name == name for attr in self.attributes)

    def has_subrelation(self, name: str) -> bool:
        return any(sub.name == name for sub in self.subrelations)

    # -- derived properties ---------------------------------------------

    @property
    def is_flat(self) -> bool:
        """True for a 1NF relation (no relation-valued attributes)."""
        return not self.subrelations

    @property
    def atomic_width(self) -> int:
        """Sum of the byte widths of the atomic attributes of one tuple."""
        return sum(attr.size for attr in self.attributes)

    @property
    def depth(self) -> int:
        """Nesting depth: 1 for a flat relation."""
        if self.is_flat:
            return 1
        return 1 + max(sub.depth for sub in self.subrelations)

    def walk(self) -> Iterator["RelationSchema"]:
        """Yield this schema and every nested schema, pre-order."""
        yield self
        for sub in self.subrelations:
            yield from sub.walk()

    def flatten_names(self) -> list[str]:
        """Names of all (sub-)relations in pre-order; handy for reports."""
        return [schema.name for schema in self.walk()]

    # -- construction helpers -------------------------------------------

    @staticmethod
    def flat(name: str, *attributes: Attribute) -> "RelationSchema":
        """Build a flat (1NF) relation schema."""
        return RelationSchema(name=name, attributes=tuple(attributes))


def require_projection(
    storage: RelationSchema,
    target: RelationSchema,
    key_columns: tuple[str, ...] = (),
    children: tuple[RelationSchema, ...] = (),
) -> None:
    """Prove that ``storage`` minus ``key_columns`` is ``target``, atom for atom.

    A storage model that keeps a nested relation under a storage schema
    of its own (the target's atomic attributes plus foreign-key columns)
    reassembles objects by dropping the key columns and relabelling the
    rest with the target schema.  That is only sound when the remaining
    attributes equal the target's in name, type, size and order, and
    when the tuples it attaches (``children``: their schemas, in order)
    are exactly the target's sub-relations.  Both are checked here once
    per storage schema (when an assembly of :class:`Part` declarations
    is compiled, or when a model module is imported), so reassembly need
    not re-validate every decoded tuple.  Raises :class:`SchemaError`
    otherwise.
    """
    for name in key_columns:
        if not storage.has_attribute(name):
            raise SchemaError(f"relation {storage.name!r} has no key column {name!r}")
    kept = tuple(attr for attr in storage.attributes if attr.name not in key_columns)
    if kept != target.attributes:
        raise SchemaError(
            f"{storage.name!r} minus {list(key_columns)} stores {list(kept)}, "
            f"{target.name!r} expects {list(target.attributes)}"
        )
    if children != target.subrelations:
        raise SchemaError(
            f"{target.name!r} nests {[sub.name for sub in target.subrelations]}, "
            f"reassembly attaches {[sub.name for sub in children]}"
        )


@dataclass(frozen=True)
class Projection:
    """The part of a stored relation a reader wants decoded.

    ``stored`` is the schema the bytes were encoded under,
    ``attributes`` names the atomic attributes to keep and
    ``subrelations`` the sub-relations to keep, each itself a projection
    of the stored sub-relation.  :attr:`schema` is the derived relation:
    the kept attributes and sub-relations, in stored order, under the
    stored name.  The serializer's decode entry points accept a
    projection wherever they accept a schema and yield ordinary tuples
    of :attr:`schema` — equal to
    :meth:`~repro.nf2.values.NestedTuple.project` of the full decode,
    without ever turning the dropped bytes into objects.

    Build a projection once, at module level, like a schema: a
    serializer finds its compiled decoder by the object's identity and
    keeps the object alive for that.
    """

    stored: RelationSchema
    attributes: tuple[str, ...] = ()
    subrelations: tuple["Projection", ...] = ()
    schema: RelationSchema = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        stored = self.stored
        names = set(self.attributes)
        if len(names) != len(self.attributes):
            raise SchemaError(f"projection of {stored.name!r} repeats an attribute")
        for name in self.attributes:
            stored.attribute(name)
        wanted = {sub.stored.name: sub for sub in self.subrelations}
        if len(wanted) != len(self.subrelations):
            raise SchemaError(f"projection of {stored.name!r} repeats a sub-relation")
        for name, sub in wanted.items():
            if stored.subrelation(name) != sub.stored:
                raise SchemaError(
                    f"projection of {stored.name!r} reads {name!r} under another schema"
                )
        derived = RelationSchema(
            stored.name,
            tuple(attr for attr in stored.attributes if attr.name in names),
            tuple(
                wanted[sub.name].schema
                for sub in stored.subrelations
                if sub.name in wanted
            ),
        )
        object.__setattr__(self, "schema", derived)


@dataclass(frozen=True)
class Part:
    """Where the tuples of one nested relation of an object are stored.

    ``stored`` is the schema of the stored records, ``target`` the
    nested relation whose tuples they hold.  Either each record is one
    target tuple (a flat row, NSM), or a record holds all of one
    object's target tuples, possibly in groups, under levels that carry
    key columns only (DASDBS-NSM): every stored level but the last has
    exactly one sub-relation, and the last, flat level's attributes
    minus its key columns are ``target``'s.  The paper's Section 3
    rules, :func:`unnest` and :func:`nest_by_root`, derive them.

    The key columns name the join: ``root_key`` (on the record) the
    object a tuple belongs to, ``own_key`` the tuple its children point
    to (and the order the tuples are reassembled in), ``parent_key`` the
    tuple of the parent relation a tuple belongs to.  A declared key
    that is also a target attribute (the root's ``Key``) stays an
    attribute.  :func:`repro.nf2.codec.compiled_assembly` proves a
    tuple of parts (one per relation of the object, in
    :meth:`RelationSchema.walk` order) and compiles the code that
    reassembles objects from them.
    """

    stored: RelationSchema
    target: RelationSchema
    root_key: str
    own_key: str | None = None
    parent_key: str | None = None


# -- the paper's Section 3 rules: an NF² schema's parts --------------------------------

#: The key columns the rules add: the object a tuple belongs to, the
#: tuple its children point to (its position among its siblings), and
#: that parent tuple's own key on a child.
ROOT_KEY, OWN_KEY, PARENT_KEY = "RootKey", "OwnKey", "ParentKey"


def _parts(schema: RelationSchema, prefix: str, store) -> tuple[Part, ...]:
    """The parts of ``schema``'s relations, in walk order.

    The root, whose first attribute is its key, is stored as it is;
    ``store(name, relation, parent, own_key, parent_key)`` gives the
    stored schema of every other relation, keyed by the root key, by an
    own key if it has children, and by a parent key if its parent is not
    the root.  A relation with both would have children three levels
    below the root, which no rule (and no assembly) reaches.
    """
    if schema.depth > 3:
        raise SchemaError(f"{schema.name!r} nests relations three levels below its root")
    if not schema.attributes:
        raise SchemaError(f"root {schema.name!r} has no key attribute")
    root = RelationSchema(f"{prefix}_{schema.name}", schema.attributes)
    parts = [Part(root, schema, schema.attributes[0].name)]
    for child in schema.subrelations:
        for relation, parent in ((child, schema), *((sub, child) for sub in child.subrelations)):
            own = OWN_KEY if relation.subrelations else None
            up = PARENT_KEY if parent is not schema else None
            stored = store(f"{prefix}_{relation.name}", relation, parent, own, up)
            parts.append(Part(stored, relation, ROOT_KEY, own, up))
    return tuple(parts)


def unnest(schema: RelationSchema, prefix: str) -> tuple[Part, ...]:
    """Figure 3 (NSM): one flat relation ``<prefix>_<R>`` per nested
    relation, one row per tuple, its key columns ahead of its attributes."""

    def row(name, relation, parent, own, up):
        keys = tuple(int_attr(key) for key in (ROOT_KEY, own, up) if key)
        return RelationSchema(name, keys + relation.attributes)

    return _parts(schema, prefix, row)


def nest_by_root(schema: RelationSchema, prefix: str) -> tuple[Part, ...]:
    """Figure 4 (DASDBS-NSM): the unnested relations nested again on
    their root key, one record per object per relation — a ``RootKey``
    envelope over the items ``<R>Of<Parent>``, grouped below the first
    nesting level under ``<R>sOf<Parent>`` levels that carry the parent
    key."""

    def record(name, relation, parent, own, up):
        keys = (int_attr(own),) if own else ()
        level = RelationSchema(f"{relation.name}Of{parent.name}", keys + relation.attributes)
        if up:
            level = RelationSchema(f"{relation.name}sOf{parent.name}", (int_attr(up),), (level,))
        return RelationSchema(name, (int_attr(ROOT_KEY),), (level,))

    return _parts(schema, prefix, record)


def links(schema: RelationSchema) -> Projection | None:
    """The references of ``schema``: its ``LINK`` attributes and the
    sub-relations that hold any, each projected alike; ``None`` when it
    holds none.  What navigation decodes of a stored object, whatever the
    model; :func:`repro.nf2.values.links_of` collects them."""
    subs = tuple(sub for sub in map(links, schema.subrelations) if sub is not None)
    names = tuple(attr.name for attr in schema.attributes if attr.type is AttributeType.LINK)
    return Projection(schema, names, subs) if names or subs else None


def int_attr(name: str) -> Attribute:
    """Shorthand for a 4-byte INT attribute."""
    return Attribute(name, AttributeType.INT)


def str_attr(name: str, size: int = 100) -> Attribute:
    """Shorthand for a fixed-size STR attribute (default 100 bytes)."""
    return Attribute(name, AttributeType.STR, size)


def link_attr(name: str) -> Attribute:
    """Shorthand for a 4-byte LINK (object reference) attribute."""
    return Attribute(name, AttributeType.LINK)
