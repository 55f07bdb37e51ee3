"""Serializer fuzz: plan-based NF² codec vs the naive reference oracle.

``tests/nf2/test_serializer_parity.py`` pins the two implementations on
moderate random schemas; this suite is the *adversarial* layer: deeper
nesting, attribute-less relation levels, multibyte strings that brush
against their fixed byte widths, extreme format paddings, and
corruption probes.  The reference implementation is the specification —
any byte of disagreement is a bug in the plan compiler.

Seeds are fixed and extendable via ``REPRO_FUZZ_SEEDS`` (see
``conftest``); a failing test id names the seed to reproduce with.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import SerializationError
from repro.models import dasdbs_dsm, dasdbs_nsm, dsm, nsm
from repro.nf2.schema import (
    Attribute,
    AttributeType,
    Projection,
    RelationSchema,
    int_attr,
    link_attr,
    str_attr,
)
from repro.nf2.serializer import DASDBS_FORMAT, NF2Serializer, StorageFormat
from repro.nf2.values import NestedTuple

from tests.nf2.reference_serializer import ReferenceNF2Serializer

#: Characters of 1-3 encoded UTF-8 bytes: the generator controls the
#: *byte* length of a string, which is what the fixed widths bound.
ALPHABET = "ab-XYZ09 _é¥λ€"


def _random_format(rng: random.Random) -> StorageFormat:
    return StorageFormat(
        tuple_header=rng.choice((8, 13, 20, 40)),
        attr_overhead=rng.choice((2, 3, 6)),
        subrel_overhead=rng.choice((4, 5, 12)),
    )


def _random_string(rng: random.Random, byte_budget: int) -> str:
    """A string whose UTF-8 encoding fits ``byte_budget`` bytes.

    Often lands *exactly* on the budget — the boundary the fixed-width
    padding must survive.
    """
    target = byte_budget if rng.random() < 0.3 else rng.randint(0, byte_budget)
    out = []
    used = 0
    while used < target:
        char = rng.choice(ALPHABET)
        width = len(char.encode("utf-8"))
        if used + width > target:
            break
        out.append(char)
        used += width
    return "".join(out)


def _random_schema(rng: random.Random, depth: int, name: str) -> RelationSchema:
    attributes: list[Attribute] = []
    for index in range(rng.randint(0, 5)):
        kind = rng.choice(("int", "str", "link"))
        attr_name = f"{name}_a{index}"
        if kind == "int":
            attributes.append(int_attr(attr_name))
        elif kind == "link":
            attributes.append(link_attr(attr_name))
        else:
            attributes.append(str_attr(attr_name, size=rng.choice((1, 3, 5, 20, 100))))
    subrelations = []
    if depth > 1:
        for index in range(rng.randint(0, 3)):
            subrelations.append(_random_schema(rng, depth - 1, f"{name}_s{index}"))
    if not attributes and not subrelations:
        # A relation needs *something*; flip a coin between the two
        # degenerate shapes (atoms only / subrelations only).
        if depth > 1 and rng.random() < 0.5:
            subrelations.append(_random_schema(rng, depth - 1, f"{name}_only"))
        else:
            attributes.append(int_attr(f"{name}_pad"))
    return RelationSchema(
        name=name, attributes=tuple(attributes), subrelations=tuple(subrelations)
    )


def _random_tuple(rng: random.Random, schema: RelationSchema, fanout: int) -> NestedTuple:
    atoms = {}
    for attr in schema.attributes:
        if attr.type in (AttributeType.INT, AttributeType.LINK):
            atoms[attr.name] = rng.choice(
                (0, -1, 1, -(2**31), 2**31 - 1, rng.randint(-(2**31), 2**31 - 1))
            )
        else:
            atoms[attr.name] = _random_string(rng, attr.size)
    subs = {
        sub.name: [
            _random_tuple(rng, sub, fanout) for _ in range(rng.randint(0, fanout))
        ]
        for sub in schema.subrelations
    }
    return NestedTuple(schema, atoms, subs)


def test_deep_schema_round_trip_parity(fuzz_seed):
    """Depth-4 random schemas: byte parity + exact size accounting."""
    rng = random.Random(fuzz_seed)
    for case in range(8):
        fmt = _random_format(rng)
        fast = NF2Serializer(fmt)
        reference = ReferenceNF2Serializer(fmt)
        schema = _random_schema(rng, depth=rng.randint(1, 4), name=f"D{case}")
        value = _random_tuple(rng, schema, fanout=3)

        blob = fast.encode_nested(value)
        assert blob == reference.encode_nested(value)
        assert len(blob) == fmt.nested_size(value)
        assert fast.decode_nested(schema, blob) == value
        assert reference.decode_nested(schema, blob) == value

        flat = fast.encode_flat(value)
        assert flat == reference.encode_flat(value)
        assert fast.decode_flat(schema, flat) == reference.decode_flat(schema, flat)
        for attr in schema.attributes:
            assert fast.decode_atom(schema, flat, attr.name) == reference.decode_atom(
                schema, flat, attr.name
            )


def test_boundary_strings_survive_padding(fuzz_seed):
    """Strings at exactly their byte width round-trip unharmed."""
    rng = random.Random(fuzz_seed * 31 + 7)
    schema = RelationSchema.flat(
        "Tight", str_attr("s1", size=1), str_attr("s3", size=3), str_attr("s9", size=9)
    )
    fast = NF2Serializer()
    reference = ReferenceNF2Serializer()
    for _ in range(50):
        value = NestedTuple(
            schema,
            {
                "s1": _random_string(rng, 1),
                "s3": _random_string(rng, 3),
                "s9": _random_string(rng, 9),
            },
        )
        blob = fast.encode_flat(value)
        assert blob == reference.encode_flat(value)
        assert fast.decode_flat(schema, blob) == value


def test_subtuple_lists_parity(fuzz_seed):
    rng = random.Random(fuzz_seed ^ 0xBEEF)
    for case in range(6):
        fmt = _random_format(rng)
        fast = NF2Serializer(fmt)
        reference = ReferenceNF2Serializer(fmt)
        schema = _random_schema(rng, depth=rng.randint(1, 3), name=f"L{case}")
        children = [
            _random_tuple(rng, schema, fanout=2) for _ in range(rng.randint(0, 6))
        ]
        blob = fast.encode_subtuple_list(schema, children)
        assert blob == reference.encode_subtuple_list(schema, children)
        assert (
            fast.decode_subtuple_list(schema, blob)
            == reference.decode_subtuple_list(schema, blob)
            == children
        )


def test_truncated_blobs_raise_not_misdecode(fuzz_seed):
    """Both codecs reject truncations identically: an error, never junk.

    (Truncating inside the fixed-width atom area can still yield a
    structurally valid prefix for the reference decoder, so only cuts
    into the length-prefixed header are probed.)
    """
    rng = random.Random(fuzz_seed + 5)
    fast = NF2Serializer()
    reference = ReferenceNF2Serializer()
    schema = _random_schema(rng, depth=2, name="T")
    value = _random_tuple(rng, schema, fanout=2)
    blob = fast.encode_nested(value)
    for cut in (0, 1, min(3, len(blob) - 1)):
        truncated = blob[:cut]
        with pytest.raises(SerializationError):
            fast.decode_nested(schema, truncated)
        with pytest.raises(SerializationError):
            reference.decode_nested(schema, truncated)


def test_embedded_nul_is_kept_like_the_reference_keeps_it(fuzz_seed):
    """Only *trailing* NULs are padding.  A fix-up that cuts at the
    first NUL would be faster and wrong; this pins value parity on
    strings with a NUL inside (and documents that a trailing one is
    indistinguishable from padding in both codecs)."""
    rng = random.Random(fuzz_seed + 11)
    leaf = RelationSchema.flat("Nul", str_attr("s", 12), int_attr("i"), str_attr("t", 5))
    holder = RelationSchema("NulHolder", (str_attr("h", 7),), (leaf,))
    fast = NF2Serializer()
    reference = ReferenceNF2Serializer()

    def with_nul(budget: int) -> str:
        text = _random_string(rng, budget - 2)
        cut = rng.randint(0, len(text))
        return text[:cut] + "\0" + text[cut:] + rng.choice(("x", "\0", ""))

    for _ in range(20):
        children = [
            NestedTuple(leaf, {"s": with_nul(12), "i": rng.randint(-9, 9), "t": with_nul(5)})
            for _ in range(rng.randint(1, 4))
        ]
        value = NestedTuple(holder, {"h": with_nul(7)}, {"Nul": children})
        blob = fast.encode_nested(value)
        assert blob == reference.encode_nested(value)
        decoded = fast.decode_nested(holder, blob)
        assert decoded == reference.decode_nested(holder, blob)
        assert decoded["h"] == value["h"].rstrip("\0")
        section = fast.encode_subtuple_list(leaf, children)
        assert fast.decode_subtuple_list(leaf, section) == reference.decode_subtuple_list(
            leaf, section
        )
        flat = fast.encode_flat(value)
        assert fast.decode_flat(holder, flat) == reference.decode_flat(holder, flat)
        assert fast.decode_atom(holder, flat, "h") == reference.decode_atom(holder, flat, "h")


# -- projections: a projected decode equals the projected full decode ----------------

def _reachable(name: str, projection: Projection):
    """``projection`` and its sub-projections, which a model decodes on
    their own too (a long object's sections, one sub-relation each)."""
    yield name, projection
    for sub in projection.subrelations:
        yield from _reachable(f"{name}.{sub.stored.name}", sub)


#: Every projection a storage model reads through.
MODEL_PROJECTIONS = [
    reachable
    for module in (dsm, dasdbs_dsm, nsm, dasdbs_nsm)
    for name, value in sorted(vars(module).items())
    if isinstance(value, Projection)
    for reachable in _reachable(f"{module.__name__.rsplit('.', 1)[-1]}.{name}", value)
]


def test_the_models_projections_are_found():
    names = {name for name, _ in MODEL_PROJECTIONS}
    assert {
        "dsm._STATION_LINKS",
        "dsm._STATION_LINKS.Platform",
        "nsm._CONNECTION_PAIR",
        "dasdbs_nsm._LINKS",
    } <= names


def _check_projection(rng, fast, projection, fanout):
    """``project(full decode) == projected decode`` at every entry point."""
    stored = projection.stored
    values = [_random_tuple(rng, stored, fanout) for _ in range(rng.randint(1, 3))]
    for value in values:
        blob = fast.encode_nested(value)
        expected = fast.decode_nested(stored, blob).project(projection)
        assert expected == value.project(projection)
        decoded = fast.decode_nested(projection, blob)
        assert decoded == expected
        assert decoded.schema == projection.schema
        flat = fast.decode_flat(projection, blob)
        assert flat.atoms() == expected.atoms()
        assert fast._decode_flat_part(projection, blob, 0) == (
            expected.atoms(),
            fast.format.flat_size(stored),
        )
        for attr in projection.schema.attributes:
            assert fast.decode_atom(projection, blob, attr.name) == expected[attr.name]
    # In a list every projected tuple must end where the stored one does.
    section = fast.encode_subtuple_list(stored, values)
    assert fast.decode_subtuple_list(projection, section) == [
        value.project(projection) for value in values
    ]
    padded = b"\xee" * 3 + section
    assert fast.decode_subtuple_list(projection, padded, 3) == [
        value.project(projection) for value in values
    ]


@pytest.mark.parametrize(
    "projection", [p for _, p in MODEL_PROJECTIONS], ids=[n for n, _ in MODEL_PROJECTIONS]
)
def test_model_projections_equal_projected_full_decode(fuzz_seed, projection):
    rng = random.Random(fuzz_seed * 7 + 3)
    for fmt in (DASDBS_FORMAT, _random_format(rng), _random_format(rng)):
        _check_projection(rng, NF2Serializer(fmt), projection, fanout=4)


def _random_projection(rng: random.Random, schema: RelationSchema) -> Projection | None:
    """A random projection of ``schema``; ``None`` if it kept nothing."""
    attributes = tuple(
        attr.name for attr in schema.attributes if rng.random() < 0.5
    )
    subrelations = tuple(
        projection
        for projection in (
            _random_projection(rng, sub) for sub in schema.subrelations if rng.random() < 0.6
        )
        if projection is not None
    )
    if not attributes and not subrelations:
        return None
    return Projection(schema, attributes, subrelations)


def test_random_projections_equal_projected_full_decode(fuzz_seed):
    """Random schemas, random projections: dropped attributes anywhere,
    sub-relations passed over before a wanted one (flat and nested),
    levels that keep no attribute at all."""
    rng = random.Random(fuzz_seed * 13 + 1)
    checked = 0
    while checked < 12:
        schema = _random_schema(rng, depth=rng.randint(1, 4), name=f"P{checked}")
        projection = _random_projection(rng, schema)
        if projection is None:
            continue
        _check_projection(rng, NF2Serializer(_random_format(rng)), projection, fanout=3)
        checked += 1


def test_default_format_matches_calibrated_constants():
    """The fuzz formats vary the knobs; the default must stay pinned to
    the paper calibration the golden metrics depend on."""
    assert DASDBS_FORMAT.tuple_header == NF2Serializer().format.tuple_header
    assert ReferenceNF2Serializer().format == DASDBS_FORMAT
