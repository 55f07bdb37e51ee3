"""The codec compiler: generated code, its edge cases, its cache scope.

Byte parity with the reference and random-schema round trips live in
``test_serializer_parity.py`` and ``tests/fuzz/test_serializer_fuzz.py``
(which also run every projection against its oracle); this file pins
what is particular to *generated* decoders: degenerate levels, batched
leaf sub-relations whose stored count lies, projections that must not
touch what they drop, the process-wide plan cache, and legible source.
"""

from __future__ import annotations

import mmap
import pickle
import struct
import traceback

import pytest

from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.generator import generate_stations
from repro.benchmark.schema import (
    CONNECTION_SCHEMA,
    PLATFORM_SCHEMA,
    SIGHTSEEING_SCHEMA,
    STATION_SCHEMA,
)
from repro.errors import SchemaError, SerializationError
from repro.models.registry import create_model
from repro.nf2.codec import compiled_plan
from repro.nf2.schema import Projection, RelationSchema, int_attr, str_attr
from repro.nf2.serializer import DASDBS_FORMAT, NF2Serializer, StorageFormat
from repro.nf2.values import NestedTuple
from repro.storage import StorageEngine

from tests.nf2.reference_serializer import ReferenceNF2Serializer

ser = NF2Serializer()
reference = ReferenceNF2Serializer()

LEAF = RelationSchema.flat("Leaf", int_attr("v"), str_attr("s", 6))
MID = RelationSchema("Mid", (int_attr("m"),), (LEAF,))
TOP = RelationSchema("Top", (int_attr("t"), str_attr("name", 8)), (MID, LEAF))

F = DASDBS_FORMAT
LEAF_SIZE = F.flat_size(LEAF)
MID_SIZE = F.flat_size(MID)
TOP_SIZE = F.flat_size(TOP)


def leaf(v=0, s=""):
    return NestedTuple(LEAF, {"v": v, "s": s})


def mid(m=0, leaves=()):
    return NestedTuple(MID, {"m": m}, {"Leaf": list(leaves)})


def top(t=0, name="", mids=(), leaves=()):
    return NestedTuple(
        TOP, {"t": t, "name": name}, {"Mid": list(mids), "Leaf": list(leaves)}
    )


def _stations(n=3, seed=3):
    return generate_stations(BenchmarkConfig(n_objects=n, seed=seed))


def _set_count(blob: bytes, at: int, count: int) -> bytes:
    return blob[:at] + struct.pack("<I", count) + blob[at + 4 :]


def _slot(schema: RelationSchema, name: str, fmt: StorageFormat = F) -> int:
    """Offset of attribute ``name`` inside the flat part of ``schema``."""
    at = fmt.tuple_header + fmt.attr_overhead * len(schema.attributes)
    for attr in schema.attributes:
        if attr.name == name:
            return at
        at += attr.size
    raise AssertionError(name)


class TestDegenerateLevels:
    def test_zero_attribute_level(self):
        """A level of sub-relations only: no unpack target at all."""
        only = RelationSchema("Only", (), (LEAF,))
        outer = RelationSchema("Outer", (), (only,))
        value = NestedTuple(
            outer,
            {},
            {
                "Only": [
                    NestedTuple(only, {}, {"Leaf": [leaf(1, "a"), leaf(2, "b")]}),
                    NestedTuple(only, {}, {"Leaf": []}),
                ]
            },
        )
        blob = ser.encode_nested(value)
        assert blob == reference.encode_nested(value)
        assert ser.decode_nested(outer, blob) == value
        assert ser.decode_flat(outer, ser.encode_flat(value)) == NestedTuple(outer, {})
        assert ser._decode_flat_part(outer, blob, 0) == ({}, F.flat_size(outer))
        with pytest.raises(SerializationError, match="too small"):
            ser.decode_flat(outer, blob[: F.flat_size(outer) - 1])
        with pytest.raises(SerializationError, match="too small"):
            ser.decode_nested(outer, blob[: F.flat_size(outer) + 3])

    def test_single_attribute_levels(self):
        """One attribute per level: the targets are 1-tuples."""
        one_leaf = RelationSchema.flat("One", str_attr("only", 4))
        holder = RelationSchema("Holder", (int_attr("k"),), (one_leaf,))
        value = NestedTuple(
            holder,
            {"k": 7},
            {"One": [NestedTuple(one_leaf, {"only": text}) for text in ("a", "", "wxyz")]},
        )
        blob = ser.encode_nested(value)
        assert blob == reference.encode_nested(value)
        assert ser.decode_nested(holder, blob) == value
        listed = ser.encode_subtuple_list(one_leaf, value.subtuples("One"))
        assert ser.decode_subtuple_list(one_leaf, listed) == value.subtuples("One")

    def test_three_deep_with_empty_instances(self):
        """A 0-count nested loop, a 0-count leaf batch, and both filled."""
        value = top(
            1,
            "root",
            mids=[mid(1, []), mid(2, [leaf(1, "x"), leaf(2, "y")]), mid(3, [])],
            leaves=[],
        )
        for case in (value, top(2, "", mids=[], leaves=[leaf(9, "z")]), top()):
            blob = ser.encode_nested(case)
            assert blob == reference.encode_nested(case)
            assert len(blob) == F.nested_size(case)
            assert ser.decode_nested(TOP, blob) == case
            assert ser.decode_nested(TOP, b"\xab" * 5 + blob, 5) == case

    def test_more_than_255_attributes_is_a_typed_error(self):
        wide = RelationSchema.flat("Wide", *(int_attr(f"a{i}") for i in range(256)))
        value = NestedTuple(wide, {f"a{i}": i for i in range(256)})
        with pytest.raises(SerializationError, match="255"):
            ser.encode_flat(value)


class TestLyingCounts:
    """``iter_unpack`` over a slice clamps; the decoder must not."""

    value = top(1, "n", mids=[mid(1, [leaf(1, "a"), leaf(2, "b")])], leaves=[leaf(3, "c")])
    blob = ser.encode_nested(value)
    mid_count_at = TOP_SIZE
    inner_leaf_count_at = TOP_SIZE + F.subrel_overhead + MID_SIZE
    outer_leaf_count_at = inner_leaf_count_at + F.subrel_overhead + 2 * LEAF_SIZE

    def test_the_offsets_are_the_counts(self):
        for at, count in (
            (self.mid_count_at, 1),
            (self.inner_leaf_count_at, 2),
            (self.outer_leaf_count_at, 1),
        ):
            assert struct.unpack_from("<I", self.blob, at) == (count,)

    @pytest.mark.parametrize("count", [2, 3, 1000, 2**31, 2**32 - 1])
    def test_leaf_batch_count_exceeds_buffer(self, count):
        """The last sub-relation: nothing but the buffer's end follows."""
        lying = _set_count(self.blob, self.outer_leaf_count_at, count)
        with pytest.raises(SerializationError, match="too small"):
            ser.decode_nested(TOP, lying)

    def test_leaf_batch_clamped_to_a_whole_number_of_rows(self):
        """Exactly k < count rows left: ``iter_unpack`` raises nothing."""
        listed = ser.encode_subtuple_list(LEAF, [leaf(1, "a"), leaf(2, "b")])
        lying = _set_count(listed, 0, 3)
        assert (len(lying) - F.subrel_overhead) % LEAF_SIZE == 0
        with pytest.raises(SerializationError, match="too small"):
            ser.decode_subtuple_list(LEAF, lying)
        with pytest.raises(SerializationError, match="too small"):
            ser.decode_subtuple_list(LEAF, _set_count(listed, 0, 2**31))

    @pytest.mark.parametrize("count", [2, 50, 2**31])
    def test_nested_loop_count_exceeds_buffer(self, count):
        lying = _set_count(self.blob, self.mid_count_at, count)
        with pytest.raises(SerializationError, match="too small"):
            ser.decode_nested(TOP, lying)
        listed = ser.encode_subtuple_list(MID, self.value.subtuples("Mid"))
        with pytest.raises(SerializationError, match="too small"):
            ser.decode_subtuple_list(MID, _set_count(listed, 0, count))

    def test_smaller_count_is_believed(self):
        """A count is data: a smaller one decodes fewer rows (as the
        reference does), it is only never allowed to exceed the buffer."""
        listed = ser.encode_subtuple_list(LEAF, [leaf(1, "a"), leaf(2, "b")])
        shorter = _set_count(listed, 0, 1)
        assert ser.decode_subtuple_list(LEAF, shorter) == [leaf(1, "a")]
        assert reference.decode_subtuple_list(LEAF, shorter) == [leaf(1, "a")]


class TestInputs:
    def test_trailing_garbage_ignored(self):
        value = top(1, "n", mids=[mid(1, [leaf(1, "a")])], leaves=[leaf(3, "c")])
        blob = ser.encode_nested(value) + b"\xff" * 37
        assert ser.decode_nested(TOP, blob) == value
        listed = ser.encode_subtuple_list(LEAF, [leaf(1, "a")]) + b"\xff" * LEAF_SIZE
        assert ser.decode_subtuple_list(LEAF, listed) == [leaf(1, "a")]
        flat = ser.encode_flat(value) + b"\xff"
        assert ser.decode_flat(TOP, flat) == top(1, "n")

    def test_every_buffer_type_decodes_equal(self, tmp_path):
        station = _stations(1)[0]
        blob = ser.encode_nested(station)
        listed = ser.encode_subtuple_list(PLATFORM_SCHEMA, station.subtuples("Platform"))
        path = tmp_path / "frame"
        path.write_bytes(b"\0" * 16 + blob + listed)
        with open(path, "rb") as handle:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        frame = memoryview(mapped)
        try:
            assert frame.readonly
            nested = frame[16 : 16 + len(blob)]
            for data in (blob, bytearray(blob), memoryview(blob), nested):
                assert ser.decode_nested(STATION_SCHEMA, data) == station
                assert ser._decode_flat_part(STATION_SCHEMA, data, 0)[0] == station.atoms()
                assert ser.decode_atom(STATION_SCHEMA, data, "Name") == station["Name"]
            assert ser.decode_nested(STATION_SCHEMA, frame, 16) == station
            for data in (listed, bytearray(listed), memoryview(listed)):
                assert ser.decode_subtuple_list(PLATFORM_SCHEMA, data) == (
                    station.subtuples("Platform")
                )
            assert ser.decode_subtuple_list(
                PLATFORM_SCHEMA, frame, 16 + len(blob)
            ) == station.subtuples("Platform")
            del nested
        finally:
            frame.release()
            mapped.close()


# -- projections -----------------------------------------------------------------

#: Keeps strings at two levels, drops strings at two levels, passes over
#: nothing (Platform is the first sub-relation) and stops before
#: Sightseeing.
NAMES = Projection(
    STATION_SCHEMA,
    ("Key", "Name"),
    (
        Projection(
            PLATFORM_SCHEMA,
            ("PlatformNr",),
            (Projection(CONNECTION_SCHEMA, ("DepartureTimes",)),),
        ),
    ),
)
#: Passes over a non-leaf sub-relation (Platform) to reach a leaf one.
SIGHTS = Projection(
    STATION_SCHEMA, ("Key",), (Projection(SIGHTSEEING_SCHEMA, ("SeeingNr", "Remarks")),)
)


class TestProjection:
    def test_derived_schema(self):
        assert NAMES.schema.name == "Station"
        assert [attr.name for attr in NAMES.schema.attributes] == ["Key", "Name"]
        assert [sub.name for sub in NAMES.schema.subrelations] == ["Platform"]
        assert NAMES.schema.attribute("Name") == STATION_SCHEMA.attribute("Name")
        # Stored order, whatever order the caller wrote.
        swapped = Projection(STATION_SCHEMA, ("Name", "Key"))
        assert swapped.schema == Projection(STATION_SCHEMA, ("Key", "Name")).schema

    def test_refusals(self):
        with pytest.raises(SchemaError, match="no atomic attribute"):
            Projection(STATION_SCHEMA, ("Nope",))
        with pytest.raises(SchemaError, match="repeats an attribute"):
            Projection(STATION_SCHEMA, ("Key", "Key"))
        with pytest.raises(SchemaError, match="no sub-relation"):
            Projection(STATION_SCHEMA, ("Key",), (Projection(CONNECTION_SCHEMA, ("LineNr",)),))
        with pytest.raises(SchemaError, match="repeats a sub-relation"):
            sub = Projection(SIGHTSEEING_SCHEMA, ("SeeingNr",))
            Projection(STATION_SCHEMA, (), (sub, sub))
        impostor = RelationSchema.flat("Sightseeing", int_attr("SeeingNr"))
        with pytest.raises(SchemaError, match="another schema"):
            Projection(STATION_SCHEMA, (), (Projection(impostor, ("SeeingNr",)),))
        with pytest.raises(SchemaError, match="no attributes at all"):
            Projection(STATION_SCHEMA)

    @pytest.mark.parametrize("projection", [NAMES, SIGHTS], ids=["names", "sights"])
    def test_equals_projected_full_decode(self, projection):
        for station in _stations(6):
            blob = ser.encode_nested(station)
            decoded = ser.decode_nested(projection, blob)
            assert decoded == station.project(projection)
            assert decoded.schema == projection.schema
            flat = ser.decode_flat(projection, blob)
            assert flat.atoms() == decoded.atoms()
            assert ser._decode_flat_part(projection, blob, 0) == (
                decoded.atoms(),
                F.flat_size(STATION_SCHEMA),
            )

    def test_nested_projection_walks_to_the_true_end(self):
        """Inside a list a projected tuple must pass over what it drops,
        or its sibling would be decoded from the wrong offset."""
        stations = _stations(5)
        listed = ser.encode_subtuple_list(STATION_SCHEMA, stations)
        for projection in (NAMES, SIGHTS):
            assert ser.decode_subtuple_list(projection, listed) == [
                station.project(projection) for station in stations
            ]

    def test_corruption_in_dropped_bytes_is_not_seen(self):
        station = next(s for s in _stations(8) if s.subtuples("Sightseeing"))
        blob = bytearray(ser.encode_nested(station))
        # Dropped by SIGHTS: the Station's Name, and all of Platform.
        blob[_slot(STATION_SCHEMA, "Name")] = 0xFF
        blob[F.flat_size(STATION_SCHEMA) + F.subrel_overhead + _slot(
            PLATFORM_SCHEMA, "Information"
        )] = 0xFF
        with pytest.raises(SerializationError, match="corrupt string"):
            ser.decode_nested(STATION_SCHEMA, bytes(blob))
        assert ser.decode_nested(SIGHTS, bytes(blob)) == station.project(SIGHTS)
        assert ser.decode_atom(SIGHTS, bytes(blob), "Key") == station["Key"]

    def test_corruption_in_kept_bytes_raises(self):
        station = next(s for s in _stations(8) if s.subtuples("Sightseeing"))
        blob = bytearray(ser.encode_nested(station))
        blob[_slot(STATION_SCHEMA, "Name")] = 0xFF
        with pytest.raises(SerializationError, match="corrupt string"):
            ser.decode_nested(NAMES, bytes(blob))
        with pytest.raises(SerializationError, match="corrupt string"):
            ser.decode_flat(NAMES, bytes(blob))
        with pytest.raises(SerializationError, match="corrupt string"):
            ser.decode_atom(NAMES, bytes(blob), "Name")
        # The last kept string of SIGHTS: Remarks of the last Sightseeing.
        blob = bytearray(ser.encode_nested(station))
        blob[len(blob) - SIGHTSEEING_SCHEMA.attribute("Remarks").size] = 0xFF
        with pytest.raises(SerializationError, match="corrupt string"):
            ser.decode_nested(SIGHTS, bytes(blob))

    def test_truncation_and_lying_counts_still_typed(self):
        station = next(s for s in _stations(8) if s.subtuples("Sightseeing"))
        blob = ser.encode_nested(station)
        with pytest.raises(SerializationError, match="too small"):
            ser.decode_nested(SIGHTS, blob[:-1])
        with pytest.raises(SerializationError, match="too small"):
            ser.decode_nested(NAMES, blob[: F.flat_size(STATION_SCHEMA) + 2])
        platforms_at = F.flat_size(STATION_SCHEMA)
        for projection in (NAMES, SIGHTS):  # decoded by one, passed over by the other
            with pytest.raises(SerializationError, match="too small"):
                ser.decode_nested(projection, _set_count(blob, platforms_at, 2**31))

    def test_stops_after_the_last_wanted_subrelation(self):
        """NAMES never reads Sightseeing: its bytes may be missing."""
        station = next(s for s in _stations(8) if s.subtuples("Sightseeing"))
        blob = ser.encode_nested(station)
        sights = ser.encode_subtuple_list(SIGHTSEEING_SCHEMA, station.subtuples("Sightseeing"))
        assert blob.endswith(sights)
        assert ser.decode_nested(NAMES, blob[: -len(sights)]) == station.project(NAMES)

    def test_dropped_attribute_is_no_atom(self):
        blob = ser.encode_nested(_stations(1)[0])
        with pytest.raises(SerializationError, match="no atomic attribute"):
            ser.decode_atom(SIGHTS, blob, "Name")

    def test_projections_only_decode(self):
        with pytest.raises(SerializationError, match="only decodes"):
            ser.encode_subtuple_list(SIGHTS, [])
        # A projected tuple is an ordinary tuple of the derived schema
        # and encodes as one.
        projected = _stations(1)[0].project(SIGHTS)
        assert ser.decode_nested(SIGHTS.schema, ser.encode_nested(projected)) == projected


# -- the cache ---------------------------------------------------------------------


class TestCacheScope:
    """Plans are compiled once per process, not once per serializer."""

    @staticmethod
    def _misses() -> int:
        return compiled_plan.cache_info().misses

    def test_two_serializers_compile_once(self):
        compiled_plan.cache_clear()
        station = _stations(1)[0]
        first, second = NF2Serializer(DASDBS_FORMAT), NF2Serializer(DASDBS_FORMAT)
        first.decode_nested(STATION_SCHEMA, first.encode_nested(station))
        assert self._misses() == 4  # Station, Platform, Connection, Sightseeing
        second.decode_nested(STATION_SCHEMA, second.encode_nested(station))
        assert self._misses() == 4
        assert second._plans[id(STATION_SCHEMA)] is first._plans[id(STATION_SCHEMA)]

    def test_formats_do_not_share(self):
        compiled_plan.cache_clear()
        station = _stations(1)[0]
        other = StorageFormat(tuple_header=13, attr_overhead=3, subrel_overhead=5)
        default, lopsided = NF2Serializer(DASDBS_FORMAT), NF2Serializer(other)
        blob = default.encode_nested(station)
        assert self._misses() == 4
        assert lopsided.encode_nested(station) == ReferenceNF2Serializer(other).encode_nested(
            station
        )
        assert self._misses() == 8
        assert lopsided._plans[id(STATION_SCHEMA)] is not default._plans[id(STATION_SCHEMA)]
        assert lopsided.decode_nested(STATION_SCHEMA, lopsided.encode_nested(station)) == station
        assert default.decode_nested(STATION_SCHEMA, blob) == station

    def test_equal_twin_schema_shares_the_plan_and_is_pinned(self):
        def twin():
            return RelationSchema.flat("Twin", int_attr("x"))

        one, two = twin(), twin()
        local = NF2Serializer()
        before = self._misses()
        local.encode_flat(NestedTuple(one, {"x": 1}))
        local.encode_flat(NestedTuple(two, {"x": 2}))
        assert self._misses() == before + 1
        # id(two) keys the hot lookup, so the serializer keeps `two` alive.
        assert any(pinned is two for pinned in local._pinned)

    @staticmethod
    def _exercise(model, stations):
        model.load(stations)
        refs = model.all_refs()
        model.fetch_full(refs[0])
        model.fetch_full_by_key(stations[1]["Key"])
        model.fetch_roots(refs[:2])
        model.fetch_refs(refs[:2])
        model.update_roots(refs[:1], {"NoSeeing": 5})
        model.scan_all()

    def test_second_model_compiles_nothing(self):
        stations = _stations(4)
        self._exercise(create_model("DASDBS-NSM", StorageEngine(buffer_pages=64)), stations)
        before = self._misses()
        self._exercise(create_model("DASDBS-NSM", StorageEngine(buffer_pages=64)), stations)
        assert self._misses() == before

    def test_snapshot_state_pickles_with_compiled_plans_alive(self):
        """Nothing generated reaches a pickled snapshot."""
        stations = _stations(4)
        for name in ("DSM", "NSM+index", "DASDBS-NSM"):
            model = create_model(name, StorageEngine(buffer_pages=64))
            self._exercise(model, stations)
            assert compiled_plan.cache_info().currsize  # compiled code is live
            model.engine.flush()
            state = pickle.loads(pickle.dumps(model.capture_state()))
            engine = StorageEngine(buffer_pages=64)
            engine.disk.restore(model.engine.snapshot())
            clone = create_model(name, engine)
            clone.restore_state(state)
            for ref in clone.all_refs():
                assert clone.fetch_full(ref) == model.fetch_full(ref)

    def test_cache_is_bounded(self):
        assert compiled_plan.cache_info().maxsize is not None


# -- legibility ------------------------------------------------------------------------


class TestGeneratedSource:
    def test_source_is_kept_and_names_only_the_schema(self):
        plan = compiled_plan(DASDBS_FORMAT, STATION_SCHEMA)
        assert "def decode(data, pos):" in plan.source
        assert "'Name': v3.rstrip" in plan.source
        assert plan.filename.startswith("<nf2 codec Station #")
        compile(plan.source, plan.filename, "exec")  # stands on its own as Python

    def test_traceback_names_the_schemas_pseudo_file(self):
        station = _stations(1)[0]
        blob = bytearray(ser.encode_nested(station))
        blob[_slot(STATION_SCHEMA, "Name")] = 0xFF
        plan = compiled_plan(DASDBS_FORMAT, STATION_SCHEMA)
        with pytest.raises(UnicodeDecodeError) as raised:
            plan.decode(memoryview(bytes(blob)), 0)
        frames = traceback.extract_tb(raised.value.__traceback__)
        generated = frames[-1]
        assert generated.filename == plan.filename
        assert generated.name == "decode"
        # linecache serves the real line, not an empty string.
        assert generated.line == plan.source.splitlines()[generated.lineno - 1].strip()
        assert "'Name'" in generated.line

    def test_keywords_and_hyphens_are_only_ever_quoted(self):
        """``isidentifier`` admits keywords, relation names admit '-':
        neither may be used as a generated identifier."""
        odd_leaf = RelationSchema.flat("sub-relation", int_attr("class"), str_attr("for", 4))
        odd = RelationSchema("with-hyphen", (int_attr("def"), int_attr("None")), (odd_leaf,))
        value = NestedTuple(
            odd,
            {"def": 1, "None": 2},
            {"sub-relation": [NestedTuple(odd_leaf, {"class": 3, "for": "in"})]},
        )
        blob = ser.encode_nested(value)
        assert blob == reference.encode_nested(value)
        assert ser.decode_nested(odd, blob) == value
        drop = Projection(odd, ("None",), (Projection(odd_leaf, ("for",)),))
        assert ser.decode_nested(drop, blob) == value.project(drop)
