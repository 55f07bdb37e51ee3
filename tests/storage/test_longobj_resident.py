"""Differential oracle for the long-object read path.

``LongObjectStore.read`` answers a resident object with one
``fix_many``/``unfix_many`` and skips the directory decode when its memo
equals the root frame's bytes.  Neither shortcut may be visible below
the store: this suite runs the same script of stores, reads, deletes and
snapshot restores on two twin engines — one reading through the store,
one through :func:`reference_read`, today's two-call path with the
directory decoded from the page bytes every time — and requires equal
sections, an equal :class:`MetricsSnapshot`, and the same fixed-page
(``tests.conftest.log_fixes``), ``policy.on_access`` and eviction
sequences after every step.
"""

from __future__ import annotations

import random
import struct

import pytest

from repro.errors import InvalidAddressError
from repro.fault.backend import FaultyBackend
from repro.fault.plan import FaultPlan
from repro.models.dsm import SECTION_ROOT
from repro.nf2.serializer import DASDBS_FORMAT
from repro.storage import StorageEngine
from repro.storage.backends import MemoryBackend
from repro.storage.buffer import LRUPolicy
from repro.storage.constants import PAGE_HEADER_SIZE
from repro.storage.longobj import LongObjectAddress, LongObjectStore
from tests.conftest import log_fixes

PAGE = 512
PAYLOAD = PAGE - PAGE_HEADER_SIZE
BACKENDS = ("memory", "file", "mmap")

#: The Station's sub-relation sections, in schema order after the root's.
SECTION_PLATFORMS, SECTION_SIGHTSEEINGS = 1, 2

#: (fixed sections, copied sections) as the models issue them — DSM
#: fixes everything and copies one section, DASDBS-DSM fixes the root
#: (+ Platform) pages — plus the copy = fixed and default forms.
READS = (
    (None, None),
    (None, (SECTION_ROOT,)),
    (None, (SECTION_PLATFORMS,)),
    ([SECTION_ROOT], None),
    ([SECTION_ROOT], (SECTION_ROOT,)),
    ([SECTION_ROOT, SECTION_PLATFORMS], (SECTION_PLATFORMS,)),
    ([SECTION_ROOT, SECTION_PLATFORMS], (SECTION_ROOT, SECTION_PLATFORMS)),
    ([SECTION_SIGHTSEEINGS, SECTION_ROOT], (SECTION_ROOT,)),
)


def reference_read(store, address, section_ids=None, copy=None):
    """Two calls, no memo: fix the header pages, decode the directory
    from their bytes, unfix; then fix, copy and unfix the data pages."""
    buffer = store.buffer
    header_ids = address.header_page_ids
    frames = buffer.fix_many(header_ids)
    try:
        blob = b"".join(bytes(frames[pid][PAGE_HEADER_SIZE:]) for pid in header_ids)
        magic, n_sections, n_data, _ = struct.unpack_from("<HHII", blob)
        if magic != 0x0B1E:
            raise InvalidAddressError("not an object directory")
        entries = struct.unpack_from(f"<{n_data + 2 * n_sections}I", blob, 12)
    finally:
        buffer.unfix_many(header_ids)
    data_ids = entries[:n_data]
    offsets, lengths = entries[n_data::2], entries[n_data + 1 :: 2]
    fixed = list(range(n_sections)) if section_ids is None else list(section_ids)
    for sid in fixed:
        if not 0 <= sid < n_sections:
            raise InvalidAddressError(f"object has no section {sid}")
        # A torn directory's section may run past the data pages: a
        # subset read refuses it before any data page is fixed.
        if section_ids is not None and lengths[sid] and offsets[sid] + lengths[sid] > n_data * PAYLOAD:
            raise InvalidAddressError(f"section {sid} runs past the data pages")
    for sid in copy or ():
        if sid not in fixed:
            raise InvalidAddressError(f"section {sid} is copied but not fixed")

    def page_span(sid):
        if not lengths[sid]:
            return range(0)
        return range(offsets[sid] // PAYLOAD, (offsets[sid] + lengths[sid] - 1) // PAYLOAD + 1)

    if section_ids is None:
        needed = list(data_ids)  # DSM: every data page, whatever the sections say
    else:
        needed = [data_ids[i] for i in sorted({i for sid in fixed for i in page_span(sid)})]
    frames = buffer.fix_many(needed)
    try:
        out = []
        for sid in fixed if copy is None else copy:
            span = page_span(sid)
            pages = b"".join(bytes(frames[data_ids[i]][PAGE_HEADER_SIZE:]) for i in span)
            start = offsets[sid] - span.start * PAYLOAD
            out.append(pages[start : start + lengths[sid]])
        return out
    finally:
        buffer.unfix_many(needed)


class LoggedLRU(LRUPolicy):
    """LRU that logs every access and eviction into ``events``."""

    def __init__(self, events):
        super().__init__()
        self.events = events

    def on_access(self, page_id):
        self.events.append(("access", page_id))
        super().on_access(page_id)

    def on_evict(self, page_id):
        self.events.append(("evict", page_id))
        super().on_evict(page_id)


class Twin:
    """One engine + store whose every observable event is logged."""

    def __init__(self, capacity, backend, path, reference, plan=None):
        if plan is not None:
            backend = FaultyBackend(MemoryBackend(PAGE), plan)
        self.events: list[tuple[str, int]] = []
        #: Every page fixed, in request order (see ``log_fixes``).
        self.fixes: list[int] = []
        self.engine = StorageEngine(
            page_size=PAGE,
            buffer_pages=capacity,
            policy=LoggedLRU(self.events),
            backend=backend,
            backend_path=path,
        )
        self.reference = reference
        self.store = LongObjectStore(self.engine.new_segment("objects"), DASDBS_FORMAT)
        self.fix_many_calls = 0
        self.clones = 0
        self._observe(self.engine.buffer)

    def _observe(self, buffer):
        log_fixes(buffer, self.fixes.append)
        fix_many = buffer.fix_many

        def counted(page_ids):
            self.fix_many_calls += 1
            return fix_many(page_ids)

        buffer.fix_many = counted

    def read(self, address, section_ids=None, copy=None):
        """The read's sections, or the type of the error it raised."""
        try:
            if self.reference:
                return reference_read(self.store, address, section_ids, copy)
            return self.store.read(address, section_ids, copy)
        except Exception as exc:  # compared, not swallowed
            return type(exc)

    def state(self):
        return self.engine.metrics.snapshot(), list(self.events), list(self.fixes)

    def snapshot(self):
        return self.engine.snapshot(), self.store.capture_state()

    def restore(self, snap):
        """Rewind to ``snap`` in place, on a fresh store (a snapshot
        clone's shape: the disk image plus the captured store state)."""
        disk, state = snap
        self.engine.restore(disk)
        self.events.clear()
        self.fixes.clear()
        self.clones += 1
        segment = self.engine.new_segment(f"clone-{self.clones}")
        self.store = LongObjectStore(segment, DASDBS_FORMAT)
        self.store.restore_state(state)

    def close(self):
        self.engine.close()


@pytest.fixture
def twins(tmp_path):
    made = []

    def make(capacity, backend="memory", plan_seed=None, **faults):
        pair = []
        for side in ("fast", "reference"):
            plan = None if plan_seed is None else FaultPlan(seed=plan_seed, **faults)
            path = tmp_path / side / f"{len(made)}.pages"
            path.parent.mkdir(exist_ok=True)
            pair.append(Twin(capacity, backend, str(path), side == "reference", plan))
        made.extend(pair)
        return pair

    yield make
    for twin in made:
        twin.close()


def both(pair, action):
    """Run ``action`` on both twins; assert the results and logs agree."""
    results = [action(twin) for twin in pair]
    assert results[0] == results[1]
    assert pair[0].state() == pair[1].state()
    return results[0]


def random_sections(rng):
    return [bytes(rng.randrange(256) for _ in range(rng.randrange(0, 900))) for _ in range(3)]


def store_objects(pair, rng, count):
    objects = []
    for _ in range(count):
        sections = random_sections(rng)
        n_subtuples = rng.choice((1, 13, 60, 200))  # one to several header pages
        address = both(pair, lambda twin: twin.store.store(sections, n_subtuples))
        objects.append((address, sections))
    return objects


def expected(sections, section_ids, copy):
    chosen = copy if copy is not None else section_ids
    return [sections[sid] for sid in (range(3) if chosen is None else chosen)]


def replay_reads(pair, objects, rng, n_reads):
    for _ in range(n_reads):
        address, sections = rng.choice(objects)
        section_ids, copy = rng.choice(READS)
        got = both(pair, lambda twin: twin.read(address, section_ids, copy))
        assert got == expected(sections, section_ids, copy)


def object_pages(pair, address):
    headers, data = pair[0].store.pages_of(address)
    return headers + data


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("capacity", ["all", "one"])
def test_reads_match_the_two_call_reference(twins, backend, capacity):
    rng = random.Random(f"{backend}-{capacity}")
    probe = twins(4096, backend)
    objects = store_objects(probe, rng, 12)
    largest = max(object_pages(probe, address) for address, _ in objects)
    pair = twins(4096 if capacity == "all" else largest, backend)
    rng = random.Random(f"{backend}-{capacity}")
    objects = store_objects(pair, rng, 12)
    pair[0].engine.flush(), pair[1].engine.flush()
    replay_reads(pair, objects, rng, 150)
    both(pair, lambda twin: twin.engine.buffer.clear())
    replay_reads(pair, objects, rng, 150)
    # The fast side really took the one-call path on resident objects.
    assert pair[0].fix_many_calls < pair[1].fix_many_calls


@pytest.mark.parametrize("backend", BACKENDS)
def test_directory_past_the_root_page_is_never_memoised(twins, backend):
    pair = twins(4096, backend)
    sections = [b"r" * 50, b"p" * 200 * PAYLOAD, b"s" * 100]
    address = both(pair, lambda twin: twin.store.store(sections, 1))
    assert len(address.header_page_ids) > 1
    assert pair[0].store.read_directory(address).encoded == b""
    pair[1].store.read_directory(address)
    pair[0].fix_many_calls = pair[1].fix_many_calls = 0
    for section_ids, copy in READS:
        assert both(pair, lambda twin: twin.read(address, section_ids, copy)) == expected(
            sections, section_ids, copy
        )
    assert pair[0].fix_many_calls == pair[1].fix_many_calls == 2 * len(READS)


@pytest.mark.parametrize("backend", BACKENDS)
def test_reads_after_snapshot_restore(twins, backend):
    rng = random.Random(backend)
    pair = twins(64, backend)
    objects = store_objects(pair, rng, 6)
    replay_reads(pair, objects, rng, 40)
    snap = [twin.snapshot() for twin in pair]
    both(pair, lambda twin: twin.store.delete(objects[0][0]))
    replay_reads(pair, objects[1:], rng, 40)
    for twin, taken in zip(pair, snap):
        twin.restore(taken)
    # The clone starts with the captured memo; the byte check is what
    # makes that safe, and every read must still match the reference.
    assert objects[0][0].root_page_id in pair[0].store._directories
    replay_reads(pair, objects, rng, 80)


@pytest.mark.parametrize("backend", BACKENDS)
def test_delete_then_reuse_of_the_root_page(twins, backend):
    rng = random.Random(backend)
    pair = twins(64, backend)
    store_objects(pair, rng, 3)
    snap = [twin.snapshot() for twin in pair]
    (victim, sections), = store_objects(pair, rng, 1)
    both(pair, lambda twin: twin.read(victim))
    both(pair, lambda twin: twin.store.delete(victim))
    assert victim.root_page_id not in pair[0].store._directories
    assert both(pair, lambda twin: twin.read(victim)) is InvalidAddressError

    # Rewind to before the victim: page ids are handed out again, so
    # the next object gets the victim's root page.
    for twin, taken in zip(pair, snap):
        twin.restore(taken)
    (reused, new_sections), = store_objects(pair, rng, 1)
    assert reused.root_page_id == victim.root_page_id
    for section_ids, copy in READS:
        assert both(pair, lambda twin: twin.read(reused, section_ids, copy)) == expected(
            new_sections, section_ids, copy
        )


class TestErrorPathsKeepTodaysCounters:
    """Each error takes the two-call path: same type, same fixes."""

    @pytest.mark.parametrize("resident", [True, False])
    def test_out_of_range_section(self, twins, resident):
        pair = twins(64)
        (address, _), = store_objects(pair, random.Random(1), 1)
        if not resident:
            both(pair, lambda twin: twin.engine.buffer.clear())
        for section_ids, copy in (([7], None), ([0, 3], None), ([0], (1,)), (None, (5,))):
            assert both(pair, lambda twin: twin.read(address, section_ids, copy)) is InvalidAddressError

    def test_resident_root_overwritten(self, twins):
        pair = twins(64)
        (address, _), = store_objects(pair, random.Random(2), 1)

        def clobber(twin):
            buffer = twin.engine.buffer
            buffer.fix(address.root_page_id)
            buffer.page_data(address.root_page_id)[PAGE_HEADER_SIZE] ^= 0xFF
            buffer.unfix(address.root_page_id, dirty=True)

        both(pair, clobber)
        assert both(pair, lambda twin: twin.read(address)) is InvalidAddressError

    def test_dropped_header_write(self, twins):
        pair = twins(64, plan_seed=5, drop=1.0)
        (address, _), = store_objects(pair, random.Random(3), 1)
        for twin in pair:
            twin.engine.disk.backend.plan.arm()
        both(pair, lambda twin: twin.engine.flush())
        for twin in pair:
            twin.engine.disk.backend.plan.disarm()
        both(pair, lambda twin: twin.engine.buffer.reset())
        assert both(pair, lambda twin: twin.read(address)) is InvalidAddressError

    @pytest.mark.parametrize("seed", range(6))
    def test_torn_writes(self, twins, seed):
        pair = twins(64, plan_seed=seed, torn=1.0)
        objects = store_objects(pair, random.Random(seed), 3)
        for twin in pair:
            twin.engine.disk.backend.plan.arm()
        both(pair, lambda twin: twin.engine.flush())
        for twin in pair:
            twin.engine.disk.backend.plan.disarm()
        both(pair, lambda twin: twin.engine.buffer.reset())
        for address, _ in objects:
            for section_ids, copy in READS:
                both(pair, lambda twin: twin.read(address, section_ids, copy))

    def test_section_past_the_data_pages(self, twins):
        """A torn section length is refused by a subset read after the
        header fixes and before any data page is fixed."""
        pair = twins(64)
        (address, _), = store_objects(pair, random.Random(5), 1)
        data_pages = set(both(pair, lambda twin: twin.store.read_directory(address).data_page_ids))

        def tear(twin):
            buffer = twin.engine.buffer
            buffer.fix(address.root_page_id)
            frame = buffer.page_data(address.root_page_id)
            # section 0's length: after the 12-byte header, the page ids
            # and section 0's offset
            struct.pack_into("<I", frame, PAGE_HEADER_SIZE + 12 + 4 * len(data_pages) + 4, 2**31)
            buffer.unfix(address.root_page_id, dirty=True)

        both(pair, tear)
        for section_ids, copy in READS:
            if section_ids is None or SECTION_ROOT not in section_ids:
                continue
            for twin in pair:
                twin.events.clear()
                twin.fixes.clear()
            assert both(pair, lambda twin: twin.read(address, section_ids, copy)) is InvalidAddressError
            fixed = set(pair[0].fixes)
            assert fixed == set(address.header_page_ids)
            assert not fixed & data_pages

    def test_non_directory_root(self, twins):
        pair = twins(64)
        store_objects(pair, random.Random(4), 2)
        raw = both(pair, lambda twin: twin.store.segment.allocate_page())
        both(pair, lambda twin: twin.engine.buffer.unfix(raw, dirty=True))
        for resident in (True, False):
            if not resident:
                both(pair, lambda twin: twin.engine.buffer.clear())
            assert both(pair, lambda twin: twin.read(LongObjectAddress((raw,)))) is InvalidAddressError


def test_residency_and_peek_touch_nothing(twins):
    pair = twins(8)
    (address, _), = store_objects(pair, random.Random(6), 1)
    twin = pair[0]
    buffer = twin.engine.buffer
    before = (twin.state(), list(buffer.policy.victims()), twin.fix_many_calls)
    for pid in [*address.header_page_ids, 10_000]:
        buffer.is_resident(pid)
        buffer.peek(pid)
    assert buffer.peek(10_000) is None
    assert bytes(buffer.peek(address.root_page_id)[PAGE_HEADER_SIZE:][:2]) == b"\x1e\x0b"
    assert (twin.state(), list(buffer.policy.victims()), twin.fix_many_calls) == before
    assert buffer.fixed_pages() == []
