"""Differential oracle: ``BufferManager`` against a naive reference.

``ReferenceBuffer`` below is the buffer's *specification* written the
slow way: a dict of frames, page at a time, every image copied on the
way in and on the way out, no hit fast path, no all-resident path, no
buffer adoption, no shared write-back helper.  Seeded random streams of
every entry point the rewritten page path serves are replayed on both,
each over its own disk, and after **every** step the two must agree on
the counters, the resident set, the fix counts, the eviction sequence
and the pages each call fixed, in order — and at the end on the disk
image.
"Counters are sacred" as a machine-run check instead of resting on the
goldens alone.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import BufferError_, BufferFullError, InvalidAddressError
from repro.storage.buffer import (
    POLICY_NAMES,
    BufferManager,
    ReplacementPolicy,
    make_policy,
)
from repro.storage.disk import SimulatedDisk
from repro.storage.page import SlottedPage
from tests.conftest import log_fixes

PAGE = 512
CAPACITY = 6
N_PAGES = 20
STEPS = 300
BATCH_MAX = 3


class RecordingPolicy(ReplacementPolicy):
    """Delegate to a real policy, logging the eviction sequence."""

    def __init__(self, name: str) -> None:
        self.inner = make_policy(name)
        self.evicted: list[int] = []

    def on_insert(self, page_id):
        self.inner.on_insert(page_id)

    def on_access(self, page_id):
        self.inner.on_access(page_id)

    def on_remove(self, page_id):
        self.inner.on_remove(page_id)

    def on_evict(self, page_id):
        self.evicted.append(page_id)
        self.inner.on_evict(page_id)

    def bind_capacity(self, capacity):
        self.inner.bind_capacity(capacity)

    def on_clear(self):
        self.inner.on_clear()

    def victims(self):
        return self.inner.victims()


class _RefFrame:
    def __init__(self, data: bytearray) -> None:
        self.data = data
        self.dirty = False
        self.fix_count = 0


class ReferenceBuffer:
    """The buffer manager's semantics, deliberately naive."""

    def __init__(self, disk, capacity, policy, write_batch_max) -> None:
        self.disk = disk
        self.metrics = disk.metrics
        self.capacity = capacity
        self.policy = policy
        self.policy.bind_capacity(capacity)
        self.write_batch_max = write_batch_max
        self.frames: dict[int, _RefFrame] = {}

    # -- helpers ------------------------------------------------------------

    def _fixed(self, page_id):
        frame = self.frames.get(page_id)
        if frame is None:
            raise InvalidAddressError(f"page {page_id} is not resident")
        if frame.fix_count <= 0:
            raise BufferError_(f"page {page_id} is not fixed")
        return frame

    def _count(self, page_id, hit):
        self.metrics.record_fix(hit=hit)
        self.frames[page_id].fix_count += 1

    def _make_room(self, needed):
        if needed > self.capacity:
            raise BufferFullError("request exceeds capacity")
        while len(self.frames) + needed > self.capacity:
            for pid in self.policy.victims():
                frame = self.frames.get(pid)
                if frame is None or frame.fix_count > 0:
                    continue
                if frame.dirty:
                    self.disk.write_pages([(pid, bytes(frame.data))])
                del self.frames[pid]
                self.policy.on_evict(pid)
                self.metrics.record_eviction()
                break
            else:
                raise BufferFullError("no victim")

    # -- the entry points under test ------------------------------------------

    def fix(self, page_id):
        # The class's own fix_many: the instance attribute is observed.
        return type(self).fix_many(self, [page_id])[page_id]

    def fix_many(self, page_ids):
        missing = []
        for pid in page_ids:
            if pid not in self.frames and pid not in missing:
                missing.append(pid)
        pinned = [pid for pid in page_ids if pid in self.frames]
        for pid in pinned:
            self.frames[pid].fix_count += 1
        try:
            if missing:
                self._make_room(len(missing))
                for pid, image in zip(missing, self.disk.read_pages(missing)):
                    self.frames[pid] = _RefFrame(bytearray(bytes(image)))
                    self.policy.on_insert(pid)
        finally:
            for pid in pinned:
                self.frames[pid].fix_count -= 1
        out = {}
        for pid in page_ids:
            if pid in missing:
                missing.remove(pid)
                self._count(pid, hit=False)
            else:
                self.policy.on_access(pid)
                self._count(pid, hit=True)
            out[pid] = self.frames[pid].data
        return out

    def fix_views(self, page_ids):
        frames = self.fix_many(page_ids)
        return {pid: SlottedPage(data, len(data)) for pid, data in frames.items()}

    def unfix(self, page_id, dirty=False):
        frame = self._fixed(page_id)
        frame.fix_count -= 1
        frame.dirty = frame.dirty or dirty

    def unfix_many(self, page_ids, dirty=False):
        for pid in page_ids:
            self.unfix(pid, dirty)

    def new_page(self, page_id):
        if page_id in self.frames:
            raise BufferError_("already resident")
        self._make_room(1)
        frame = self.frames[page_id] = _RefFrame(bytearray(self.disk.page_size))
        frame.dirty = True
        self.policy.on_insert(page_id)
        self._count(page_id, hit=False)
        return frame.data

    def page_data(self, page_id):
        return self._fixed(page_id).data

    def write_through(self, page_id):
        frame = self.frames.get(page_id)
        if frame is None:
            raise InvalidAddressError(f"page {page_id} is not resident")
        self.disk.write_pages([(page_id, bytes(frame.data))])
        frame.dirty = False

    def flush(self):
        batch: list[int] = []
        for pid in sorted(pid for pid, frame in self.frames.items() if frame.dirty):
            if batch and (pid != batch[-1] + 1 or len(batch) == self.write_batch_max):
                self._write_batch(batch)
                batch = []
            batch.append(pid)
        if batch:
            self._write_batch(batch)

    def _write_batch(self, batch):
        self.disk.write_pages([(pid, bytes(self.frames[pid].data)) for pid in batch])
        for pid in batch:
            self.frames[pid].dirty = False

    def clear(self):
        if any(frame.fix_count > 0 for frame in self.frames.values()):
            raise BufferError_("pages are fixed")
        self.flush()
        for pid in list(self.frames):
            self.policy.on_remove(pid)
        self.frames.clear()
        self.policy.on_clear()

    # -- what the oracle compares ------------------------------------------------

    def fix_counts(self):
        return {pid: frame.fix_count for pid, frame in self.frames.items()}


def _real_fix_counts(buffer: BufferManager):
    return {pid: frame.fix_count for pid, frame in buffer._frames.items()}


class Side:
    """One buffer under test plus everything observed about it."""

    def __init__(self, kind: str, policy: str, backend: str, tmp_path) -> None:
        path = None if backend == "memory" else str(tmp_path / f"{kind}.pages")
        self.disk = SimulatedDisk(page_size=PAGE, backend=backend, backend_path=path)
        self.policy = RecordingPolicy(policy)
        if kind == "real":
            self.buffer = BufferManager(
                self.disk, CAPACITY, self.policy, write_batch_max=BATCH_MAX
            )
            self.fix_counts = lambda: _real_fix_counts(self.buffer)
        else:
            self.buffer = ReferenceBuffer(self.disk, CAPACITY, self.policy, BATCH_MAX)
            self.fix_counts = self.buffer.fix_counts
        log_fixes(self.buffer, self._saw)
        self.seen: list[tuple[int, int, int]] = []
        # Every page starts as a formatted slotted page with a record,
        # so the batch-views entry point has something honest to decode.
        for pid in self.disk.allocate_many(N_PAGES):
            data = bytearray(PAGE)
            SlottedPage(data, PAGE).insert(b"page-%03d" % pid)
            self.disk.write_pages([(pid, data)])
        self.disk.metrics.reset()

    def _saw(self, page_id: int) -> None:
        metrics = self.disk.metrics
        self.seen.append((page_id, metrics.page_fixes, metrics.buffer_misses))

    def state(self):
        return (
            self.disk.metrics.snapshot(),
            self.fix_counts(),
            self.policy.evicted,
            self.seen,
        )


def _attempt(side: Side, method: str, *args):
    """Run one entry point; the outcome is its bytes or its error type."""
    try:
        result = getattr(side.buffer, method)(*args)
    except (BufferError_, InvalidAddressError) as exc:
        return type(exc)
    if isinstance(result, dict):
        return {
            pid: value.records() if isinstance(value, SlottedPage) else bytes(value)
            for pid, value in result.items()
        }
    return None if result is None else bytes(result)


def _request(rng: random.Random, resident: list[int], absent: list[int]) -> list[int]:
    """One ``fix_many`` request: every shape the single-pass path sorts."""
    shape = rng.choice(["hit", "hit-dups", "miss", "mixed", "dups", "capacity", "empty"])
    if shape == "hit" and resident:
        return rng.sample(resident, rng.randint(1, min(4, len(resident))))
    if shape == "hit-dups" and resident:
        return [rng.choice(resident) for _ in range(5)]
    if shape == "miss" and absent:
        return rng.sample(absent, rng.randint(1, min(4, len(absent))))
    if shape == "dups":
        base = rng.sample(resident, min(2, len(resident))) + rng.sample(absent, 2)
        return [rng.choice(base) for _ in range(7)]
    if shape == "capacity":
        return rng.sample(resident + absent, CAPACITY)
    if shape == "empty":
        return []
    return rng.sample(resident + absent, rng.randint(2, 5))


@pytest.mark.parametrize("backend", ["memory", "file", "mmap"])
@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("seed", [11, 12])
def test_buffer_matches_naive_reference(policy, backend, seed, tmp_path):
    real = Side("real", policy, backend, tmp_path)
    ref = Side("ref", policy, backend, tmp_path)
    sides = (real, ref)
    rng = random.Random(f"{policy}-{backend}-{seed}")
    held: list[int] = []  # one entry per outstanding fix
    n_pages = N_PAGES

    def both(method, *args):
        got, want = (_attempt(side, method, *args) for side in sides)
        assert got == want, (method, args)
        assert real.state() == ref.state(), (method, args)
        return got

    try:
        for _ in range(STEPS):
            resident = sorted(real.fix_counts())
            absent = [pid for pid in range(n_pages) if pid not in resident]
            op = rng.choice(
                ["fix", "fix", "fix_many", "fix_many", "fix_views", "unfix", "unfix",
                 "unfix_many", "mutate", "new_page", "write_through", "flush", "clear"]
            )  # fmt: skip
            if len(set(held)) > CAPACITY - 3:
                op = "unfix_many"  # keep frames free, or nothing but errors happens
            if op == "fix":
                pid = rng.randrange(n_pages)
                if isinstance(both("fix", pid), bytes):
                    held.append(pid)
            elif op in ("fix_many", "fix_views"):
                request = _request(rng, resident, absent)
                if len(request) == CAPACITY:
                    # Request = capacity only fits with every frame free.
                    both("unfix_many", held)
                    held = []
                if isinstance(both(op, request), dict):
                    held.extend(request)
            elif op == "unfix" and held:
                pid = held.pop(rng.randrange(len(held)))
                both("unfix", pid, rng.random() < 0.5)
            elif op == "unfix_many" and held:
                rng.shuffle(held)
                count = rng.randint(1, min(4, len(held)))
                batch, held = held[:count], held[count:]
                both("unfix_many", batch, rng.random() < 0.5)
            elif op == "mutate" and held:
                pid, at, value = rng.choice(held), rng.randrange(64, 400), rng.randrange(256)
                for side in sides:
                    side.buffer.page_data(pid)[at] = value
                held.remove(pid)
                both("unfix", pid, True)
            elif op == "new_page":
                pids = {side.disk.allocate() for side in sides}
                assert pids == {n_pages}
                n_pages += 1
                if isinstance(both("new_page", n_pages - 1), bytes):
                    held.append(n_pages - 1)
            elif op == "write_through" and resident:
                both("write_through", rng.choice(resident))
            elif op == "flush":
                both("flush")
            elif op == "clear":
                both("clear")  # raises on both sides while anything is fixed
            # Releasing a page nobody holds must fail alike, too.
            stray = rng.randrange(n_pages)
            if stray not in held:
                assert both("unfix_many", [stray]) in (BufferError_, InvalidAddressError)
        both("unfix_many", held)
        both("flush")
        assert real.disk.snapshot() == ref.disk.snapshot()
        assert real.policy.evicted, "the stream never evicted: the oracle saw nothing"
    finally:
        for side in sides:
            side.disk.close()
