"""Buffer manager: fixed-capacity page cache with fix/unfix accounting.

Models the DASDBS page buffer as used in the paper's measurements:

* capacity of 1200 pages (Section 5.1: "a buffer of 1200 pages"),
* every logical page access is a *fix* (Table 6 counts page fixes as
  "an indicator of the CPU load"),
* a miss loads the page from disk; several misses requested together
  (:meth:`BufferManager.fix_many`) are loaded in **one** I/O call, the
  way DASDBS transfers the data pages of one object together,
* dirty pages are written back when evicted, and in batches of
  contiguous pages on :meth:`flush` — the paper: "pages are written to
  the database relations only then if either the query execution has
  been finished (database disconnect) or the page buffer overflows"
  (Section 5.2),
* replacement policy is pluggable (LRU default; FIFO/CLOCK/random for
  the ablation experiments, LRU-K and 2Q for the buffer-sensitivity
  sweeps),
* what a run asks of the buffer can be recorded once as a
  :class:`ReferenceString` and replayed through buffers of any
  capacity and policy (the sweeps' buffer axes).
"""

from __future__ import annotations

import random
import threading
import weakref
from array import array
from collections import OrderedDict, deque
from itertools import islice
from typing import Iterable, Iterator, Sequence

from repro.errors import (
    BufferError_,
    BufferFullError,
    InvalidAddressError,
    LatchError,
    StorageFaultError,
)
from repro.storage.backends import contiguous_runs
from repro.storage.constants import DEFAULT_BUFFER_PAGES, WRITE_BATCH_MAX
from repro.storage.disk import SimulatedDisk
from repro.storage.page import SlottedPage, page_is_intact, seal_page


class _Frame:
    """One buffer frame: page bytes plus a cached decoded view.

    ``view`` caches the :class:`SlottedPage` wrapper over ``data`` so
    repeated record accesses to a resident page decode the header once
    per residency, not once per access.  ``gen`` is the frame's data
    generation: raw-buffer accessors that may mutate ``data`` behind the
    view's back (``page_data``) bump it, and ``view_gen`` marks the
    generation the cached view was built at — a mismatch invalidates
    the cache.  Mutations *through* the cached view keep its header
    cache coherent by construction, so they do not bump the generation.

    ``owners`` is the session-latch ledger: ``None`` on the
    single-session fast path (no allocation, no bookkeeping), and a
    ``{session_id: fix_count}`` dict once a session fixes the frame
    through the latched API.  Session fixes are counted *inside*
    ``fix_count`` (one total, attributed per holder), so eviction
    protection needs no second check.
    """

    __slots__ = (
        "data",
        "dirty",
        "fix_count",
        "referenced",
        "gen",
        "view",
        "view_gen",
        "owners",
    )

    def __init__(self, data: bytearray) -> None:
        self.data = data
        self.dirty = False
        self.fix_count = 0
        self.referenced = True
        self.gen = 0
        self.view = None
        self.view_gen = -1
        self.owners = None

    def adopt(self, data: bytearray) -> None:
        """Land a copy-on-write materialisation (see ``zero_copy``).

        The cached view just swapped itself onto a private ``bytearray``
        copy of the frame's read-only mapping slice; the frame follows.
        No generation bump: the view performing the copy *is* the cached
        view, and its header cache stays coherent by construction.
        """
        self.data = data


class ReplacementPolicy:
    """Strategy interface for victim selection.

    :meth:`victims` iterators are **lazy**: they walk the policy's
    internal structures without copying them.  The buffer manager's
    eviction loop may therefore skip candidates (fixed pages) freely,
    but must stop consuming the iterator once it removes the chosen
    victim — which its "remove one, then return" pattern guarantees.
    """

    __slots__ = ()

    name = "abstract"

    def on_insert(self, page_id: int) -> None:
        raise NotImplementedError

    def on_access(self, page_id: int) -> None:
        raise NotImplementedError

    def on_remove(self, page_id: int) -> None:
        raise NotImplementedError

    def on_evict(self, page_id: int) -> None:
        """Removal caused by replacement (vs. discard/clear).

        Policies that keep history about evicted pages (2Q's ghost
        queue) hook this.  The default treats evictions like any other
        removal; the built-in policies without such history alias
        ``on_evict = on_remove`` instead, so an eviction costs one call,
        not two.
        """
        self.on_remove(page_id)

    def bind_capacity(self, capacity: int) -> None:
        """Tell the policy its buffer's frame count.

        Called once by :class:`BufferManager`; policies that size
        internal queues relative to the buffer (2Q) override this.
        """

    def on_clear(self) -> None:
        """The buffer was emptied (cold restart).

        Called by :meth:`BufferManager.clear` after every frame's
        :meth:`on_remove`.  Policies that retain history about
        non-resident pages (2Q's ghost queue) must forget it here, so a
        cold restart is genuinely cold.
        """

    def victims(self) -> Iterable[int]:
        """Candidate victims, best first."""
        raise NotImplementedError


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used replacement (the DASDBS-like default)."""

    __slots__ = ("_order",)

    name = "lru"

    def __init__(self) -> None:
        self._order: OrderedDict[int, None] = OrderedDict()

    def on_insert(self, page_id: int) -> None:
        self._order[page_id] = None

    def on_access(self, page_id: int) -> None:
        self._order.move_to_end(page_id)

    def on_remove(self, page_id: int) -> None:
        self._order.pop(page_id, None)

    on_evict = on_remove

    def victims(self) -> Iterable[int]:
        # Lazy walk in recency order; no O(n) copy per eviction.
        return iter(self._order)


class FIFOPolicy(ReplacementPolicy):
    """First-in-first-out replacement (ablation)."""

    __slots__ = ("_order",)

    name = "fifo"

    def __init__(self) -> None:
        self._order: OrderedDict[int, None] = OrderedDict()

    def on_insert(self, page_id: int) -> None:
        self._order[page_id] = None

    def on_access(self, page_id: int) -> None:
        pass

    def on_remove(self, page_id: int) -> None:
        self._order.pop(page_id, None)

    on_evict = on_remove

    def victims(self) -> Iterable[int]:
        return iter(self._order)


class ClockPolicy(ReplacementPolicy):
    """Second-chance (CLOCK) replacement (ablation)."""

    __slots__ = ("_ring",)

    name = "clock"

    def __init__(self) -> None:
        self._ring: OrderedDict[int, bool] = OrderedDict()

    def on_insert(self, page_id: int) -> None:
        self._ring[page_id] = True

    def on_access(self, page_id: int) -> None:
        if page_id in self._ring:
            self._ring[page_id] = True

    def on_remove(self, page_id: int) -> None:
        self._ring.pop(page_id, None)

    on_evict = on_remove

    def victims(self) -> Iterable[int]:
        # Sweep: clear reference bits until an unreferenced page is found.
        for _ in range(2 * len(self._ring) + 1):
            if not self._ring:
                return
            page_id, referenced = next(iter(self._ring.items()))
            self._ring.move_to_end(page_id)
            if referenced:
                self._ring[page_id] = False
            else:
                yield page_id
        yield from list(self._ring)


class RandomPolicy(ReplacementPolicy):
    """Uniform random replacement (ablation); seeded for determinism.

    Resident pages live in a list with an index map so that insert,
    remove (swap with the last element) and victim choice are all O(1);
    one eviction draws one random index instead of sorting and
    shuffling the whole page set.
    """

    __slots__ = ("_rng", "_pages", "_slots")

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._pages: list[int] = []
        self._slots: dict[int, int] = {}

    def on_insert(self, page_id: int) -> None:
        if page_id in self._slots:
            return
        self._slots[page_id] = len(self._pages)
        self._pages.append(page_id)

    def on_access(self, page_id: int) -> None:
        pass

    def on_remove(self, page_id: int) -> None:
        slot = self._slots.pop(page_id, None)
        if slot is None:
            return
        last = self._pages.pop()
        if last != page_id:
            self._pages[slot] = last
            self._slots[last] = slot

    on_evict = on_remove

    def victims(self) -> Iterable[int]:
        # Bounded random probing (skipped candidates are fixed pages),
        # then a deterministic pass over what is left so exhaustion —
        # every frame fixed — terminates.
        pages = self._pages
        for _ in range(2 * len(pages) + 1):
            if not pages:
                return
            yield pages[self._rng.randrange(len(pages))]
        yield from list(pages)


class LRUKPolicy(ReplacementPolicy):
    """LRU-K replacement (O'Neil, O'Neil & Weikum, SIGMOD 1993).

    Evicts the page whose K-th most recent reference lies furthest in
    the past.  Pages referenced fewer than K times have infinite
    backward K-distance and are evicted first (least recently used
    among themselves), which shields pages with established reference
    history from one-shot scans — the property the sensitivity sweeps
    probe.  Default K=2 (LRU-2).  History is dropped on eviction (no
    retained-information period), keeping the policy memoryless across
    buffer restarts.
    """

    __slots__ = ("_k", "_clock", "_history")

    name = "lru-k"

    def __init__(self, k: int = 2) -> None:
        if k < 1:
            raise BufferError_("lru-k requires k >= 1")
        self._k = k
        self._clock = 0
        self._history: dict[int, deque[int]] = {}

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def on_insert(self, page_id: int) -> None:
        self._history[page_id] = deque([self._tick()], maxlen=self._k)

    def on_access(self, page_id: int) -> None:
        history = self._history.get(page_id)
        if history is not None:
            history.append(self._tick())

    def on_remove(self, page_id: int) -> None:
        self._history.pop(page_id, None)

    on_evict = on_remove

    def _distance_key(self, page_id: int) -> tuple[int, int]:
        history = self._history[page_id]
        if len(history) < self._k:
            # Infinite K-distance: evict first, LRU among them.
            return (0, history[-1])
        # history[0] is the K-th most recent reference time.
        return (1, history[0])

    def victims(self) -> Iterable[int]:
        # Lazy min-selection: the common eviction consumes exactly one
        # candidate at O(n), not an O(n log n) sort of every history;
        # further candidates (the first ones were fixed) rescan what
        # remains.
        remaining = set(self._history)
        while remaining:
            best = min(remaining, key=self._distance_key)
            yield best
            remaining.discard(best)


class TwoQPolicy(ReplacementPolicy):
    """Full-2Q replacement (Johnson & Shasha, VLDB 1994), simplified.

    New pages enter the FIFO ``A1in`` probation queue; a page evicted
    out of ``A1in`` leaves its id in the ``A1out`` ghost queue; a
    re-reference to a ghost admits the page into the LRU-managed hot
    queue ``Am``.  Accesses while still in ``A1in`` are treated as
    correlated references and do not promote.  Queue bounds are
    fractions of the buffer capacity, fixed via :meth:`bind_capacity`.
    """

    __slots__ = (
        "_a1_fraction",
        "_out_fraction",
        "_a1_max",
        "_out_max",
        "_a1in",
        "_a1out",
        "_am",
    )

    name = "2q"

    def __init__(self, a1_fraction: float = 0.25, out_fraction: float = 0.5) -> None:
        if not 0.0 < a1_fraction < 1.0:
            raise BufferError_("2q a1_fraction must be within (0, 1)")
        if out_fraction <= 0.0:
            raise BufferError_("2q out_fraction must be positive")
        self._a1_fraction = a1_fraction
        self._out_fraction = out_fraction
        self._a1_max = 1
        self._out_max = 1
        self._a1in: OrderedDict[int, None] = OrderedDict()
        self._a1out: OrderedDict[int, None] = OrderedDict()
        self._am: OrderedDict[int, None] = OrderedDict()

    def bind_capacity(self, capacity: int) -> None:
        self._a1_max = max(1, int(capacity * self._a1_fraction))
        self._out_max = max(1, int(capacity * self._out_fraction))

    def on_insert(self, page_id: int) -> None:
        if page_id in self._a1out:
            del self._a1out[page_id]
            self._am[page_id] = None
        else:
            self._a1in[page_id] = None

    def on_access(self, page_id: int) -> None:
        if page_id in self._am:
            self._am.move_to_end(page_id)
        # A1in hits are correlated references: no promotion.

    def on_remove(self, page_id: int) -> None:
        if page_id in self._a1in:
            del self._a1in[page_id]
        else:
            self._am.pop(page_id, None)
        self._a1out.pop(page_id, None)

    def on_evict(self, page_id: int) -> None:
        if page_id in self._a1in:
            del self._a1in[page_id]
            self._a1out[page_id] = None
            while len(self._a1out) > self._out_max:
                self._a1out.popitem(last=False)
        else:
            self._am.pop(page_id, None)

    def on_clear(self) -> None:
        # A cold restart must be cold: without this, ghosts would leak
        # eviction history across queries and promote their pages
        # straight into Am on the first access after the restart.
        self._a1out.clear()

    def victims(self) -> Iterable[int]:
        if len(self._a1in) > self._a1_max:
            yield from iter(self._a1in)
            yield from iter(self._am)
        else:
            yield from iter(self._am)
            yield from iter(self._a1in)


POLICIES = {
    "lru": LRUPolicy,
    "fifo": FIFOPolicy,
    "clock": ClockPolicy,
    "random": RandomPolicy,
    "lru-k": LRUKPolicy,
    "2q": TwoQPolicy,
}

#: Policy names accepted by :func:`make_policy` and ``--policies``.
POLICY_NAMES = tuple(POLICIES)


def make_policy(name: str, **kwargs) -> ReplacementPolicy:
    """Instantiate a replacement policy by name.

    Constructor keyword arguments pass through, so ablations can vary
    e.g. the random-replacement seed: ``make_policy("random", seed=7)``.
    """
    try:
        cls = POLICIES[name]
    except KeyError:
        raise BufferError_(f"unknown replacement policy {name!r}") from None
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise BufferError_(
            f"replacement policy {name!r} rejected arguments {kwargs!r}: {exc}"
        ) from None


class BufferManager:
    """Fixed-capacity page buffer over a :class:`SimulatedDisk`."""

    def __init__(
        self,
        disk: SimulatedDisk,
        capacity: int = DEFAULT_BUFFER_PAGES,
        policy: ReplacementPolicy | str = "lru",
        write_batch_max: int = WRITE_BATCH_MAX,
    ) -> None:
        if capacity < 1:
            raise BufferError_("buffer capacity must be at least one page")
        self.disk = disk
        self.metrics = disk.metrics
        self.capacity = capacity
        self.write_batch_max = write_batch_max
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        self.policy.bind_capacity(capacity)
        self._frames: dict[int, _Frame] = {}
        # Zero-copy backends (mmap) return read-only memoryview slices
        # of their mapping; the miss paths keep those views as frame
        # data instead of copying into a bytearray, and a frame only
        # materialises a private copy when it is first mutated
        # (SlottedPage copy-on-write, ``page_data``, or seal-on-write).
        self._zero_copy = disk.backend.zero_copy
        # Session latching (off by default): ``enable_latching`` arms a
        # re-entrant latch serialising the session_* entry points, so
        # multiple sessions can pin/unpin frames through one manager.
        self._latch: threading.RLock | None = None
        # Bound-method caches for the hit fast path (the policy is fixed
        # for the manager's lifetime; re-resolving two attribute chains
        # per page fix is measurable at sweep scale).
        self._on_access = self.policy.on_access
        self._frames_get = self._frames.get
        # Checksum guards (off by default): containers — in practice
        # slotted-page segments — whose pages are sealed with a CRC on
        # write-back and verified on every miss read.  Only guarded
        # pages participate, so raw long-object pages (arbitrary bytes,
        # no header) are never sealed or misjudged.
        self._checksum_guards: list = []

    # -- checksums --------------------------------------------------------------

    def enable_checksums(self, guard) -> None:
        """Guard a page container (``page_id in guard``) with checksums.

        Guarded pages get their CRC sealed into the header pad on every
        write-back (flush, eviction, write-through) and verified on
        every buffer-miss read; a mismatch raises
        :class:`~repro.errors.StorageFaultError`.  Strictly opt-in: with
        no guard registered neither path changes a byte.
        """
        if guard not in self._checksum_guards:
            self._checksum_guards.append(guard)

    def checksums_enabled_for(self, guard) -> bool:
        return guard in self._checksum_guards

    def _verify_read(self, page_id: int, data: bytes | bytearray) -> None:
        for guard in self._checksum_guards:
            if page_id in guard:
                if not page_is_intact(data):
                    raise StorageFaultError(
                        f"page {page_id} failed checksum verification on read"
                    )
                return

    def _seal_for_write(self, page_id: int, frame: _Frame) -> None:
        for guard in self._checksum_guards:
            if page_id in guard:
                data = frame.data
                if type(data) is not bytearray:
                    # Dirty-but-unmutated zero-copy frame (e.g. a failed
                    # insert unfixed dirty): sealing stamps the CRC, so
                    # materialise a private copy first and invalidate
                    # the cached view, which aliases the old buffer.
                    data = bytearray(data)
                    frame.data = data
                    frame.gen += 1
                seal_page(data)
                return

    # -- introspection ---------------------------------------------------------

    @property
    def resident_pages(self) -> int:
        return len(self._frames)

    def is_resident(self, page_id: int) -> bool:
        return page_id in self._frames

    def peek(self, page_id: int) -> bytearray | memoryview | None:
        """A resident page's bytes without fixing it, or None.

        Touches no metric or policy, and pins nothing: the
        result is for reading *now*, before anything can evict the frame
        or mutate it (``LongObjectStore.read`` compares a directory memo
        against it, then fixes the page the ordinary way).
        """
        frame = self._frames_get(page_id)
        return None if frame is None else frame.data

    def fixed_pages(self) -> list[int]:
        """Pages currently fixed (non-zero fix count)."""
        return [pid for pid, frame in self._frames.items() if frame.fix_count > 0]

    # -- fixing ------------------------------------------------------------------

    def fix(self, page_id: int) -> bytearray:
        """Fix one page, loading it from disk on a miss (one I/O call)."""
        frame = self._frames_get(page_id)
        if frame is not None:
            # Hit fast path: no allocations, the metric increments
            # inlined (equivalent to ``record_fix(hit=True)``).
            self._on_access(page_id)
            metrics = self.metrics
            metrics.page_fixes += 1
            metrics.buffer_hits += 1
            frame.fix_count += 1
            return frame.data
        if len(self._frames) >= self.capacity:
            self._evict_one()  # full, never over-full: one frame short
        frame = self._admit(page_id, self.disk.read_pages((page_id,))[0])
        metrics = self.metrics
        metrics.page_fixes += 1
        metrics.buffer_misses += 1
        frame.fix_count += 1
        return frame.data

    def fix_many(self, page_ids: Sequence[int]) -> dict[int, bytearray]:
        """Fix several pages; all missing ones are read in one I/O call.

        This models DASDBS fetching the set of pages of one object (or
        one section) with a single call.  Duplicate ids are fixed once
        per occurrence (each occurrence must be unfixed).
        """
        # One classification pass: the frame of every requested page,
        # None where it is not resident.
        frames_get = self._frames_get
        hits = [frames_get(pid) for pid in page_ids]
        on_access = self._on_access
        metrics = self.metrics
        out: dict[int, bytearray] = {}
        if None not in hits:
            # All resident: nothing can be evicted, so nothing is pinned.
            for pid, frame in zip(page_ids, hits):
                on_access(pid)
                metrics.page_fixes += 1
                metrics.buffer_hits += 1
                frame.fix_count += 1
                out[pid] = frame.data
            return out
        missing = [pid for pid, frame in zip(page_ids, hits) if frame is None]
        fresh = set(missing)
        if len(fresh) != len(missing):
            # Read each page once, at its first occurrence in the request.
            missing = list(dict.fromkeys(missing))
        # Pin the already-resident requested pages so that making room
        # for the missing ones cannot evict them out from under us.
        pinned = [frame for frame in hits if frame is not None]
        for frame in pinned:
            frame.fix_count += 1
        try:
            self._make_room(len(missing))
            admit = self._admit
            for pid, content in zip(missing, self.disk.read_pages(missing)):
                admit(pid, content)
        finally:
            for frame in pinned:
                frame.fix_count -= 1
        frames = self._frames
        for pid in page_ids:
            frame = frames[pid]
            if pid in fresh:
                fresh.discard(pid)
                metrics.page_fixes += 1
                metrics.buffer_misses += 1
            else:
                on_access(pid)
                metrics.page_fixes += 1
                metrics.buffer_hits += 1
            frame.fix_count += 1
            out[pid] = frame.data
        return out

    def _admit(self, page_id: int, content) -> _Frame:
        """Make one page image ``read_pages`` returned a resident frame.

        A ``bytearray`` is the backend's hand-off of a fresh buffer this
        manager now owns (see :class:`~repro.storage.backends.
        DiskBackend`): it *is* the frame.  An immutable image is copied
        once — or, from a zero-copy backend, kept as it is until the
        frame's first mutation.  Frame buffers are never pooled or
        reused: callers may legitimately still hold views into a frame
        that has since been evicted (``HeapFile.read_many``).
        """
        if type(content) is not bytearray and not self._zero_copy:
            content = bytearray(content)
        if self._checksum_guards:
            self._verify_read(page_id, content)
        frame = _Frame(content)
        self._frames[page_id] = frame
        self.policy.on_insert(page_id)
        return frame

    def new_page(self, page_id: int) -> bytearray:
        """Register a freshly allocated page without a disk read.

        The frame starts dirty (its content exists only in the buffer)
        and fixed once; callers must :meth:`unfix` it when done.
        """
        if page_id in self._frames:
            raise BufferError_(f"page {page_id} is already resident")
        self._make_room(1)
        frame = _Frame(bytearray(self.disk.page_size))
        frame.dirty = True
        frame.fix_count = 1
        self._frames[page_id] = frame
        self.policy.on_insert(page_id)
        self.metrics.record_fix(hit=False)
        return frame.data

    def page_data(self, page_id: int) -> bytearray:
        """Buffer content of a page that is currently fixed.

        Handing out the raw bytearray lets the caller mutate the page
        behind any cached :class:`SlottedPage` view, so the frame's view
        cache is invalidated (generation bump).  Slotted-page code
        should prefer :meth:`fix_view`/:meth:`view_of`.
        """
        frame = self._frames.get(page_id)
        if frame is None:
            raise InvalidAddressError(f"page {page_id} is not resident")
        if frame.fix_count <= 0:
            raise BufferError_(f"page {page_id} is not fixed")
        if type(frame.data) is not bytearray:
            frame.data = bytearray(frame.data)  # copy-on-write materialise
        frame.gen += 1
        return frame.data

    # -- cached slotted views ---------------------------------------------------

    def fix_view(self, page_id: int) -> SlottedPage:
        """Fix a page and return its cached :class:`SlottedPage` view.

        The view is created once per residency (or after a raw
        ``page_data`` access) and reused by every subsequent
        ``fix_view``/``view_of``, so the heap's record operations stop
        paying a header decode + wrapper allocation per access.  Only
        meaningful for slotted pages: creating a view over a raw page
        (e.g. a long-object data page) would *format* it.
        """
        self.fix(page_id)
        return self._view(self._frames[page_id])

    def view_of(self, page_id: int) -> SlottedPage:
        """Cached view of a page that is currently fixed (no new fix)."""
        frame = self._frames.get(page_id)
        if frame is None:
            raise InvalidAddressError(f"page {page_id} is not resident")
        if frame.fix_count <= 0:
            raise BufferError_(f"page {page_id} is not fixed")
        return self._view(frame)

    def fix_views(self, page_ids: Sequence[int]) -> dict[int, SlottedPage]:
        """:meth:`fix_many`, returning each page's cached view.

        The batch form of :meth:`fix_view` for set-oriented record
        access: one fix per occurrence, all misses in one I/O call, one
        cached :class:`SlottedPage` per distinct page.  Release with
        :meth:`unfix_many`.  Slotted pages only (see :meth:`fix_view`).
        """
        self.fix_many(page_ids)
        try:
            frames, view = self._frames, self._view
            return {pid: view(frames[pid]) for pid in page_ids}
        except BaseException:
            self.unfix_many(page_ids)
            raise

    def read_views(self, page_ids: Sequence[int]) -> dict[int, SlottedPage]:
        """Cached views of distinct ``page_ids``, fixed and released again.

        The pages are fixed with :meth:`fix_views` and unfixed at once,
        in chunks of at most ``capacity`` pages: a set larger than the
        buffer cannot be pinned all at once, so it costs one I/O call per
        chunk, the minimum a buffer that small can honestly do.  The
        chunking is the buffer's to decide, because it depends on the
        capacity and nothing else (a recorded reference string replays
        it at every capacity, see :class:`ReferenceString`).  The views
        may point into frames a later chunk evicted: frame buffers are
        never pooled, so they stay valid.
        """
        views: dict[int, SlottedPage] = {}
        for chunk in self.chunks(page_ids):
            views.update(self.fix_views(chunk))
            self.unfix_many(chunk)
        return views

    def chunks(self, page_ids: Sequence[int]) -> Iterator[Sequence[int]]:
        """``page_ids`` cut into runs of at most ``capacity`` pages."""
        capacity = self.capacity
        for start in range(0, len(page_ids), capacity):
            yield page_ids[start : start + capacity]

    def _view(self, frame: _Frame) -> SlottedPage:
        view = frame.view
        if view is None or frame.view_gen != frame.gen:
            data = frame.data
            if type(data) is bytearray:
                view = SlottedPage(data, self.disk.page_size)
            else:
                # Zero-copy frame: the view reads the mapping slice in
                # place and lands its copy-on-write materialisation back
                # on the frame when (if ever) it is mutated.
                view = SlottedPage(
                    data, self.disk.page_size, on_write=frame.adopt
                )
            frame.view = view
            frame.view_gen = frame.gen
        return view

    def unfix(self, page_id: int, dirty: bool = False) -> None:
        """Release one fix; ``dirty=True`` marks the page modified."""
        frame = self._frames.get(page_id)
        if frame is None:
            raise InvalidAddressError(f"page {page_id} is not resident")
        if frame.fix_count <= 0:
            raise BufferError_(f"page {page_id} is not fixed")
        frame.fix_count -= 1
        if dirty:
            frame.dirty = True

    def unfix_many(self, page_ids: Sequence[int], dirty: bool = False) -> None:
        """Release one fix per occurrence in ``page_ids`` (batch :meth:`unfix`)."""
        frames_get = self._frames_get
        for page_id in page_ids:
            frame = frames_get(page_id)
            if frame is None:
                raise InvalidAddressError(f"page {page_id} is not resident")
            if frame.fix_count <= 0:
                raise BufferError_(f"page {page_id} is not fixed")
            frame.fix_count -= 1
            if dirty:
                frame.dirty = True

    # -- session latching -------------------------------------------------------
    #
    # The multi-session serving layer multiplexes several sessions onto
    # one buffer.  The session_* entry points attribute every fix to its
    # holding session in the frame's ``owners`` ledger, so the protocol
    # can be *checked*: a session may only unfix what it fixed, a frame
    # stays eviction-protected while any session holds it (the ordinary
    # ``fix_count`` covers that), and a leaked fix is attributable.  The
    # single-session paths above are untouched — with ``clients=1``
    # nothing here runs, which is what keeps the seed goldens
    # bit-identical.

    def enable_latching(self) -> None:
        """Arm the session latch (idempotent).

        Serialises the session_* entry points with a re-entrant latch so
        sessions on different threads can pin/unpin frames through one
        manager.  Engine *operations* are additionally serialised by the
        serving layer's grant protocol; the latch here protects the
        pin/unpin bookkeeping itself.
        """
        if self._latch is None:
            self._latch = threading.RLock()

    @property
    def latching(self) -> bool:
        """Whether :meth:`enable_latching` has armed the session latch."""
        return self._latch is not None

    def session_fix(self, page_id: int, session_id: int) -> bytearray:
        """Fix one page on behalf of ``session_id`` (latched).

        Counts exactly like :meth:`fix` — same metrics, same replacement
        updates — plus an ownership record.  Re-fixing by the same
        session increments its count (double-fix refcounting); distinct
        sessions hold independent counts on the same frame.
        """
        latch = self._latch
        if latch is None:
            self.enable_latching()
            latch = self._latch
        with latch:
            data = self.fix(page_id)
            frame = self._frames[page_id]
            owners = frame.owners
            if owners is None:
                owners = frame.owners = {}
            owners[session_id] = owners.get(session_id, 0) + 1
            return data

    def session_unfix(self, page_id: int, session_id: int, dirty: bool = False) -> None:
        """Release one of ``session_id``'s fixes on ``page_id``.

        Raises :class:`~repro.errors.LatchError` if the session holds no
        fix on the page — unfixing another session's pin is the protocol
        violation the ledger exists to catch.  Fixes held by *other*
        sessions keep protecting the frame from eviction.
        """
        latch = self._latch
        if latch is None:
            raise LatchError("session latching is not enabled on this buffer")
        with latch:
            frame = self._frames.get(page_id)
            if frame is None:
                raise InvalidAddressError(f"page {page_id} is not resident")
            owners = frame.owners
            held = 0 if owners is None else owners.get(session_id, 0)
            if held <= 0:
                raise LatchError(
                    f"session {session_id!r} holds no fix on page {page_id}"
                )
            if held == 1:
                del owners[session_id]
            else:
                owners[session_id] = held - 1
            self.unfix(page_id, dirty=dirty)

    def session_fix_view(self, page_id: int, session_id: int) -> SlottedPage:
        """Latched companion of :meth:`fix_view`: fix + cached view.

        The view cache is shared across sessions (one frame, one view),
        and the generation machinery keeps it coherent: a raw
        ``page_data`` mutation by *any* session invalidates it for all.
        """
        self.session_fix(page_id, session_id)
        return self._view(self._frames[page_id])

    def session_fixes(self, session_id: int) -> dict[int, int]:
        """Pages ``session_id`` currently holds fixed, with counts."""
        held: dict[int, int] = {}
        for pid, frame in self._frames.items():
            if frame.owners and frame.owners.get(session_id, 0) > 0:
                held[pid] = frame.owners[session_id]
        return held

    def release_session(self, session_id: int) -> int:
        """Drop every fix ``session_id`` still holds; returns the count.

        The disconnect path of the serving layer: a session that ends
        (or dies) must not keep frames pinned forever.  Pages are left
        clean/dirty as they already were.
        """
        latch = self._latch
        if latch is None:
            return 0
        with latch:
            released = 0
            for pid, held in self.session_fixes(session_id).items():
                frame = self._frames[pid]
                del frame.owners[session_id]
                frame.fix_count -= held
                released += held
            return released

    # -- write-back -----------------------------------------------------------------

    def write_through(self, page_id: int) -> None:
        """Force an immediate single-page write (DASDBS page-pool write).

        Used by the DASDBS-DSM ``change attribute`` path (Section 5.3):
        every update operation writes its (single-page) page pool at
        once instead of deferring to the flush.
        """
        if page_id not in self._frames:
            raise InvalidAddressError(f"page {page_id} is not resident")
        self._write_back((page_id,))

    def discard(self, page_id: int) -> None:
        """Drop a frame without writing it (the page is being freed)."""
        frame = self._frames.get(page_id)
        if frame is None:
            return
        if frame.fix_count > 0:
            raise BufferError_(f"page {page_id} is fixed and cannot be discarded")
        del self._frames[page_id]
        self.policy.on_remove(page_id)

    def flush(self) -> None:
        """Write all dirty pages, batching contiguous page ids per call.

        Models the "database disconnect" write-back: runs of adjacent
        dirty pages go out in one multi-page call (capped at
        ``write_batch_max``), reproducing the large pages-per-write-call
        ratios of Table 5.
        """
        dirty = sorted(pid for pid, frame in self._frames.items() if frame.dirty)
        for batch in contiguous_runs(dirty, max_len=self.write_batch_max):
            self._write_back(batch)

    def clear(self) -> None:
        """Flush and drop every frame (cold restart of the cache)."""
        if any(frame.fix_count > 0 for frame in self._frames.values()):
            raise BufferError_("cannot clear the buffer while pages are fixed")
        self.flush()
        for pid in list(self._frames):
            self.policy.on_remove(pid)
        self._frames.clear()
        self.policy.on_clear()

    def reset(self) -> None:
        """Drop every frame *without* writing anything back.

        This is the snapshot-restore companion of :meth:`clear`: when
        the disk underneath is about to be (or was just) reset to a
        snapshot, buffered dirty pages belong to the abandoned state and
        must not be flushed over the restored one.  No I/O is charged.
        The policy is re-armed from scratch — every resident page is
        removed, retained history is dropped (:meth:`~ReplacementPolicy.
        on_clear`) and the capacity re-bound — so the manager behaves
        like a freshly constructed one over the restored disk.
        """
        if any(frame.fix_count > 0 for frame in self._frames.values()):
            raise BufferError_("cannot reset the buffer while pages are fixed")
        for pid in list(self._frames):
            self.policy.on_remove(pid)
        self._frames.clear()
        self.policy.on_clear()
        self.policy.bind_capacity(self.capacity)

    def crash_reset(self) -> None:
        """Lose the buffer's volatile state — simulated power failure.

        Unlike :meth:`reset`, fixed frames are dropped too: a crash does
        not wait for fixes to be released, it destroys the RAM.  Dirty
        pages vanish (that is the point — only what reached the backend
        survives a crash), no I/O is charged, and the policy restarts
        cold.  Fault-injection/recovery machinery only.
        """
        for pid in list(self._frames):
            self.policy.on_remove(pid)
        self._frames.clear()
        self.policy.on_clear()
        self.policy.bind_capacity(self.capacity)

    # -- eviction ------------------------------------------------------------------

    def _make_room(self, needed: int) -> None:
        excess = len(self._frames) + needed - self.capacity
        if excess <= 0:
            return
        if needed > self.capacity:
            raise BufferFullError(
                f"request for {needed} frames exceeds buffer capacity {self.capacity}"
            )
        # One victim per ``policy.victims()`` walk: CLOCK's sweep, the
        # random draw and 2Q's A1in bound all depend on the state the
        # previous eviction left, so victims are never collected ahead.
        for _ in range(excess):
            self._evict_one()

    def _evict_one(self) -> None:
        frames = self._frames
        for pid in self.policy.victims():
            frame = frames.get(pid)
            if frame is None or frame.fix_count > 0:
                continue
            if frame.dirty:
                # A failed write leaves the victim resident, dirty and
                # in the policy: nothing is lost and a retry can succeed.
                self._write_back((pid,))
            del frames[pid]
            self.policy.on_evict(pid)
            self.metrics.evictions += 1
            return
        raise BufferFullError("all buffer frames are fixed; no victim available")

    def _write_back(self, page_ids: Sequence[int]) -> None:
        """Write resident pages back in **one** I/O call.

        Seal → hand-off → clear dirty, shared by eviction, :meth:`flush`
        and :meth:`write_through`.  A frame's own ``bytearray`` goes
        down uncopied (no backend keeps a caller's buffer beyond the
        call); a dirty-but-unmutated zero-copy frame is still a view of
        the backend's own storage, so it is detached into ``bytes``
        rather than assigned onto itself.
        """
        frames = self._frames
        seal = bool(self._checksum_guards)
        items = []
        for pid in page_ids:
            frame = frames[pid]
            if seal:
                self._seal_for_write(pid, frame)
            data = frame.data
            items.append((pid, data if type(data) is bytearray else bytes(data)))
        self.disk.write_pages(items)
        for pid in page_ids:
            frames[pid].dirty = False


# -- page-reference strings ------------------------------------------------------

#: Event codes of a :class:`ReferenceString`, most frequent first.
(
    FIX,
    UNFIX,
    FIX_MANY,
    UNFIX_MANY,
    UNFIX_DIRTY,
    UNFIX_MANY_DIRTY,
    READ_VIEWS,
    NEW_PAGE,
    WRITE_THROUGH,
    DISCARD,
    FLUSH,
    CLEAR,
    ALLOCATE,
    FREE,
    RESET_METRICS,
) = range(15)

#: Events followed by a run of page ids; their argument is its length.
_BATCH_EVENTS = frozenset({FIX_MANY, UNFIX_MANY, UNFIX_MANY_DIRTY, READ_VIEWS})

_EVENT_BITS = 4
_EVENT_MASK = (1 << _EVENT_BITS) - 1


class ReferenceString:
    """What one run asked of its engine's buffer, replayable on any buffer.

    The paper's cost (Equation 1) is a function of the page-reference
    string and the buffer alone, so one execution of the model code
    per configuration is enough: :meth:`record` captures the string on
    that run's engine, and :meth:`replay` drives it through a fresh
    :class:`BufferManager` of any capacity and policy — the same
    fixes, batch boundaries, dirty unfixes, write-backs and
    allocations, hence the same counters — with no model, serializer
    or heap code running.  This is the trace-driven evaluation of
    storage hierarchies (Mattson, Gecsei, Slutz & Traiger, IBM Systems
    Journal 1970).

    Recorded: every fix with its batch boundaries (``fix``,
    ``fix_many``, and ``read_views``, whose chunking the replaying
    buffer re-decides from its own capacity), clean and dirty unfixes,
    ``new_page``, ``write_through``, ``discard``, ``flush`` and
    ``clear``; the disk's ``allocate_many`` and ``free``; and the
    engine's ``reset_metrics``.  The recording buffer reports nothing
    resident to :meth:`BufferManager.peek`, so a long-object read is
    recorded in its two-call shape, which
    :meth:`~repro.storage.longobj.LongObjectStore.read` proves
    counter-identical to the one-call shortcut whenever the shortcut
    applies.  Page *bytes* are not recorded: a replayed image holds
    stale pages, so it may only ever feed counters.

    The string is one flat integer array: an event is ``argument << 4 |
    code`` (the page id, allocation count or batch length), and a batch
    event is followed by its page ids.
    """

    __slots__ = ("codes",)

    def __init__(self) -> None:
        self.codes = array("q")

    def record(self, engine) -> None:
        """Append everything ``engine`` is asked from now on.

        Installs recording hooks as instance attributes on the engine,
        its buffer and its disk; the classes, and every other engine,
        stay untouched.
        """
        _Recorder(self.codes, engine)

    def events(self) -> Iterator[tuple[int, int | list[int]]]:
        """The decoded string: ``(code, argument)`` pairs, where a batch
        event's argument is its list of page ids."""
        codes = iter(self.codes)
        for code in codes:
            event, argument = code & _EVENT_MASK, code >> _EVENT_BITS
            if event in _BATCH_EVENTS:
                yield event, list(islice(codes, argument))
            else:
                yield event, argument

    def replay(self, engine) -> None:
        """Drive the string through ``engine``'s buffer, disk and metrics.

        ``engine`` must start where the recorded one did: its disk
        restored from the same image, its buffer fresh.
        """
        buffer, disk = engine.buffer, engine.disk
        fix, unfix = buffer.fix, buffer.unfix
        fix_many, unfix_many = buffer.fix_many, buffer.unfix_many
        codes = iter(self.codes)
        for code in codes:
            event = code & _EVENT_MASK
            if event == FIX:
                fix(code >> _EVENT_BITS)
            elif event == UNFIX:
                unfix(code >> _EVENT_BITS)
            elif event == FIX_MANY:
                fix_many(list(islice(codes, code >> _EVENT_BITS)))
            elif event == UNFIX_MANY:
                unfix_many(list(islice(codes, code >> _EVENT_BITS)))
            elif event == UNFIX_DIRTY:
                unfix(code >> _EVENT_BITS, True)
            elif event == UNFIX_MANY_DIRTY:
                unfix_many(list(islice(codes, code >> _EVENT_BITS)), True)
            elif event == READ_VIEWS:
                # read_views' fixes without its views, which only the
                # records read through them need.
                for chunk in buffer.chunks(list(islice(codes, code >> _EVENT_BITS))):
                    fix_many(chunk)
                    unfix_many(chunk)
            elif event == NEW_PAGE:
                buffer.new_page(code >> _EVENT_BITS)
            elif event == WRITE_THROUGH:
                buffer.write_through(code >> _EVENT_BITS)
            elif event == DISCARD:
                buffer.discard(code >> _EVENT_BITS)
            elif event == FLUSH:
                buffer.flush()
            elif event == CLEAR:
                buffer.clear()
            elif event == ALLOCATE:
                disk.allocate_many(code >> _EVENT_BITS)
            elif event == FREE:
                disk.free(code >> _EVENT_BITS)
            else:
                engine.reset_metrics()


class _Recorder:
    """The recording hooks of one engine (see :meth:`ReferenceString.record`).

    Each hook appends its event, then calls the method it shadows,
    looked up on the class at call time.  ``clear`` and ``read_views``
    are recorded as themselves: what their inner calls appended is cut
    off again, because the replaying buffer re-derives it.  The hooks
    hold the engine's parts weakly: the parts hold the hooks, and a
    cycle would keep a finished engine's frames alive until the next
    garbage collection.
    """

    def __init__(self, codes: array, engine) -> None:
        self._codes = codes
        self._engine = weakref.ref(engine)
        self._buffer = weakref.ref(engine.buffer)
        self._disk = weakref.ref(engine.disk)
        for name in (
            "fix",
            "fix_many",
            "unfix",
            "unfix_many",
            "read_views",
            "new_page",
            "write_through",
            "discard",
            "flush",
            "clear",
            "peek",
        ):
            setattr(engine.buffer, name, getattr(self, name))
        engine.disk.allocate_many = self.allocate_many
        engine.disk.free = self.free
        engine.reset_metrics = self.reset_metrics

    def _event(self, event: int, argument: int = 0) -> None:
        self._codes.append(argument << _EVENT_BITS | event)

    def _batch(self, event: int, page_ids: Sequence[int]) -> None:
        self._codes.append(len(page_ids) << _EVENT_BITS | event)
        self._codes.extend(page_ids)

    def fix(self, page_id: int):
        self._event(FIX, page_id)
        buffer = self._buffer()
        return type(buffer).fix(buffer, page_id)

    def fix_many(self, page_ids: Sequence[int]):
        self._batch(FIX_MANY, page_ids)
        buffer = self._buffer()
        return type(buffer).fix_many(buffer, page_ids)

    def unfix(self, page_id: int, dirty: bool = False) -> None:
        self._event(UNFIX_DIRTY if dirty else UNFIX, page_id)
        buffer = self._buffer()
        type(buffer).unfix(buffer, page_id, dirty)

    def unfix_many(self, page_ids: Sequence[int], dirty: bool = False) -> None:
        self._batch(UNFIX_MANY_DIRTY if dirty else UNFIX_MANY, page_ids)
        buffer = self._buffer()
        type(buffer).unfix_many(buffer, page_ids, dirty)

    def new_page(self, page_id: int):
        self._event(NEW_PAGE, page_id)
        buffer = self._buffer()
        return type(buffer).new_page(buffer, page_id)

    def write_through(self, page_id: int) -> None:
        self._event(WRITE_THROUGH, page_id)
        buffer = self._buffer()
        type(buffer).write_through(buffer, page_id)

    def discard(self, page_id: int) -> None:
        self._event(DISCARD, page_id)
        buffer = self._buffer()
        type(buffer).discard(buffer, page_id)

    def flush(self) -> None:
        self._event(FLUSH)
        buffer = self._buffer()
        type(buffer).flush(buffer)

    def read_views(self, page_ids: Sequence[int]):
        mark = len(self._codes)
        buffer = self._buffer()
        try:
            return type(buffer).read_views(buffer, page_ids)
        finally:
            del self._codes[mark:]
            self._batch(READ_VIEWS, page_ids)

    def clear(self) -> None:
        mark = len(self._codes)
        buffer = self._buffer()
        try:
            type(buffer).clear(buffer)
        finally:
            del self._codes[mark:]
            self._event(CLEAR)

    def peek(self, page_id: int) -> None:
        # Nothing is resident to a recording: every long-object read
        # takes (and records) its two-call path.
        return None

    def allocate_many(self, count: int) -> list[int]:
        self._event(ALLOCATE, count)
        disk = self._disk()
        return type(disk).allocate_many(disk, count)

    def free(self, page_id: int) -> None:
        self._event(FREE, page_id)
        disk = self._disk()
        type(disk).free(disk, page_id)

    def reset_metrics(self) -> None:
        self._event(RESET_METRICS)
        engine = self._engine()
        type(engine).reset_metrics(engine)
