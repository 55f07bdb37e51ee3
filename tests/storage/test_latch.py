"""Session latch protocol.

Callers that hold fixes on a session's behalf go through the
``session_*`` entry points; these tests pin the protocol down frame by
frame: double-fix refcounting, unfix-by-non-holder rejection, eviction
blocked while *any* session holds a frame, view-cache coherence across
sessions, and disconnect cleanup.
"""

import pytest

from repro.errors import BufferFullError, InvalidAddressError, LatchError
from repro.storage.buffer import BufferManager
from repro.storage.disk import SimulatedDisk


def make(capacity=4, policy="lru", page_size=128):
    disk = SimulatedDisk(page_size=page_size)
    return disk, BufferManager(disk, capacity=capacity, policy=policy)


class TestLatchProtocol:
    def test_latching_off_by_default(self):
        disk, buf = make()
        assert not buf.latching

    def test_enable_latching_idempotent(self):
        disk, buf = make()
        buf.enable_latching()
        latch = buf._latch
        buf.enable_latching()
        assert buf._latch is latch

    def test_session_fix_enables_latching(self):
        disk, buf = make()
        pid = disk.allocate()
        buf.session_fix(pid, session_id=0)
        assert buf.latching
        buf.session_unfix(pid, session_id=0)

    def test_double_fix_refcounting(self):
        disk, buf = make()
        pid = disk.allocate()
        buf.session_fix(pid, 1)
        buf.session_fix(pid, 1)
        assert buf.session_fixes(1) == {pid: 2}
        buf.session_unfix(pid, 1)
        assert buf.session_fixes(1) == {pid: 1}
        assert buf.fixed_pages() == [pid]
        buf.session_unfix(pid, 1)
        assert buf.session_fixes(1) == {}
        assert buf.fixed_pages() == []

    def test_distinct_sessions_hold_independent_counts(self):
        disk, buf = make()
        pid = disk.allocate()
        buf.session_fix(pid, 1)
        buf.session_fix(pid, 2)
        assert buf.session_fixes(1) == {pid: 1}
        assert buf.session_fixes(2) == {pid: 1}
        buf.session_unfix(pid, 1)
        # Session 2's fix still protects the frame.
        assert buf.fixed_pages() == [pid]
        buf.session_unfix(pid, 2)
        assert buf.fixed_pages() == []

    def test_unfix_by_non_holder_rejected(self):
        disk, buf = make()
        pid = disk.allocate()
        buf.session_fix(pid, 1)
        with pytest.raises(LatchError):
            buf.session_unfix(pid, 2)
        # The violation must not have consumed session 1's fix.
        assert buf.session_fixes(1) == {pid: 1}
        buf.session_unfix(pid, 1)

    def test_unfix_while_contended(self):
        """A session releasing under contention releases only its own
        pin; the other holder's count and the frame's protection are
        untouched."""
        disk, buf = make()
        pid = disk.allocate()
        buf.session_fix(pid, 1)
        buf.session_fix(pid, 2)
        buf.session_fix(pid, 2)
        buf.session_unfix(pid, 2)
        assert buf.session_fixes(1) == {pid: 1}
        assert buf.session_fixes(2) == {pid: 1}
        with pytest.raises(LatchError):
            buf.session_unfix(pid, 3)
        buf.session_unfix(pid, 1)
        with pytest.raises(LatchError):
            buf.session_unfix(pid, 1)
        buf.session_unfix(pid, 2)

    def test_unfix_without_latching_rejected(self):
        disk, buf = make()
        pid = disk.allocate()
        buf.fix(pid)
        with pytest.raises(LatchError):
            buf.session_unfix(pid, 0)
        buf.unfix(pid)

    def test_unfix_non_resident_rejected(self):
        disk, buf = make()
        buf.enable_latching()
        with pytest.raises(InvalidAddressError):
            buf.session_unfix(99, 0)

    def test_session_fix_counts_like_fix(self):
        """Same metrics as the plain path: one fix, one miss, then hits."""
        disk, buf = make()
        pid = disk.allocate()
        buf.session_fix(pid, 0)
        buf.session_fix(pid, 0)
        snap = disk.metrics.snapshot()
        assert snap.page_fixes == 2
        assert snap.buffer_misses == 1 and snap.buffer_hits == 1
        buf.session_unfix(pid, 0)
        buf.session_unfix(pid, 0)

    def test_fixed_frame_not_evicted_across_sessions(self):
        """Filling the buffer cannot evict a frame another session holds
        fixed — and with every frame held, eviction fails loudly instead
        of stealing a pinned page."""
        disk, buf = make(capacity=2)
        pinned = disk.allocate()
        others = [disk.allocate() for _ in range(3)]
        buf.session_fix(pinned, 1)
        # A different session churning through pages must never displace it.
        for pid in others:
            buf.session_fix(pid, 2)
            buf.session_unfix(pid, 2)
            assert buf.is_resident(pinned)
        # Both frames pinned by different sessions: no victim remains.
        buf.session_fix(others[-1], 2)
        with pytest.raises(BufferFullError):
            buf.session_fix(others[0], 2)
        buf.session_unfix(others[-1], 2)
        buf.session_unfix(pinned, 1)

    def test_fix_view_generation_coherent_across_sessions(self):
        """A raw page_data mutation by one session invalidates the
        cached view the other session reads — the generation machinery
        is shared, like the frame."""
        disk, buf = make()
        pid = disk.allocate()
        view1 = buf.session_fix_view(pid, 1)
        view2 = buf.session_fix_view(pid, 2)
        assert view1 is view2  # one frame, one cached view
        buf.page_data(pid)  # raw access: generation bump
        view3 = buf.session_fix_view(pid, 2)
        assert view3 is not view1
        for _ in range(2):
            buf.session_unfix(pid, 2)
        buf.session_unfix(pid, 1)

    def test_release_session_drops_all_fixes(self):
        disk, buf = make()
        a, b = disk.allocate(), disk.allocate()
        buf.session_fix(a, 1)
        buf.session_fix(a, 1)
        buf.session_fix(b, 1)
        buf.session_fix(b, 2)
        assert buf.release_session(1) == 3
        assert buf.session_fixes(1) == {}
        # Session 2's pin survives the other session's disconnect.
        assert buf.session_fixes(2) == {b: 1}
        assert buf.fixed_pages() == [b]
        buf.session_unfix(b, 2)

    def test_release_session_without_latching_is_noop(self):
        disk, buf = make()
        assert buf.release_session(7) == 0

    def test_plain_paths_untouched_by_latching(self):
        """Arming the latch must not change what the unlatched fast
        paths do — the clients=1 byte-parity guarantee in miniature."""
        disk, buf = make()
        pid = disk.allocate()
        buf.fix(pid)
        buf.unfix(pid)
        baseline = disk.metrics.snapshot()
        disk2 = SimulatedDisk(page_size=128)
        buf2 = BufferManager(disk2, capacity=4)
        pid2 = disk2.allocate()
        buf2.enable_latching()
        buf2.fix(pid2)
        buf2.unfix(pid2)
        assert disk2.metrics.snapshot() == baseline
