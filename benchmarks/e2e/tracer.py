"""Outside-in span tracer for the end-to-end benchmark.

The benchmark measures the repository's layers without editing them:
:meth:`Tracer.install` replaces *class attributes* (and module-level
functions) with span-recording wrappers and :meth:`Tracer.uninstall`
puts the originals back.  Wrapping the class rather than an instance
matters here — the engine's hot paths cache bound methods at
construction time (``BufferManager._on_access``, the executor's hoisted
dispatch), so an instance patched after construction would be missed,
while a class patched *before* any engine is built is seen by every
lookup.

Each span records its name, its layer, its start and end on
``perf_counter_ns`` and the span that was open when it started (its
parent).  Spans live in compact arrays in memory and are written as
JSON lines only after the replay ended.  A layer's **self time** is the
duration of its spans minus the part covered by their child spans.

There is one span stack, not one per thread: the only threads in the
benchmark are the serving layer's ticket workers, which execute
strictly one at a time, so their spans nest under the main thread's
``ServingExecutor.run`` span exactly as the work does.  Every pop checks
that discipline and :attr:`Tracer.broken` reports a violation.

The wrapper's own cost (about a microsecond) falls mostly *outside* the
interval it records, that is, into the caller's self time; the traced
pass reports it as ``trace.overhead_ratio`` against an untraced replay.
"""

from __future__ import annotations

import inspect
import json
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns
from types import FunctionType
from typing import Callable, Iterable, Iterator


class TracerError(Exception):
    """A target cannot be wrapped, or is wrapped already."""


@dataclass(frozen=True)
class Target:
    """One attribute to span.

    ``owner`` is a class or a module.  The attribute is wrapped only
    where ``owner`` itself defines it: listing a subclass that merely
    inherits the method is allowed and wraps nothing, so an inherited
    method is never wrapped twice.  ``label`` derives the span name from
    the call's arguments (default ``"<owner>.<attr>"``); ``units``
    derives a count from them (records, bytes) that is summed per name.
    """

    layer: str
    owner: object
    attr: str
    label: Callable[..., str] | None = None
    units: Callable[..., int] | None = None


@dataclass
class SpanStats:
    """Totals of every span that shares one name."""

    layer: str
    calls: int = 0
    inclusive_ns: int = 0
    self_ns: int = 0
    units: int = 0


class Tracer:
    """Records spans around installed targets; see the module docstring."""

    def __init__(self, clock: Callable[[], int] = perf_counter_ns) -> None:
        #: Nanosecond clock (tests substitute one with known readings).
        self._clock = clock
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[tuple[str, str], int] = {}
        self._units: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        #: Set to a description when a span closed out of LIFO order.
        self.broken: str | None = None

    def __len__(self) -> int:
        return len(self.span_name)

    # -- installing ------------------------------------------------------------

    def install(self, targets: Iterable[Target]) -> None:
        """Wrap every target; on any error nothing stays wrapped."""
        try:
            for target in targets:
                self._install_one(target)
        except Exception:
            self.uninstall()
            raise

    def _install_one(self, target: Target) -> None:
        owner, attr = target.owner, target.attr
        if not hasattr(owner, attr):
            raise TracerError(f"{_owner_name(owner)} has no attribute {attr!r}")
        original = vars(owner).get(attr)
        if original is None:
            return  # inherited: wrapped (or deliberately not) on its definer
        if getattr(original, "_span_wrapper", False):
            raise TracerError(f"{_owner_name(owner)}.{attr} is already wrapped")
        if not isinstance(original, FunctionType):
            raise TracerError(
                f"{_owner_name(owner)}.{attr} is a {type(original).__name__}, "
                f"only plain functions can be spanned"
            )
        name = f"{_owner_name(owner)}.{attr}"
        wrapper = self._wrap(original, target.layer, name, target.label, target.units)
        wrapper._span_wrapper = True
        wrapper.__wrapped__ = original
        wrapper.__name__ = original.__name__
        wrapper.__doc__ = original.__doc__
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (idempotent)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, targets: Iterable[Target]) -> Iterator["Tracer"]:
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    # -- recording -------------------------------------------------------------

    def _name_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        name_id = self._ids.get(key)
        if name_id is None:
            name_id = self._ids[key] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self._units.append(0)
        return name_id

    def _open(self, name_id: int) -> int:
        index = len(self.span_name)
        stack = self._stack
        self.span_name.append(name_id)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_end.append(0)
        stack.append(index)
        self.span_start.append(self._clock())
        return index

    def _close(self, index: int) -> None:
        self.span_end[index] = self._clock()
        if self._stack.pop() != index:
            self._out_of_order(index)

    def _out_of_order(self, index: int) -> None:
        if self.broken is None:
            name = self.names[self.span_name[index]]
            self.broken = f"span {index} ({name}) closed out of order"

    def _wrap(self, fn, layer, name, label, units):
        fixed_id = None if label is not None else self._name_id(layer, name)
        name_id_of = self._name_id
        unit_totals = self._units
        open_, close = self._open, self._close

        if inspect.isgeneratorfunction(fn):
            if label is not None or units is not None:
                raise TracerError(f"{name}: label/units are not supported on generators")
            # One span per resumption: the time a consumer spends between
            # two ``next`` calls is not the generator's.
            def span_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        index = open_(fixed_id)
                        try:
                            try:
                                value = next(inner)
                            except StopIteration:
                                return
                        finally:
                            close(index)
                        yield value
                finally:
                    inner.close()

            return span_generator

        if label is None and units is None:
            # The common case: _open/_close inlined, because two extra
            # Python calls per span are a third of the tracing overhead.
            span_name, span_parent = self.span_name, self.span_parent
            span_start, span_end = self.span_start, self.span_end
            stack = self._stack
            clock = self._clock

            def span(*args, **kwargs):
                index = len(span_name)
                span_name.append(fixed_id)
                span_parent.append(stack[-1] if stack else -1)
                span_end.append(0)
                stack.append(index)
                span_start.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    span_end[index] = clock()
                    if stack.pop() != index:
                        self._out_of_order(index)

            return span

        def span_counted(*args, **kwargs):
            name_id = fixed_id if label is None else name_id_of(layer, label(*args, **kwargs))
            if units is not None:
                unit_totals[name_id] += units(*args, **kwargs)
            index = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        return span_counted

    # -- reading ---------------------------------------------------------------

    def self_times(self) -> array:
        """Self time of every span: duration minus child durations."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        own = array("q", (ends[i] - starts[i] for i in range(len(starts))))
        for index, parent in enumerate(parents):
            if parent >= 0:
                own[parent] -= ends[index] - starts[index]
        return own

    def by_name(self) -> dict[str, SpanStats]:
        """Totals per span name.  A span whose parent has the same name
        (direct recursion) adds to the calls and self time but not to
        the inclusive time, which its parent already covers."""
        own = self.self_times()
        stats = [SpanStats(layer) for layer in self.layers]
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for index, name_id in enumerate(names):
            entry = stats[name_id]
            entry.calls += 1
            entry.self_ns += own[index]
            parent = parents[index]
            if parent < 0 or names[parent] != name_id:
                entry.inclusive_ns += ends[index] - starts[index]
        out: dict[str, SpanStats] = {}
        for name_id, entry in enumerate(stats):
            entry.units = self._units[name_id]
            out[self.names[name_id]] = entry
        return out

    def by_layer(self, by_name: dict[str, SpanStats] | None = None) -> dict[str, SpanStats]:
        """Calls, self time and units per layer (inclusive time is not
        additive across a layer's nested spans and stays 0).  Pass an
        already computed :meth:`by_name` to spare a second pass."""
        out: dict[str, SpanStats] = {}
        for entry in (by_name or self.by_name()).values():
            layer = out.setdefault(entry.layer, SpanStats(entry.layer))
            layer.calls += entry.calls
            layer.self_ns += entry.self_ns
            layer.units += entry.units
        return out

    def durations_ns(self, name: str) -> list[int]:
        """Duration of every span called ``name``, in recording order."""
        wanted = {i for i, known in enumerate(self.names) if known == name}
        starts, ends = self.span_start, self.span_end
        return [
            ends[index] - starts[index]
            for index, name_id in enumerate(self.span_name)
            if name_id in wanted
        ]

    def write_jsonl(self, path: str) -> None:
        """The spans as JSON lines, in start order.

        The first line names the columns and lists the span names with
        their layers; every further line is one span,
        ``[name index, start_ns, end_ns, parent span or -1]``, times
        counted from the first span's start.  (A million spans per
        replay make a self-describing object per line ten times larger.)
        """
        origin = self.span_start[0] if len(self) else 0
        header = {
            "columns": ["name", "start_ns", "end_ns", "parent"],
            "names": self.names,
            "layers": self.layers,
        }
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            handle.writelines(
                f"[{name_id},{start - origin},{end - origin},{parent}]\n"
                for name_id, start, end, parent in zip(
                    self.span_name, self.span_start, self.span_end, self.span_parent
                )
            )


def _owner_name(owner: object) -> str:
    name = getattr(owner, "__name__", None) or type(owner).__name__
    return name.rpartition(".")[2]
