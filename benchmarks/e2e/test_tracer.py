"""Unit tests of the span tracer: wrapping discipline and self-time arithmetic."""

from __future__ import annotations

import json

import pytest

from tracer import Target, Tracer, TracerError


class Clock:
    """A clock that only moves when the code under test says so."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def work(self, ns: int) -> None:
        self.now += ns


def make_tree(clock: Clock):
    """Three levels with known costs: top -> 2 x mid -> leaf."""

    class Tree:
        def top(self):
            clock.work(5)
            self.mid()
            clock.work(3)
            self.mid()

        def mid(self):
            clock.work(2)
            self.leaf()
            clock.work(1)

        def leaf(self):
            clock.work(7)

        def boom(self):
            clock.work(4)
            raise ValueError("boom")

        def countdown(self, n):
            clock.work(1)
            if n:
                self.countdown(n - 1)

        def numbers(self, n):
            for i in range(n):
                clock.work(10)
                yield i

        def sized(self, items):
            clock.work(len(items))

    return Tree


def tree_targets(tree) -> list[Target]:
    return [
        Target("outer", tree, "top"),
        Target("middle", tree, "mid"),
        Target("inner", tree, "leaf"),
    ]


def test_self_time_of_a_three_level_tree():
    clock = Clock()
    tree = make_tree(clock)
    tracer = Tracer(clock)
    with tracer.installed(tree_targets(tree)):
        tree().top()
    by_name = tracer.by_name()
    assert (by_name["Tree.top"].calls, by_name["Tree.mid"].calls, by_name["Tree.leaf"].calls) == (
        1, 2, 2,
    )  # fmt: skip
    assert by_name["Tree.top"].inclusive_ns == 28
    assert by_name["Tree.top"].self_ns == 8
    assert by_name["Tree.mid"].inclusive_ns == 20
    assert by_name["Tree.mid"].self_ns == 6
    assert by_name["Tree.leaf"].self_ns == by_name["Tree.leaf"].inclusive_ns == 14
    by_layer = tracer.by_layer()
    assert {layer: s.self_ns for layer, s in by_layer.items()} == {
        "outer": 8, "middle": 6, "inner": 14,
    }  # fmt: skip
    assert sum(s.self_ns for s in by_layer.values()) == 28  # self times partition the wall
    assert list(tracer.span_parent) == [-1, 0, 1, 0, 3]
    assert tracer.durations_ns("Tree.mid") == [10, 10]
    assert tracer.broken is None


def test_uninstall_restores_the_very_same_functions():
    tree = make_tree(Clock())
    before = dict(vars(tree))
    tracer = Tracer()
    tracer.install(tree_targets(tree))
    assert vars(tree)["top"] is not before["top"]
    assert vars(tree)["top"].__wrapped__ is before["top"]
    tracer.uninstall()
    tracer.uninstall()  # idempotent
    assert {k: vars(tree)[k] for k in before} == before


def test_an_inherited_method_is_wrapped_once():
    clock = Clock()
    base = make_tree(clock)

    class Child(base):
        pass

    tracer = Tracer(clock)
    with tracer.installed([Target("x", base, "leaf"), Target("x", Child, "leaf")]):
        assert "leaf" not in vars(Child)
        Child().leaf()
    assert tracer.by_name()["Tree.leaf"].calls == 1
    assert len(tracer) == 1


def test_double_install_is_refused_and_leaves_nothing_behind():
    tree = make_tree(Clock())
    original = vars(tree)["mid"]
    first, second = Tracer(), Tracer()
    with first.installed([Target("x", tree, "leaf")]):
        with pytest.raises(TracerError, match="already wrapped"):
            second.install([Target("x", tree, "mid"), Target("x", tree, "leaf")])
        assert vars(tree)["mid"] is original  # the failed install rolled back
    with pytest.raises(TracerError, match="no attribute"):
        Tracer().install([Target("x", tree, "absent")])


def test_recursion_counts_inclusive_time_once():
    clock = Clock()
    tree = make_tree(clock)
    tracer = Tracer(clock)
    with tracer.installed([Target("x", tree, "countdown")]):
        tree().countdown(3)
    stats = tracer.by_name()["Tree.countdown"]
    assert (stats.calls, stats.inclusive_ns, stats.self_ns) == (4, 4, 4)


def test_an_exception_closes_its_span():
    clock = Clock()
    tree = make_tree(clock)
    tracer = Tracer(clock)
    with tracer.installed([Target("x", tree, "boom"), Target("x", tree, "leaf")]):
        with pytest.raises(ValueError):
            tree().boom()
        tree().leaf()
    assert list(tracer.span_parent) == [-1, -1]  # the stack unwound
    assert tracer.durations_ns("Tree.boom") == [4]
    assert tracer.broken is None


def test_a_generator_is_charged_per_resumption_not_for_its_consumer():
    clock = Clock()
    tree = make_tree(clock)
    tracer = Tracer(clock)
    with tracer.installed([Target("x", tree, "numbers")]):
        seen = []
        for value in tree().numbers(3):
            clock.work(1000)  # the consumer's time
            seen.append(value)
    assert seen == [0, 1, 2]
    stats = tracer.by_name()["Tree.numbers"]
    assert stats.calls == 4  # three values and the final StopIteration
    assert stats.inclusive_ns == 30


def test_label_and_units_are_taken_from_the_arguments():
    clock = Clock()
    tree = make_tree(clock)
    tracer = Tracer(clock)
    target = Target(
        "x",
        tree,
        "sized",
        label=lambda _self, items: f"sized.{len(items)}",
        units=lambda _self, items: len(items),
    )
    with tracer.installed([target]):
        tree().sized([1, 2, 3])
        tree().sized([1, 2, 3])
        tree().sized([])
    by_name = tracer.by_name()
    assert (by_name["sized.3"].calls, by_name["sized.3"].units) == (2, 6)
    assert by_name["sized.0"].calls == 1
    assert tracer.by_layer()["x"].units == 6


def test_out_of_order_close_is_reported():
    tracer = Tracer(Clock())
    name_id = tracer._name_id("x", "manual")
    outer = tracer._open(name_id)
    tracer._open(name_id)
    tracer._close(outer)
    assert "closed out of order" in tracer.broken


def test_jsonl_holds_every_span(tmp_path):
    clock = Clock()
    tree = make_tree(clock)
    tracer = Tracer(clock)
    with tracer.installed(tree_targets(tree)):
        tree().top()
    path = tmp_path / "spans.jsonl"
    tracer.write_jsonl(str(path))
    header, *rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert header["columns"] == ["name", "start_ns", "end_ns", "parent"]
    assert header["names"] == ["Tree.top", "Tree.mid", "Tree.leaf"]
    assert header["layers"] == ["outer", "middle", "inner"]
    assert rows == [[0, 0, 28, -1], [1, 5, 15, 0], [2, 7, 14, 1], [1, 18, 28, 0], [2, 20, 27, 3]]
