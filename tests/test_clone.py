"""The freeze/thaw clone contract under snapshot/restore.

``freeze`` pickles an object graph once; every ``thaw`` must be an
independent deep copy with deepcopy's sharing rules: closures get new
cells, atomic objects (classes, closure-free functions) and objects
whose ``__deepcopy__`` returns ``self`` are shared by identity, and
unsnapshottable leaves raise :class:`SnapshotError`.
"""

import sys
import threading
from collections import deque

import pytest

from repro.config import Design
from repro.sim.rng import DeterministicRNG
from repro.state.clone import freeze
from repro.state.snapshot import SnapshotError


def _cell(fn, name):
    return fn.__closure__[fn.__code__.co_freevars.index(name)].cell_contents


def _counter():
    state = {"n": 0}

    def tick():
        state["n"] += 1
        return tick

    return tick


def test_self_referencing_closure_is_cloned():
    tick = _counter()
    clone = freeze(tick).thaw()
    assert clone is not tick
    assert clone() is clone
    assert _cell(clone, "state") == {"n": 1}
    assert _cell(tick, "state") == {"n": 0}


def test_closures_over_one_object_share_one_clone():
    box = []

    def push(item):
        box.append(item)

    def peek():
        return box

    push2, peek2 = freeze((push, peek)).thaw()
    push2(1)
    assert peek2() == [1]
    assert peek2() is _cell(push2, "box")
    assert box == []


def test_local_class_and_closure_free_function_are_shared():
    class Local:
        pass

    def scale(x, factor=2):
        return x * factor

    obj = Local()
    obj.fn = scale
    cls2, fn2, obj2 = freeze((Local, scale, obj)).thaw()
    assert cls2 is Local
    assert fn2 is scale
    assert obj2 is not obj
    assert type(obj2) is Local
    assert obj2.fn is scale


class _Observer:
    """Process-wide observation state: forks share it."""

    def __init__(self):
        self.seen = []

    def __deepcopy__(self, memo):
        return self


def test_deepcopy_returning_self_is_shared_into_every_fork():
    observer = _Observer()
    frozen = freeze({"observer": observer, "design": Design.O, "data": [1]})
    first, second = frozen.thaw(), frozen.thaw()
    assert first["observer"] is observer
    assert second["observer"] is observer
    assert first["design"] is Design.O
    assert first["data"] is not second["data"]


def test_rng_draws_the_same_sequence_after_thaw():
    rng = DeterministicRNG(11, "stream")
    rng.random()
    frozen = freeze(rng)
    expected = [rng.random() for _ in range(50)]
    for _ in range(2):
        clone = frozen.thaw()
        assert (clone.seed, clone.name) == (11, "stream")
        assert [clone.random() for _ in range(50)] == expected


def test_thaws_share_no_mutable_state():
    class Node:
        pass

    node = Node()
    node.children = [Node()]
    graph = {"queue": deque([1]), "seen": {1}, "node": node,
             "push": node.children.append}
    frozen = freeze(graph)
    first, second = frozen.thaw(), frozen.thaw()
    first["queue"].append(2)
    first["seen"].add(2)
    first["node"].children.clear()
    second["push"]("x")
    assert second["queue"] == deque([1])
    assert second["seen"] == {1}
    assert len(second["node"].children) == 2
    assert second["node"].children[-1] == "x"
    assert first["node"].children == []
    assert len(node.children) == 1
    # Mutating the original after the freeze reaches no later thaw.
    graph["queue"].append(3)
    assert frozen.thaw()["queue"] == deque([1])


def _generator():
    yield 1


@pytest.mark.parametrize(
    "leaf, name",
    [(_generator(), "generator"), (threading.Lock(), "lock"),
     (sys, "module")],
    ids=["generator", "lock", "module"],
)
def test_unsnapshottable_leaf_raises(leaf, name):
    with pytest.raises(SnapshotError, match=name):
        freeze({"ok": [1, 2], "bad": leaf})
