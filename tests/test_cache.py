"""Tests for the per-unit L1 cache model."""

from collections import OrderedDict

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config import Design, tiny_config
from repro.ndp.cache import HIT_LATENCY, L1Cache


def test_first_access_misses_then_hits():
    c = L1Cache(1024, ways=4)
    assert not c.access(0)
    assert c.access(0)
    assert c.access(63)      # same 64 B line
    assert not c.access(64)  # next line
    assert c.hits == 2
    assert c.misses == 2


def test_lru_eviction_within_set():
    # 4 lines, 2 ways -> 2 sets; lines 0 and 2 collide in set 0.
    c = L1Cache(4 * 64, ways=2)
    assert c.num_sets == 2
    c.access(0 * 64)
    c.access(2 * 64)
    c.access(0 * 64)          # touch line 0 -> line 2 becomes LRU
    c.access(4 * 64)          # set 0 again: evicts line 2
    assert c.access(0 * 64)   # still cached
    assert not c.access(2 * 64)


def test_invalidate_range():
    c = L1Cache(4096, ways=4)
    for off in range(0, 256, 64):
        c.access(1024 + off)
    c.invalidate_range(1024, 256)
    assert not c.access(1024)
    assert not c.access(1024 + 192)


def test_hit_rate():
    c = L1Cache(1024, ways=4)
    c.access(0)
    c.access(0)
    c.access(0)
    assert c.hit_rate == pytest.approx(2 / 3)
    assert L1Cache(1024, 4).hit_rate == 0.0


def test_from_config():
    c = L1Cache.from_config(tiny_config(Design.B))
    # 64 kB / 64 B lines = 1024 lines.
    assert c.num_sets * c.ways == 1024


def test_invalid_geometry():
    with pytest.raises(ValueError):
        L1Cache(0, 4)


def test_repeated_tasks_on_hot_element_run_faster():
    """End to end: the second task on the same element skips DRAM."""
    from repro.runtime.system import NDPSystem
    from repro.runtime.task import Task

    def run(addrs):
        system = NDPSystem(tiny_config(Design.B))
        system.registry.register("t", lambda ctx, task: None)
        for a in addrs:
            system.seed_task(Task(func="t", ts=0, data_addr=a, workload=5))
        system.run()
        return system.units[0].busy_cycles

    hot = run([128] * 10)            # same element ten times
    cold = run([i * 4096 for i in range(10)])  # ten distinct rows
    assert hot < cold


class _EagerL1:
    """Reference model: the list-of-OrderedDict L1 that allocates every
    set up front.  The lazy :class:`L1Cache` must match it op for op."""

    def __init__(self, capacity_bytes, ways, line_bytes=64):
        self.line_bytes = line_bytes
        self.ways = ways
        total_lines = max(ways, capacity_bytes // line_bytes)
        self.num_sets = max(1, total_lines // ways)
        self.sets = [OrderedDict() for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def access(self, addr):
        line = addr // self.line_bytes
        s = self.sets[line % self.num_sets]
        if line in s:
            s.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        if len(s) >= self.ways:
            s.popitem(last=False)
        s[line] = True
        return False

    def invalidate(self, addr):
        line = addr // self.line_bytes
        self.sets[line % self.num_sets].pop(line, None)

    def invalidate_range(self, base, nbytes):
        for addr in range(base, base + nbytes, self.line_bytes):
            self.invalidate(addr)


_L1_OPS = st.lists(
    st.tuples(
        st.sampled_from(["access", "invalidate", "invalidate_range"]),
        st.integers(min_value=0, max_value=64 * 40),
        st.integers(min_value=0, max_value=4 * 64),
    ),
    max_size=120,
)


@settings(max_examples=150, deadline=None)
@given(_L1_OPS)
@example([("access", 64, 0), ("invalidate", 0, 0), ("access", 0, 0)])
def test_lazy_sets_match_eager_reference(ops):
    """Random op sequences: same hits, misses, victims and LRU order as
    the eager reference; probes and invalidations never create a set."""
    # 8 lines, 2 ways -> 4 sets, so collisions and evictions are common.
    lazy, ref = L1Cache(8 * 64, ways=2), _EagerL1(8 * 64, ways=2)
    assert (lazy.num_sets, lazy.ways) == (ref.num_sets, ref.ways)
    filled = set()
    for op, addr, nbytes in ops:
        if op == "access":
            assert lazy.access(addr) == ref.access(addr)
            filled.add(addr // 64 % ref.num_sets)
        elif op == "invalidate":
            lazy.invalidate(addr)
            ref.invalidate(addr)
        else:
            lazy.invalidate_range(addr, nbytes)
            ref.invalidate_range(addr, nbytes)
        assert (lazy.hits, lazy.misses) == (ref.hits, ref.misses)
        assert set(lazy._sets) <= filled
        assert [list(lazy._sets.get(i, ())) for i in range(ref.num_sets)] \
            == [list(s) for s in ref.sets]
