"""Tests for isLent / dataBorrowed metadata (Section VI-B)."""

from collections import OrderedDict

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.balance import DataBorrowedTable, IsLentBitmap
from repro.balance.metadata import BorrowEntry


class TestIsLentBitmap:
    def test_set_clear(self):
        bm = IsLentBitmap(2048, base_block=1000)
        assert not bm.is_lent(1005)
        bm.set_lent(1005)
        assert bm.is_lent(1005)
        assert bm.lent_count == 1
        bm.clear_lent(1005)
        assert not bm.is_lent(1005)

    def test_capacity_from_sram_bytes(self):
        bm = IsLentBitmap(2048, base_block=0)
        assert bm.capacity_blocks == 2048 * 8

    def test_scale_factor(self):
        quarter = IsLentBitmap(2048, 0, scale=0.25)
        four_x = IsLentBitmap(2048, 0, scale=4.0)
        assert quarter.capacity_blocks == 2048 * 2
        assert four_x.capacity_blocks == 2048 * 32

    def test_out_of_range_rejected(self):
        bm = IsLentBitmap(1, base_block=100)  # tracks 8 blocks
        assert bm.tracks(100) and bm.tracks(107)
        assert not bm.tracks(108) and not bm.tracks(99)
        with pytest.raises(ValueError):
            bm.set_lent(108)

    def test_clear_untracked_is_noop(self):
        bm = IsLentBitmap(1, base_block=0)
        bm.clear_lent(5)  # never set; must not raise


class TestDataBorrowedTable:
    def test_insert_lookup_remove(self):
        t = DataBorrowedTable(16 * 1024, ways=8)
        assert t.insert(42, value=7, home_unit=3) is None
        entry = t.lookup(42)
        assert entry.value == 7
        assert entry.home_unit == 3
        assert t.contains(42)
        removed = t.remove(42)
        assert removed.block_id == 42
        assert t.lookup(42) is None

    def test_capacity_entries(self):
        t = DataBorrowedTable(16 * 1024, ways=8)
        assert t.capacity_entries == 1024

    def test_lru_eviction_within_set(self):
        t = DataBorrowedTable(
            DataBorrowedTable.ENTRY_BYTES * 4, ways=4
        )  # 1 set, 4 ways
        assert t.num_sets == 1
        for block in range(4):
            t.insert(block, block, 0)
        t.lookup(0)  # touch 0: now 1 is LRU
        victim = t.insert(100, 100, 0)
        assert victim.block_id == 1
        assert t.contains(0)
        assert not t.contains(1)

    def test_update_existing_no_eviction(self):
        t = DataBorrowedTable(DataBorrowedTable.ENTRY_BYTES * 2, ways=2)
        t.insert(1, 10, 0)
        t.insert(3, 30, 0)
        assert t.insert(1, 11, 0) is None  # update, no victim
        assert t.lookup(1).value == 11

    def test_hit_miss_counters(self):
        t = DataBorrowedTable(1024, ways=4)
        t.insert(5, 1, 0)
        t.lookup(5)
        t.lookup(6)
        assert t.hits == 1
        assert t.misses == 1

    def test_scale_changes_capacity(self):
        small = DataBorrowedTable(16 * 1024, 8, scale=0.25)
        big = DataBorrowedTable(16 * 1024, 8, scale=4.0)
        assert small.capacity_entries == 256
        assert big.capacity_entries == 4096

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=500), max_size=200))
    def test_occupancy_never_exceeds_capacity(self, blocks):
        t = DataBorrowedTable(DataBorrowedTable.ENTRY_BYTES * 16, ways=4)
        live = set()
        for b in blocks:
            victim = t.insert(b, b, 0)
            live.add(b)
            if victim is not None:
                live.discard(victim.block_id)
            assert len(t) <= t.capacity_entries
        assert {e.block_id for e in t.entries()} == live


class _EagerBorrowedTable:
    """Reference model: the list-of-OrderedDict dataBorrowed table that
    allocates every set up front.  The lazy table must match it."""

    def __init__(self, capacity_bytes, ways):
        total_entries = max(
            ways, capacity_bytes // DataBorrowedTable.ENTRY_BYTES
        )
        self.ways = ways
        self.num_sets = max(1, total_entries // ways)
        self.sets = [OrderedDict() for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, block_id):
        s = self.sets[block_id % self.num_sets]
        entry = s.get(block_id)
        if entry is None:
            self.misses += 1
            return None
        s.move_to_end(block_id)
        self.hits += 1
        return entry

    def contains(self, block_id):
        return block_id in self.sets[block_id % self.num_sets]

    def insert(self, block_id, value, home_unit):
        s = self.sets[block_id % self.num_sets]
        if block_id in s:
            s[block_id].value = value
            s.move_to_end(block_id)
            return None
        victim = None
        if len(s) >= self.ways:
            _, victim = s.popitem(last=False)
            self.evictions += 1
        s[block_id] = BorrowEntry(block_id, value, home_unit)
        return victim

    def remove(self, block_id):
        return self.sets[block_id % self.num_sets].pop(block_id, None)

    def entries(self):
        return [e for s in self.sets for e in s.values()]

    def __len__(self):
        return sum(len(s) for s in self.sets)


_TABLE_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["lookup", "insert", "remove", "contains", "entries", "len"]
        ),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=7),
    ),
    max_size=120,
)


@settings(max_examples=150, deadline=None)
@given(_TABLE_OPS)
@example([("insert", 1, 0), ("insert", 0, 0), ("entries", 0, 0)])
def test_lazy_sets_match_eager_reference(ops):
    """Random op sequences: same return values, victims, counters and
    ``entries()`` order (ascending set index, never first-touch order)
    as the eager reference; only inserts create a set."""
    # 8 entries, 2 ways -> 4 sets.
    capacity = DataBorrowedTable.ENTRY_BYTES * 8
    lazy = DataBorrowedTable(capacity, ways=2)
    ref = _EagerBorrowedTable(capacity, ways=2)
    assert (lazy.num_sets, lazy.ways) == (ref.num_sets, ref.ways)
    inserted = set()
    for op, block, value in ops:
        if op == "insert":
            got = lazy.insert(block, value, home_unit=value % 3)
            want = ref.insert(block, value, home_unit=value % 3)
            inserted.add(block % ref.num_sets)
        elif op in ("lookup", "remove", "contains"):
            got = getattr(lazy, op)(block)
            want = getattr(ref, op)(block)
        elif op == "entries":
            got, want = lazy.entries(), ref.entries()
        else:
            got, want = len(lazy), len(ref)
        assert got == want
        assert (lazy.hits, lazy.misses, lazy.evictions) \
            == (ref.hits, ref.misses, ref.evictions)
        assert set(lazy._sets) <= inserted
    assert lazy.entries() == ref.entries()
