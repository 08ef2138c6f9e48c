"""Per-unit L1 data cache model (Table I: 64 kB, 4-way, 64 B lines).

A task's data access first probes the cache; hits cost a couple of cycles
of SRAM latency instead of a DRAM bank access.  Hot data elements (the
very elements that attract many tasks and drive load imbalance) therefore
execute from SRAM after the first touch -- without this, a hub vertex
would pay a full DRAM round trip per tiny accumulate task, which no real
NDP unit with a cache/scratchpad does.

The model is a set-associative LRU tag array; only hit/miss behaviour is
tracked (contents live in the application's Python objects).  A set's
LRU list is created on the first fill into it: most sets of most units
are never touched, and every container is pickled by each snapshot and
rebuilt by each fork.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict

from ..config import SystemConfig

#: SRAM hit latency in core cycles.
HIT_LATENCY = 2


class L1Cache:
    """Set-associative LRU tag store."""

    def __init__(self, capacity_bytes: int, ways: int, line_bytes: int = 64):
        if capacity_bytes <= 0 or ways <= 0 or line_bytes <= 0:
            raise ValueError("cache geometry must be positive")
        self.line_bytes = line_bytes
        self.ways = ways
        total_lines = max(ways, capacity_bytes // line_bytes)
        self.num_sets = max(1, total_lines // ways)
        # set index -> LRU list (front = LRU); absent means empty.
        self._sets: Dict[int, OrderedDict] = {}
        self.hits = 0
        self.misses = 0

    @classmethod
    def from_config(cls, config: SystemConfig) -> "L1Cache":
        return cls(config.sram.l1d_kb * 1024, ways=4)

    def access(self, addr: int) -> bool:
        """Probe (and fill) the line holding ``addr``; True on a hit."""
        line = addr // self.line_bytes
        index = line % self.num_sets
        s = self._sets.get(index)
        if s is None:
            s = self._sets[index] = OrderedDict()
        elif line in s:
            s.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        if len(s) >= self.ways:
            s.popitem(last=False)
        s[line] = True
        return False

    def invalidate(self, addr: int) -> None:
        """Drop the line holding ``addr`` (block migrated away)."""
        line = addr // self.line_bytes
        s = self._sets.get(line % self.num_sets)
        if s is not None:
            s.pop(line, None)

    def invalidate_range(self, base: int, nbytes: int) -> None:
        for addr in range(base, base + nbytes, self.line_bytes):
            self.invalidate(addr)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
