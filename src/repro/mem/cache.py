"""Set-associative cache timing model.

Tracks tags, LRU recency, and dirty bits; data lives elsewhere (see the
package docstring). Supports write-through (UnSync's L1 requirement,
Sec III-C-1) and write-back (used to demonstrate the unrecoverable-error
scenario of Figure 2), and exposes the line inventory so the fault injector
can target resident lines and the recovery model can count the lines that
must be copied.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple


class WritePolicy(enum.Enum):
    WRITE_THROUGH = "write-through"
    WRITE_BACK = "write-back"


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy of one cache.

    Defaults are the paper's L1: 32 KB, 2-way, 64-byte lines, 2-cycle hits.
    """

    size_bytes: int = 32 * 1024
    assoc: int = 2
    line_bytes: int = 64
    hit_latency: int = 2
    policy: WritePolicy = WritePolicy.WRITE_THROUGH
    #: write-allocate on store miss (we follow M5's default: allocate for
    #: write-back, no-allocate for write-through).
    write_allocate: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.size_bytes % (self.assoc * self.line_bytes):
            raise ValueError("size must be a multiple of assoc*line_bytes")
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line_bytes must be a power of two")

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)

    @property
    def allocates_on_write(self) -> bool:
        if self.write_allocate is not None:
            return self.write_allocate
        return self.policy is WritePolicy.WRITE_BACK


@dataclass(slots=True)
class Line:
    """One cache line's metadata."""

    tag: int
    valid: bool = True
    dirty: bool = False
    #: LRU timestamp (monotone access counter).
    last_use: int = 0


@dataclass(slots=True)
class AccessResult:
    """Outcome of a timing access.

    Consumers only read the fields, so the frequent hit / no-allocate-miss
    outcomes are served from per-cache preallocated instances.
    """

    hit: bool
    latency: int
    #: line address (addr with offset bits cleared) of any evicted dirty
    #: line (write-back policy only) that must be written downstream.
    writeback_line: Optional[int] = None


class Cache:
    """One cache instance.

    The dict-of-sets layout keeps sparse programs cheap: a set is only
    materialised once touched.
    """

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self._sets: Dict[int, List[Line]] = {}
        self._clock = 0
        # statistics
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        # geometry/policy hoisted out of the per-access path (config is
        # frozen), plus shared results for the allocation-free outcomes
        self._line_bytes = config.line_bytes
        self._n_sets = config.n_sets
        self._assoc = config.assoc
        self._hit_latency = config.hit_latency
        self._write_back = config.policy is WritePolicy.WRITE_BACK
        self._allocates_on_write = config.allocates_on_write
        self._hit_result = AccessResult(hit=True, latency=config.hit_latency)
        self._miss_no_alloc = AccessResult(hit=False,
                                           latency=config.hit_latency)

    # -- address helpers -------------------------------------------------
    def _index_tag(self, addr: int) -> Tuple[int, int]:
        line = addr // self._line_bytes
        return line % self._n_sets, line // self._n_sets

    def line_addr(self, addr: int) -> int:
        return addr - (addr % self.config.line_bytes)

    def _addr_of(self, index: int, tag: int) -> int:
        return (tag * self.config.n_sets + index) * self.config.line_bytes

    # -- lookup -----------------------------------------------------------
    def probe(self, addr: int) -> bool:
        """Non-destructive presence test (no stats, no LRU update)."""
        index, tag = self._index_tag(addr)
        return any(l.valid and l.tag == tag for l in self._sets.get(index, ()))

    def access(self, addr: int, is_write: bool) -> AccessResult:
        """Perform a timing access; allocates/evicts per policy.

        The returned latency covers only this cache's hit time; miss
        latency is composed by the hierarchy (L2, bus, DRAM).
        """
        clock = self._clock + 1
        self._clock = clock
        line_no = addr // self._line_bytes
        n_sets = self._n_sets
        index = line_no % n_sets
        tag = line_no // n_sets
        ways = self._sets.get(index)
        if ways is None:
            ways = self._sets[index] = []
        for line in ways:
            if line.valid and line.tag == tag:
                self.hits += 1
                line.last_use = clock
                if is_write and self._write_back:
                    line.dirty = True
                return self._hit_result

        self.misses += 1
        if is_write and not self._allocates_on_write:
            # write-through no-allocate: the store goes downstream, no fill.
            return self._miss_no_alloc

        writeback: Optional[int] = None
        if len(ways) >= self._assoc:
            victim = min(ways, key=lambda l: l.last_use)
            self.evictions += 1
            if victim.dirty:
                self.writebacks += 1
                writeback = self._addr_of(index, victim.tag)
            ways.remove(victim)
        new_line = Line(tag=tag, last_use=clock,
                        dirty=is_write and self._write_back)
        ways.append(new_line)
        return AccessResult(hit=False, latency=self._hit_latency,
                            writeback_line=writeback)

    # -- inventory --------------------------------------------------------
    def resident_lines(self) -> Iterator[int]:
        """Byte addresses of all valid resident lines."""
        for index, ways in self._sets.items():
            for line in ways:
                if line.valid:
                    yield self._addr_of(index, line.tag)

    def resident_count(self) -> int:
        return sum(1 for _ in self.resident_lines())

    def invalidate(self, addr: int) -> bool:
        """Invalidate the line containing ``addr``; True if it was present."""
        index, tag = self._index_tag(addr)
        for line in self._sets.get(index, ()):
            if line.valid and line.tag == tag:
                line.valid = False
                return True
        return False

    def invalidate_all(self) -> int:
        """Flash-invalidate; returns the number of lines dropped."""
        n = 0
        for ways in self._sets.values():
            for line in ways:
                if line.valid:
                    line.valid = False
                    n += 1
        return n

    def reset_stats(self) -> None:
        self.hits = self.misses = self.evictions = self.writebacks = 0
