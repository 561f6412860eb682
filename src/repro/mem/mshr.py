"""Miss-status holding registers.

An MSHR file bounds the number of outstanding misses a cache can sustain
(Table I: 10 for L1, 20 for L2). Requests to an already-pending line merge
into the existing entry instead of consuming a new one, as in real MSHRs.
When the file is full the requester must stall — the pipeline models this
as a structural hazard on the memory unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(slots=True)
class _Entry:
    line_addr: int
    ready_cycle: int


class MSHRFile:
    """Fixed-capacity set of outstanding line misses."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("MSHR capacity must be positive")
        self.capacity = capacity
        self._entries: Dict[int, _Entry] = {}
        # statistics
        self.allocations = 0
        self.merges = 0
        self.full_stalls = 0

    def expire(self, now: int) -> None:
        """Retire entries whose fill has arrived by cycle ``now``."""
        if not self._entries:
            return
        done = [a for a, e in self._entries.items() if e.ready_cycle <= now]
        for a in done:
            del self._entries[a]

    def pending(self, line_addr: int) -> bool:
        return line_addr in self._entries

    def ready_cycle(self, line_addr: int) -> int:
        return self._entries[line_addr].ready_cycle

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def allocate(self, line_addr: int, ready_cycle: int) -> bool:
        """Track a new miss; returns False (stall) when full.

        Merging into an existing entry always succeeds and never consumes
        capacity.
        """
        if line_addr in self._entries:
            self.merges += 1
            return True
        if self.full:
            self.full_stalls += 1
            return False
        self._entries[line_addr] = _Entry(line_addr, ready_cycle)
        self.allocations += 1
        return True

    def clear(self) -> None:
        self._entries.clear()
