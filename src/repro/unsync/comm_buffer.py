"""The Communication Buffer (CB).

Sec III-A: "Data written into the L1-cache of a core, as it leaves the
core (as in a write-through cache), is written into a non-coalescing CB,
one for each core in the core-pair. In the CB, each updated entry is
tagged with its corresponding instruction address. As and when the L1-L2
data bus is free, the latest entry that has completed execution on both
the CB is selected; and one copy of all the CB entries earlier to this are
written into the L2 cache."

Because both cores retire the identical store stream in order, each CB is
a FIFO of the same sequence; the "latest entry completed on both" rule is
exactly the matched FIFO prefix, which ``UnSyncSystem._drain`` pops.

A full CB back-pressures its core's commit stage — the mechanism behind
Figure 6.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque


#: Paper sizing: one entry holds address + data + instruction tag. The
#: Reunion CSB entry is 66 bits; the CB entry carries a 32-bit address,
#: 32-bit data and a tag, so we budget 12 bytes per entry when converting
#: Figure 6's KB sizes to entry counts.
ENTRY_BYTES = 12


def cb_entries_for(kb: float) -> int:
    """CB entries in ``kb`` KB of buffer (Figure 6's x-axis)."""
    return max(1, int(kb * 1024 // ENTRY_BYTES))


@dataclass(frozen=True, slots=True)
class CBEntry:
    """One retired store, tagged with its dynamic sequence number (the
    simulator's stand-in for the paper's instruction-address tag)."""

    seq: int
    addr: int
    value: int
    width: int


class CommBuffer:
    """Non-coalescing FIFO of retired stores for one core."""

    def __init__(self, capacity_entries: int) -> None:
        if capacity_entries <= 0:
            raise ValueError("CB needs at least one entry")
        self.capacity = capacity_entries
        self._fifo: Deque[CBEntry] = deque()
        self.pushes = 0
        self.drains = 0
        self.full_stalls = 0
        #: high-water mark (the Figure 6 sizing question, measured)
        self.max_occupancy = 0

    def __len__(self) -> int:
        return len(self._fifo)

    @property
    def full(self) -> bool:
        return len(self._fifo) >= self.capacity

    def can_accept(self) -> bool:
        if self.full:
            self.full_stalls += 1
            return False
        return True

    def push(self, entry: CBEntry) -> None:
        if self.full:
            raise RuntimeError("push into full CB")
        if self._fifo and entry.seq <= self._fifo[-1].seq:
            raise ValueError("CB entries must arrive in retirement order")
        self._fifo.append(entry)
        self.pushes += 1
        if len(self._fifo) > self.max_occupancy:
            self.max_occupancy = len(self._fifo)

    def pop(self) -> CBEntry:
        self.drains += 1
        return self._fifo.popleft()

    def overwrite_from(self, other: "CommBuffer") -> None:
        """Recovery step 5: replace contents with the clean core's CB."""
        self._fifo = deque(other._fifo)
