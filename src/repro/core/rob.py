"""Re-order buffer.

The ROB is the central bookkeeping structure of the pipeline and the
structure whose *occupancy* Reunion's CHECK stage inflates (Fig 5): an
instruction's entry lives from dispatch until commit, and commit may be
delayed by a redundancy gate long after execution completes.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Iterator, Optional

from repro.isa.instructions import Instruction


class EntryState(enum.Enum):
    DISPATCHED = "dispatched"   # in ROB + IQ, waiting for operands/FU
    ISSUED = "issued"           # executing on an FU
    COMPLETED = "completed"     # result broadcast; waiting to commit


@dataclass(slots=True, eq=False)
class ROBEntry:
    """One in-flight instruction.

    ``slots=True``: one of these is allocated per dynamic instruction and
    threaded through IQ/LSQ/ROB/writeback, so the per-instance dict is
    measurable overhead at campaign scale. ``eq=False``: entries are
    compared (and removed from the IQ/LSQ) by identity — two distinct
    in-flight instructions are never "equal", and field-wise comparison
    made ``list.remove`` a hot spot.
    """

    seq: int                    # global dynamic sequence number
    ins: Instruction
    pc: int
    state: EntryState = EntryState.DISPATCHED
    #: cycle at which execution finishes (set at issue)
    complete_cycle: int = -1
    #: wake-up bookkeeping: number of producers that have not issued yet
    #: (decremented by the producer when it issues), and the earliest
    #: cycle by which every issued producer has broadcast its result.
    #: The entry may issue once ``pending == 0 and ready_at <= now``.
    pending: int = 0
    ready_at: int = 0
    #: consumers to notify when this entry issues (lazily allocated;
    #: entries of one pipeline only, so a flush drops both sides at once)
    waiters: Optional[list] = None
    #: functional results, filled at dispatch (eager execution)
    result: Optional[int] = None
    mem_addr: Optional[int] = None
    store_value: Optional[int] = None
    branch_taken: bool = False
    branch_target: int = 0
    #: Reunion: index of the fingerprint group this entry belongs to
    fp_group: int = -1

    @property
    def is_store(self) -> bool:
        return self.ins.is_store

    @property
    def is_load(self) -> bool:
        return self.ins.is_load


class ROB:
    """Bounded FIFO of :class:`ROBEntry`."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("ROB capacity must be positive")
        self.capacity = capacity
        self._entries: Deque[ROBEntry] = deque()
        # occupancy statistics (for the Fig 5 discussion)
        self.occupancy_samples = 0
        self.occupancy_sum = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ROBEntry]:
        return iter(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._entries

    def head(self) -> Optional[ROBEntry]:
        return self._entries[0] if self._entries else None

    def push(self, entry: ROBEntry) -> None:
        if self.full:
            raise RuntimeError("dispatch into full ROB")
        self._entries.append(entry)

    def pop(self) -> ROBEntry:
        return self._entries.popleft()

    def flush(self) -> int:
        """Drop every in-flight entry (recovery); returns count dropped."""
        n = len(self._entries)
        self._entries.clear()
        return n

    def mean_occupancy(self) -> float:
        if not self.occupancy_samples:
            return 0.0
        return self.occupancy_sum / self.occupancy_samples
