"""Issue queue.

Holds dispatched-but-not-issued entries in age order; the issue stage
scans oldest-first each cycle (Table I: 64 entries, 4-wide issue). An
entry leaves at issue, so IQ pressure — unlike ROB pressure — is *not*
inflated by Reunion's deferred commit; keeping the two structures separate
is what lets the model show Reunion hurting via the ROB specifically.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.core.rob import ROBEntry


class IssueQueue:
    """Bounded age-ordered queue of waiting instructions."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("IQ capacity must be positive")
        self.capacity = capacity
        self._entries: List[ROBEntry] = []
        self.full_stalls = 0
        self.occupancy_samples = 0
        self.occupancy_sum = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ROBEntry]:
        """Oldest-first iteration (dispatch order)."""
        return iter(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def push(self, entry: ROBEntry) -> None:
        if self.full:
            raise RuntimeError("dispatch into full IQ")
        self._entries.append(entry)

    def remove(self, entry: ROBEntry) -> None:
        self._entries.remove(entry)

    def flush(self) -> int:
        n = len(self._entries)
        self._entries.clear()
        return n

    def mean_occupancy(self) -> float:
        if not self.occupancy_samples:
            return 0.0
        return self.occupancy_sum / self.occupancy_samples
