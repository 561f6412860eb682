"""Load-store queue.

Memory instructions hold an LSQ slot from dispatch to commit. The LSQ also
answers store-to-load forwarding queries: a load whose address overlaps an
older in-flight store receives the value over the bypass network in one
cycle instead of accessing the D-cache. (Addresses are exact — the model
executes eagerly at fetch — so there is no speculative disambiguation to
get wrong.)

The LSQ is one of UnSync's parity-protected storage blocks (Sec III-B-1).
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.core.rob import ROBEntry


class LSQ:
    """Bounded age-ordered queue of in-flight memory instructions."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("LSQ capacity must be positive")
        self.capacity = capacity
        self._entries: List[ROBEntry] = []
        self.full_stalls = 0
        self.forwards = 0
        self.occupancy_samples = 0
        self.occupancy_sum = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ROBEntry]:
        return iter(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def push(self, entry: ROBEntry) -> None:
        if self.full:
            raise RuntimeError("dispatch into full LSQ")
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

    def forwarding_store(self, load: ROBEntry) -> Optional[ROBEntry]:
        """Youngest older store whose access overlaps ``load``'s bytes."""
        lo = load.mem_addr
        if lo is None:
            return None
        hi = lo + load.ins.mem_width
        load_seq = load.seq
        best: Optional[ROBEntry] = None
        best_seq = -1
        for e in self._entries:
            seq = e.seq
            if seq >= load_seq or seq <= best_seq:
                continue
            ins = e.ins
            if not ins.is_store:
                continue
            s_lo = e.mem_addr
            if s_lo is None:
                continue
            if s_lo < hi and lo < s_lo + ins.mem_width:
                best = e
                best_seq = seq
        if best is not None:
            self.forwards += 1
        return best
