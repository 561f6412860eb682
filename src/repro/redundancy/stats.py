"""Run results and the store write buffer."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Tuple

from repro.core.pipeline import PipelineStats
from repro.faults.events import FaultEvent
from repro.isa.golden import ArchState
from repro.mem.bus import Bus
from repro.mem.l2 import SharedL2


@dataclass
class RunResult:
    """Outcome of one (system, workload) simulation."""

    name: str
    scheme: str
    cycles: int
    instructions: int
    state: ArchState
    core_stats: List[PipelineStats] = field(default_factory=list)
    fault_events: List[FaultEvent] = field(default_factory=list)
    #: flat hierarchical telemetry counters (``core0.l1d.misses``,
    #: ``unsync.cb.full_stalls``, ...) — the run's one counter namespace.
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def overhead_vs(self, baseline: "RunResult") -> float:
        """Relative slowdown against a baseline run of the same workload.

        0.08 means 8% more cycles than the baseline.
        """
        if baseline.cycles == 0:
            raise ValueError("baseline has zero cycles")
        if baseline.instructions != self.instructions:
            raise ValueError(
                f"incomparable runs: {self.instructions} vs "
                f"{baseline.instructions} instructions")
        return self.cycles / baseline.cycles - 1.0


class WriteBuffer:
    """Store buffer between a write-through L1 and the L2.

    The unprotected baseline needs one so that write-through stores do not
    serialise commit: retired stores queue here and drain whenever the bus
    is free. Reunion, RepTFD and MEEK release their verified stores
    through one the same way. A full buffer back-pressures commit exactly
    like UnSync's CB
    (same mechanism, no pairing rule) — which is why UnSync with a large
    CB converges to baseline performance in Figure 6.
    """

    #: queued stores before commit back-pressures
    capacity = 16
    #: bytes one queued store moves over the bus (address + data + tag)
    entry_bytes = 12

    def __init__(self) -> None:
        self._entries: Deque[Tuple[int, int, int, int]] = deque()
        self.pushes = 0
        self.full_stalls = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def can_accept(self) -> bool:
        if self.full:
            self.full_stalls += 1
            return False
        return True

    def push(self, seq: int, addr: int, value: int, width: int) -> None:
        if self.full:
            raise RuntimeError("push into full write buffer")
        self._entries.append((seq, addr, value, width))
        self.pushes += 1

    def drain(self, bus: Bus, l2: SharedL2, now: int) -> None:
        """Write queued stores to the L2, oldest first, while the bus
        accepts the transfer."""
        entries = self._entries
        while entries:
            if bus.try_request(now, bus.transfer_cycles(self.entry_bytes)) < 0:
                break
            l2.access(entries.popleft()[1], is_write=True, now=now)
