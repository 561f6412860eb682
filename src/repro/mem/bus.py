"""Shared L1<->L2 bus.

A single-transaction-at-a-time bus with first-come-first-served
arbitration, shared by: L1 refills of both cores of a pair, Communication
Buffer drains (UnSync), fingerprint exchanges (Reunion, when modelled on
the data bus), and recovery-time state copies. The paper explicitly models
"the stalls caused when the CB is full and the bus is busy" (Sec V), so bus
occupancy is load-bearing for Figure 6.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class BusStats:
    transactions: int = 0
    wait_cycles: int = 0


class Bus:
    """Occupancy-based bus model.

    ``request(now, duration)`` returns the cycle at which the transaction
    *completes*; the bus is then busy until that cycle. Requests issued
    while busy queue behind the current holder (FCFS): their start time is
    the current free time.
    """

    def __init__(self, width_bytes: int = 8, cycles_per_beat: int = 1) -> None:
        #: bytes moved per beat; Table I's memory bus is 64-bit wide.
        self.width_bytes = width_bytes
        self.cycles_per_beat = cycles_per_beat
        self._free_at = 0
        self.stats = BusStats()

    def transfer_cycles(self, n_bytes: int) -> int:
        """Cycles to move ``n_bytes`` over the bus (at least one beat)."""
        beats = max(1, -(-n_bytes // self.width_bytes))
        return beats * self.cycles_per_beat

    def busy(self, now: int) -> bool:
        return now < self._free_at

    def request(self, now: int, duration: int) -> int:
        """Acquire the bus for ``duration`` cycles; returns completion cycle."""
        if duration <= 0:
            raise ValueError("bus transaction needs positive duration")
        start = max(now, self._free_at)
        self.stats.wait_cycles += start - now
        self._free_at = start + duration
        self.stats.transactions += 1
        return self._free_at

    def try_request(self, now: int, duration: int) -> int:
        """Acquire only if idle at ``now``; returns completion cycle or -1.

        Used by the CB drain engine, which the paper describes as draining
        "as and when the L1-L2 data bus is free".
        """
        if self.busy(now):
            return -1
        return self.request(now, duration)

    def reset(self) -> None:
        self._free_at = 0
        self.stats = BusStats()
