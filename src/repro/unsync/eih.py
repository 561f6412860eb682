"""Error Interrupt Handler (EIH).

One EIH serves each core-pair. Detection blocks raise an interrupt to the
EIH; the EIH broadcasts RECOVERY to both cores and the CB. The paper's
Figure 2 discussion is explicit that this signalling takes "a non-zero
number of cycles" — that window is where the write-back-cache
unrecoverability argument lives. The two latencies below are fixed
constants; UnSync's paired-strike window is their sum.

Ordering contract: when several interrupts are deliverable at the same
poll, they pop in ``(raise_cycle, core_id, block)`` order *regardless of
the order they were raised in* — simultaneous detections on both cores
must produce the same recovery sequence (and therefore byte-identical
campaign JSONL) on every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

#: cycles from a detector firing to the EIH receiving the interrupt
SIGNAL_LATENCY = 2
#: cycles from EIH broadcast to both pipelines being fully stalled
STALL_LATENCY = 3


@dataclass(slots=True)
class PendingInterrupt:
    """One raised interrupt awaiting delivery to the pair."""

    raise_cycle: int
    core_id: int
    block: str
    #: opaque caller payload (UnSync attaches the FaultEvent so a dropped
    #: or unrecoverable interrupt can be re-adjudicated)
    token: Any = None

    def order_key(self) -> Tuple[int, int, str]:
        return (self.raise_cycle, self.core_id, self.block)


class ErrorInterruptHandler:
    """Collects error interrupts and schedules pair-wide recovery."""

    def __init__(self) -> None:
        self._pending: List[PendingInterrupt] = []
        self.interrupts_received = 0
        self.recoveries_signalled = 0
        self.interrupts_dropped = 0

    def raise_interrupt(self, now: int, core_id: int, block: str,
                        token: Any = None) -> None:
        """A detector on ``core_id`` fired at cycle ``now``."""
        self._pending.append(PendingInterrupt(now, core_id, block, token))
        self.interrupts_received += 1

    def poll(self, now: int) -> Optional[PendingInterrupt]:
        """The interrupt whose recovery the pair must begin at ``now``.

        An interrupt is deliverable once ``SIGNAL_LATENCY`` has elapsed
        since it was raised; both pipelines are then quiesced
        ``STALL_LATENCY`` cycles later, when state copying may begin.
        Deliverable interrupts pop in ``(raise_cycle, core_id, block)``
        order, independent of raise order.
        """
        ready = [intr for intr in self._pending
                 if now >= intr.raise_cycle + SIGNAL_LATENCY]
        if not ready:
            return None
        intr = min(ready, key=PendingInterrupt.order_key)
        self._pending.remove(intr)
        self.recoveries_signalled += 1
        return intr

    def drop_latest_pending(self) -> Optional[PendingInterrupt]:
        """A strike on the pending queue destroys its youngest record.

        Returns the dropped interrupt (deterministically the max
        ``(raise_cycle, core_id, block)``) so the caller can re-adjudicate
        the fault it carried, or ``None`` when the queue is empty.
        """
        if not self._pending:
            return None
        intr = max(self._pending, key=PendingInterrupt.order_key)
        self._pending.remove(intr)
        self.interrupts_dropped += 1
        return intr

    def pending_for(self, core_id: int) -> bool:
        """Whether an undelivered interrupt from ``core_id`` is queued."""
        return any(intr.core_id == core_id for intr in self._pending)
