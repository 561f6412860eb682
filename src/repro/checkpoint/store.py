"""The bounded snapshot ring behind differential replay.

:class:`CheckpointStore` holds the whole-system snapshots a campaign
captures along one fault-free prefix, charges each the bytes it added,
and answers "newest snapshot at or before cycle N" for a trial's first
strike. When the ring fills, the prefix cache thins it instead of
stalling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, List, Optional


@dataclass
class Checkpoint:
    """One captured snapshot payload (a
    :class:`~repro.checkpoint.snapshot.SystemSnapshot` in the campaign's
    prefix ring)."""

    seq: int                  # committed-instruction watermark
    cycle: int                # capture time
    state: Any
    #: bytes that had to be saved (delta vs previous checkpoint)
    delta_bytes: int


class CheckpointStore:
    """Bounded ring of checkpoints, oldest first, in capture order."""

    def __init__(self, capacity: int = 2) -> None:
        if capacity < 1:
            raise ValueError("need at least one checkpoint slot")
        self.capacity = capacity
        self._stack: List[Checkpoint] = []

    def __len__(self) -> int:
        return len(self._stack)

    def __iter__(self) -> Iterator[Checkpoint]:
        return iter(self._stack)

    @property
    def full(self) -> bool:
        return len(self._stack) >= self.capacity

    def capture_payload(self, seq: int, cycle: int, payload: Any,
                        delta_bytes: int) -> Checkpoint:
        """Store an opaque snapshot payload with its cost.

        The caller supplies ``delta_bytes`` because only it knows the
        payload's incremental footprint (the differential-replay cache
        charges the bytes its page pool actually grew by).
        """
        if self.full:
            raise RuntimeError("capture into full checkpoint store")
        cp = Checkpoint(seq=seq, cycle=cycle, state=payload,
                        delta_bytes=delta_bytes)
        self._stack.append(cp)
        return cp

    def at_or_before(self, cycle: int) -> Optional[Checkpoint]:
        """The newest checkpoint captured at or before ``cycle``.

        The differential-replay lookup: entries are appended in cycle
        order, so this is a reverse scan for the first cycle <= bound.
        """
        for cp in reversed(self._stack):
            if cp.cycle <= cycle:
                return cp
        return None

    def thin_every_other(self) -> int:
        """Drop every other checkpoint (odd positions), oldest kept.

        Ring-pressure relief for open-ended capture streams: when the
        store fills mid-run, the prefix cache halves its resolution and
        doubles its capture interval instead of stalling — coverage of
        the whole run matters more than density. Returns the drop count.
        """
        kept = self._stack[::2]
        dropped = len(self._stack) - len(kept)
        self._stack = kept
        return dropped
