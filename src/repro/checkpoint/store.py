"""Checkpoint storage with cost accounting.

A checkpoint captures the *full* architectural state — registers, PC,
and the memory image — which is exactly the "heavy-weight" property the
UnSync paper holds against the scheme. The capture cost model charges
for the registers plus every memory byte that changed since the previous
checkpoint (incremental checkpointing, the charitable implementation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, List, Optional

from repro.isa.golden import ArchState


@dataclass
class Checkpoint:
    """One captured machine state.

    ``state`` is an :class:`ArchState` for the architectural checkpoints
    the comparator scheme rolls back to, or any opaque snapshot payload
    captured through :meth:`CheckpointStore.capture_payload` (the
    campaign's differential-replay prefix cache stores whole-system
    snapshots here).
    """

    seq: int                  # committed-instruction watermark
    cycle: int                # capture time
    state: Any
    #: bytes that had to be saved (delta vs previous checkpoint)
    delta_bytes: int


class CheckpointStore:
    """Bounded LIFO of checkpoints (old ones retire as new ones verify).

    ``capacity`` bounds how many unverified checkpoints may exist; the
    scheme must stall when full (checkpoint pressure — the analogue of
    UnSync's CB back-pressure).
    """

    REG_BYTES = 32 * 4 + 4    # ARF + PC

    def __init__(self, capacity: int = 2) -> None:
        if capacity < 1:
            raise ValueError("need at least one checkpoint slot")
        self.capacity = capacity
        self._stack: List[Checkpoint] = []
        self.captures = 0
        self.bytes_captured = 0
        self.full_stalls = 0

    def __len__(self) -> int:
        return len(self._stack)

    def __iter__(self) -> Iterator[Checkpoint]:
        return iter(self._stack)

    @property
    def full(self) -> bool:
        return len(self._stack) >= self.capacity

    def can_capture(self) -> bool:
        if self.full:
            self.full_stalls += 1
            return False
        return True

    def capture(self, seq: int, cycle: int, state: ArchState) -> Checkpoint:
        """Snapshot ``state``; cost = registers + memory delta.

        The delta counts every memory byte whose *value* differs from the
        previous checkpoint (content diff over the normalised nonzero
        view — rewriting a byte with its existing value is free).
        """
        if self.full:
            raise RuntimeError("capture into full checkpoint store")
        prev_mem = self._stack[-1].state.mem if self._stack else {}
        delta = sum(1 for addr, val in state.mem.items()
                    if prev_mem.get(addr) != val)
        delta += sum(1 for addr in prev_mem if addr not in state.mem)
        cp = Checkpoint(seq=seq, cycle=cycle, state=state.clone(),
                        delta_bytes=self.REG_BYTES + delta)
        self._stack.append(cp)
        self.captures += 1
        self.bytes_captured += cp.delta_bytes
        return cp

    def capture_payload(self, seq: int, cycle: int, payload: Any,
                        delta_bytes: int) -> Checkpoint:
        """Store an opaque snapshot payload under the same capacity and
        cost accounting as :meth:`capture`.

        The caller supplies ``delta_bytes`` because only it knows the
        payload's incremental footprint (the differential-replay cache
        charges the bytes its page pool actually grew by).
        """
        if self.full:
            raise RuntimeError("capture into full checkpoint store")
        cp = Checkpoint(seq=seq, cycle=cycle, state=payload,
                        delta_bytes=delta_bytes)
        self._stack.append(cp)
        self.captures += 1
        self.bytes_captured += delta_bytes
        return cp

    def newest(self) -> Optional[Checkpoint]:
        return self._stack[-1] if self._stack else None

    def retire_oldest(self) -> Optional[Checkpoint]:
        """Free the oldest checkpoint once everything up to the next one
        has been verified."""
        return self._stack.pop(0) if self._stack else None

    def rollback_target(self) -> Optional[Checkpoint]:
        """The newest *verified* checkpoint is always the stack base."""
        return self._stack[0] if self._stack else None

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
