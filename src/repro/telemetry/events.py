"""Structured simulation event log.

Events are typed (module-level name constants below), timestamped in
simulation cycles, and carry a *track* — the hardware structure they
belong to (``core0``, ``cb``, ``eih``, ``check``, ``core1.mem`` ...).
One track maps to one row in the Chrome trace viewer, so a recovery
episode reads as a flame-style timeline across the core / CB / EIH rows.

Emission rules that keep exports valid:

* events on one track must be emitted in non-decreasing ``ts`` order
  (the Chrome exporter asserts this via ``validate_chrome``). Systems
  achieve it by emitting at the *current* cycle and putting any future
  completion time in ``args``;
* a span (``dur is not None``) covers ``[ts, ts + dur)``;
* the log is bounded: past ``limit`` events, new emissions are counted in
  ``dropped`` instead of stored, so a pathological run cannot eat the
  heap.
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, Optional

# -- typed event names ------------------------------------------------------
FAULT_INJECTED = "fault.injected"     #: a strike landed on a block
FAULT_DETECTED = "fault.detected"     #: a detector fired (or corrected)
FAULT_SDC = "fault.sdc"               #: a strike escaped detection
FAULT_MULTIBIT = "fault.multibit"     #: a multi-bit cluster strike landed
FAULT_DUE = "fault.due"               #: detected but unrecoverable
EIH_INTERRUPT = "eih.interrupt"       #: EIH begins pair-wide recovery
EIH_RECOVERY = "eih.recovery"         #: span: the full recovery episode
CB_GATE = "cb.gate"                   #: span: commit stalled on a full CB
CB_DRAIN = "cb.drain"                 #: CB entries drained to the L2
FP_COMPARE = "fingerprint.compare"    #: a fingerprint pair was compared
FP_MISMATCH = "fingerprint.mismatch"  #: the comparison failed
ROLLBACK = "rollback"                 #: span: Reunion rollback episode
CSB_GATE = "csb.gate"                 #: span: execute stalled on a full CSB
MEM_MISS_BURST = "mem.miss_burst"     #: span: a dense run of L1/TLB misses
RECOVERY_REENTRY = "recovery.reentry"  #: a strike landed mid-recovery
RECOVERY_ABORT = "recovery.abort"     #: recovery aborted and restarted
WATCHDOG_TRIP = "watchdog.trip"       #: the cycle-budget watchdog fired
REPLAY_COMPARE = "replay.compare"     #: a delayed-replay mismatch landed
REPLAY_GATE = "replay.gate"           #: span: commit stalled, replay Q full
CHECKQ_GATE = "checkq.gate"           #: span: commit stalled, check Q full
CHECKQ_DRAIN = "checkq.drain"         #: checker verified a queue batch


class Event:
    """One timestamped occurrence on one track."""

    __slots__ = ("name", "ts", "track", "dur", "args")

    def __init__(self, name: str, ts: int, track: str,
                 dur: Optional[int] = None,
                 args: Optional[Dict] = None) -> None:
        self.name = name
        self.ts = ts
        self.track = track
        self.dur = dur
        self.args = args

    def to_dict(self) -> Dict:
        d: Dict = {"name": self.name, "ts": self.ts, "track": self.track}
        if self.dur is not None:
            d["dur"] = self.dur
        if self.args:
            d["args"] = self.args
        return d

    def __repr__(self) -> str:  # pragma: no cover
        dur = f" dur={self.dur}" if self.dur is not None else ""
        return f"<Event {self.name} @{self.ts} [{self.track}]{dur}>"


class EventLog:
    """Bounded in-memory event buffer."""

    #: events kept; later emissions are only counted in ``dropped``
    limit = 200_000

    def __init__(self) -> None:
        self._events: List[Event] = []
        self.dropped = 0

    def emit(self, name: str, ts: int, track: str,
             dur: Optional[int] = None,
             args: Optional[Dict] = None) -> None:
        if len(self._events) >= self.limit:
            self.dropped += 1
            return
        self._events.append(Event(name, ts, track, dur, args))

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def tracks(self) -> List[str]:
        """Track names in first-emission order."""
        seen: Dict[str, None] = {}
        for e in self._events:
            if e.track not in seen:
                seen[e.track] = None
        return list(seen)

    def by_name(self, name: str) -> List[Event]:
        return [e for e in self._events if e.name == name]

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for e in self._events:
                fh.write(json.dumps(e.to_dict(), sort_keys=True) + "\n")
