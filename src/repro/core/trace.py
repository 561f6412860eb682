"""Per-instruction pipeline tracing and text visualization.

Attach a :class:`PipelineTracer` to a pipeline before running and every
instruction's journey is recorded: fetch, dispatch, issue, completion,
retirement cycles. :func:`render_timeline` draws the classic textbook
pipeline diagram::

    seq  pc      instruction           0         10        20
    0    0x0000  lui r1, 0             F--D-I=C------------------R
    1    0x0004  ori r1, r1, 100       F--D--I=C-----------------R

(F fetch done, D dispatch, I issue, = executing, C complete, - waiting,
R retire.) Invaluable when a gate (CB full, unverified fingerprint)
holds the commit point: the diagram shows exactly which stage work piles
up in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.isa.instructions import Instruction


@dataclass(slots=True)
class TraceRecord:
    """One instruction's lifecycle."""

    seq: int
    pc: int
    ins: Instruction
    fetch_cycle: int = -1
    dispatch_cycle: int = -1
    issue_cycle: int = -1
    complete_cycle: int = -1
    commit_cycle: int = -1

    @property
    def commit_wait(self) -> Optional[int]:
        """Cycles spent completed-but-not-retired — where redundancy
        gates (CB back-pressure, fingerprint verification) show up."""
        if self.commit_cycle < 0 or self.complete_cycle < 0:
            return None
        return self.commit_cycle - self.complete_cycle


class PipelineTracer:
    """Collects :class:`TraceRecord` per dynamic instruction.

    ``limit`` bounds memory on long runs (records past the limit are
    dropped, counters still advance).
    """

    def __init__(self, limit: int = 10_000) -> None:
        self.limit = limit
        self.records: Dict[int, TraceRecord] = {}
        self.dropped = 0

    def fetch(self, seq: int, pc: int, ins: Instruction, now: int) -> None:
        if len(self.records) >= self.limit:
            self.dropped += 1
            return
        self.records[seq] = TraceRecord(seq=seq, pc=pc, ins=ins,
                                        fetch_cycle=now)

    def _get(self, seq: int) -> Optional[TraceRecord]:
        return self.records.get(seq)

    def dispatch(self, seq: int, now: int) -> None:
        r = self._get(seq)
        if r:
            r.dispatch_cycle = now

    def issue(self, seq: int, now: int) -> None:
        r = self._get(seq)
        if r:
            r.issue_cycle = now

    def complete(self, seq: int, now: int) -> None:
        r = self._get(seq)
        if r and r.complete_cycle < 0:
            r.complete_cycle = now

    def commit(self, seq: int, now: int) -> None:
        r = self._get(seq)
        if r:
            r.commit_cycle = now

    # -- analysis ------------------------------------------------------------
    def committed_records(self) -> List[TraceRecord]:
        return sorted((r for r in self.records.values()
                       if r.commit_cycle >= 0), key=lambda r: r.seq)

    def mean_commit_wait(self) -> float:
        waits = [r.commit_wait for r in self.committed_records()
                 if r.commit_wait is not None]
        return sum(waits) / len(waits) if waits else 0.0


def render_timeline(tracer: PipelineTracer,
                    first_seq: int = 0,
                    count: int = 20,
                    max_width: int = 100) -> str:
    """Draw the pipeline diagram for ``count`` instructions from
    ``first_seq``."""
    records = [r for r in tracer.committed_records()
               if r.seq >= first_seq][:count]
    if not records:
        return "(no committed instructions in trace window)"
    t0 = min(r.fetch_cycle for r in records)
    t1 = max(r.commit_cycle for r in records)
    span = t1 - t0 + 1
    scale = 1 if span <= max_width else (span + max_width - 1) // max_width
    width = (span + scale - 1) // scale

    def col(cycle: int) -> int:
        return (cycle - t0) // scale

    header = f"{'seq':>5} {'pc':>8}  {'instruction':24} cycle {t0}..{t1}" \
             + (f" (1 char = {scale} cyc)" if scale > 1 else "")
    lines = [header]
    for r in records:
        lane = [" "] * width
        for a, b in ((col(r.fetch_cycle), col(r.dispatch_cycle)),
                     (col(r.dispatch_cycle), col(r.issue_cycle))):
            for i in range(max(0, a), max(0, b)):
                lane[i] = "-"
        if r.issue_cycle >= 0 and r.complete_cycle >= 0:
            for i in range(col(r.issue_cycle), col(r.complete_cycle)):
                lane[i] = "="
        if r.complete_cycle >= 0:
            for i in range(col(r.complete_cycle), col(r.commit_cycle)):
                lane[i] = "-"
        if r.fetch_cycle >= 0:
            lane[col(r.fetch_cycle)] = "F"
        if r.dispatch_cycle >= 0:
            lane[col(r.dispatch_cycle)] = "D"
        if r.issue_cycle >= 0:
            lane[col(r.issue_cycle)] = "I"
        if r.complete_cycle >= 0:
            lane[col(r.complete_cycle)] = "C"
        lane[col(r.commit_cycle)] = "R"
        lines.append(f"{r.seq:>5} {r.pc:#8x}  {str(r.ins):24} "
                     + "".join(lane))
    return "\n".join(lines)
