"""Triple modular redundancy comparator (extension).

The paper positions UnSync against the classic redundancy spectrum: DMR
detects, TMR detects *and corrects* by majority vote at ~200% overhead
(Sec II / III-B-1). This module implements a core-level TMR system over
the same substrate so the trade-off is measurable rather than cited:

* three identical cores run the thread; their store streams meet in
  three Communication Buffers;
* an entry drains once a *majority* (2 of 3) has produced it — the vote;
* a fault on one core never stalls the majority: only the struck core
  freezes, adopts a majority member's architectural state, and catches
  up (TMR's availability advantage over pair-recovery);
* the price is a third core's worth of area, power, and uncore traffic —
  the hwcost model (``repro.hwcost.redundancy_cost``) quantifies it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.config import SystemConfig
from repro.core.pipeline import CommitGate, Pipeline
from repro.core.rob import ROBEntry
from repro.faults.detection import Detector, NoDetector
from repro.faults.events import FaultEvent, Outcome
from repro.faults.injector import FaultInjector, Strike
from repro.isa.program import Program
from repro.mem.bus import Bus
from repro.mem.hierarchy import MemPort
from repro.mem.l2 import SharedL2
from repro.mem.prewarm import prewarm_l2
from repro.redundancy.stats import RunResult
from repro.unsync.comm_buffer import CBEntry, CommBuffer
from repro.unsync.recovery import RecoveryCostModel


class _TMRGate(CommitGate):
    """Per-core gate: stores enter this core's CB (or are dropped if the
    majority already voted them through while this core lagged)."""

    def __init__(self, system: "TMRSystem", core_id: int) -> None:
        self.system = system
        self.core_id = core_id

    def can_commit(self, entry: ROBEntry, now: int) -> bool:
        if entry.is_store:
            if entry.seq <= self.system.drained_seq:
                return True  # already voted through; no CB slot needed
            return self.system.cbs[self.core_id].can_accept()
        return True

    def on_commit(self, entry: ROBEntry, now: int) -> None:
        if entry.is_store and entry.seq > self.system.drained_seq:
            self.system.cbs[self.core_id].push(CBEntry(
                seq=entry.seq, addr=entry.mem_addr,
                value=entry.store_value, width=entry.ins.mem_width))


class TMRSystem:
    """Three cores, one thread, majority-voted store stream."""

    scheme = "tmr"
    N = 3

    def __init__(self, program: Program,
                 config: Optional[SystemConfig] = None,
                 cb_entries: int = 170,
                 injector: Optional[FaultInjector] = None,
                 recovery: Optional[RecoveryCostModel] = None,
                 name: Optional[str] = None) -> None:
        self.program = program
        self.config = config or SystemConfig.table1()
        self.name = name or program.name
        self.bus = Bus(width_bytes=self.config.bus_width_bytes)
        self.l2 = SharedL2(config=self.config.l2, mshrs=self.config.l2_mshrs)
        prewarm_l2(self.l2, program)
        self.cbs: List[CommBuffer] = [CommBuffer(cb_entries)
                                      for _ in range(self.N)]
        #: highest store seq already voted and written to L2
        self.drained_seq = -1
        self.injector = injector
        self.recovery = recovery or RecoveryCostModel(l1_restore="invalidate")
        self.fault_events: List[FaultEvent] = []
        self.corrections = 0
        self.votes = 0
        self._next_strike: Optional[Strike] = None

        self.ports: List[MemPort] = []
        self.pipelines: List[Pipeline] = []
        for i in range(self.N):
            port = MemPort(self.bus, self.l2,
                           icache_cfg=self.config.icache,
                           dcache_cfg=self.config.dcache,
                           itlb_cfg=self.config.itlb,
                           dtlb_cfg=self.config.dtlb,
                           l1_mshrs=self.config.l1_mshrs,
                           name=f"{self.name}.core{i}")
            self.ports.append(port)
            self.pipelines.append(Pipeline(program, self.config.core, port,
                                           gate=_TMRGate(self, i),
                                           name=f"core{i}"))
        self.now = 0
        if self.injector is not None:
            # Injected runs must keep the commit-time image an independent
            # re-execution, never a replay of fetch-time records.
            for p in self.pipelines:
                p.commit_replay = "always"
            self._arm_next_strike(0)

    # -- drain / vote ------------------------------------------------------
    def _drain(self, now: int) -> None:
        while True:
            heads = [cb.head().seq for cb in self.cbs if len(cb)]
            if not heads:
                return
            oldest = min(heads)
            holders = [cb for cb in self.cbs
                       if len(cb) and cb.head().seq == oldest]
            if len(holders) < 2:
                return  # no majority for the oldest store yet
            xfer = self.bus.transfer_cycles(8)
            if self.bus.try_request(now, xfer) < 0:
                return
            self.votes += 1
            head = holders[0].head()
            for cb in holders:
                cb.pop()
            self.l2.access(head.addr, is_write=True, now=now)
            self.drained_seq = oldest

    def _purge_stale(self) -> None:
        """Drop already-voted entries from a lagging core's CB."""
        for cb in self.cbs:
            while len(cb) and cb.head().seq <= self.drained_seq:
                cb.pop()

    # -- faults --------------------------------------------------------------
    def _arm_next_strike(self, now: int) -> None:
        interval = self.injector.next_interval()
        if interval == float("inf"):
            self._next_strike = None
            return
        self._next_strike = self.injector.strike_at(now + max(1, int(interval)))

    def _process_strikes(self, now: int) -> None:
        while self._next_strike is not None and self._next_strike.cycle <= now:
            strike = self._next_strike
            core_id = strike.bit % self.N
            event = FaultEvent(cycle=now, core_id=core_id,
                               block=strike.block, bit=strike.bit)
            # TMR's detection is the vote itself: any corrupted core is
            # out-voted; the struck core resynchronises while the other
            # two keep running.
            self._recover_core(now, core_id)
            event.outcome = Outcome.DETECTED_RECOVERED
            self.fault_events.append(event)
            self.corrections += 1
            self._arm_next_strike(now)

    def _recover_core(self, now: int, bad_core: int) -> None:
        donors = [i for i in range(self.N) if i != bad_core]
        # adopt from whichever healthy core has committed furthest
        donor = max(donors,
                    key=lambda i: self.pipelines[i].stats.committed)
        bad = self.pipelines[bad_core]
        plan = self.recovery.plan(
            stall_cycles=2,
            l1_resident_lines=self.ports[donor].dcache.resident_count(),
            cb_entries=len(self.cbs[donor]))
        bad.flush_pipeline()
        bad.adopt_state(self.pipelines[donor])
        self.ports[bad_core].dcache.invalidate_all()
        self.ports[bad_core].icache.invalidate_all()
        self.cbs[bad_core].overwrite_from(self.cbs[donor])
        # ONLY the struck core freezes — the majority keeps executing
        bad.frozen_until = max(bad.frozen_until, now + plan.total_cycles)

    # -- driving ---------------------------------------------------------------
    def finished(self) -> bool:
        return all(p.done for p in self.pipelines)

    def step(self) -> None:
        if self.injector is not None:
            self._process_strikes(self.now)
        self._purge_stale()
        self._drain(self.now)
        for p in self.pipelines:
            p.step(self.now)
        self.now += 1

    def run(self, max_cycles: int = 4_000_000) -> RunResult:
        while not self.finished():
            if self.now >= max_cycles:
                raise RuntimeError(
                    f"{self.name}[tmr]: exceeded {max_cycles} cycles")
            self.step()
        res = RunResult(
            name=self.name,
            scheme=self.scheme,
            cycles=max(p.stats.cycles for p in self.pipelines),
            instructions=self.pipelines[0].stats.committed,
            state=self.pipelines[0].committed_state,
            core_stats=[p.stats for p in self.pipelines],
            metrics={
                "tmr.votes": float(self.votes),
                "tmr.corrections": float(self.corrections),
                "tmr.cb.full_stalls": float(sum(cb.full_stalls
                                                for cb in self.cbs)),
            },
        )
        res.fault_events = list(self.fault_events)
        return res
