"""ReunionSystem: vocal/mute core pair with fingerprint verification.

Core 0 is the *vocal* core (its stores are released to the memory
hierarchy); core 1 is *mute*. Completed instructions enter the CHECK-stage
buffer in program order, each group's CRC-16 is compared across the pair
after the comparison latency, and only verified instructions commit. A
mismatch rolls both cores back to their committed (== last verified)
state.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.config import SystemConfig
from repro.core.pipeline import CommitGate
from repro.core.rob import ROBEntry
from repro.faults.detection import NoDetector
from repro.faults.events import FaultEvent
from repro.faults.injector import Block, FaultInjector, REUNION_DETECTORS
from repro.isa.instructions import Opcode
from repro.isa.program import Program
from repro.redundancy.pair import DualCoreSystem
from repro.redundancy.stats import WriteBuffer
from repro.reunion.check_stage import CheckStage, ReunionParams
from repro.reunion.csb import CheckStageBuffer
from repro.telemetry import Telemetry
from repro.telemetry.events import CSB_GATE, ROLLBACK

#: Reunion's exposed uncore structure: the CSB holds pre-commit
#: fingerprint state, so a corrupted entry surfaces as a mismatch (or an
#: aliased escape) through the existing adjudication path.
REUNION_UNCORE_BLOCKS: Tuple[Block, ...] = (
    Block("csb", 64 * 66, pre_commit=True),
)


class _ReunionGate(CommitGate):
    """Per-core gate implementing the CHECK stage protocol."""

    def __init__(self, system: "ReunionSystem", core_id: int) -> None:
        self.system = system
        self.core_id = core_id
        self.next_csb_seq = 0
        #: telemetry sink (None when disabled) + the open CSB-full stall
        #: episode, reported as one csb.gate span per episode
        self._ev = system._ev
        self._ev_track = f"core{core_id}.csb"
        self._stall_start: Optional[int] = None

    def dispatch_allowed(self, now: int) -> bool:
        return self.system.check.dispatch_allowed(self.core_id, now)

    def on_dispatch(self, entry: ROBEntry, now: int) -> None:
        entry.fp_group = self.system.check.on_dispatch(
            self.core_id, entry.seq, entry.ins.is_serializing,
            end_of_program=entry.ins.op is Opcode.HALT, now=now)

    def on_complete(self, entry: ROBEntry, now: int) -> bool:
        if entry.seq != self.next_csb_seq:
            return False  # CHECK admission is in program order
        csb = self.system.csbs[self.core_id]
        if csb.full:
            csb.full_stalls += 1
            if self._ev is not None and self._stall_start is None:
                self._stall_start = now
            return False
        if self._stall_start is not None:
            self._ev.emit(CSB_GATE, self._stall_start, self._ev_track,
                          dur=now - self._stall_start)
            self._stall_start = None
        csb.push(entry.seq, entry.fp_group)
        self.next_csb_seq += 1
        check = self.system.check
        if check.needs_hash(entry.fp_group):
            check.record_completion(
                self.core_id, entry.fp_group, entry.pc,
                result=entry.result,
                store_addr=entry.mem_addr if entry.is_store else None,
                store_value=entry.store_value,
                now=now)
        return True

    def can_commit(self, entry: ROBEntry, now: int) -> bool:
        if not self.system.check.is_verified(entry.fp_group, now):
            return False
        if entry.is_store and self.core_id == ReunionSystem.VOCAL:
            # verified stores need a release-queue slot on the vocal core
            return self.system.store_queue.can_accept()
        return True

    def on_commit(self, entry: ROBEntry, now: int) -> None:
        csb = self.system.csbs[self.core_id]
        head = csb.head()
        if head is None or head.seq != entry.seq:  # pragma: no cover
            raise RuntimeError("CSB/commit order diverged")
        csb.pop()
        if entry.is_store and self.core_id == ReunionSystem.VOCAL:
            # a single instance of each verified store reaches memory
            self.system.store_queue.push(entry.seq, entry.mem_addr,
                                         entry.store_value,
                                         entry.ins.mem_width)


class ReunionSystem(DualCoreSystem):
    """Fingerprint-compared redundant pair (the comparison baseline)."""

    scheme = "reunion"
    recovery_track = "check"
    VOCAL = 0
    #: rollback cost beyond re-execution: squash + refill of both pipelines
    rollback_penalty = 8
    #: how many times an in-progress rollback may abort-and-restart when
    #: a strike lands inside its squash window before the pair degrades
    #: to a detected-unrecoverable (DUE) outcome
    rollback_retry_budget = 2

    def __init__(self, program: Program,
                 config: Optional[SystemConfig] = None,
                 params: Optional[ReunionParams] = None,
                 injector: Optional[FaultInjector] = None,
                 name: Optional[str] = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.params = params or ReunionParams()
        self.check = CheckStage(self.params)
        if telemetry is not None:
            self.check.events = telemetry.events
        # A generous CSB so that — as in the paper's Figure 5 narrative —
        # the *ROB* is the structure that saturates under large FI /
        # comparison latency, not the CSB. The paper's hardware sizing
        # rule (csb_entries_for, 17 entries at FI=10 with the minimum
        # 6-cycle latency) is what the Table II cost model charges.
        capacity = (self.params.fingerprint_interval
                    + 4 * self.params.comparison_latency)
        self.csbs: List[CheckStageBuffer] = [
            CheckStageBuffer(capacity) for _ in range(2)]
        self.store_queue = WriteBuffer()
        self.rollbacks = 0
        #: fault events awaiting group-verdict adjudication
        self._unbound_events: List[FaultEvent] = []
        super().__init__(program, config, name=name, telemetry=telemetry,
                         injector=injector)

    # -- construction hooks -----------------------------------------------
    def make_gate(self, core_id: int) -> CommitGate:
        return _ReunionGate(self, core_id)

    # -- per-cycle engine ---------------------------------------------------
    def on_cycle(self, now: int) -> None:
        self._adjudicate(now)
        mismatch = self.check.mismatch_ready(now)
        if mismatch is not None:
            self._rollback(now, mismatch)
        self.store_queue.drain(self.bus, self.l2, now)

    # -- faults -------------------------------------------------------------
    def _process_strikes(self, now: int) -> None:
        inventory = self.injector.inventory
        for strike, event in self._strikes_due(now):
            core_id = event.core_id
            block = inventory.get(strike.block)
            detector = REUNION_DETECTORS.get(strike.block, NoDetector())
            result = detector.check(strike.flipped_bits)
            if result.corrected:
                # SECDED L1: fixed in place, execution unaffected
                self._detected(now, event, result.latency_cycles,
                               block=strike.block, corrected=True)
            elif result.detected:
                # SECDED saturated into detect-only (2-bit cluster): the
                # L1 line is known-bad and the fingerprint never covered
                # it — detected, unrecoverable.
                event.detection_latency = result.latency_cycles
                self._due(now, event, "detect-only-ecc", block=strike.block)
            elif now < self._recovering_until and block.pre_commit:
                # pre-commit state is mid-squash: the corruption would
                # poison the restart point, so the rollback restarts and
                # its squash disposes of it — it never reaches a compared
                # fingerprint, so `corrupt_next` stays clear
                self._strike_during_recovery(now, event,
                                             self.rollback_penalty)
            elif now < self._recovering_until:
                # architectural state has no fingerprint coverage at any
                # time: an SDC even inside the window
                self._note_reentry(now, core_id, block.name)
                self._sdc(now, event, block=block.name, during_rollback=True)
            elif block.pre_commit:
                # the corruption flows into the next fingerprint; verdict
                # adjudicated when the group comparison lands.
                self.check.corrupt_next[core_id] = True
                self._unbound_events.append(event)
            else:
                self._sdc(now, event, block=strike.block,
                          flipped=strike.flipped_bits)

    def _adjudicate(self, now: int) -> None:
        """Resolve pending fault events once their group's verdict lands:
        the oldest pending event takes the lowest compared corrupted
        group, and so on in order."""
        unbound = self._unbound_events
        if not unbound:
            return
        check = self.check
        compared = sorted(g for g in check.corrupted_groups
                          if check.was_compared(g))
        for event, group in zip(unbound, compared):
            check.corrupted_groups.discard(group)
            if check.is_verified(group, now + 10**9):
                # the CRC aliased: the corrupted group compared equal
                self._sdc(now, event, block=event.block, aliased=True)
                continue
            latency = max(0, now - event.cycle)
            self._detected(now, event, latency, block=event.block,
                           group=group, latency=latency)
            self._met.histogram("reunion.detection.latency").observe(latency)
        del unbound[:len(compared)]

    # -- rollback -------------------------------------------------------------
    def _rollback(self, now: int, group: int) -> None:
        """Squash both cores back to their committed (verified) state."""
        self.rollbacks += 1
        penalty = self.rollback_penalty
        self._open_recovery(now, penalty, self.rollback_retry_budget)
        if self._ev is not None:
            self._ev.emit(ROLLBACK, now, "check", dur=penalty,
                          args={"group": group})
        self._met.histogram("reunion.rollback.penalty").observe(penalty)
        committed = []
        for core_id, pipeline in enumerate(self.pipelines):
            pipeline.flush_pipeline()
            gate: _ReunionGate = pipeline.gate  # type: ignore[assignment]
            gate.next_csb_seq = pipeline.stats.committed
            self.csbs[core_id].clear()
            committed.append(pipeline.stats.committed)
        self.check.reset_unverified(committed)

    # -- results ---------------------------------------------------------------
    def scheme_metrics(self) -> Dict[str, float]:
        return {
            "reunion.fingerprint.compared": float(
                self.check.fingerprints_compared),
            "reunion.fingerprint.mismatches": float(self.check.mismatches),
            "reunion.fingerprint.aliased": float(
                self.check.aliased_corruptions),
            "reunion.rollback.count": float(self.rollbacks),
            "reunion.rollback.cycles": float(self.recovery_cycles_total),
            "reunion.rollback.reentries": float(self.recovery_reentries),
            "reunion.rollback.aborts": float(self.recovery_aborts),
            "reunion.due.count": float(self.due_count),
            "reunion.csb.pushes": float(self.csbs[0].pushes),
            "reunion.csb.full_stalls": float(
                sum(c.full_stalls for c in self.csbs)),
            "reunion.csb.max_occupancy": float(
                max(c.max_occupancy for c in self.csbs)),
            "reunion.serializing.drain_stalls": float(
                self.pipelines[0].stats.dispatch_stall_gate),
            "reunion.store_queue.pushes": float(self.store_queue.pushes),
            "reunion.store_queue.full_stalls": float(
                self.store_queue.full_stalls),
        }
