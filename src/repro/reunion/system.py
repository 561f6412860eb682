"""ReunionSystem: vocal/mute core pair with fingerprint verification.

Core 0 is the *vocal* core (its stores are released to the memory
hierarchy); core 1 is *mute*. Completed instructions enter the CHECK-stage
buffer in program order, each group's CRC-16 is compared across the pair
after the comparison latency, and only verified instructions commit. A
mismatch rolls both cores back to their committed (== last verified)
state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.config import SystemConfig
from repro.core.pipeline import CommitGate
from repro.core.rob import ROBEntry
from repro.faults.detection import Detector, NoDetector
from repro.faults.events import FaultEvent, Outcome
from repro.faults.injector import (
    BlockInventory, FaultInjector, REUNION_DETECTORS, Strike,
)
from repro.isa.instructions import Opcode
from repro.isa.program import Program
from repro.redundancy.pair import DualCoreSystem
from repro.redundancy.stats import WriteBuffer
from repro.reunion.check_stage import CheckStage, ReunionParams
from repro.reunion.csb import CheckStageBuffer, csb_entries_for
from repro.telemetry import Telemetry
from repro.telemetry.events import (
    CSB_GATE, FAULT_DETECTED, FAULT_DUE, FAULT_INJECTED, FAULT_MULTIBIT,
    FAULT_SDC, RECOVERY_ABORT, RECOVERY_REENTRY, ROLLBACK,
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
    VOCAL = 0

    def __init__(self, program: Program,
                 config: Optional[SystemConfig] = None,
                 params: Optional[ReunionParams] = None,
                 csb_entries: Optional[int] = None,
                 injector: Optional[FaultInjector] = None,
                 detectors: Optional[Dict[str, Detector]] = None,
                 name: Optional[str] = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.params = params or ReunionParams()
        self.check = CheckStage(self.params)
        if telemetry is not None:
            self.check.events = telemetry.events
        # Performance default: generous CSB so that — as in the paper's
        # Figure 5 narrative — the *ROB* is the structure that saturates
        # under large FI / comparison latency, not the CSB. The paper's
        # hardware sizing rule (csb_entries_for, 17 entries at FI=10 with
        # the minimum 6-cycle latency) is what the Table II cost model
        # charges; pass csb_entries explicitly to study CSB-bound setups.
        if csb_entries is not None:
            capacity = csb_entries
        else:
            capacity = (self.params.fingerprint_interval
                        + 4 * self.params.comparison_latency)
        self.csbs: List[CheckStageBuffer] = [
            CheckStageBuffer(capacity) for _ in range(2)]
        self.store_queue = WriteBuffer(capacity=16)
        self.injector = injector
        self.detectors = detectors if detectors is not None else dict(REUNION_DETECTORS)
        self.inventory = (injector.inventory if injector is not None
                          else BlockInventory())
        self.fault_events: List[FaultEvent] = []
        self.rollbacks = 0
        self.rollback_cycles_total = 0
        self.due_count = 0
        self.rollback_reentries = 0
        self.rollback_aborts = 0
        self._rollback_until = 0
        self._rollback_retries_left = self.params.rollback_retry_budget
        self.incoherence_events = 0
        self.incoherence_syncs = 0
        self.incoherence_cycles = 0
        self._incoherence_rng = None
        self._next_strike: Optional[Strike] = None
        #: fault events awaiting group-verdict adjudication
        self._unbound_events: List[FaultEvent] = []
        super().__init__(program, config, name=name, telemetry=telemetry)
        if self.injector is not None:
            self._arm_next_strike(0)

    # -- construction hooks -----------------------------------------------
    def make_gate(self, core_id: int) -> CommitGate:
        return _ReunionGate(self, core_id)

    # -- per-cycle engine ---------------------------------------------------
    def on_cycle(self, now: int) -> None:
        if self.injector is not None:
            self._process_strikes(now)
        if self.params.input_incoherence_rate > 0:
            self._process_incoherence(now)
        self._adjudicate(now)
        mismatch = self.check.mismatch_ready(now)
        if mismatch is not None:
            self._rollback(now, mismatch)
        # drain the vocal store queue whenever the bus is idle
        while len(self.store_queue):
            head = self.store_queue.head()
            xfer = self.bus.transfer_cycles(self.store_queue.entry_bytes)
            if self.bus.try_request(now, xfer) < 0:
                break
            self.store_queue.pop()
            self.l2.access(head[1], is_write=True, now=now)

    # -- input incoherence (relaxed input replication) -------------------------
    def _process_incoherence(self, now: int) -> None:
        """Sample racing-writer events and charge their costs.

        Both cores stall for the re-issue (their loads must be replayed
        at the same point of the instruction stream); an escalated event
        additionally pays the synchronizing request and occupies the bus.
        """
        import random
        if self._incoherence_rng is None:
            self._incoherence_rng = random.Random(0xC0)
        rng = self._incoherence_rng
        if rng.random() >= self.params.input_incoherence_rate:
            return
        self.incoherence_events += 1
        penalty = self.params.reissue_penalty
        if rng.random() < self.params.incoherence_escalation_prob:
            self.incoherence_syncs += 1
            penalty += self.params.sync_request_penalty
            self.bus.request(now, self.bus.transfer_cycles(64))
        for pipeline in self.pipelines:
            pipeline.frozen_until = max(pipeline.frozen_until, now + penalty)
        self.incoherence_cycles += penalty

    # -- faults -------------------------------------------------------------
    def _arm_next_strike(self, now: int) -> None:
        self._next_strike = self.injector.next_strike(now)

    def _process_strikes(self, now: int) -> None:
        while self._next_strike is not None and self._next_strike.cycle <= now:
            strike = self._next_strike
            core_id = strike.core_id()
            block = self.inventory.get(strike.block)
            event = FaultEvent(cycle=now, core_id=core_id,
                               block=strike.block, bit=strike.bit)
            detector = self.detectors.get(strike.block, NoDetector())
            result = detector.check(strike.flipped_bits)
            if self._ev is not None:
                self._ev.emit(FAULT_INJECTED, now, f"core{core_id}",
                              args={"block": strike.block,
                                    "bit": strike.bit,
                                    "flipped": strike.flipped_bits})
                if strike.flipped_bits > 1:
                    self._ev.emit(FAULT_MULTIBIT, now, f"core{core_id}",
                                  args={"block": strike.block,
                                        "flipped": strike.flipped_bits})
            if result.corrected:
                # SECDED L1: fixed in place, execution unaffected
                event.outcome = Outcome.DETECTED_RECOVERED
                event.detection_latency = result.latency_cycles
                if self._ev is not None:
                    self._ev.emit(FAULT_DETECTED, now, f"core{core_id}",
                                  args={"block": strike.block,
                                        "corrected": True})
            elif result.detected:
                # SECDED saturated into detect-only (2-bit cluster): the
                # L1 line is known-bad and the fingerprint never covered
                # it — detected, unrecoverable.
                event.outcome = Outcome.DETECTED_UNRECOVERABLE
                event.detection_latency = result.latency_cycles
                self.due_count += 1
                if self._ev is not None:
                    self._ev.emit(FAULT_DUE, now, f"core{core_id}",
                                  args={"block": strike.block,
                                        "reason": "detect-only-ecc"})
            elif now < self._rollback_until:
                self._strike_during_rollback(now, core_id, block, event)
            elif block.pre_commit:
                # the corruption flows into the next fingerprint; verdict
                # adjudicated when the group comparison lands.
                self.check.corrupt_next[core_id] = True
                event.outcome = None  # pending
                self._unbound_events.append(event)
            else:
                event.outcome = Outcome.SDC
                if self._ev is not None:
                    self._ev.emit(FAULT_SDC, now, f"core{core_id}",
                                  args={"block": strike.block,
                                    "flipped": strike.flipped_bits})
            self.fault_events.append(event)
            self._arm_next_strike(now)

    def _strike_during_rollback(self, now: int, core_id: int, block,
                                event: FaultEvent) -> None:
        """A strike landing inside an in-progress rollback window.

        Pre-commit state is mid-squash: a corruption there would poison
        the restart point if the flush simply continued, so the rollback
        aborts and restarts (bounded retries), after which the squash
        disposes of the corruption. Marking ``corrupt_next`` here — as
        the steady-state path would — is exactly the mis-adjudication
        this hardening removes: the corrupted value never survives into
        a compared fingerprint. Architectural state has no fingerprint
        coverage at any time, so those strikes stay SDC.
        """
        self.rollback_reentries += 1
        if self._ev is not None:
            self._ev.emit(RECOVERY_REENTRY, now, "check",
                          args={"core": core_id, "block": block.name,
                                "retries_left": self._rollback_retries_left})
        if not block.pre_commit:
            event.outcome = Outcome.SDC
            if self._ev is not None:
                self._ev.emit(FAULT_SDC, now, f"core{core_id}",
                              args={"block": block.name,
                                    "during_rollback": True})
            return
        if self._rollback_retries_left > 0:
            self._rollback_retries_left -= 1
            self.rollback_aborts += 1
            penalty = self.params.rollback_penalty
            self._rollback_until = max(self._rollback_until, now + penalty)
            for pipeline in self.pipelines:
                pipeline.frozen_until = max(pipeline.frozen_until,
                                            now + penalty)
            self.rollback_cycles_total += penalty
            event.outcome = Outcome.DETECTED_RECOVERED
            if self._ev is not None:
                self._ev.emit(RECOVERY_ABORT, now, "check",
                              args={"core": core_id, "block": block.name})
        else:
            event.outcome = Outcome.DETECTED_UNRECOVERABLE
            self.due_count += 1
            if self._ev is not None:
                self._ev.emit(FAULT_DUE, now, f"core{core_id}",
                              args={"block": block.name,
                                    "reason": "retry-budget-exhausted"})

    def _adjudicate(self, now: int) -> None:
        """Resolve pending fault events once their group's verdict lands."""
        unbound = self._unbound_events
        if not unbound:
            return
        check = self.check
        resolved = []
        for event in unbound:
            # find a corrupted group with a verdict
            for group in sorted(check.corrupted_groups):
                if check.was_compared(group):
                    verdict_ok = check.is_verified(group, now + 10**9)
                    if verdict_ok:
                        event.outcome = Outcome.SDC  # CRC aliased
                        if self._ev is not None:
                            self._ev.emit(FAULT_SDC, now,
                                          f"core{event.core_id}",
                                          args={"block": event.block,
                                                "aliased": True})
                    else:
                        event.outcome = Outcome.DETECTED_RECOVERED
                        event.detection_latency = max(0, now - event.cycle)
                        if self._ev is not None:
                            self._ev.emit(FAULT_DETECTED, now,
                                          f"core{event.core_id}",
                                          args={"block": event.block,
                                                "group": group,
                                                "latency":
                                                    event.detection_latency})
                        self._met.histogram(
                            "reunion.detection.latency").observe(
                                event.detection_latency)
                    check.corrupted_groups.discard(group)
                    resolved.append(event)
                    break
        for event in resolved:
            unbound.remove(event)

    # -- rollback -------------------------------------------------------------
    def _rollback(self, now: int, group: int) -> None:
        """Squash both cores back to their committed (verified) state."""
        self.rollbacks += 1
        penalty = self.params.rollback_penalty
        if now >= self._rollback_until:
            # a fresh rollback episode resets the abort-retry budget
            self._rollback_retries_left = self.params.rollback_retry_budget
        self._rollback_until = max(self._rollback_until, now + penalty)
        if self.injector is not None:
            # a chase strike queued for this window must preempt the
            # pre-drawn strike or it would be delivered after the squash
            self.injector.on_recovery(now, penalty)
            self._next_strike = self.injector.preempt(self._next_strike)
        if self._ev is not None:
            self._ev.emit(ROLLBACK, now, "check", dur=penalty,
                          args={"group": group})
        self._met.histogram("reunion.rollback.penalty").observe(penalty)
        committed = []
        for core_id, pipeline in enumerate(self.pipelines):
            pipeline.flush_pipeline()
            pipeline.frozen_until = max(pipeline.frozen_until, now + penalty)
            gate: _ReunionGate = pipeline.gate  # type: ignore[assignment]
            gate.next_csb_seq = pipeline.stats.committed
            self.csbs[core_id].clear()
            committed.append(pipeline.stats.committed)
        self.check.reset_unverified(committed)
        self.rollback_cycles_total += penalty

    # -- results ---------------------------------------------------------------
    def scheme_metrics(self) -> Dict[str, float]:
        return {
            "reunion.fingerprint.compared": float(
                self.check.fingerprints_compared),
            "reunion.fingerprint.mismatches": float(self.check.mismatches),
            "reunion.fingerprint.aliased": float(
                self.check.aliased_corruptions),
            "reunion.rollback.count": float(self.rollbacks),
            "reunion.rollback.cycles": float(self.rollback_cycles_total),
            "reunion.rollback.reentries": float(self.rollback_reentries),
            "reunion.rollback.aborts": float(self.rollback_aborts),
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
            "reunion.incoherence.events": float(self.incoherence_events),
            "reunion.incoherence.syncs": float(self.incoherence_syncs),
            "reunion.incoherence.cycles": float(self.incoherence_cycles),
        }

    def result(self):
        res = super().result()
        res.fault_events = list(self.fault_events)
        return res
