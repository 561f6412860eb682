"""RepTFDSystem: delayed-replay comparison against the leading core.

RepTFD ("replay-based transient fault detection", arXiv:1206.2132)
detects soft errors by re-executing the committed instruction stream on a
second core a fixed *replay lag* behind the leader and comparing the two
commit-time images value-for-value. Mapped onto this repo's pair chassis:

* **core 0 (leader)** runs ahead; every retirement deposits an oracle
  record — the same commit-time record the pipeline's replay machinery
  produces — into a bounded **replay queue** (stall-on-full, like the CB);
* **core 1 (trailer)** may only retire an instruction once the leader's
  record for it has aged ``replay_lag`` cycles, and its own commit-time
  re-execution is compared against that record (pc, result, store
  address/value);
* only trailer-verified stores are released to the shared L2 — the
  trailer's commit point is the verification point;
* a mismatch rolls both cores back (squash + freeze) and additionally
  charges the leader's committed-but-unverified window, which is what
  makes detection latency — and hence ``replay_lag`` — expensive.

The comparison is a full-value check, so there is no CRC-aliasing escape
and no parity blind spot: multi-bit clusters are detected exactly like
single flips. The exposure that remains is the recovery window itself
(bounded retries, then DUE) and the replay queue's own storage (a
corrupted record forces a spurious rollback).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional

from repro.core.config import SystemConfig
from repro.core.pipeline import CommitGate
from repro.core.rob import ROBEntry
from repro.faults.injector import Block, FaultInjector
from repro.isa.program import Program
from repro.redundancy.pair import DualCoreSystem
from repro.redundancy.stats import WriteBuffer
from repro.telemetry import Telemetry
from repro.telemetry.events import REPLAY_COMPARE, REPLAY_GATE, ROLLBACK

#: the replay queue's geometry: it holds the leader's commit records
#: (pc + result + address + value + tags) until the trailer consumes them;
#: a full queue back-pressures the leader's commit exactly like a full CB
REPLAY_QUEUE_ENTRIES = 96
REPLAY_ENTRY_BITS = 130

#: full-value comparator across one replay record (one XOR-reduce tree
#: per compared field plus control).
COMPARATOR_GATES = 2 * REPLAY_ENTRY_BITS + 40

#: RepTFD's scheme-private uncore structure
REPTFD_UNCORE_BLOCKS = (
    Block("replay_queue", REPLAY_QUEUE_ENTRIES * REPLAY_ENTRY_BITS,
          pre_commit=False),
)


@dataclass(slots=True)
class _ReplayRecord:
    """One leader retirement awaiting trailer comparison."""

    seq: int
    pc: int
    result: Optional[int]
    mem_addr: Optional[int]
    store_value: Optional[int]
    is_store: bool
    commit_cycle: int


class _LeaderGate(CommitGate):
    """Core 0: every retirement needs a replay-queue slot."""

    def __init__(self, system: "RepTFDSystem") -> None:
        self.system = system
        self._ev = system._ev
        self._stall_start: Optional[int] = None

    def can_commit(self, entry: ROBEntry, now: int) -> bool:
        system = self.system
        if len(system.replay_queue) >= REPLAY_QUEUE_ENTRIES:
            system.queue_full_stalls += 1
            if self._ev is not None and self._stall_start is None:
                self._stall_start = now
            return False
        if self._stall_start is not None:
            self._ev.emit(REPLAY_GATE, self._stall_start, "core0.replay",
                          dur=now - self._stall_start)
            self._stall_start = None
        return True

    def on_commit(self, entry: ROBEntry, now: int) -> None:
        system = self.system
        system.replay_queue.append(_ReplayRecord(
            seq=entry.seq, pc=entry.pc, result=entry.result,
            mem_addr=entry.mem_addr, store_value=entry.store_value,
            is_store=entry.is_store, commit_cycle=now))
        if len(system.replay_queue) > system.queue_max_occupancy:
            system.queue_max_occupancy = len(system.replay_queue)


class _TrailerGate(CommitGate):
    """Core 1: retire only aged leader records, comparing on the way."""

    def __init__(self, system: "RepTFDSystem") -> None:
        self.system = system

    def can_commit(self, entry: ROBEntry, now: int) -> bool:
        system = self.system
        queue = system.replay_queue
        if not queue:
            return False
        head = queue[0]
        if head.seq != entry.seq:
            # the leader is mid-resteer after a rollback; wait for its
            # record stream to catch up with the trailer's commit point
            return False
        if now - head.commit_cycle < system.replay_lag:
            return False
        if entry.is_store:
            # verified stores need a release-queue slot
            return system.store_queue.can_accept()
        return True

    def on_commit(self, entry: ROBEntry, now: int) -> None:
        system = self.system
        record = system.replay_queue.popleft()
        system.compares += 1
        if (record.pc != entry.pc or record.result != entry.result
                or record.mem_addr != entry.mem_addr
                or record.store_value != entry.store_value):
            # fault-free runs never diverge (both images re-execute the
            # same deterministic program); kept as a live invariant
            system.value_divergences += 1  # pragma: no cover
        if entry.is_store:
            system.store_queue.push(entry.seq, entry.mem_addr,
                                    entry.store_value, entry.ins.mem_width)


class RepTFDSystem(DualCoreSystem):
    """Leader/trailer pair with delayed full-value replay comparison."""

    scheme = "reptfd"
    recovery_track = "replay"
    LEADER = 0
    TRAILER = 1
    #: minimum age (cycles) of a leader record before the trailer may
    #: retire the same instruction — the detection-latency floor
    replay_lag = 64
    #: squash + re-steer cost of one rollback episode (both cores)
    rollback_penalty = 40
    #: rollback restarts tolerated inside one episode before the pair
    #: degrades to a detected-unrecoverable outcome
    rollback_retry_budget = 2

    def __init__(self, program: Program,
                 config: Optional[SystemConfig] = None,
                 injector: Optional[FaultInjector] = None,
                 name: Optional[str] = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.replay_queue: Deque[_ReplayRecord] = deque()
        #: verified-store release queue between trailer commit and the L2
        self.store_queue = WriteBuffer()
        self.compares = 0
        self.value_divergences = 0
        self.queue_full_stalls = 0
        self.queue_max_occupancy = 0
        self.rollbacks = 0
        super().__init__(program, config, name=name, telemetry=telemetry,
                         injector=injector)

    # -- construction hooks -------------------------------------------------
    def make_gate(self, core_id: int) -> CommitGate:
        if core_id == self.LEADER:
            return _LeaderGate(self)
        return _TrailerGate(self)

    # -- per-cycle engine ---------------------------------------------------
    def on_cycle(self, now: int) -> None:
        if self._awaiting:
            # the trailer's commit is the compare
            compared = self._compared(
                now, self.pipelines[self.TRAILER].stats.committed)
            if compared:
                if self._ev is not None:
                    for event in compared:
                        self._ev.emit(REPLAY_COMPARE, now, "replay",
                                      args={"core": event.core_id,
                                            "block": event.block,
                                            "latency":
                                                event.detection_latency})
                self._rollback(now)
        # drain trailer-verified stores whenever the bus is idle
        self.store_queue.drain(self.bus, self.l2, now)

    # -- faults -------------------------------------------------------------
    def _process_strikes(self, now: int) -> None:
        for strike, event in self._strikes_due(now):
            if now < self._recovering_until:
                # the squash-and-restart state is exactly what the next
                # comparison round depends on
                self._strike_during_recovery(now, event,
                                             self.rollback_penalty)
            elif strike.block == "replay_queue":
                self._strike_compare_queue(
                    event, self.replay_queue,
                    self.pipelines[self.TRAILER].stats.committed)
            else:
                # every core block feeds the compared commit-time image —
                # the corruption surfaces when the trailer re-executes the
                # struck instruction, regardless of cluster size (the
                # full-value compare has no parity blind spot)
                self._await_compare(
                    event, self.pipelines[event.core_id].stats.committed)

    # -- rollback -----------------------------------------------------------
    def _rollback(self, now: int) -> None:
        """Squash both cores and re-run the unverified window.

        The leader has committed ``lag_window`` instructions the trailer
        never verified; restoring the pair to the last verified point
        costs the fixed squash penalty *plus* that window's re-execution
        — the price of delayed detection. The replay queue is never
        cleared: it still holds the records for the leader commits the
        trailer has yet to consume, and draining them is what lets the
        episode converge.
        """
        self.rollbacks += 1
        lag_window = (self.pipelines[self.LEADER].stats.committed
                      - self.pipelines[self.TRAILER].stats.committed)
        penalty = self.rollback_penalty + max(0, lag_window)
        self._open_recovery(now, penalty, self.rollback_retry_budget)
        if self._ev is not None:
            self._ev.emit(ROLLBACK, now, "replay", dur=penalty,
                          args={"window": lag_window})
        self._met.histogram("reptfd.rollback.penalty").observe(penalty)
        for pipeline in self.pipelines:
            pipeline.flush_pipeline()

    # -- results ------------------------------------------------------------
    def scheme_metrics(self) -> Dict[str, float]:
        return {
            "reptfd.replay.compares": float(self.compares),
            "reptfd.replay.divergences": float(self.value_divergences),
            "reptfd.queue.full_stalls": float(self.queue_full_stalls),
            "reptfd.queue.max_occupancy": float(self.queue_max_occupancy),
            "reptfd.rollback.count": float(self.rollbacks),
            "reptfd.rollback.cycles": float(self.recovery_cycles_total),
            "reptfd.rollback.reentries": float(self.recovery_reentries),
            "reptfd.rollback.aborts": float(self.recovery_aborts),
            "reptfd.due.count": float(self.due_count),
            "reptfd.store_queue.pushes": float(self.store_queue.pushes),
            "reptfd.store_queue.full_stalls": float(
                self.store_queue.full_stalls),
        }
