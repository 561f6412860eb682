"""MEEKSystem: a cheap in-order checker core trailing an OoO leader.

MEEK (arXiv:2504.01347) pairs the big out-of-order core with a small
in-order checker: the leader retires at full speed, every retirement
enters a bounded **check queue** with its operand/result values, and the
checker re-executes the stream ``check_width`` instructions per cycle
once entries have matured ``check_latency`` cycles. Mapped onto this
repo's model:

* the checker is an abstract verification engine (no second
  :class:`~repro.core.pipeline.Pipeline` — its in-order core is an order
  of magnitude smaller than the leader, which is the scheme's whole
  selling point and what the hwcost entry charges);
* the leader's commit gate needs a check-queue slot for *every*
  instruction — a full queue back-pressures commit (stall-on-full), the
  directed backpressure test pins this;
* stores are released to the L2 only after the checker verifies them;
* coverage follows the forwarding design: the checker re-executes with
  its own register file, so register and pre-commit pipeline state are
  covered, but load values are *forwarded* from the leader rather than
  re-loaded — L1/TLB corruption flows straight through as SDC. That
  asymmetry is the taxonomy contrast with the full-pair schemes.

Detection triggers a **recheck**: squash the leader, freeze for the
recheck penalty plus the committed-but-unchecked window, and re-verify.
Strikes inside that window burn bounded retries, then degrade to DUE.
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
from repro.redundancy.pair import DualCoreSystem, SimulationHang
from repro.redundancy.stats import RunResult, WriteBuffer
from repro.telemetry import Telemetry
from repro.telemetry.events import CHECKQ_DRAIN, CHECKQ_GATE, WATCHDOG_TRIP

#: blocks the checker's re-execution covers: its private register file
#: shadows the leader's, and pre-commit pipeline state feeds the compared
#: results. Memory arrays are NOT here — load values are forwarded from
#: the leader unverified.
MEEK_COVERED_BLOCKS = frozenset(
    ("regfile", "pc", "pipeline_regs", "rob", "iq", "lsq"))

#: the check queue's geometry: it carries the leader's retirement
#: records (forwarded operands/result + tags) to the checker core; a full
#: queue back-pressures the leader's commit
CHECK_QUEUE_ENTRIES = 64
CHECK_ENTRY_BITS = 100

#: MEEK's in-order checker core relative to the OoO leader: no rename,
#: no issue queue, no speculation — an order of magnitude simpler
#: control, dominated by the datapath and its shadow register file.
CHECKER_CORE_FRACTION = 0.3

#: MEEK's scheme-private uncore structure
MEEK_UNCORE_BLOCKS = (
    Block("check_queue", CHECK_QUEUE_ENTRIES * CHECK_ENTRY_BITS,
          pre_commit=False),
)


@dataclass(slots=True)
class _CheckRecord:
    """One leader retirement awaiting checker verification."""

    seq: int
    is_store: bool
    mem_addr: Optional[int]
    store_value: Optional[int]
    mem_width: int
    commit_cycle: int


class _MEEKGate(CommitGate):
    """Leader gate: every retirement needs a check-queue slot."""

    def __init__(self, system: "MEEKSystem") -> None:
        self.system = system
        self._ev = system._ev
        self._stall_start: Optional[int] = None

    def can_commit(self, entry: ROBEntry, now: int) -> bool:
        system = self.system
        if len(system.check_queue) >= CHECK_QUEUE_ENTRIES:
            system.checkq_full_stalls += 1
            if self._ev is not None and self._stall_start is None:
                self._stall_start = now
            return False
        if self._stall_start is not None:
            self._ev.emit(CHECKQ_GATE, self._stall_start, "core0.checkq",
                          dur=now - self._stall_start)
            self._stall_start = None
        return True

    def on_commit(self, entry: ROBEntry, now: int) -> None:
        system = self.system
        system.check_queue.append(_CheckRecord(
            seq=entry.seq, is_store=entry.is_store,
            mem_addr=entry.mem_addr, store_value=entry.store_value,
            mem_width=entry.ins.mem_width, commit_cycle=now))
        if len(system.check_queue) > system.checkq_max_occupancy:
            system.checkq_max_occupancy = len(system.check_queue)


class MEEKSystem(DualCoreSystem):
    """OoO leader + small in-order checker over a bounded check queue."""

    scheme = "meek"
    n_cores = 1
    recovery_track = "checkq"
    #: instructions the in-order checker verifies per cycle (the paper's
    #: parallel checking lanes — sized to keep up with the leader's
    #: commit width so steady-state slowdown stays small)
    check_width = 4
    #: cycles an entry matures in the queue before the checker may take
    #: it (transfer + the checker's own pipeline depth)
    check_latency = 8
    #: squash + re-steer cost of one recheck episode
    recheck_penalty = 24
    #: recheck restarts tolerated inside one episode before degrading to
    #: a detected-unrecoverable outcome
    recheck_retry_budget = 2

    def __init__(self, program: Program,
                 config: Optional[SystemConfig] = None,
                 injector: Optional[FaultInjector] = None,
                 name: Optional[str] = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.check_queue: Deque[_CheckRecord] = deque()
        #: verified-store release queue between the checker and the L2
        self.store_buffer = WriteBuffer()
        self.checks = 0
        self.checked_seqs = 0
        self.checkq_full_stalls = 0
        self.checkq_max_occupancy = 0
        self.rechecks = 0
        super().__init__(program, config, name=name, telemetry=telemetry,
                         injector=injector)

    def make_gate(self, core_id: int) -> CommitGate:
        return _MEEKGate(self)

    # -- per-cycle engine ---------------------------------------------------
    def step(self) -> None:
        now = self.now
        # the chassis step's strike check: this step replaces that one
        strike = self._next_strike
        if strike is not None and strike.cycle <= now:
            self._process_strikes(now)
        if self._awaiting:
            # the checker's verified count is the compare
            compared = self._compared(now, self.checked_seqs)
            if compared:
                for event in compared:
                    latency = event.detection_latency
                    self._detected(now, event, latency, block=event.block,
                                   latency=latency)
                self._recheck(now)
        if now >= self._recovering_until:
            self._check(now)
        # drain checker-verified stores whenever the bus is idle
        self.store_buffer.drain(self.bus, self.l2, now)
        self.pipelines[0].step(now)
        self.now += 1

    def _check(self, now: int) -> None:
        """The in-order checker: verify up to ``check_width`` mature
        entries, releasing verified stores to the store buffer."""
        queue = self.check_queue
        taken = 0
        while queue and taken < self.check_width:
            head = queue[0]
            if now - head.commit_cycle < self.check_latency:
                break
            if head.is_store and not self.store_buffer.can_accept():
                break
            queue.popleft()
            taken += 1
            self.checks += 1
            self.checked_seqs = head.seq + 1
            if head.is_store:
                self.store_buffer.push(head.seq, head.mem_addr,
                                       head.store_value, head.mem_width)
        if taken and self._ev is not None:
            self._ev.emit(CHECKQ_DRAIN, now, "checkq",
                          args={"n": taken, "left": len(queue)})

    # -- faults -------------------------------------------------------------
    def _process_strikes(self, now: int) -> None:
        for strike, event in self._strikes_due(now):
            if now < self._recovering_until:
                self._strike_during_recovery(now, event,
                                             self.recheck_penalty)
            elif strike.block == "check_queue":
                self._strike_compare_queue(event, self.check_queue,
                                           self.checked_seqs)
            elif strike.block in MEEK_COVERED_BLOCKS:
                # surfaces when the checker re-executes the struck
                # instruction (value compare, no parity blind spot)
                self._await_compare(event, self.pipelines[0].stats.committed)
            else:
                # forwarded load values are never re-verified: L1 and TLB
                # corruption sails straight past the checker
                self._sdc(now, event, block=strike.block,
                          flipped=strike.flipped_bits)

    def _recheck(self, now: int) -> None:
        """Squash the leader and re-verify the unchecked window."""
        self.rechecks += 1
        penalty = self.recheck_penalty + len(self.check_queue)
        self._open_recovery(now, penalty, self.recheck_retry_budget)
        self._observe("meek.recheck.penalty", penalty)
        self.pipelines[0].flush_pipeline()

    # -- driving ------------------------------------------------------------
    def finished(self) -> bool:
        return (self.pipelines[0].done and not self.check_queue
                and not len(self.store_buffer))

    def run(self, max_cycles: int = 2_000_000) -> RunResult:
        while not self.finished():
            if self.now >= max_cycles:
                if self._ev is not None:
                    self._ev.emit(WATCHDOG_TRIP, self.now, "watchdog",
                                  args={"budget": max_cycles})
                raise SimulationHang(
                    f"{self.name}[meek]: exceeded {max_cycles} cycles",
                    cycles=self.now,
                    committed=self.pipelines[0].stats.committed)
            self.step()
        return self.result()

    # -- results ------------------------------------------------------------
    def scheme_metrics(self) -> Dict[str, float]:
        return {
            "meek.check.count": float(self.checks),
            "meek.checkq.full_stalls": float(self.checkq_full_stalls),
            "meek.checkq.max_occupancy": float(self.checkq_max_occupancy),
            "meek.recheck.count": float(self.rechecks),
            "meek.recheck.reentries": float(self.recovery_reentries),
            "meek.recheck.aborts": float(self.recovery_aborts),
            "meek.recovery.cycles": float(self.recovery_cycles_total),
            "meek.due.count": float(self.due_count),
            "meek.store_buffer.pushes": float(self.store_buffer.pushes),
            "meek.store_buffer.full_stalls": float(
                self.store_buffer.full_stalls),
        }

    def result(self) -> RunResult:
        res = super().result()
        # the checker keeps running after the leader retires HALT
        res.cycles = max(res.cycles, self.now)
        return res
