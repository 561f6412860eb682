"""The cycle-stepped out-of-order pipeline.

One :class:`Pipeline` models one core. Each call to :meth:`Pipeline.step`
advances one clock through, in order: commit -> writeback -> issue ->
dispatch -> fetch (reverse pipeline order, the standard trick so that a
slot freed this cycle is usable next cycle, not this one).

Functional execution is *eager*: an oracle interpreter runs at fetch,
attaching exact results, addresses and branch outcomes to each fetched
instruction. A second architectural image advances at commit by
applying that record, re-executing every
:attr:`Pipeline.crosscheck_interval`-th instruction as a cross-check.
Strikes never write either image, so both images and the golden
executor agree bit-for-bit (tests enforce this); the committed image is
what recovery restores from.

Redundancy schemes attach at three points through a :class:`CommitGate`:

* ``dispatch_allowed``   — Reunion's serializing-instruction drain;
* ``on_complete``        — Reunion's CHECK-stage buffer admission
  (a full CSB holds instructions in the execute stage);
* ``can_commit``/``on_commit`` — fingerprint verification (Reunion) and
  Communication Buffer admission (UnSync).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import attrgetter
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.branch import BimodalPredictor
from repro.core.config import CoreConfig
from repro.core.iq import IssueQueue
from repro.core.lsq import LSQ
from repro.core.rob import ROB, ROBEntry, EntryState
from repro.isa.golden import ArchState, STEP_DISPATCH, StepInfo, step_state
from repro.isa.instructions import InstrClass, Instruction, Opcode
from repro.isa.program import Program
from repro.mem.hierarchy import MemPort


class CommitGate:
    """Hook interface for redundancy schemes. The default gates nothing."""

    def dispatch_allowed(self, now: int) -> bool:
        """False while the front end must stall (serializing drains)."""
        return True

    def on_dispatch(self, entry: ROBEntry, now: int) -> None:
        """Observe a dispatch (fingerprint-group assignment lives here)."""

    def on_complete(self, entry: ROBEntry, now: int) -> bool:
        """Admit a finishing instruction into the post-execute buffer.

        Returning False leaves the instruction in the execute stage; the
        pipeline retries every cycle (Reunion: CSB full).
        """
        return True

    def can_commit(self, entry: ROBEntry, now: int) -> bool:
        """May the ROB head retire this cycle?"""
        return True

    def on_commit(self, entry: ROBEntry, now: int) -> None:
        """Observe retirement (stores are handed downstream here)."""


class NullGate(CommitGate):
    """Explicit no-op gate for the unprotected baseline."""


@dataclass
class PipelineStats:
    """Per-core run statistics."""

    cycles: int = 0
    committed: int = 0
    dispatch_stall_gate: int = 0
    dispatch_stall_rob: int = 0
    dispatch_stall_iq: int = 0
    dispatch_stall_lsq: int = 0
    commit_stall_gate: int = 0
    writeback_stall_gate: int = 0
    fetch_redirects: int = 0
    serializing_committed: int = 0
    stores_committed: int = 0
    loads_committed: int = 0

    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    def metric_counters(self, prefix: str = "") -> Dict[str, float]:
        """Flat telemetry-counter view (``prefix`` is the dotted
        namespace, e.g. ``core0.pipeline.``). Driven off the dataclass
        fields so new counters are picked up automatically."""
        from dataclasses import asdict
        return {prefix + k: float(v) for k, v in asdict(self).items()}


@dataclass(slots=True)
class _Fetched:
    """Fetch-buffer slot: a fetched instruction plus its oracle record."""

    seq: int
    info: StepInfo
    fetch_done: int


_seq_key = attrgetter("seq")


class Pipeline:
    """One out-of-order core executing one :class:`Program`."""

    #: commits between re-executions that cross-check the fetch-time
    #: record (every other commit applies the record as is)
    crosscheck_interval = 64

    def __init__(self,
                 program: Program,
                 config: CoreConfig,
                 memport: MemPort,
                 gate: Optional[CommitGate] = None,
                 name: str = "core0") -> None:
        self.program = program
        self.config = config
        self.mem = memport
        self.gate = gate or NullGate()
        self.name = name
        self._crosscheck_countdown = self.crosscheck_interval
        # Bind overridden gate hooks once; None means "default no-op" and
        # lets the per-instruction stage loops skip the call entirely
        # (the baseline/UnSync gates override only the commit hooks).
        gcls = type(self.gate)
        g = self.gate
        self._g_dispatch_allowed = (
            g.dispatch_allowed
            if gcls.dispatch_allowed is not CommitGate.dispatch_allowed
            else None)
        self._g_on_dispatch = (
            g.on_dispatch
            if gcls.on_dispatch is not CommitGate.on_dispatch else None)
        self._g_on_complete = (
            g.on_complete
            if gcls.on_complete is not CommitGate.on_complete else None)

        # oracle (fetch-time) and architectural (commit-time) state
        self.oracle = ArchState()
        self.oracle.load_data(program)
        self.oracle.pc = program.entry_pc
        self.committed_state = ArchState()
        self.committed_state.load_data(program)
        self.committed_state.pc = program.entry_pc

        self.rob = ROB(config.rob_entries)
        self.iq = IssueQueue(config.iq_entries)
        self.lsq = LSQ(config.lsq_entries)
        self.predictor = BimodalPredictor(config.predictor_entries)

        self._fetch_buffer: Deque[_Fetched] = deque()
        self._fetch_buffer_cap = 2 * config.fetch_width
        self._fetch_ready_at = 0
        #: seq of the mispredicted branch fetch is blocked on (or None)
        self._fetch_blocked_on: Optional[int] = None
        self._next_seq = 0
        self._halt_fetched = False
        #: seq -> in-flight ROB entry, for wake-up and redirect checks
        self._inflight: Dict[int, ROBEntry] = {}
        #: architectural register -> seq of last in-flight producer
        self._reg_producer: Dict[int, int] = {}
        #: divider busy-until cycle (unpipelined unit)
        self._div_free_at = 0
        #: issued entries awaiting writeback, keyed by completion cycle
        self._wb_heap: List[Tuple[int, int, ROBEntry]] = []
        #: completed-execution entries the gate has not yet admitted,
        #: kept in seq (= ROB age) order
        self._wb_ready: List[ROBEntry] = []
        #: external stall (recovery freeze): no stage runs before this cycle
        self.frozen_until = 0
        #: optional PipelineTracer (see repro.core.trace); None = no cost
        self.tracer = None

        # fetch-group geometry and core widths, hoisted out of the
        # per-cycle loops (both configs are immutable after construction)
        self._iline_bytes = self.mem.icache.config.line_bytes
        self._ifetch_hit = self.mem.icache.config.hit_latency
        self._fetch_width = config.fetch_width
        self._dispatch_width = config.dispatch_width
        self._issue_width = config.issue_width
        self._commit_width = config.commit_width

        self.stats = PipelineStats()
        self.done = False

    # ------------------------------------------------------------------
    # public stepping
    # ------------------------------------------------------------------
    def step(self, now: int) -> None:
        """Advance one clock cycle (cycle number ``now``)."""
        if self.done:
            return
        self.stats.cycles += 1
        # inlined {rob,iq,lsq}.sample_occupancy() — this runs every cycle
        # of every core, so the three method calls are worth eliding
        rob = self.rob
        rob.occupancy_samples += 1
        rob.occupancy_sum += len(rob._entries)
        iq = self.iq
        iq.occupancy_samples += 1
        iq.occupancy_sum += len(iq._entries)
        lsq = self.lsq
        lsq.occupancy_samples += 1
        lsq.occupancy_sum += len(lsq._entries)
        if now < self.frozen_until:
            return
        self._commit(now)
        self._writeback(now)
        self._issue(now)
        self._dispatch(now)
        self._fetch(now)

    # ------------------------------------------------------------------
    # stages (reverse order)
    # ------------------------------------------------------------------
    def _commit(self, now: int) -> None:
        # cheap head probe before any local binding: most cycles nothing
        # is ready to retire and this stage must cost almost nothing.
        entries = self.rob._entries
        if not entries:
            return
        COMPLETED = EntryState.COMPLETED
        head = entries[0]
        if head.state is not COMPLETED or head.complete_cycle >= now:
            return
        gate = self.gate
        stats = self.stats
        tracer = self.tracer
        inflight = self._inflight
        reg_producer = self._reg_producer
        lsq = self.lsq
        store_latency = self.mem.store_latency
        for _ in range(self._commit_width):
            if not gate.can_commit(head, now):
                stats.commit_stall_gate += 1
                return
            entries.popleft()
            if tracer is not None:
                tracer.commit(head.seq, now)
            del inflight[head.seq]
            ins = head.ins
            if reg_producer.get(ins.rd) == head.seq:
                # producer leaves flight; later readers find the ARF value
                del reg_producer[ins.rd]
            # architectural replay (exact semantics, second image)
            if ins.op is Opcode.HALT:
                self.done = True
                gate.on_commit(head, now)
                return
            self._crosscheck_countdown -= 1
            if self._crosscheck_countdown <= 0:
                self._crosscheck_countdown = self.crosscheck_interval
                info = step_state(self.committed_state, ins)
                self._crosscheck(head, info)
                mem_addr = info.mem_addr
            else:
                mem_addr = self._apply_recorded(head)
            is_store = ins.is_store
            is_load = ins.is_load
            if is_store:
                # write-through L1 write at retirement; latency is absorbed
                # by the store path (write buffer / CB), not commit.
                store_latency(mem_addr, now)
                stats.stores_committed += 1
            if is_load:
                stats.loads_committed += 1
            if ins.is_serializing:
                stats.serializing_committed += 1
            if is_load or is_store:
                lsq.remove(head)
            stats.committed += 1
            gate.on_commit(head, now)
            if not entries:
                return
            head = entries[0]
            if head.state is not COMPLETED or head.complete_cycle >= now:
                return

    def _apply_recorded(self, entry: ROBEntry) -> Optional[int]:
        """Advance the architectural image from the oracle record captured
        at fetch, instead of re-executing the instruction.

        Valid because the two images are identical at every commit:
        strikes never write either one, and recovery restarts the oracle
        from the committed image.
        """
        st = self.committed_state
        ins = entry.ins
        if entry.result is not None:
            rd = ins.rd
            if rd:
                st.regs[rd] = entry.result
        if entry.store_value is not None:
            st.mem.write(entry.mem_addr, entry.store_value, ins.mem_width)
        st.pc = entry.branch_target
        return entry.mem_addr

    def _crosscheck(self, entry: ROBEntry, info: StepInfo) -> None:
        """Compare a commit-time re-execution against the fetch-time
        record (the periodic safety net of :meth:`_apply_recorded`)."""
        if (info.result != entry.result
                or info.mem_addr != entry.mem_addr
                or info.store_value != entry.store_value
                or info.next_pc != entry.branch_target
                or info.taken != entry.branch_taken):
            raise RuntimeError(
                f"{self.name}: commit replay diverged from fetch-time "
                f"oracle at seq={entry.seq} pc={entry.pc:#x} ({entry.ins})")

    def _writeback(self, now: int) -> None:
        # transition finished executions to COMPLETED, subject to the
        # gate's post-execute buffer (CSB) admission. The ready set is
        # maintained incrementally (heap keyed on completion cycle) so
        # this stage is O(entries completing) rather than a full ROB scan
        # every cycle; gate-refused entries stay in _wb_ready and retry.
        heap = self._wb_heap
        ready = self._wb_ready
        if heap and heap[0][0] <= now:
            while heap and heap[0][0] <= now:
                ready.append(heappop(heap)[2])
            if len(ready) > 1:
                ready.sort(key=_seq_key)  # preserve ROB-age order
        if not ready:
            return
        on_complete = self._g_on_complete
        tracer = self.tracer
        COMPLETED = EntryState.COMPLETED
        if on_complete is None:
            # no gate: everything ready completes this cycle
            for entry in ready:
                entry.state = COMPLETED
                if tracer is not None:
                    tracer.complete(entry.seq, entry.complete_cycle)
            ready.clear()
            return
        still: List[ROBEntry] = []
        for entry in ready:
            if on_complete(entry, now):
                entry.state = COMPLETED
                if tracer is not None:
                    tracer.complete(entry.seq, entry.complete_cycle)
            else:
                self.stats.writeback_stall_gate += 1
                still.append(entry)
        self._wb_ready = still

    def _issue(self, now: int) -> None:
        iq_entries = self.iq._entries
        if not iq_entries:
            return
        cfg = self.config
        alu_left = cfg.n_alu
        mul_left = cfg.n_mul
        mem_left = cfg.n_mem_ports
        width_left = self._issue_width
        tracer = self.tracer
        wb_heap = self._wb_heap
        forwarding_store = self.lsq.forwarding_store
        mem_load_latency = self.mem.load_latency
        ISSUED = EntryState.ISSUED
        issued: List[ROBEntry] = []
        for entry in iq_entries:
            if width_left == 0:
                break
            # event-driven wake-up: pending counts producers that have not
            # issued (they decrement it when they do), ready_at is the
            # latest producer broadcast cycle folded in at dispatch/wake.
            if entry.pending or entry.ready_at > now:
                continue
            ins = entry.ins
            cls = ins.iclass
            latency: Optional[int] = None
            if cls is InstrClass.ALU or cls in (InstrClass.NOP, InstrClass.HALT,
                                                InstrClass.BRANCH, InstrClass.JUMP):
                if alu_left == 0:
                    continue
                alu_left -= 1
                latency = cfg.alu_latency
            elif cls is InstrClass.MUL:
                if mul_left == 0:
                    continue
                mul_left -= 1
                latency = cfg.mul_latency
            elif cls is InstrClass.DIV:
                if self._div_free_at > now:
                    continue
                latency = cfg.div_latency
                self._div_free_at = now + latency
            elif cls is InstrClass.LOAD:
                if mem_left == 0:
                    continue
                mem_left -= 1
                fwd = forwarding_store(entry)
                if fwd is not None:
                    latency = 1
                else:
                    latency = mem_load_latency(entry.mem_addr, now)
            elif cls is InstrClass.STORE:
                # address generation only; the write happens at commit
                if mem_left == 0:
                    continue
                mem_left -= 1
                latency = 1
            elif cls is InstrClass.SERIALIZING:
                # Traps/barriers execute as cheap ops here; their *cost* is
                # scheme-defined (Reunion blocks dispatch until the group
                # containing them verifies; UnSync charges nothing), which
                # is exactly the Figure 4 comparison.
                if ins.op is Opcode.SWAP:
                    if mem_left == 0:
                        continue
                    mem_left -= 1
                    latency = mem_load_latency(entry.mem_addr, now)
                else:
                    latency = cfg.alu_latency
            else:  # pragma: no cover - exhaustive
                raise AssertionError(f"unhandled class {cls}")

            entry.state = ISSUED
            cc = now + latency
            entry.complete_cycle = cc
            waiters = entry.waiters
            if waiters is not None:
                for dep in waiters:
                    dep.pending -= 1
                    if cc > dep.ready_at:
                        dep.ready_at = cc
                entry.waiters = None
            heappush(wb_heap, (cc, entry.seq, entry))
            if tracer is not None:
                tracer.issue(entry.seq, now)
            issued.append(entry)
            width_left -= 1
        for entry in issued:
            iq_entries.remove(entry)

    def _dispatch(self, now: int) -> None:
        buf = self._fetch_buffer
        if not buf or buf[0].fetch_done > now:
            return
        rob = self.rob
        iq = self.iq
        lsq = self.lsq
        rob_entries = rob._entries
        rob_cap = rob.capacity
        iq_entries = iq._entries
        iq_cap = iq.capacity
        lsq_entries = lsq._entries
        lsq_cap = lsq.capacity
        stats = self.stats
        tracer = self.tracer
        inflight = self._inflight
        reg_producer = self._reg_producer
        dispatch_allowed = self._g_dispatch_allowed
        on_dispatch = self._g_on_dispatch
        for _ in range(self._dispatch_width):
            if not buf:
                return
            slot = buf[0]
            if slot.fetch_done > now:
                return
            if dispatch_allowed is not None and not dispatch_allowed(now):
                stats.dispatch_stall_gate += 1
                return
            info = slot.info
            ins = info.ins
            if len(rob_entries) >= rob_cap:
                stats.dispatch_stall_rob += 1
                return
            if len(iq_entries) >= iq_cap:
                stats.dispatch_stall_iq += 1
                return
            is_mem = ins.is_mem
            if is_mem and len(lsq_entries) >= lsq_cap:
                stats.dispatch_stall_lsq += 1
                return
            buf.popleft()

            entry = ROBEntry(slot.seq, ins, info.pc,
                             result=info.result,
                             mem_addr=info.mem_addr,
                             store_value=info.store_value,
                             branch_taken=info.taken,
                             branch_target=info.next_pc)
            srcs = ins.srcs
            if srcs:
                # register the entry with each in-flight producer: not-yet-
                # issued producers get a waiter link (they wake us when they
                # issue); already-issued producers just contribute their
                # broadcast cycle. reg_producer never maps r0 and drops
                # committed producers, so every hit is live in _inflight.
                ready_at = 0
                for r in srcs:
                    prod_seq = reg_producer.get(r)
                    if prod_seq is None:
                        continue
                    producer = inflight[prod_seq]
                    cc = producer.complete_cycle
                    if cc < 0:
                        entry.pending += 1
                        w = producer.waiters
                        if w is None:
                            producer.waiters = [entry]
                        else:
                            w.append(entry)
                    elif cc > ready_at:
                        ready_at = cc
                entry.ready_at = ready_at
            rob_entries.append(entry)
            if tracer is not None:
                tracer.dispatch(entry.seq, now)
            inflight[entry.seq] = entry
            iq_entries.append(entry)
            if is_mem:
                lsq_entries.append(entry)
            if ins.writes_reg and ins.rd != 0:
                reg_producer[ins.rd] = entry.seq
            if on_dispatch is not None:
                on_dispatch(entry, now)

    def _fetch(self, now: int) -> None:
        if self._halt_fetched or now < self._fetch_ready_at:
            return
        if self._fetch_blocked_on is not None:
            branch = self._inflight.get(self._fetch_blocked_on)
            if branch is None:
                if any(f.seq == self._fetch_blocked_on
                       for f in self._fetch_buffer):
                    return  # branch not even dispatched yet
                # branch already committed; redirect cost already absorbed
                self._fetch_blocked_on = None
            elif 0 <= branch.complete_cycle <= now:
                self._fetch_ready_at = (branch.complete_cycle
                                        + self.config.branch_mispredict_penalty)
                self._fetch_blocked_on = None
                self.stats.fetch_redirects += 1
                return
            else:
                return
        if len(self._fetch_buffer) + self._fetch_width > self._fetch_buffer_cap:
            return

        oracle = self.oracle
        pc = oracle.pc
        latency = self.mem.ifetch_latency(pc, now)
        fetch_done = now + latency
        # pipelined fetch: the next group may start next cycle on a hit,
        # or after the miss resolves.
        self._fetch_ready_at = now + 1 + max(0, latency - self._ifetch_hit)

        buf = self._fetch_buffer
        instrs = self.program.instructions
        n_instr = len(instrs)
        step_dispatch = STEP_DISPATCH
        tracer = self.tracer
        line_bytes = self._iline_bytes
        group_line = pc // line_bytes
        for _ in range(self._fetch_width):
            idx = oracle.pc >> 2
            ins = instrs[idx] if 0 <= idx < n_instr else None
            if ins is None:
                ins = Instruction(Opcode.HALT)
            if ins.op is Opcode.HALT:
                info = StepInfo(ins=ins, pc=oracle.pc,
                                next_pc=oracle.pc, is_halt=True)
                buf.append(_Fetched(self._next_seq, info, fetch_done))
                self._next_seq += 1
                self._halt_fetched = True
                return
            seq = self._next_seq
            self._next_seq += 1
            info = step_dispatch[ins.op](oracle, ins)
            if tracer is not None:
                tracer.fetch(seq, info.pc, ins, fetch_done)
            buf.append(_Fetched(seq, info, fetch_done))
            if ins.is_branch:
                if not self._handle_branch_fetch(seq, info, fetch_done):
                    return  # fetch group ends; possibly blocked
            # group also ends when the next pc leaves this line
            if info.next_pc // line_bytes != group_line:
                return

    def _handle_branch_fetch(self, seq: int, info: StepInfo,
                             fetch_done: int) -> bool:
        """Predict a just-fetched branch; returns True when fetch may
        continue within the same group (correctly-predicted not-taken)."""
        ins = info.ins
        actual_taken = info.taken
        actual_target = info.next_pc
        if ins.iclass is InstrClass.BRANCH:
            predicted_taken = self.predictor.predict(info.pc)
            btb_target = self.predictor.predict_target(info.pc)
            self.predictor.update(info.pc, actual_taken, actual_target)
            if predicted_taken != actual_taken or (
                    actual_taken and btb_target != actual_target):
                self.predictor.record_mispredict()
                self._fetch_blocked_on = seq
                return False
            # correct prediction: taken branch still ends the fetch group
            return not actual_taken
        if ins.op in (Opcode.J, Opcode.JAL):
            if ins.op is Opcode.JAL:
                self.predictor.push_return(info.pc + 4)
            # direct target, known at decode: one-cycle bubble only
            self._fetch_ready_at = max(self._fetch_ready_at, fetch_done)
            return False
        # JR: indirect target; the return-address stack (or, failing
        # that, a BTB hit with the right target) avoids the resolution
        # stall.
        predicted = self.predictor.pop_return()
        if predicted is None:
            predicted = self.predictor.predict_target(info.pc)
        self.predictor.update(info.pc, True, actual_target)
        if predicted != actual_target:
            self.predictor.record_mispredict()
            self._fetch_blocked_on = seq
        return False

    # ------------------------------------------------------------------
    # recovery support
    # ------------------------------------------------------------------
    def flush_pipeline(self) -> int:
        """Squash all in-flight work (recovery step 2); returns count."""
        n = self.rob.flush()
        self.iq.flush()
        self.lsq.flush()
        self._wb_heap.clear()
        self._wb_ready.clear()
        self._fetch_buffer.clear()
        self._inflight.clear()
        self._reg_producer.clear()
        self._fetch_blocked_on = None
        self._halt_fetched = False
        # restart the oracle from the committed point; sequence numbers
        # restart there too (commit is in-order, so the next instruction's
        # seq equals the committed count), keeping replays seq-identical.
        self.oracle = self.committed_state.clone()
        self._next_seq = self.stats.committed
        return n

    def adopt_state(self, other: "Pipeline") -> None:
        """Copy the architectural state of ``other``'s committed point onto
        this core (recovery step 3); the caller charges the cycle cost."""
        self.committed_state = other.committed_state.clone()
        self.oracle = other.committed_state.clone()
        self.stats.committed = other.stats.committed
        # commit is in-order, so the next instruction at the adopted point
        # carries seq == committed count — keeping the two cores' store
        # streams seq-aligned for CB matching.
        self._next_seq = other.stats.committed
        self.done = other.done
