"""The one system chassis every scheme builds on.

:class:`DualCoreSystem` runs one thread on ``n_cores`` cores (two for the
redundant pairs UnSync, Reunion and RepTFD; one for MEEK's leader and the
unprotected baseline) over a bus + L2 the system builds for itself,
stepped in lockstep of *wall-clock cycles only* — a pair's pipelines
drift apart freely, which is the whole point of UnSync. Subclasses
install commit gates and override :meth:`DualCoreSystem.on_cycle` for
their drain / verification engines.

The chassis also owns the fault path every protected scheme shares:
arming the injector, calling the scheme's ``_process_strikes`` on cycles
with a strike due, turning each due strike into a recorded
:class:`~repro.faults.events.FaultEvent` (:meth:`_strikes_due`), the
verdicts that label it (:meth:`_sdc`, :meth:`_detected`, :meth:`_due`),
the deferred-compare queue of strikes a delayed re-check will catch
(:meth:`_await_compare`, :meth:`_compared`), and the bounded-retry
recovery window (:meth:`_open_recovery`,
:meth:`_strike_during_recovery`). Each scheme keeps only its own choice
of verdict and its recovery.

:class:`BaselineSystem` is the single, unprotected Table I core with a
store write buffer — the reference every Figure 4-6 overhead is computed
against.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sized, Tuple

from repro.core.config import SystemConfig
from repro.core.pipeline import CommitGate, Pipeline
from repro.core.rob import ROBEntry
from repro.faults.events import FaultEvent, Outcome
from repro.faults.injector import FaultInjector, Strike
from repro.isa.program import Program
from repro.mem.bus import Bus
from repro.mem.hierarchy import MemPort
from repro.mem.l2 import SharedL2
from repro.mem.prewarm import prewarm_l2
from repro.redundancy.stats import RunResult, WriteBuffer
from repro.telemetry import Telemetry
from repro.telemetry.events import (
    FAULT_DETECTED, FAULT_DUE, FAULT_INJECTED, FAULT_MULTIBIT, FAULT_SDC,
    RECOVERY_ABORT, RECOVERY_REENTRY, WATCHDOG_TRIP,
)


class SimulationHang(RuntimeError):
    """The cycle-budget watchdog fired: the simulated system wedged.

    A ``RuntimeError`` subclass so every historical ``except RuntimeError``
    / ``pytest.raises(RuntimeError)`` site keeps working, but carries
    enough context (cycles burned, instructions committed) for the
    campaign trial runner to classify the run as a ``HANG`` outcome
    instead of aborting the whole grid. Attributes are plain scalars so
    the exception pickles cleanly across process-pool workers.
    """

    def __init__(self, message: str, cycles: int = 0,
                 committed: int = 0) -> None:
        super().__init__(message)
        self.cycles = cycles
        self.committed = committed


class DualCoreSystem:
    """One thread on one or two cores over a shared bus + L2."""

    scheme = "pair"
    #: cores the system builds: the redundant pairs run the thread twice
    n_cores = 2
    #: telemetry track of the recovery-window events
    recovery_track = "recovery"

    def __init__(self, program: Program,
                 config: Optional[SystemConfig] = None,
                 name: Optional[str] = None,
                 telemetry: Optional[Telemetry] = None,
                 injector: Optional[FaultInjector] = None) -> None:
        self.program = program
        self.config = config or SystemConfig.table1()
        self.name = name or program.name
        # telemetry sinks, bound before gates/ports so make_gate overrides
        # and the MemPorts can pick them up. `_ev is None` is the hot-path
        # "disabled" test (same idiom as Pipeline.tracer); histograms go
        # through `_observe`.
        self.telemetry = telemetry
        self._ev = telemetry.events if telemetry is not None else None
        self.injector = injector
        self.fault_events: List[FaultEvent] = []
        self._next_strike: Optional[Strike] = None
        #: strikes a delayed re-check will catch: (progress threshold, event)
        self._awaiting: List[Tuple[int, FaultEvent]] = []
        # the recovery window: strikes before `_recovering_until` land in
        # an open recovery and spend the episode's retry budget
        self._recovering_until = 0
        self._recovery_retries_left = 0
        self.recovery_cycles_total = 0
        self.recovery_reentries = 0
        self.recovery_aborts = 0
        self.due_count = 0
        self.bus = Bus(width_bytes=self.config.bus_width_bytes)
        self.l2 = SharedL2(config=self.config.l2, mshrs=self.config.l2_mshrs)
        prewarm_l2(self.l2, program)
        self.ports: List[MemPort] = []
        self.pipelines: List[Pipeline] = []
        for i in range(self.n_cores):
            port = MemPort(self.bus, self.l2,
                           icache_cfg=self.config.icache,
                           dcache_cfg=self.config.dcache,
                           itlb_cfg=self.config.itlb,
                           dtlb_cfg=self.config.dtlb,
                           l1_mshrs=self.config.l1_mshrs,
                           name=f"{self.name}.core{i}")
            if self._ev is not None:
                port.attach_events(self._ev, track=f"core{i}.mem")
            self.ports.append(port)
            gate = self.make_gate(i)
            self.pipelines.append(Pipeline(program, self.config.core, port,
                                           gate=gate, name=f"core{i}"))
        self.now = 0
        if injector is not None:
            self._arm_next_strike(0)

    # -- scheme hooks ------------------------------------------------------
    def make_gate(self, core_id: int) -> CommitGate:
        """Commit gate for core ``core_id`` (override per scheme)."""
        return CommitGate()

    def on_cycle(self, now: int) -> None:
        """Per-cycle housekeeping before the cores step (drains, checks)."""

    def _process_strikes(self, now: int) -> None:
        """Adjudicate the strikes :meth:`_strikes_due` yields at ``now``
        (override per protected scheme); called only on cycles where a
        strike is due, before :meth:`on_cycle`."""
        raise NotImplementedError

    def finished(self) -> bool:
        for p in self.pipelines:
            if not p.done:
                return False
        return True

    def scheme_metrics(self) -> Dict[str, float]:
        """Scheme-level named telemetry counters (override per scheme)."""
        return {}

    def metric_counters(self) -> Dict[str, float]:
        """The full flat counter rollup: per-core pipeline + memory
        hierarchy counters plus the scheme-level counters."""
        m: Dict[str, float] = {}
        for i, (p, port) in enumerate(zip(self.pipelines, self.ports)):
            m.update(p.stats.metric_counters(f"core{i}.pipeline."))
            m.update(port.metric_counters(f"core{i}."))
        m.update(self.scheme_metrics())
        return m

    # -- fault intake --------------------------------------------------------
    def _arm_next_strike(self, now: int) -> None:
        self._next_strike = self.injector.next_strike(now)

    def _core_track(self, core_id: int) -> str:
        # a one-core system takes every strike lane on its one core
        return f"core{min(core_id, self.n_cores - 1)}"

    def _strikes_due(self, now: int) -> Iterator[Tuple[Strike, FaultEvent]]:
        """Each strike due by ``now`` with its recorded :class:`FaultEvent`
        (outcome unset) for the scheme to adjudicate; the next strike is
        drawn once the scheme is done with this one."""
        while self._next_strike is not None and self._next_strike.cycle <= now:
            strike = self._next_strike
            core_id = strike.core_id()
            event = FaultEvent(cycle=now, core_id=core_id,
                               block=strike.block, bit=strike.bit)
            if self._ev is not None:
                track = self._core_track(core_id)
                self._ev.emit(FAULT_INJECTED, now, track,
                              args={"block": strike.block,
                                    "bit": strike.bit,
                                    "flipped": strike.flipped_bits})
                if strike.flipped_bits > 1:
                    self._ev.emit(FAULT_MULTIBIT, now, track,
                                  args={"block": strike.block,
                                        "flipped": strike.flipped_bits})
            yield strike, event
            self.fault_events.append(event)
            self._arm_next_strike(now)

    def _observe(self, histogram: str, value: float) -> None:
        """Record ``value`` in a telemetry histogram; nothing when off."""
        if self.telemetry is not None:
            self.telemetry.metrics.histogram(histogram).observe(value)

    # -- verdicts ------------------------------------------------------------
    # With _compared and _strike_during_recovery, the only code that labels
    # a strike detected or silent (tests/test_verdict_path.py pins this);
    # ``args`` become the announcing event's args, in the caller's order.
    def _sdc(self, now: int, event: FaultEvent, **args: object) -> None:
        """No detector caught the strike: silent data corruption."""
        event.outcome = Outcome.SDC
        if self._ev is not None:
            self._ev.emit(FAULT_SDC, now, self._core_track(event.core_id),
                          args=args)

    def _detected(self, now: int, event: FaultEvent, after: int,
                  **args: object) -> None:
        """A detector caught the strike ``after`` cycles after it landed,
        and the system repairs it."""
        event.outcome = Outcome.DETECTED_RECOVERED
        event.detection_latency = after
        if self._ev is not None:
            self._ev.emit(FAULT_DETECTED, now,
                          self._core_track(event.core_id), args=args)

    def _due(self, now: int, event: FaultEvent, reason: str,
             track: Optional[str] = None, **args: object) -> None:
        """A detected error the system cannot repair, announced on the
        struck core's track unless the caller names another."""
        event.outcome = Outcome.DETECTED_UNRECOVERABLE
        self.due_count += 1
        if self._ev is not None:
            args["reason"] = reason
            self._ev.emit(FAULT_DUE, now,
                          track or self._core_track(event.core_id),
                          args=args)

    # -- the deferred compare ------------------------------------------------
    def _await_compare(self, event: FaultEvent, threshold: int) -> None:
        """Leave ``event`` to a delayed re-check of the retirement stream:
        it is caught once the compare's progress passes ``threshold``."""
        self._awaiting.append((threshold, event))

    def _strike_compare_queue(self, event: FaultEvent, queue: Sized,
                              progress: int) -> None:
        """A strike on the queue of records awaiting the compare.

        A corrupted record mis-compares when the compare (now at
        ``progress``) consumes it: a spurious mismatch, repaired like any
        other. An empty queue has no record to corrupt (masked).
        """
        if queue:
            self._await_compare(event, progress)
        else:
            event.outcome = Outcome.MASKED

    def _compared(self, now: int, progress: int) -> List[FaultEvent]:
        """The awaiting events the compare reached at ``progress``, each
        labelled detected-recovered with its latency set and observed
        in ``<scheme>.detection.latency``."""
        matured = [e for t, e in self._awaiting if progress > t]
        if matured:
            self._awaiting = [(t, e) for t, e in self._awaiting
                              if progress <= t]
            name = f"{self.scheme}.detection.latency"
            for event in matured:
                event.outcome = Outcome.DETECTED_RECOVERED
                event.detection_latency = max(0, now - event.cycle)
                self._observe(name, event.detection_latency)
        return matured

    # -- the recovery window ---------------------------------------------------
    def _open_recovery(self, now: int, duration: int, budget: int) -> None:
        """Freeze every core for ``duration`` cycles of recovery.

        A window opened while none is running starts a fresh episode
        with ``budget`` retries; one opened inside a running window
        extends it. The injector hears of the window, and a strike it
        queues to chase it preempts the pre-drawn one.
        """
        if now >= self._recovering_until:
            self._recovery_retries_left = budget
        self._extend_recovery(now, duration)
        if self.injector is not None:
            self.injector.on_recovery(now, duration)
            self._next_strike = self.injector.preempt(self._next_strike)

    def _extend_recovery(self, now: int, duration: int) -> None:
        until = now + duration
        self._recovering_until = max(self._recovering_until, until)
        for p in self.pipelines:
            p.frozen_until = max(p.frozen_until, until)
        self.recovery_cycles_total += duration

    def _where(self, core_id: int, block: str) -> Dict[str, object]:
        """Recovery-event args naming the struck block (and its core,
        when there are two to tell apart)."""
        if self.n_cores == 1:
            return {"block": block}
        return {"core": core_id, "block": block}

    def _note_reentry(self, now: int, core_id: int, block: str) -> None:
        """Count a fault that landed inside the open recovery window."""
        self.recovery_reentries += 1
        if self._ev is not None:
            args = self._where(core_id, block)
            args["retries_left"] = self._recovery_retries_left
            self._ev.emit(RECOVERY_REENTRY, now, self.recovery_track,
                          args=args)

    def _retry_recovery(self, now: int, core_id: int, block: str) -> bool:
        """Spend one retry on restarting the open window; False once the
        episode's budget is gone."""
        if self._recovery_retries_left <= 0:
            return False
        self._recovery_retries_left -= 1
        self.recovery_aborts += 1
        if self._ev is not None:
            self._ev.emit(RECOVERY_ABORT, now, self.recovery_track,
                          args=self._where(core_id, block))
        return True

    def _strike_during_recovery(self, now: int, event: FaultEvent,
                                penalty: int) -> None:
        """A strike on state the open recovery is rebuilding.

        The restart point is exactly what the strike corrupts, so the
        recovery aborts and restarts with ``penalty`` more cycles while
        the retry budget lasts; after that the error is detected but
        unrecoverable.
        """
        core_id, block = event.core_id, event.block
        self._note_reentry(now, core_id, block)
        if self._retry_recovery(now, core_id, block):
            self._extend_recovery(now, penalty)
            event.outcome = Outcome.DETECTED_RECOVERED
            return
        self._due(now, event, "retry-budget-exhausted", block=block)

    # -- driving -----------------------------------------------------------
    def step(self) -> None:
        now = self.now
        # tested inline: most cycles of an injected run have no strike due
        strike = self._next_strike
        if strike is not None and strike.cycle <= now:
            self._process_strikes(now)
        self.on_cycle(now)
        for p in self.pipelines:
            p.step(now)
        self.now = now + 1

    def run(self, max_cycles: int = 2_000_000) -> RunResult:
        while not self.finished():
            if self.now >= max_cycles:
                committed = [p.stats.committed for p in self.pipelines]
                if self._ev is not None:
                    self._ev.emit(WATCHDOG_TRIP, self.now, "watchdog",
                                  args={"budget": max_cycles,
                                        "committed": committed})
                raise SimulationHang(
                    f"{self.name}[{self.scheme}]: exceeded {max_cycles} "
                    f"cycles (committed: {committed})",
                    cycles=self.now, committed=committed[0])
            self.step()
        return self.result()

    def result(self) -> RunResult:
        # per-thread performance: a pair retires ONE logical thread, so
        # cycles = slowest core's completion, instructions = one stream.
        cycles = max(p.stats.cycles for p in self.pipelines)
        instructions = self.pipelines[0].stats.committed
        if self._ev is not None:
            for port in self.ports:
                port.flush_miss_bursts()
        metrics = self.metric_counters()
        if self.telemetry is not None:
            self.telemetry.metrics.merge_counters(metrics)
        return RunResult(
            name=self.name,
            scheme=self.scheme,
            cycles=cycles,
            instructions=instructions,
            state=self.pipelines[0].committed_state,
            core_stats=[p.stats for p in self.pipelines],
            fault_events=list(self.fault_events),
            metrics=metrics,
        )


class _WriteBufferGate(CommitGate):
    """Baseline gate: retired stores enter the write buffer."""

    def __init__(self, system: "BaselineSystem") -> None:
        self.system = system

    def can_commit(self, entry: ROBEntry, now: int) -> bool:
        if entry.is_store:
            return self.system.wbuf.can_accept()
        return True

    def on_commit(self, entry: ROBEntry, now: int) -> None:
        if entry.is_store:
            self.system.wbuf.push(entry.seq, entry.mem_addr,
                                  entry.store_value, entry.ins.mem_width)


class BaselineSystem(DualCoreSystem):
    """Single unprotected core + write buffer: the Figure 4-6 reference.

    It takes no ``injector``: there are no detectors to fire.
    """

    scheme = "baseline"
    n_cores = 1

    def __init__(self, program: Program,
                 config: Optional[SystemConfig] = None,
                 name: Optional[str] = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.wbuf = WriteBuffer()
        super().__init__(program, config, name=name, telemetry=telemetry)

    def make_gate(self, core_id: int) -> CommitGate:
        return _WriteBufferGate(self)

    def on_cycle(self, now: int) -> None:
        self.wbuf.drain(self.bus, self.l2, now)

    def scheme_metrics(self) -> Dict[str, float]:
        return {
            "baseline.wbuf.pushes": float(self.wbuf.pushes),
            "baseline.wbuf.full_stalls": float(self.wbuf.full_stalls),
        }
