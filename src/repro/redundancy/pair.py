"""Dual-core system scaffolding and the unprotected baseline.

:class:`DualCoreSystem` is the common chassis of the pair schemes
(UnSync, Reunion, RepTFD): two cores running the same program over a bus
+ L2 that the pair builds for itself (the paper's core-pair), stepped in
lockstep of *wall-clock cycles only* — the cores' pipelines drift apart
freely, which is the whole point of UnSync. Subclasses install commit
gates and override :meth:`DualCoreSystem.on_cycle` for their drain /
verification engines.

:class:`BaselineSystem` is the single, unprotected Table I core with a
store write buffer — the reference every Figure 4-6 overhead is computed
against.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.config import SystemConfig
from repro.core.pipeline import CommitGate, Pipeline
from repro.core.rob import ROBEntry
from repro.isa.program import Program
from repro.mem.bus import Bus
from repro.mem.hierarchy import MemPort
from repro.mem.l2 import SharedL2
from repro.mem.prewarm import prewarm_l2
from repro.redundancy.stats import RunResult, WriteBuffer
from repro.telemetry import NULL_REGISTRY, Telemetry
from repro.telemetry.events import WATCHDOG_TRIP


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
    """Two cores, one thread, shared L2 — the redundant-pair chassis."""

    scheme = "pair"

    def __init__(self, program: Program,
                 config: Optional[SystemConfig] = None,
                 name: Optional[str] = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.program = program
        self.config = config or SystemConfig.table1()
        self.name = name or program.name
        # telemetry sinks, bound before gates/ports so make_gate overrides
        # and the MemPorts can pick them up. `_ev is None` is the hot-path
        # "disabled" test (same idiom as Pipeline.tracer); `_met` is the
        # null registry when disabled so warm paths may call through.
        self.telemetry = telemetry
        self._ev = telemetry.events if telemetry is not None else None
        self._met = telemetry.metrics if telemetry is not None \
            else NULL_REGISTRY
        self.bus = Bus(width_bytes=self.config.bus_width_bytes)
        self.l2 = SharedL2(config=self.config.l2, mshrs=self.config.l2_mshrs)
        prewarm_l2(self.l2, program)
        self.ports: List[MemPort] = []
        self.pipelines: List[Pipeline] = []
        for i in range(2):
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

    # -- scheme hooks ------------------------------------------------------
    def make_gate(self, core_id: int) -> CommitGate:
        """Commit gate for core ``core_id`` (override per scheme)."""
        return CommitGate()

    def on_cycle(self, now: int) -> None:
        """Per-cycle housekeeping before the cores step (drains, checks)."""

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

    # -- driving -----------------------------------------------------------
    def step(self) -> None:
        self.on_cycle(self.now)
        for p in self.pipelines:
            p.step(self.now)
        self.now += 1

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
        # per-thread performance: the pair retires ONE logical thread, so
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
            metrics=metrics,
        )

    # -- verification helper -------------------------------------------------
    def states_agree(self) -> bool:
        """Architectural agreement between the two cores (fault-free
        invariant; tests lean on this)."""
        a, b = self.pipelines
        return (a.committed_state.regs == b.committed_state.regs
                and a.committed_state.mem == b.committed_state.mem)


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


class BaselineSystem:
    """Single unprotected core + write buffer: the Figure 4-6 reference."""

    scheme = "baseline"

    def __init__(self, program: Program,
                 config: Optional[SystemConfig] = None,
                 wbuf_entries: int = 16,
                 name: Optional[str] = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.program = program
        self.config = config or SystemConfig.table1()
        self.name = name or program.name
        self.telemetry = telemetry
        self._ev = telemetry.events if telemetry is not None else None
        self.bus = Bus(width_bytes=self.config.bus_width_bytes)
        self.l2 = SharedL2(config=self.config.l2, mshrs=self.config.l2_mshrs)
        prewarm_l2(self.l2, program)
        self.port = MemPort(self.bus, self.l2,
                            icache_cfg=self.config.icache,
                            dcache_cfg=self.config.dcache,
                            itlb_cfg=self.config.itlb,
                            dtlb_cfg=self.config.dtlb,
                            l1_mshrs=self.config.l1_mshrs,
                            name=f"{self.name}.core0")
        if self._ev is not None:
            self.port.attach_events(self._ev, track="core0.mem")
        self.wbuf = WriteBuffer(capacity=wbuf_entries)
        self.pipeline = Pipeline(program, self.config.core, self.port,
                                 gate=_WriteBufferGate(self), name="core0")
        self.now = 0

    def finished(self) -> bool:
        """Uniform completion probe (the pair systems' spelling), so
        system-agnostic drivers — the differential-replay prefix runner —
        can step any scheme without special-casing the baseline."""
        return self.pipeline.done

    def step(self) -> None:
        # drain the write buffer whenever the bus is idle
        while len(self.wbuf):
            head = self.wbuf.head()
            xfer = self.bus.transfer_cycles(self.wbuf.entry_bytes)
            if self.bus.try_request(self.now, xfer) < 0:
                break
            self.wbuf.pop()
            self.l2.access(head[1], is_write=True, now=self.now)
        self.pipeline.step(self.now)
        self.now += 1

    def scheme_metrics(self) -> Dict[str, float]:
        return {
            "baseline.wbuf.pushes": float(self.wbuf.pushes),
            "baseline.wbuf.full_stalls": float(self.wbuf.full_stalls),
        }

    def run(self, max_cycles: int = 2_000_000) -> RunResult:
        while not self.pipeline.done:
            if self.now >= max_cycles:
                if self._ev is not None:
                    self._ev.emit(WATCHDOG_TRIP, self.now, "watchdog",
                                  args={"budget": max_cycles})
                raise SimulationHang(
                    f"{self.name}[baseline]: exceeded {max_cycles} cycles",
                    cycles=self.now,
                    committed=self.pipeline.stats.committed)
            self.step()
        if self._ev is not None:
            self.port.flush_miss_bursts()
        metrics = self.pipeline.stats.metric_counters("core0.pipeline.")
        metrics.update(self.port.metric_counters("core0."))
        metrics.update(self.scheme_metrics())
        if self.telemetry is not None:
            self.telemetry.metrics.merge_counters(metrics)
        return RunResult(
            name=self.name,
            scheme=self.scheme,
            cycles=self.pipeline.stats.cycles,
            instructions=self.pipeline.stats.committed,
            state=self.pipeline.committed_state,
            core_stats=[self.pipeline.stats],
            metrics=metrics,
        )
