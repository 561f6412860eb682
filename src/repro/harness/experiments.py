"""One function per paper artifact.

Each function returns plain dataclass rows so that benchmarks, tests and
examples can all consume the same sweeps; :mod:`repro.harness.report`
turns them into paper-shaped tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults.detection import Detector
from repro.faults.injector import (
    BlockInventory, REUNION_DETECTORS, UNSYNC_DETECTORS,
)
from repro.faults.ser import BREAK_EVEN_SER, break_even_ser
from repro.harness.runner import baseline_run, compare_schemes, run_scheme
from repro.reunion.check_stage import ReunionParams
from repro.reunion.system import ReunionSystem
from repro.unsync.comm_buffer import cb_entries_for
from repro.unsync.recovery import RecoveryCostModel
from repro.unsync.system import UnSyncConfig
from repro.workloads import load_benchmark

#: benchmarks the Figure 4/5 discussion highlights
FIG4_DEFAULT = ("bzip2", "ammp", "galgel", "gzip", "parser", "vpr",
                "qsort", "sha", "dijkstra", "susan")
FIG5_DEFAULT = ("ammp", "galgel", "gzip", "sha")
FIG6_DEFAULT = ("bzip2", "gzip", "susan", "qsort")


# ---------------------------------------------------------------------------
# Figure 4 — serializing-instruction overhead
# ---------------------------------------------------------------------------
@dataclass
class Fig4Row:
    benchmark: str
    serializing_pct: float
    reunion_overhead: float
    unsync_overhead: float


def fig4_serializing(benchmarks: Sequence[str] = FIG4_DEFAULT
                     ) -> List[Fig4Row]:
    """Reunion vs UnSync overhead per benchmark at
    :class:`~repro.reunion.check_stage.ReunionParams`' default FI=10
    (Figure 4)."""
    rows = []
    for name in benchmarks:
        program = load_benchmark(name)
        cmp = compare_schemes(program)
        ser = (cmp.baseline.core_stats[0].serializing_committed
               / max(1, cmp.baseline.instructions))
        rows.append(Fig4Row(
            benchmark=name,
            serializing_pct=ser,
            reunion_overhead=cmp.reunion_overhead,
            unsync_overhead=cmp.unsync_overhead,
        ))
    return rows


# ---------------------------------------------------------------------------
# Figure 5 — Reunion vs fingerprint interval / comparison latency
# ---------------------------------------------------------------------------
@dataclass
class Fig5Point:
    benchmark: str
    fingerprint_interval: int
    comparison_latency: int
    performance_decrease: float     # 1 - cycles_base/cycles_reunion
    rob_mean_occupancy: float


#: the paper's sweep: it "starts at FI of 1 and latency of 10, then
#: continuously increases them" — a diagonal grid.
FIG5_GRID = ((1, 10), (10, 10), (20, 20), (30, 40), (50, 60))


def fig5_fi_latency(benchmarks: Sequence[str] = FIG5_DEFAULT,
                    grid: Sequence[Tuple[int, int]] = FIG5_GRID) -> List[Fig5Point]:
    """Reunion performance across (FI, latency) pairs (Figure 5)."""
    points = []
    for name in benchmarks:
        program = load_benchmark(name)
        base = baseline_run(program)
        for fi, lat in grid:
            params = ReunionParams(fingerprint_interval=fi,
                                   comparison_latency=lat)
            system = ReunionSystem(program, params=params)
            res = system.run()
            points.append(Fig5Point(
                benchmark=name,
                fingerprint_interval=fi,
                comparison_latency=lat,
                performance_decrease=1.0 - base.cycles / res.cycles,
                rob_mean_occupancy=system.pipelines[0].rob.mean_occupancy(),
            ))
    return points


# ---------------------------------------------------------------------------
# Figure 6 — UnSync vs Communication Buffer size
# ---------------------------------------------------------------------------
@dataclass
class Fig6Point:
    benchmark: str
    cb_kb: float
    cb_entries: int
    ipc_normalized: float           # UnSync IPC / baseline IPC
    cb_full_stalls: int


#: Figure 6's x-axis (KB per CB)
FIG6_SIZES_KB = (0.125, 0.25, 0.5, 1.0, 2.0, 4.0)


def fig6_cb_size(benchmarks: Sequence[str] = FIG6_DEFAULT,
                 sizes_kb: Sequence[float] = FIG6_SIZES_KB) -> List[Fig6Point]:
    """UnSync performance across CB sizes (Figure 6)."""
    points = []
    for name in benchmarks:
        program = load_benchmark(name)
        base = baseline_run(program)
        for kb in sizes_kb:
            entries = cb_entries_for(kb)
            cfg = UnSyncConfig(cb_entries=entries)
            res = run_scheme("unsync", program, unsync=cfg)
            points.append(Fig6Point(
                benchmark=name,
                cb_kb=kb,
                cb_entries=entries,
                ipc_normalized=base.cycles / res.cycles,
                cb_full_stalls=int(res.metrics["unsync.cb.full_stalls"]),
            ))
    return points


# ---------------------------------------------------------------------------
# Sec VI-C — IPC across SER rates + break-even
# ---------------------------------------------------------------------------
@dataclass
class SERPoint:
    ser_per_instruction: float
    unsync_ipc: float
    reunion_ipc: float


def ser_sweep(benchmark: str = "gzip",
              rates: Sequence[float] = (1e-7, 1e-9, 1e-12, 1e-17),
              seed: int = 7) -> List[SERPoint]:
    """IPC of both schemes across per-instruction SER (Sec VI-C).

    At every realistic rate the expected strike count over a kernel-sized
    run is ~0, so the IPCs are flat — which is the paper's point.
    """
    from repro.faults.injector import FaultInjector
    program = load_benchmark(benchmark)
    points = []
    for rate in rates:
        # convert per-instruction to per-cycle via the baseline IPC
        base = baseline_run(program)
        per_cycle = rate * base.ipc
        uns = run_scheme("unsync", program,
                         injector=FaultInjector(per_cycle, seed=seed))
        reu = run_scheme("reunion", program,
                         injector=FaultInjector(per_cycle, seed=seed))
        points.append(SERPoint(rate, uns.ipc, reu.ipc))
    return points


@dataclass
class BreakEven:
    measured_advantage_cycles_per_instruction: float
    recovery_penalty_cycles_copy: float
    recovery_penalty_cycles_invalidate: float
    break_even_ser_copy: float
    break_even_ser_invalidate: float
    paper_break_even: float = BREAK_EVEN_SER


def break_even_analysis(benchmark: str = "bzip2") -> BreakEven:
    """The hypothetical break-even SER of Sec VI-C.

    UnSync's error-free advantage over Reunion (cycles/instruction) is
    measured; its extra recovery penalty per error comes from the
    recovery cost model, under both L1-restore modes (Sec III-A's bulk
    copy, and the invalidate-only variant the write-through L1 permits —
    the paper's 1.29e-3 figure is only reachable with the cheap one).
    The break-even SER is where expected recovery cost eats the
    advantage.
    """
    # imported here: every campaign imports this package, and hwcost
    # would lengthen each campaign CLI's start-up
    from repro.hwcost.components import CB_ENTRIES

    program = load_benchmark(benchmark)
    cmp = compare_schemes(program)
    adv_cycles = (cmp.reunion.cycles - cmp.unsync.cycles) / cmp.baseline.instructions
    adv_cycles = max(0.0, adv_cycles)
    reunion_rollback = ReunionSystem.rollback_penalty
    penalties = {}
    for mode in ("copy", "invalidate"):
        plan = RecoveryCostModel(l1_restore=mode).plan(
            stall_cycles=5, l1_resident_lines=256, cb_entries=CB_ENTRIES)
        penalties[mode] = max(1.0, plan.total_cycles - reunion_rollback)
    return BreakEven(
        measured_advantage_cycles_per_instruction=adv_cycles,
        recovery_penalty_cycles_copy=penalties["copy"],
        recovery_penalty_cycles_invalidate=penalties["invalidate"],
        break_even_ser_copy=break_even_ser(max(1e-12, adv_cycles),
                                           penalties["copy"]),
        break_even_ser_invalidate=break_even_ser(max(1e-12, adv_cycles),
                                                 penalties["invalidate"]),
    )


# ---------------------------------------------------------------------------
# Sec VI-D — region of error coverage
# ---------------------------------------------------------------------------
@dataclass
class ROECRow:
    architecture: str
    accounting: str                 # "scheme" or "system"
    covered_bits: int
    total_bits: int

    @property
    def coverage(self) -> float:
        return self.covered_bits / self.total_bits


def roec_coverage(inventory: Optional[BlockInventory] = None) -> List[ROECRow]:
    """Region-of-error-coverage accounting (Sec VI-D), both ways.

    * ``scheme`` accounting follows the paper's convention: only what the
      redundancy scheme *itself* covers counts — "the L1 cache in the
      Reunion architecture is assumed to have ECC protection and
      therefore not included in the ROEC". Reunion's scheme-ROEC is the
      pre-commit pipeline; UnSync's is every sequential block + the L1.
    * ``system`` accounting adds delegated protection (Reunion's SECDED
      L1), answering "what fraction of sequential bits is protected by
      anything at all".
    """
    inv = inventory or BlockInventory()
    rows = []
    # scheme accounting
    unsync_bits = sum(b.bits for b in inv
                      if UNSYNC_DETECTORS.get(b.name) is not None
                      and UNSYNC_DETECTORS[b.name].check(1).detected)
    reunion_scheme_bits = sum(b.bits for b in inv if b.pre_commit)
    rows.append(ROECRow("unsync", "scheme", unsync_bits, inv.total_bits))
    rows.append(ROECRow("reunion", "scheme", reunion_scheme_bits,
                        inv.total_bits))
    # system accounting (detectors + fingerprint + delegated ECC)
    for arch, detectors, fp in (("unsync", UNSYNC_DETECTORS, False),
                                ("reunion", REUNION_DETECTORS, True)):
        frac = inv.coverage(detectors, fingerprint_pre_commit=fp)
        rows.append(ROECRow(architecture=arch, accounting="system",
                            covered_bits=round(frac * inv.total_bits),
                            total_bits=inv.total_bits))
    return rows
