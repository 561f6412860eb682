"""Per-benchmark instruction-mix profiles.

Calibration sources:

* serializing fractions for bzip2 (2%), ammp (1.7%), galgel (1%) are
  stated in Sec VI-B-1; the remaining benchmarks are given small values
  consistent with the paper's claim that they suffer little from
  serialization;
* ammp and galgel are flagged in Sec VI-B-2 as the ROB-saturating,
  high-MLP workloads — they get ``ILP.HIGH``;
* store densities are set from the benchmarks' published characters
  (compression and media kernels store heavily; graph/pointer codes less)
  and drive Figure 6's CB sweep.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class ILP(enum.Enum):
    """Instruction-level-parallelism class of the generated kernel.

    HIGH spreads work over 4 independent accumulator chains (the OoO
    window can run far ahead — maximal ROB appetite); MED uses 2; LOW
    serialises everything through one chain. The values are calibrated so
    the baseline IPCs land in the 1.4-2.6 band of SPEC2000 on an
    Alpha-class core, which in turn puts Reunion's deferred-commit
    overhead for non-serializing benchmarks in the paper's single-digit
    range.
    """

    LOW = 1
    MED = 2
    HIGH = 4


@dataclass(frozen=True)
class WorkloadProfile:
    """Statistical description of one benchmark's generated kernel."""

    name: str
    suite: str
    #: fraction of dynamic instructions that are serializing (trap/membar)
    serializing_pct: float
    #: fraction that are stores
    store_pct: float
    #: fraction that are loads
    load_pct: float
    #: fraction that are (conditional) branches beyond the loop branch
    branch_pct: float
    ilp: ILP
    #: working set in KB (sized against the 32 KB L1)
    working_set_kb: int
    #: loop iterations (sets the dynamic instruction count)
    iterations: int = 100
    #: instructions per loop body (before rounding to the mix)
    body_size: int = 50
    #: fraction of extra branches that are data-dependent (hard to predict)
    unpredictable_branch_frac: float = 0.3
    #: fraction of the body's stores emitted as one contiguous burst.
    #: Real benchmarks write in runs (buffer flushes, struct updates); a
    #: 4-wide commit then fills a small CB faster than the one-per-cycle
    #: drain empties it, which is what gives Figure 6 its left edge.
    store_burst_frac: float = 0.75
    seed: int = 1

    def __post_init__(self) -> None:
        total = (self.serializing_pct + self.store_pct + self.load_pct
                 + self.branch_pct)
        if total >= 0.9:
            raise ValueError(f"{self.name}: mix fractions leave no room "
                             f"for ALU work ({total:.2f})")


def _p(name, suite, ser, st, ld, br, ilp, ws, seed, iters=100, body=50):
    return WorkloadProfile(name=name, suite=suite, serializing_pct=ser,
                           store_pct=st, load_pct=ld, branch_pct=br,
                           ilp=ilp, working_set_kb=ws, seed=seed,
                           iterations=iters, body_size=body)


#: The benchmark roster. SPEC2000 members mirror the ones the paper names
#: or plots; MiBench members are the common embedded set.
PROFILES = {
    # --- SPEC2000 ---
    # paper: 2% serializing, >10% Reunion overhead; compression = store-heavy
    "bzip2": _p("bzip2", "spec2000", 0.020, 0.16, 0.18, 0.08, ILP.MED, 24, 11),
    # paper: 1.7% serializing + ROB-hungry; molecular dynamics = FP-ish MLP.
    # Working set fits L1 so its overhead comes from ROB pressure, not
    # miss drains (the paper's ammp is its second-worst case, ~12%).
    "ammp": _p("ammp", "spec2000", 0.017, 0.10, 0.22, 0.05, ILP.HIGH, 16, 12),
    # paper: 1% serializing, *maximum* overhead via ROB occupancy
    "galgel": _p("galgel", "spec2000", 0.010, 0.08, 0.24, 0.04, ILP.HIGH, 16, 13),
    "gzip": _p("gzip", "spec2000", 0.004, 0.14, 0.18, 0.09, ILP.MED, 16, 14),
    "mcf": _p("mcf", "spec2000", 0.002, 0.06, 0.30, 0.10, ILP.LOW, 96, 15),
    "parser": _p("parser", "spec2000", 0.004, 0.08, 0.24, 0.12, ILP.LOW, 32, 16),
    "vpr": _p("vpr", "spec2000", 0.003, 0.10, 0.20, 0.10, ILP.MED, 24, 17),
    "art": _p("art", "spec2000", 0.002, 0.08, 0.26, 0.04, ILP.HIGH, 80, 18),
    "equake": _p("equake", "spec2000", 0.003, 0.10, 0.24, 0.05, ILP.MED, 48, 19),
    # --- MiBench ---
    "qsort": _p("qsort", "mibench", 0.002, 0.12, 0.20, 0.12, ILP.LOW, 8, 21),
    "dijkstra": _p("dijkstra", "mibench", 0.002, 0.06, 0.26, 0.11, ILP.LOW, 16, 22),
    "sha": _p("sha", "mibench", 0.001, 0.08, 0.12, 0.05, ILP.MED, 4, 23),
    "crc32": _p("crc32", "mibench", 0.001, 0.04, 0.16, 0.06, ILP.LOW, 4, 24),
    "stringsearch": _p("stringsearch", "mibench", 0.002, 0.04, 0.24, 0.13, ILP.LOW, 8, 25),
    "bitcount": _p("bitcount", "mibench", 0.001, 0.02, 0.06, 0.10, ILP.MED, 2, 26),
    "susan": _p("susan", "mibench", 0.003, 0.12, 0.22, 0.06, ILP.MED, 32, 27),
    "basicmath": _p("basicmath", "mibench", 0.001, 0.06, 0.10, 0.06, ILP.MED, 4, 28),
}
