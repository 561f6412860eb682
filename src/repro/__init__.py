"""repro — reproduction of *UnSync: A Soft Error Resilient Redundant
Multicore Architecture* (Jeyapaul et al., ICPP 2011).

Quick start::

    from repro import load_benchmark, compare_schemes

    program = load_benchmark("bzip2")
    cmp = compare_schemes(program)
    print(f"Reunion overhead {cmp.reunion_overhead:+.1%}, "
          f"UnSync overhead {cmp.unsync_overhead:+.1%}")

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.isa` — mini-ISA, assembler, golden executor (substrate)
* :mod:`repro.mem` — caches, TLBs, bus, L2, DRAM timing models (substrate)
* :mod:`repro.core` — cycle-level out-of-order core (substrate)
* :mod:`repro.faults` — SER math, strike injection, detector models
* :mod:`repro.unsync` — **the paper's contribution**: CB + EIH +
  always-forward recovery
* :mod:`repro.reunion` — the fingerprinting baseline
* :mod:`repro.hwcost` — synthesis/CACTI substitute (Tables II, III)
* :mod:`repro.workloads` — synthetic SPEC2000/MiBench suite
* :mod:`repro.harness` — one experiment driver per table/figure
* :mod:`repro.campaign` — resumable Monte Carlo fault-injection campaigns
"""

__version__ = "0.1.0"

from repro.isa.assembler import assemble
from repro.isa.golden import run as golden_run
from repro.unsync.system import UnSyncSystem, UnSyncConfig
from repro.faults.injector import FaultInjector
from repro.workloads import load_benchmark
from repro.harness.runner import compare_schemes

__all__ = [
    "__version__",
    "assemble", "golden_run",
    "UnSyncSystem", "UnSyncConfig",
    "FaultInjector",
    "load_benchmark",
    "compare_schemes",
]
