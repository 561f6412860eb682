"""Workload substrate: synthetic SPEC2000 / MiBench stand-ins.

The paper evaluates on SPEC2000 and MiBench binaries we cannot ship, so
each named benchmark here is a *generated kernel* whose instruction-mix
statistics are calibrated to what the paper reports or implies:

* serializing-instruction fraction — the paper gives bzip2 2%, ammp 1.7%,
  galgel 1% (Sec VI-B-1); others are small;
* store density — drives CB pressure (Figure 6);
* instruction-level parallelism — drives ROB occupancy sensitivity
  (Figure 5: ammp and galgel "quickly saturate the ROB");
* branchiness and working-set size — general pipeline realism.

Figures 4-6 depend on exactly these statistics, so controlling them
directly is what makes the reproduction apples-to-apples. The calibration
table lives in :mod:`repro.workloads.profiles`; EXPERIMENTS.md records the
paper-vs-built values.

Hand-written algorithmic kernels (sort, checksum, dot product, ...) live
in :mod:`repro.workloads.kernels` for tests and examples that want real
programs rather than statistical clones.

Each workload is assembled once per process: :func:`load_workload`,
:func:`load_benchmark` and :func:`load_kernel` all return the one
:class:`~repro.isa.program.Program` kept for that name. Programs are
never mutated after assembly, so every system, trial, prefix snapshot
and pool worker of a process shares it (all 28 together hold ~0.4 MB).
"""

from typing import Dict

from repro.isa.assembler import assemble
from repro.isa.program import Program
from repro.workloads.profiles import WorkloadProfile, ILP, PROFILES
from repro.workloads.generator import generate, generated_program
from repro.workloads.suites import (
    SPEC2000, MIBENCH, ALL_BENCHMARKS, benchmark_names,
)
from repro.workloads.kernels import KERNELS

#: workload name -> its assembled program, for the life of the process
_PROGRAMS: Dict[str, Program] = {}


def workload_names():
    """Every runnable workload: calibrated benchmarks plus hand-written
    kernels."""
    return sorted(ALL_BENCHMARKS) + sorted(KERNELS)


def load_workload(name: str) -> Program:
    """Load a workload by name, benchmark or kernel alike.

    The CLI and the campaign engine both address workloads by a single
    flat namespace; this is the one resolver for it. Raises ``KeyError``
    for unknown names (the caller decides how to report it).
    """
    program = _PROGRAMS.get(name)
    if program is None:
        if name in ALL_BENCHMARKS:
            program = generated_program(ALL_BENCHMARKS[name])
        elif name in KERNELS:
            program = assemble(KERNELS[name], name=name)
        else:
            raise KeyError(f"unknown workload {name!r} "
                           f"(try one of {', '.join(workload_names())})")
        _PROGRAMS[name] = program
    return program


def load_benchmark(name: str) -> Program:
    """Assembled program for calibrated benchmark ``name``."""
    if name not in ALL_BENCHMARKS:
        raise KeyError(f"unknown benchmark {name!r}; "
                       f"known: {', '.join(sorted(ALL_BENCHMARKS))}")
    return load_workload(name)


def load_kernel(name: str) -> Program:
    """Assembled program for hand-written kernel ``name``."""
    if name not in KERNELS:
        raise KeyError(f"unknown kernel {name!r}; "
                       f"known: {', '.join(sorted(KERNELS))}")
    return load_workload(name)


__all__ = [
    "WorkloadProfile", "ILP", "PROFILES",
    "generate", "generated_program",
    "SPEC2000", "MIBENCH", "ALL_BENCHMARKS", "load_benchmark",
    "benchmark_names",
    "KERNELS", "load_kernel",
    "load_workload", "workload_names",
]
