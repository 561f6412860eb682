"""L2 pre-warming.

The paper's M5 runs measure steady-state windows of SPEC/MiBench with
warm caches; our kernels are short, so without warming every first touch
would be a 400-cycle DRAM miss and cold-start effects would swamp the
scheme-vs-scheme ratios the figures compare. Pre-warming installs the
program's code and data footprint into the *L2 only* — L1s start cold, so
L1 dynamics (the part the schemes actually differ on) are fully modelled.
"""

from __future__ import annotations

from repro.isa.program import Program
from repro.mem.l2 import SharedL2


def prewarm_l2(l2: SharedL2, program: Program) -> int:
    """Install ``program``'s footprint in the L2; returns lines warmed.

    The footprint is the code region plus the full data-segment extent
    (``Program.data_end`` includes ``.space`` reservations).
    """
    line = l2.config.line_bytes
    lines = set()
    # code region: PCs 0 .. 4*len
    for pc in range(0, 4 * len(program.instructions), line):
        lines.add(pc)
    # data region, including zero-initialised reservations
    if program.data_end > program.data_base:
        start = program.data_base - program.data_base % line
        for a in range(start, program.data_end + line, line):
            lines.add(a)
    for a in sorted(lines):
        l2.cache.access(a, is_write=False)
    l2.reset_stats()
    return len(lines)
