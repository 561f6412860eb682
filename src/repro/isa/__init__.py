"""Mini-ISA substrate: a MIPS-like instruction set for the UnSync reproduction.

The paper evaluates on SPEC2000/MiBench binaries running on Alpha-like cores
inside M5. We cannot ship those binaries, so all workloads are written in (or
generated into) this small MIPS-flavoured ISA. The ISA is deliberately simple
but complete enough to express real kernels: 32 general registers, loads and
stores of several widths, the usual ALU/branch repertoire, and the three
families of *serializing* instructions that drive the paper's Figure 4
(traps, memory barriers, and non-idempotent atomics).

Public entry points:

* :class:`~repro.isa.instructions.Instruction` — one decoded instruction.
* :class:`~repro.isa.instructions.Opcode` / :class:`~repro.isa.instructions.InstrClass`
* :func:`~repro.isa.assembler.assemble` — assembly text to :class:`Program`.
* :class:`~repro.isa.program.Program` — code + data image.

:mod:`repro.isa.encoding` holds the 32-bit binary form
(``encode``/``decode``); nothing in the simulator uses it yet. It is
imported from that module, not re-exported here.
"""

from repro.isa.instructions import (
    Instruction,
    InstrClass,
    Opcode,
    OPCODE_CLASS,
    REG_COUNT,
    is_serializing,
)
from repro.isa.program import Program, DataSegment
from repro.isa.assembler import assemble, AssemblerError

__all__ = [
    "Instruction",
    "InstrClass",
    "Opcode",
    "OPCODE_CLASS",
    "REG_COUNT",
    "is_serializing",
    "Program",
    "DataSegment",
    "assemble",
    "AssemblerError",
]
