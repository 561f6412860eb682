"""Program container: assembled code plus an initial data image.

A :class:`Program` is what every simulator front end consumes. Code lives in
an instruction-indexed list (the mini-ISA has a fixed 4-byte instruction
word, so PC = 4 * index); initialised data lives in a sparse
:class:`DataSegment` keyed by byte address.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.isa.instructions import Instruction


class DataSegment:
    """Sparse byte-addressable initial memory image.

    Backed by a dict of byte address -> byte value. Only initialised bytes
    are stored; uninitialised reads default to zero, matching the zero-fill
    semantics of the simulated DRAM.
    """

    def __init__(self) -> None:
        self._bytes: Dict[int, int] = {}

    def write_byte(self, addr: int, value: int) -> None:
        self._bytes[addr] = value & 0xFF

    def read_byte(self, addr: int) -> int:
        return self._bytes.get(addr, 0)

    def write_word(self, addr: int, value: int) -> None:
        """Little-endian 32-bit store."""
        for i in range(4):
            self.write_byte(addr + i, (value >> (8 * i)) & 0xFF)

    def items(self) -> Iterator:
        return iter(sorted(self._bytes.items()))

    def __len__(self) -> int:
        return len(self._bytes)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DataSegment) and self._bytes == other._bytes


@dataclass
class Program:
    """An assembled program: instructions, labels, and initial data."""

    instructions: List[Instruction] = field(default_factory=list)
    labels: Dict[str, int] = field(default_factory=dict)
    data: DataSegment = field(default_factory=DataSegment)
    name: str = "program"
    #: Base byte address of the data segment (labels in the data segment
    #: are already absolute).
    data_base: int = 0x1000_0000
    #: One past the last byte the data segment occupies, *including*
    #: ``.space`` reservations (which store no bytes but will be touched).
    #: The assembler records it; cache pre-warming relies on it.
    data_end: int = 0x1000_0000

    def __len__(self) -> int:
        return len(self.instructions)

    def fetch(self, pc: int) -> Optional[Instruction]:
        """Instruction at byte address ``pc`` or None past the end."""
        idx = pc >> 2
        if 0 <= idx < len(self.instructions):
            return self.instructions[idx]
        return None

    @property
    def entry_pc(self) -> int:
        return self.labels.get("main", 0) << 2 if "main" in self.labels else 0
