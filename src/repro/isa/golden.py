"""Golden (architectural) executor.

A plain fetch-execute interpreter over :class:`Program` with no timing
model. Every cycle-level simulator in this repository is validated against
it: for any fault-free run the out-of-order core must produce exactly the
same architectural register file, memory image, and dynamic instruction
count as the golden executor. The fault classifiers also diff final state
against a golden run to label outcomes as masked vs silent data corruption.

This module is the hottest code in the repository — every simulated
instruction passes through :func:`step_state` at least once (the pipeline
calls it at fetch, and again at commit when replay cannot be reused) — so
it is built for speed: memory is paged ``bytearray`` storage
(:class:`repro.isa.memory.PagedMemory`), instruction semantics dispatch
through a precomputed per-opcode handler table instead of an if/elif
chain, and :class:`StepInfo` carries ``__slots__``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.isa.instructions import (
    ALU_FUNCS, BRANCH_FUNCS, Instruction, Opcode, REG_COUNT,
)
from repro.isa.memory import PagedMemory
from repro.isa.program import Program

_M = 0xFFFFFFFF


class ExecutionLimitExceeded(RuntimeError):
    """The program ran longer than the configured instruction budget."""


@dataclass
class ArchState:
    """Architectural state: registers, memory, PC.

    Memory is sparse paged storage over the 4 GiB simulated address space
    (kernels touch a few KiB of it); see :mod:`repro.isa.memory` for the
    backend protocol. ``read_mem``/``write_mem`` are the stable API —
    the backend swap from the original per-byte dict is invisible here.
    """

    regs: List[int] = field(default_factory=lambda: [0] * REG_COUNT)
    mem: PagedMemory = field(default_factory=PagedMemory)
    pc: int = 0

    def read_mem(self, addr: int, width: int) -> int:
        return self.mem.read(addr, width)

    def write_mem(self, addr: int, value: int, width: int) -> None:
        self.mem.write(addr, value, width)

    def load_data(self, program: Program) -> None:
        mem = self.mem
        for addr, byte in program.data.items():
            mem.write_byte(addr, byte)

    def snapshot(self) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...], int]:
        """Hashable snapshot, used by tests to compare two executions.

        Memory content is normalised (nonzero bytes only), so snapshots
        are equal across backends and across executions that differ only
        in explicit zero writes.
        """
        return (tuple(self.regs), self.mem.snapshot_items(), self.pc)

    def clone(self) -> "ArchState":
        """An independent deep copy (registers, memory image, PC).

        The single capture primitive shared by the pipeline's
        flush/rollback paths and the checkpoint store — one definition of
        "copy the architectural state" instead of one per consumer.
        """
        new = ArchState.__new__(ArchState)
        new.regs = list(self.regs)
        new.mem = self.mem.copy()
        new.pc = self.pc
        return new


@dataclass(slots=True)
class StepInfo:
    """Side-channel record of one functional step.

    The cycle-level pipeline consumes these at fetch (oracle path) and at
    commit (architectural replay); the golden interpreter produces them
    internally.
    """

    ins: Instruction
    pc: int
    next_pc: int
    #: destination value written, if any
    result: Optional[int] = None
    #: effective address for memory instructions
    mem_addr: Optional[int] = None
    #: value stored (stores and swap)
    store_value: Optional[int] = None
    store_width: int = 0
    taken: bool = False
    is_halt: bool = False


# ---------------------------------------------------------------------------
# per-opcode step handlers
# ---------------------------------------------------------------------------
# Each handler advances ``state`` by one instruction and returns the
# StepInfo record; ``step_state`` is a single dict lookup away from the
# right one. Handlers read ``state.regs``/``state.mem`` directly — r0 is
# kept hard-zero by every register write path, so reads need no guard.
def _make_alu(fn: Callable[[int, int], int]):
    def step(state: ArchState, ins: Instruction) -> StepInfo:
        regs = state.regs
        rs1 = ins.rs1
        a = regs[rs1] if rs1 is not None else 0
        rs2 = ins.rs2
        b = regs[rs2] if rs2 is not None else ins.imm
        result = fn(a, b)
        rd = ins.rd
        if rd:
            regs[rd] = result
        pc = state.pc
        state.pc = next_pc = pc + 4
        return StepInfo(ins, pc, next_pc, result)
    return step


def _make_load(width: int, sign_bit: int, sign_ext: int):
    def step(state: ArchState, ins: Instruction) -> StepInfo:
        regs = state.regs
        addr = (regs[ins.rs1] + ins.imm) & _M
        value = state.mem.read(addr, width)
        if value & sign_bit:
            value |= sign_ext
        rd = ins.rd
        if rd:
            regs[rd] = value
        pc = state.pc
        state.pc = next_pc = pc + 4
        return StepInfo(ins, pc, next_pc, value, addr)
    return step


def _make_store(width: int):
    mask = (1 << (8 * width)) - 1

    def step(state: ArchState, ins: Instruction) -> StepInfo:
        regs = state.regs
        addr = (regs[ins.rs1] + ins.imm) & _M
        value = regs[ins.rd] & mask
        state.mem.write(addr, value, width)
        pc = state.pc
        state.pc = next_pc = pc + 4
        return StepInfo(ins, pc, next_pc, None, addr, value, width)
    return step


def _make_branch(fn: Callable[[int, int], bool]):
    def step(state: ArchState, ins: Instruction) -> StepInfo:
        regs = state.regs
        pc = state.pc
        if fn(regs[ins.rs1], regs[ins.rs2]):
            state.pc = next_pc = ins.imm << 2
            return StepInfo(ins, pc, next_pc, taken=True)
        state.pc = next_pc = pc + 4
        return StepInfo(ins, pc, next_pc)
    return step


def _step_j(state: ArchState, ins: Instruction) -> StepInfo:
    pc = state.pc
    state.pc = next_pc = ins.imm << 2
    return StepInfo(ins, pc, next_pc, taken=True)


def _step_jal(state: ArchState, ins: Instruction) -> StepInfo:
    pc = state.pc
    result = (pc + 4) & _M
    rd = ins.rd
    if rd:
        state.regs[rd] = result
    state.pc = next_pc = ins.imm << 2
    return StepInfo(ins, pc, next_pc, result, taken=True)


def _step_jr(state: ArchState, ins: Instruction) -> StepInfo:
    pc = state.pc
    state.pc = next_pc = state.regs[ins.rs1] & 0xFFFFFFFC
    return StepInfo(ins, pc, next_pc, taken=True)


def _step_swap(state: ArchState, ins: Instruction) -> StepInfo:
    regs = state.regs
    mem = state.mem
    addr = (regs[ins.rs1] + ins.imm) & _M
    old = mem.read(addr, 4)
    new = regs[ins.rd]
    mem.write(addr, new, 4)
    rd = ins.rd
    if rd:
        regs[rd] = old
    pc = state.pc
    state.pc = next_pc = pc + 4
    return StepInfo(ins, pc, next_pc, old, addr, new, 4)


def _step_nop(state: ArchState, ins: Instruction) -> StepInfo:
    pc = state.pc
    state.pc = next_pc = pc + 4
    return StepInfo(ins, pc, next_pc)


def _step_halt(state: ArchState, ins: Instruction) -> StepInfo:
    pc = state.pc  # halt does not advance
    return StepInfo(ins, pc, pc, is_halt=True)


def _build_dispatch() -> Dict[Opcode, Callable[[ArchState, Instruction], StepInfo]]:
    table: Dict[Opcode, Callable[[ArchState, Instruction], StepInfo]] = {}
    for op, fn in ALU_FUNCS.items():
        table[op] = _make_alu(fn)
    table[Opcode.LW] = _make_load(4, 0, 0)
    table[Opcode.LH] = _make_load(2, 0x8000, 0xFFFF0000)
    table[Opcode.LB] = _make_load(1, 0x80, 0xFFFFFF00)
    table[Opcode.SW] = _make_store(4)
    table[Opcode.SH] = _make_store(2)
    table[Opcode.SB] = _make_store(1)
    for op, fn in BRANCH_FUNCS.items():
        table[op] = _make_branch(fn)
    table[Opcode.J] = _step_j
    table[Opcode.JAL] = _step_jal
    table[Opcode.JR] = _step_jr
    table[Opcode.SWAP] = _step_swap
    # TRAP / MEMBAR are architectural no-ops here.
    table[Opcode.TRAP] = _step_nop
    table[Opcode.MEMBAR] = _step_nop
    table[Opcode.NOP] = _step_nop
    table[Opcode.HALT] = _step_halt
    missing = set(Opcode) - set(table)
    assert not missing, f"dispatch table incomplete: {missing}"
    return table


#: Opcode -> step handler; the single source of truth for instruction
#: semantics across every simulator in the package.
STEP_DISPATCH = _build_dispatch()


def step_state(state: ArchState, ins: Instruction) -> StepInfo:
    """Advance ``state`` by one instruction via the dispatch table."""
    return STEP_DISPATCH[ins.op](state, ins)


@dataclass
class GoldenResult:
    """Outcome of a golden run."""

    state: ArchState
    instructions: int
    trace: Optional[List[int]] = None  # executed PCs when tracing
    class_counts: Dict[str, int] = field(default_factory=dict)
    store_log: List[Tuple[int, int, int]] = field(default_factory=list)
    halted: bool = True


def run(program: Program, max_instructions: int = 1_000_000,
        trace: bool = False, collect_stores: bool = False) -> GoldenResult:
    """Interpret ``program`` to HALT (or the instruction budget).

    Parameters
    ----------
    program:
        Assembled program; its data segment seeds memory.
    max_instructions:
        Safety budget; exceeding it raises :class:`ExecutionLimitExceeded`
        (infinite loops in generated workloads are bugs we want loud).
    trace:
        Record the PC of every retired instruction.
    collect_stores:
        Record every (addr, value, width) store, in retirement order —
        used to validate the CB drain stream against the golden store
        stream.
    """
    state = ArchState()
    state.load_data(program)
    state.pc = program.entry_pc

    executed = 0
    pcs: Optional[List[int]] = [] if trace else None
    counts: Dict[str, int] = {}
    stores: List[Tuple[int, int, int]] = []

    fetch = program.fetch
    dispatch = STEP_DISPATCH
    while True:
        ins = fetch(state.pc)
        if ins is None or ins.op is Opcode.HALT:
            halted = ins is not None
            break
        if executed >= max_instructions:
            raise ExecutionLimitExceeded(
                f"{program.name}: exceeded {max_instructions} instructions")
        executed += 1
        if pcs is not None:
            pcs.append(state.pc)
        key = ins.iclass.value
        counts[key] = counts.get(key, 0) + 1

        info = dispatch[ins.op](state, ins)
        if collect_stores and info.store_value is not None:
            stores.append((info.mem_addr, info.store_value, info.store_width))

    return GoldenResult(state=state, instructions=executed, trace=pcs,
                        class_counts=counts, store_log=stores, halted=halted)
