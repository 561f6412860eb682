"""Tests for the golden (architectural) executor."""

import pytest

from repro.isa.assembler import assemble
from repro.isa.golden import (
    ArchState, ExecutionLimitExceeded, run, step_state,
)
from repro.isa.instructions import Instruction, Opcode
from repro.workloads import KERNELS, load_workload


def result_of(program):
    res = run(program)
    return res.state.read_mem(program.labels["result"], 4)


# ---------------------------------------------------------------------------
# whole-kernel results (ground truth computed independently)
# ---------------------------------------------------------------------------
def test_dot_product_value():
    # sum_{i=1..64} i * (2i-1) = 2*sum i^2 - sum i = 2*89440 - 2080
    prog = load_workload("dot_product")
    assert result_of(prog) == 2 * sum(i * i for i in range(1, 65)) - sum(range(1, 65))


def test_fibonacci_value():
    prog = load_workload("fibonacci")
    assert result_of(prog) == 832040  # fib(30)


def test_bubble_sort_sorts():
    prog = load_workload("bubble_sort")
    res = run(prog)
    base = prog.labels["arr"]
    values = [res.state.read_mem(base + 4 * i, 4) for i in range(32)]
    assert values == sorted(values)
    # min and max spilled to result
    rbase = prog.labels["result"]
    assert res.state.read_mem(rbase, 4) == values[0]
    assert res.state.read_mem(rbase + 4, 4) == values[-1]


def test_matmul_checksum_matches_python():
    prog = load_workload("matmul")
    a = [[i * 8 + k + 1 for k in range(8)] for i in range(8)]
    b = [[(k * 8 + j + 1) * 2 for j in range(8)] for k in range(8)]
    c = sum(sum(a[i][k] * b[k][j] for k in range(8)) % 2**32
            for i in range(8) for j in range(8)) % 2**32
    assert result_of(prog) == c


def test_atomic_counter_rotates_token():
    prog = load_workload("atomic_counter")
    res = run(prog)
    rbase = prog.labels["result"]
    # after 40 rotations of (1) through boxes [10,20,30] the register holds
    # a value from the rotation cycle; just pin the simulated outcome and
    # check determinism
    first = res.state.read_mem(rbase, 4)
    again = run(load_workload("atomic_counter"))
    assert again.state.read_mem(rbase, 4) == first


def test_all_kernels_halt():
    for name in KERNELS:
        res = run(load_workload(name))
        assert res.halted


# ---------------------------------------------------------------------------
# mechanics
# ---------------------------------------------------------------------------
def test_execution_limit():
    prog = assemble("spin:\n    j spin")
    with pytest.raises(ExecutionLimitExceeded):
        run(prog, max_instructions=100)


def test_trace_records_pcs():
    prog = assemble("nop\nnop\nhalt")
    res = run(prog, trace=True)
    assert res.trace == [0, 4]


def test_class_counts(sum_loop):
    res = run(sum_loop)
    assert res.class_counts["store"] == 51      # 50 in loop + final
    assert res.class_counts["load"] == 50
    assert res.class_counts["mul"] == 50


def test_store_log_in_order(sum_loop):
    res = run(sum_loop, collect_stores=True)
    assert len(res.store_log) == 51
    addrs = [a for a, _, _ in res.store_log[:-1]]
    assert addrs == sorted(addrs)  # buffer walks upward


def test_data_segment_seeds_memory():
    prog = assemble("main:\n    halt\n.data\nx: .word 0xDEADBEEF")
    res = run(prog)
    assert res.state.read_mem(prog.labels["x"], 4) == 0xDEADBEEF


def test_byte_load_sign_extends():
    prog = assemble("""
main:
    la r1, x
    lb r2, 0(r1)
    la r3, result
    sw r2, 0(r3)
    halt
.data
result: .word 0
x: .byte 0x80
""")
    assert result_of(prog) == 0xFFFFFF80


def test_half_load_sign_extends():
    prog = assemble("""
main:
    la r1, x
    lh r2, 0(r1)
    la r3, result
    sw r2, 0(r3)
    halt
.data
result: .word 0
x: .word 0x8000
""")
    assert result_of(prog) == 0xFFFF8000


def test_sb_stores_single_byte():
    prog = assemble("""
main:
    la r1, x
    li r2, 0x1FF
    sb r2, 0(r1)
    halt
.data
x: .word 0
""")
    res = run(prog)
    assert res.state.read_mem(prog.labels["x"], 4) == 0xFF


# ---------------------------------------------------------------------------
# step_state (single-instruction interface)
# ---------------------------------------------------------------------------
def test_step_state_alu():
    s = ArchState()
    s.regs[1] = 4
    s.regs[2] = 6
    info = step_state(s, Instruction(Opcode.ADD, rd=3, rs1=1, rs2=2))
    assert s.regs[3] == 10 and info.result == 10
    assert s.pc == 4 and info.next_pc == 4


def test_step_state_taken_branch():
    s = ArchState()
    info = step_state(s, Instruction(Opcode.BEQ, rs1=0, rs2=0, imm=10))
    assert info.taken and s.pc == 40


def test_step_state_store_info():
    s = ArchState()
    s.regs[1] = 0x100
    s.regs[2] = 0xAB
    info = step_state(s, Instruction(Opcode.SW, rd=2, rs1=1, imm=4))
    assert (info.mem_addr, info.store_value, info.store_width) == (0x104, 0xAB, 4)
    assert s.read_mem(0x104, 4) == 0xAB


def test_step_state_swap():
    s = ArchState()
    s.write_mem(0x200, 7, 4)
    s.regs[3] = 99
    s.regs[1] = 0x200
    info = step_state(s, Instruction(Opcode.SWAP, rd=3, rs1=1, imm=0))
    assert s.regs[3] == 7 and s.read_mem(0x200, 4) == 99
    assert info.store_value == 99 and info.result == 7


def test_step_state_halt_does_not_advance():
    s = ArchState()
    s.pc = 40
    info = step_state(s, Instruction(Opcode.HALT))
    assert info.is_halt and s.pc == 40


def test_step_state_jal_links():
    s = ArchState()
    s.pc = 8
    info = step_state(s, Instruction(Opcode.JAL, rd=31, imm=5))
    assert s.regs[31] == 12 and s.pc == 20


def test_r0_is_always_zero():
    s = ArchState()
    step_state(s, Instruction(Opcode.ADDI, rd=0, rs1=0, imm=42))
    assert s.regs[0] == 0


def test_snapshot_equality():
    prog = load_workload("checksum")
    a = run(prog).state.snapshot()
    b = run(prog).state.snapshot()
    assert a == b
