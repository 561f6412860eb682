"""Unit tests for the two-pass assembler."""

import pytest

from repro.isa.assembler import AssemblerError, assemble
from repro.isa.instructions import Opcode


def one(text):
    """Assemble a single-instruction snippet and return the instruction."""
    return assemble(text).instructions[0]


def _word(data, addr):
    """The little-endian 32-bit word at ``addr`` of a data segment."""
    return sum(data.read_byte(addr + i) << (8 * i) for i in range(4))


# ---------------------------------------------------------------------------
# operand forms
# ---------------------------------------------------------------------------
def test_r3_form():
    i = one("add r3, r1, r2")
    assert (i.op, i.rd, i.rs1, i.rs2) == (Opcode.ADD, 3, 1, 2)


def test_ri_form():
    i = one("addi r3, r1, -5")
    assert (i.op, i.rd, i.rs1, i.imm) == (Opcode.ADDI, 3, 1, -5)


def test_hex_immediate():
    assert one("ori r1, r0, 0xff").imm == 255


def test_lui():
    i = one("lui r4, 0x1234")
    assert (i.op, i.rd, i.imm) == (Opcode.LUI, 4, 0x1234)


def test_mem_paren_form():
    i = one("lw r2, 8(r5)")
    assert (i.op, i.rd, i.rs1, i.imm) == (Opcode.LW, 2, 5, 8)


def test_mem_negative_offset():
    assert one("lw r2, -4(r5)").imm == -4


def test_mem_comma_form():
    i = one("sw r2, r5, 12")
    assert (i.op, i.rd, i.rs1, i.imm) == (Opcode.SW, 2, 5, 12)


def test_branch_form():
    prog = assemble("target:\n    beq r1, r2, target")
    i = prog.instructions[0]
    assert (i.op, i.rs1, i.rs2, i.imm) == (Opcode.BEQ, 1, 2, 0)


def test_jr():
    i = one("jr ra")
    assert (i.op, i.rs1) == (Opcode.JR, 31)


def test_jal_default_links_ra():
    prog = assemble("f:\n    jal f")
    assert prog.instructions[0].rd == 31


def test_jal_explicit_rd():
    prog = assemble("f:\n    jal r5, f")
    assert prog.instructions[0].rd == 5


def test_trap_with_code():
    assert one("trap 3").imm == 3


def test_register_aliases():
    assert one("add r1, zero, sp").rs1 == 0
    assert one("add r1, zero, sp").rs2 == 29
    assert one("jr ra").rs1 == 31


# ---------------------------------------------------------------------------
# pseudo-instructions
# ---------------------------------------------------------------------------
def test_li_expands_to_two_instructions():
    prog = assemble("li r1, 0x12345678")
    assert len(prog) == 2
    assert prog.instructions[0].op is Opcode.LUI
    assert prog.instructions[0].imm == 0x1234
    assert prog.instructions[1].op is Opcode.ORI
    assert prog.instructions[1].imm == 0x5678


def test_li_small_value_still_two_instructions():
    # uniform 2-instruction expansion keeps label arithmetic simple
    assert len(assemble("li r1, 5")) == 2


def test_la_resolves_data_label():
    prog = assemble("la r1, x\n.data\nx: .word 9")
    addr = prog.labels["x"]
    assert (prog.instructions[0].imm << 16) | prog.instructions[1].imm == addr


def test_mv():
    i = one("mv r4, r7")
    assert (i.op, i.rd, i.rs1, i.imm) == (Opcode.ADDI, 4, 7, 0)


def test_b_alias_for_j():
    prog = assemble("x:\n    b x")
    assert prog.instructions[0].op is Opcode.J


# ---------------------------------------------------------------------------
# labels and layout
# ---------------------------------------------------------------------------
def test_forward_label_reference():
    prog = assemble("""
    j end
    nop
end:
    halt
""")
    assert prog.instructions[0].imm == 2  # instruction index of 'end'


def test_label_sharing_line_with_instruction():
    prog = assemble("start: nop\n    j start")
    assert prog.instructions[1].imm == 0


def test_multiple_labels_same_target():
    prog = assemble("a: b_lbl: nop")
    assert prog.labels["a"] == prog.labels["b_lbl"] == 0


def test_entry_pc_uses_main():
    prog = assemble("nop\nmain:\n    nop")
    assert prog.entry_pc == 4


def test_entry_pc_defaults_to_zero():
    assert assemble("nop").entry_pc == 0


# ---------------------------------------------------------------------------
# data directives
# ---------------------------------------------------------------------------
def test_word_directive():
    prog = assemble(".data\nv: .word 1, 2, 3")
    base = prog.labels["v"]
    assert _word(prog.data, base) == 1
    assert _word(prog.data, base + 4) == 2
    assert _word(prog.data, base + 8) == 3


def test_byte_directive():
    prog = assemble(".data\nv: .byte 0xAB, 1")
    assert prog.data.read_byte(prog.labels["v"]) == 0xAB


def test_space_advances_cursor():
    prog = assemble(".data\na: .space 100\nb: .word 1")
    assert prog.labels["b"] == prog.labels["a"] + 100


def test_align():
    prog = assemble(".data\n.byte 1\n.align 8\nx: .word 2")
    assert prog.labels["x"] % 8 == 0


def test_data_end_includes_space():
    prog = assemble(".data\nbuf: .space 4096")
    assert prog.data_end - prog.labels["buf"] == 4096


def test_text_switches_back():
    prog = assemble(".data\nx: .word 1\n.text\nmain: halt")
    assert len(prog) == 1


def test_negative_word():
    prog = assemble(".data\nx: .word -1")
    assert _word(prog.data, prog.labels["x"]) == 0xFFFFFFFF


# ---------------------------------------------------------------------------
# comments & formatting
# ---------------------------------------------------------------------------
def test_comments_stripped():
    prog = assemble("nop # comment\nnop ; also comment\n# whole line")
    assert len(prog) == 2


def test_blank_lines_ignored():
    assert len(assemble("\n\nnop\n\n")) == 1


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("bad", [
    "frobnicate r1, r2, r3",        # unknown opcode
    "add r1, r2",                   # missing operand
    "add r99, r1, r2",              # bad register
    "lw r1, nonsense",              # bad memory operand
    ".data\nadd r1, r2, r3",        # instruction inside .data
    ".bogus 4",                     # unknown directive
    "x: nop\nx: nop",               # duplicate label
    "addi r1, r2, notanumber",      # unresolvable immediate
    "membar 3",                     # operand on no-operand opcode
])
def test_assembler_errors(bad):
    with pytest.raises(AssemblerError):
        assemble(bad)


def test_error_reports_line_number():
    with pytest.raises(AssemblerError, match="line 2"):
        assemble("nop\nbadop r1")
