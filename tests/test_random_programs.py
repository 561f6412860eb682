"""Property-based pipeline-vs-golden equivalence on random programs.

Hypothesis generates random (but always-terminating) programs over the
full ISA; the out-of-order core must retire bit-identical architectural
state to the golden interpreter for every one of them, under several
machine configurations and under every registered scheme.

This is the strongest single correctness property in the suite: it
covers operand forwarding, store-to-load bypass, branch handling, eager
oracle vs commit replay, CB/CSB gating — anything that could make the
timing machinery leak into architectural results.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import CoreConfig, SystemConfig
from repro.isa import golden
from repro.isa.assembler import assemble
from repro.redundancy import BaselineSystem
from repro.schemes import available, get

# registers the generator uses freely (r1 is the loop counter, r20 the
# memory base — those are managed by the template)
FREE_REGS = list(range(2, 16))

_reg = st.sampled_from(FREE_REGS)
_shift = st.integers(min_value=0, max_value=31)
_imm = st.integers(min_value=-256, max_value=256)
_off = st.integers(min_value=0, max_value=60).map(lambda x: 4 * (x // 4))


@st.composite
def _instruction(draw):
    kind = draw(st.sampled_from(
        ["alu3", "alu3", "alu3", "alui", "mul", "div", "load", "store",
         "swap", "skip", "trap"]))
    rd, rs1, rs2 = draw(_reg), draw(_reg), draw(_reg)
    if kind == "alu3":
        op = draw(st.sampled_from(
            ["add", "sub", "and", "or", "xor", "nor", "slt", "sltu"]))
        return [f"    {op} r{rd}, r{rs1}, r{rs2}"]
    if kind == "alui":
        op = draw(st.sampled_from(["addi", "andi", "ori", "xori", "slti"]))
        imm = draw(_imm)
        if op in ("andi", "ori", "xori"):
            imm = abs(imm)
        return [f"    {op} r{rd}, r{rs1}, {imm}"]
    if kind == "mul":
        return [f"    mul r{rd}, r{rs1}, r{rs2}"]
    if kind == "div":
        return [f"    div r{rd}, r{rs1}, r{rs2}"]
    if kind == "load":
        return [f"    lw r{rd}, {draw(_off)}(r20)"]
    if kind == "store":
        return [f"    sw r{rd}, {draw(_off)}(r20)"]
    if kind == "swap":
        return [f"    swap r{rd}, {draw(_off)}(r20)"]
    if kind == "trap":
        return ["    trap"]
    # data-dependent forward skip over one instruction; the {LBL}
    # placeholder is uniquified by random_program (hypothesis can draw
    # duplicate values, which would collide as labels)
    return ["    andi r15, r{rs1}, 1".format(rs1=rs1),
            "    beq r15, r0, {LBL}",
            f"    addi r{rd}, r{rd}, 1",
            "{LBL}:"]


@st.composite
def random_program(draw):
    """A random loop body inside an always-terminating counted loop."""
    body = draw(st.lists(_instruction(), min_size=3, max_size=25))
    iterations = draw(st.integers(min_value=1, max_value=8))
    seeds = draw(st.lists(st.integers(min_value=0, max_value=0xFFFF),
                          min_size=len(FREE_REGS),
                          max_size=len(FREE_REGS)))
    lines = ["main:", f"    li r1, {iterations}", "    la r20, mem"]
    lines += [f"    li r{r}, {s}" for r, s in zip(FREE_REGS, seeds)]
    lines.append("loop:")
    for n, chunk in enumerate(body):
        lines.extend(line.replace("{LBL}", f"sk_{n}") for line in chunk)
    lines += ["    addi r1, r1, -1",
              "    bne r1, r0, loop",
              "    halt",
              ".data",
              "mem: .space 256"]
    return assemble("\n".join(lines), name="hypothesis")


_settings = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow,
                                            HealthCheck.data_too_large])


@_settings
@given(random_program())
def test_core_matches_golden_on_random_programs(program):
    gold = golden.run(program, max_instructions=100_000)
    res = BaselineSystem(program).run(max_cycles=500_000)
    assert res.instructions == gold.instructions
    assert res.state.regs == gold.state.regs
    assert res.state.mem == gold.state.mem


@_settings
@given(random_program())
def test_narrow_core_matches_golden(program):
    cfg = SystemConfig(core=CoreConfig(
        fetch_width=1, dispatch_width=1, issue_width=1, commit_width=1,
        rob_entries=8, iq_entries=4, lsq_entries=4))
    gold = golden.run(program, max_instructions=100_000)
    res = BaselineSystem(program, config=cfg).run(max_cycles=1_000_000)
    assert res.state.regs == gold.state.regs
    assert res.state.mem == gold.state.mem


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(random_program())
def test_redundant_schemes_match_golden_on_random_programs(program):
    gold = golden.run(program, max_instructions=100_000)
    for name in available():
        res = get(name).build_system(program).run(4_000_000)
        assert res.state.regs == gold.state.regs, name
        assert res.state.mem == gold.state.mem, name
