"""Tests for the AVF analysis."""

import pytest

from repro.faults.avf import (
    StructureAVF, effective_fit, occupancy_avf, pipeline_avf_report,
    regfile_liveness_avf,
)
from repro.isa.assembler import assemble
from repro.redundancy import BaselineSystem
from repro.workloads import load_benchmark


# ---------------------------------------------------------------------------
# occupancy AVF
# ---------------------------------------------------------------------------
def test_occupancy_avf_basic():
    assert occupancy_avf(20, 80) == pytest.approx(0.25)
    assert occupancy_avf(0, 80) == 0.0
    assert occupancy_avf(100, 80) == 1.0  # clamped


def test_occupancy_avf_bad_capacity():
    with pytest.raises(ValueError):
        occupancy_avf(1, 0)


# ---------------------------------------------------------------------------
# register-file liveness
# ---------------------------------------------------------------------------
def test_dead_writes_have_zero_avf():
    # values written and never read are un-ACE (note: the li pseudo-op
    # expands to lui+ori where ori *reads* its destination, so use addi)
    prog = assemble("""
main:
    addi r1, r0, 5
    addi r2, r0, 6
    addi r3, r0, 7
    halt
""")
    assert regfile_liveness_avf(prog) == 0.0


def test_long_lived_value_raises_avf():
    # r1 written once, read at the end: live across the whole loop
    prog = assemble("""
main:
    li r1, 123
    li r2, 50
loop:
    addi r2, r2, -1
    bne r2, r0, loop
    add r3, r1, r1
    la r4, out
    sw r3, 0(r4)
    halt
.data
out: .word 0
""")
    avf = regfile_liveness_avf(prog)
    # r1 and r2 are live for ~the whole run: AVF ~= 2/32
    assert 1.2 / 32 < avf < 4 / 32


def test_short_lived_values_have_low_avf():
    # each value read immediately after the write
    prog = assemble("""
main:
    li r2, 50
loop:
    addi r5, r2, 1
    add r6, r5, r5
    addi r2, r2, -1
    bne r2, r0, loop
    halt
""")
    short = regfile_liveness_avf(prog)
    assert short < 3 / 32


def test_avf_monotone_in_liveness():
    dead = assemble("main:\n    li r1, 5\n    halt")
    live = assemble("""
main:
    li r1, 5
    li r2, 40
loop:
    addi r2, r2, -1
    bne r2, r0, loop
    add r3, r1, r1
    halt
""")
    assert regfile_liveness_avf(live) > regfile_liveness_avf(dead)


def test_r0_never_counts():
    prog = assemble("""
main:
    addi r0, r0, 7
    add r0, r0, r0
    halt
""")
    assert regfile_liveness_avf(prog) == 0.0


# ---------------------------------------------------------------------------
# full report + derating
# ---------------------------------------------------------------------------
def test_pipeline_avf_report_structure():
    prog = load_benchmark("sha")
    system = BaselineSystem(prog)
    system.run()
    report = pipeline_avf_report(system.pipelines[0], system.ports[0],
                                 program=prog, cb_mean_occupancy=2.0,
                                 cb_capacity=10)
    names = {r.name for r in report}
    assert {"rob", "iq", "lsq", "regfile", "l1d_data", "l1i_data",
            "cb"} == names
    for r in report:
        assert 0.0 <= r.avf <= 1.0, r.name
    by_name = {r.name: r for r in report}
    # a running kernel keeps the ROB busier than the IQ (entries stay
    # until commit, not just until issue)
    assert by_name["rob"].avf > by_name["iq"].avf


def test_effective_fit_derates():
    report = [StructureAVF("a", 1000, 0.5), StructureAVF("b", 1000, 0.0)]
    assert effective_fit(1000.0, report) == pytest.approx(250.0)
    assert effective_fit(1000.0, []) == 0.0
    with pytest.raises(ValueError):
        effective_fit(-1.0, report)


def test_effective_fit_bounds():
    prog = load_benchmark("gzip")
    system = BaselineSystem(prog)
    system.run()
    report = pipeline_avf_report(system.pipelines[0], system.ports[0],
                                 program=prog)
    eff = effective_fit(1000.0, report)
    assert 0 < eff <= 1000.0
