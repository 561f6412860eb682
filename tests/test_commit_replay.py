"""Commit replay: the fetch-time record, applied at commit, must equal
full re-execution.

The architectural image advances at commit by applying the oracle
record captured at fetch; every 64th commit re-executes the instruction
instead and raises if the record disagrees (``Pipeline._crosscheck``).
Strikes never write either image, so the cross-check guards injected
runs exactly as it guards fault-free ones.
"""

from collections import Counter

import pytest

from repro.core import pipeline as pipeline_mod
from repro.core.pipeline import Pipeline
from repro.core.rob import ROBEntry
from repro.faults.injector import FaultInjector
from repro.isa import golden
from repro.isa.golden import StepInfo
from repro.isa.instructions import Instruction, Opcode
from repro.redundancy import BaselineSystem
from repro.reunion.system import ReunionSystem
from repro.schemes import get, protected_schemes
from repro.unsync.system import UnSyncSystem
from repro.workloads import load_workload

#: representative mix: tight kernel, mem-heavy kernel, two benchmarks
WORKLOADS = ["fibonacci", "checksum", "sha", "bzip2"]


def _force_always(*pipelines):
    """Cross-check every commit: each instruction re-executes at commit
    and the image advances from that re-execution, not the record."""
    for p in pipelines:
        p.crosscheck_interval = 1
        p._crosscheck_countdown = 1


# ---------------------------------------------------------------------------
# fault-free equivalence, cycle-for-cycle
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
def test_single_core_reuse_equals_always(workload):
    program = load_workload(workload)
    r_reuse = BaselineSystem(program).run()
    always = BaselineSystem(program)
    _force_always(*always.pipelines)
    r_always = always.run()
    assert r_reuse.cycles == r_always.cycles
    assert r_reuse.instructions == r_always.instructions
    assert r_reuse.state.regs == r_always.state.regs
    assert r_reuse.state.mem == r_always.state.mem
    assert r_reuse.state.pc == r_always.state.pc


@pytest.mark.parametrize("system_cls", [UnSyncSystem, ReunionSystem])
def test_pair_schemes_reuse_equals_always(system_cls):
    program = load_workload("checksum")
    r_reuse = system_cls(program).run()
    always = system_cls(program)
    _force_always(*always.pipelines)
    r_always = always.run()
    assert r_reuse.cycles == r_always.cycles
    assert r_reuse.instructions == r_always.instructions
    assert r_reuse.state.regs == r_always.state.regs
    assert r_reuse.state.mem == r_always.state.mem


def test_reuse_matches_golden_across_workloads():
    for workload in WORKLOADS:
        program = load_workload(workload)
        gold = golden.run(program, max_instructions=2_000_000)
        res = BaselineSystem(program).run()
        assert res.instructions == gold.instructions, workload
        assert res.state.regs == gold.state.regs, workload
        assert res.state.mem == gold.state.mem, workload


# ---------------------------------------------------------------------------
# injected runs are cross-checked too
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("scheme", protected_schemes())
def test_injected_runs_cross_check_every_64_commits(scheme, monkeypatch):
    checks = Counter()
    real = Pipeline._crosscheck

    def counting(self, entry, info):
        checks[self.name] += 1
        real(self, entry, info)

    monkeypatch.setattr(Pipeline, "_crosscheck", counting)
    # 1/50 strikes every scheme several times on fibonacci
    system = get(scheme).build_system(
        load_workload("fibonacci"), injector=FaultInjector(1 / 50, seed=3))
    # count retirements independently, through each core's commit gate
    retired = Counter()
    for pipe in system.pipelines:
        def on_commit(entry, now, name=pipe.name,
                      inner=pipe.gate.on_commit):
            retired[name] += 1
            inner(entry, now)
        pipe.gate.on_commit = on_commit
    res = system.run()
    assert res.fault_events  # the run really was struck
    for pipe in system.pipelines:
        assert retired[pipe.name] > 64, pipe.name
        # every 64th non-HALT commit re-executes; HALT retires unchecked
        assert checks[pipe.name] >= (retired[pipe.name] - 1) // 64, \
            (pipe.name, checks[pipe.name], retired[pipe.name])


@pytest.mark.parametrize("scheme", protected_schemes())
def test_injected_run_raises_on_crosscheck_divergence(scheme, monkeypatch):
    system = get(scheme).build_system(
        load_workload("fibonacci"), injector=FaultInjector(1 / 50, seed=3))
    real = pipeline_mod.step_state
    tampered = []

    def corrupting(state, ins):
        info = real(state, ins)
        if system.fault_events and not tampered:
            # the first commit-time re-execution after a strike disagrees
            tampered.append(ins)
            info.next_pc += 4
        return info

    monkeypatch.setattr(pipeline_mod, "step_state", corrupting)
    with pytest.raises(RuntimeError, match="diverged"):
        system.run()
    assert tampered


def test_injected_run_is_deterministic():
    program = load_workload("fibonacci")
    runs = [UnSyncSystem(program,
                         injector=FaultInjector(1 / 500, seed=11)).run()
            for _ in range(2)]
    assert runs[0].cycles == runs[1].cycles
    assert runs[0].state.regs == runs[1].state.regs
    assert len(runs[0].fault_events) == len(runs[1].fault_events)


# ---------------------------------------------------------------------------
# the safety nets themselves
# ---------------------------------------------------------------------------
def test_crosscheck_raises_on_divergence():
    program = load_workload("fibonacci")
    pipe = BaselineSystem(program).pipelines[0]
    ins = Instruction(Opcode.ADDI, rd=1, rs1=0, imm=5)
    entry = ROBEntry(0, ins, 0, result=5, branch_target=4)
    honest = StepInfo(ins=ins, pc=0, next_pc=4, result=5)
    pipe._crosscheck(entry, honest)  # matching record: no error
    corrupted = StepInfo(ins=ins, pc=0, next_pc=4, result=6)
    with pytest.raises(RuntimeError, match="diverged"):
        pipe._crosscheck(entry, corrupted)


def test_periodic_crosscheck_runs_in_reuse_mode():
    program = load_workload("checksum")
    system = BaselineSystem(program)
    pipe = system.pipelines[0]
    pipe.crosscheck_interval = 8
    pipe._crosscheck_countdown = 8
    res = system.run()  # would raise if any periodic re-execution diverged
    gold = golden.run(program)
    assert res.state.regs == gold.state.regs
