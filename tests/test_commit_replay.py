"""Commit-replay modes: oracle-record reuse must equal full re-execution.

``commit_replay="reuse"`` advances the architectural image from the
fetch-time oracle record; ``"always"`` re-executes every instruction at
commit. In a fault-free run the two must be indistinguishable — same
cycle count, same committed count, same architectural state — on every
workload and scheme. Under fault injection the systems must *force*
always-replay, because the whole point of the second image is to be an
independent re-execution.
"""

import pytest

from repro.core import Core
from repro.core.pipeline import Pipeline
from repro.core.rob import ROBEntry
from repro.faults.injector import FaultInjector
from repro.isa import golden
from repro.isa.golden import StepInfo
from repro.isa.instructions import Instruction, Opcode
from repro.reunion.system import ReunionSystem
from repro.schemes import get, protected_schemes
from repro.unsync.system import UnSyncSystem
from repro.workloads import load_workload

#: representative mix: tight kernel, mem-heavy kernel, two benchmarks
WORKLOADS = ["fibonacci", "checksum", "sha", "bzip2"]


def _force_always(system):
    for p in system.pipelines:
        p.commit_replay = "always"
    return system


# ---------------------------------------------------------------------------
# fault-free equivalence, cycle-for-cycle
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
def test_single_core_reuse_equals_always(workload):
    program = load_workload(workload)
    reuse = Core(program)
    assert reuse.pipeline.commit_replay == "reuse"  # the default
    r_reuse = reuse.run()
    always = Core(program)
    always.pipeline.commit_replay = "always"
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
    r_always = _force_always(system_cls(program)).run()
    assert r_reuse.cycles == r_always.cycles
    assert r_reuse.instructions == r_always.instructions
    assert r_reuse.state.regs == r_always.state.regs
    assert r_reuse.state.mem == r_always.state.mem


def test_reuse_matches_golden_across_workloads():
    for workload in WORKLOADS:
        program = load_workload(workload)
        gold = golden.run(program, max_instructions=2_000_000)
        res = Core(program).run()
        assert res.instructions == gold.instructions, workload
        assert res.state.regs == gold.state.regs, workload
        assert res.state.mem == gold.state.mem, workload


# ---------------------------------------------------------------------------
# injection forces independent re-execution
# ---------------------------------------------------------------------------
def _pipelines(system):
    # MEEK has one OoO core; the pair schemes have two
    return getattr(system, "pipelines", None) or [system.pipeline]


@pytest.mark.parametrize("scheme", protected_schemes())
def test_injected_systems_force_always_replay(scheme):
    program = load_workload("fibonacci")
    desc = get(scheme)
    clean = desc.build_system(program)
    assert all(p.commit_replay == "reuse" for p in _pipelines(clean))
    injected = desc.build_system(program,
                                 injector=FaultInjector(1 / 1000, seed=3))
    assert all(p.commit_replay == "always" for p in _pipelines(injected))


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
def test_invalid_mode_rejected():
    program = load_workload("fibonacci")
    core = Core(program)
    with pytest.raises(ValueError):
        core.pipeline.commit_replay = "sometimes"


def test_crosscheck_raises_on_divergence():
    program = load_workload("fibonacci")
    pipe = Core(program).pipeline
    ins = Instruction(Opcode.ADDI, rd=1, rs1=0, imm=5)
    entry = ROBEntry(0, ins, 0, result=5, branch_target=4)
    honest = StepInfo(ins=ins, pc=0, next_pc=4, result=5)
    pipe._crosscheck(entry, honest)  # matching record: no error
    corrupted = StepInfo(ins=ins, pc=0, next_pc=4, result=6)
    with pytest.raises(RuntimeError, match="diverged"):
        pipe._crosscheck(entry, corrupted)


def test_periodic_crosscheck_runs_in_reuse_mode():
    program = load_workload("checksum")
    core = Core(program)
    pipe = core.pipeline
    pipe.crosscheck_interval = 8
    pipe._crosscheck_countdown = 8
    res = core.run()  # would raise if any periodic re-execution diverged
    gold = golden.run(program)
    assert res.state.regs == gold.state.regs
