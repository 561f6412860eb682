"""Pipeline tests: golden equivalence, timing sanity, stall accounting.

The load-bearing invariant of the whole reproduction: for any fault-free
run, the out-of-order core's architectural results are bit-identical to
the golden interpreter's.
"""

import pytest

from repro.core.config import CoreConfig, SystemConfig
from repro.isa import assemble, golden
from repro.redundancy import BaselineSystem
from repro.workloads import KERNELS, load_benchmark, load_kernel


def assert_matches_golden(program):
    gold = golden.run(program, max_instructions=2_000_000)
    res = BaselineSystem(program).run()
    assert res.instructions == gold.instructions
    assert res.state.regs == gold.state.regs
    assert res.state.mem == gold.state.mem
    return gold, res


# ---------------------------------------------------------------------------
# golden equivalence
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernels_match_golden(kernel):
    assert_matches_golden(load_kernel(kernel))


@pytest.mark.parametrize("bench", ["bzip2", "galgel", "mcf", "sha", "qsort"])
def test_benchmarks_match_golden(bench):
    assert_matches_golden(load_benchmark(bench))


def test_fixture_kernels_match_golden(sum_loop, trap_loop, store_burst):
    for prog in (sum_loop, trap_loop, store_burst):
        assert_matches_golden(prog)


def test_empty_program():
    prog = assemble("halt")
    res = BaselineSystem(prog).run()
    assert res.instructions == 0


def test_program_without_halt_stops_at_end():
    prog = assemble("nop\nnop")
    res = BaselineSystem(prog).run()
    assert res.instructions == 2


# ---------------------------------------------------------------------------
# timing sanity
# ---------------------------------------------------------------------------
def test_ipc_bounded_by_width(dot_product):
    res = BaselineSystem(dot_product).run()
    assert 0 < res.ipc <= CoreConfig().commit_width


def test_dependent_chain_is_serial():
    # 100 dependent adds: IPC must be ~1 regardless of 4-wide issue
    body = "\n".join("    add r1, r1, r2" for _ in range(100))
    prog = assemble(f"main:\n    li r2, 1\n{body}\n    halt")
    res = BaselineSystem(prog).run()
    assert res.ipc < 1.4


def test_independent_ops_reach_high_ipc():
    # loop so the I-cache warms up (straight-line code cold-misses every
    # 64-byte line exactly once, which caps IPC at the refill rate)
    body = "\n".join(f"    addi r{3 + (i % 8)}, r0, {i}" for i in range(40))
    prog = assemble(f"""
main:
    li r1, 20
loop:
{body}
    addi r1, r1, -1
    bne r1, r0, loop
    halt
""")
    res = BaselineSystem(prog).run()
    assert res.ipc > 2.0


def test_smaller_rob_is_not_faster(sum_loop):
    big = BaselineSystem(sum_loop, config=SystemConfig(
        core=CoreConfig(rob_entries=128))).run()
    small = BaselineSystem(sum_loop, config=SystemConfig(
        core=CoreConfig(rob_entries=8))).run()
    assert small.cycles >= big.cycles


def test_narrow_commit_hurts(sum_loop):
    wide = BaselineSystem(sum_loop).run()
    narrow = BaselineSystem(sum_loop, config=SystemConfig(
        core=CoreConfig(commit_width=1, fetch_width=1, dispatch_width=1,
                        issue_width=1))).run()
    assert narrow.cycles > wide.cycles


def test_div_latency_visible():
    fast = assemble("main:\n" + "    add r1, r1, r2\n" * 20 + "    halt")
    slow = assemble("main:\n" + "    div r1, r1, r2\n" * 20 + "    halt")
    assert BaselineSystem(slow).run().cycles > \
        BaselineSystem(fast).run().cycles + 100


def test_mispredict_penalty_costs_cycles():
    # data-dependent alternating branch (unpredictable by bimodal)
    src = """
main:
    li r1, 200
    li r5, 0
loop:
    andi r2, r1, 1
    beq r2, r0, even
    addi r5, r5, 1
even:
    addi r1, r1, -1
    bne r1, r0, loop
    halt
"""
    system = BaselineSystem(assemble(src))
    system.run()
    # alternating direction defeats bimodal
    predictor = system.pipelines[0].predictor
    assert predictor.mispredicts > 0.05 * predictor.lookups


def test_cycle_budget_overrun_raises():
    prog = assemble("main:\n    nop\n    halt")
    system = BaselineSystem(prog)
    with pytest.raises(RuntimeError):
        system.run(max_cycles=1)


# ---------------------------------------------------------------------------
# stall accounting
# ---------------------------------------------------------------------------
def test_rob_stall_counted_with_tiny_rob(sum_loop):
    res = BaselineSystem(sum_loop, config=SystemConfig(
        core=CoreConfig(rob_entries=4))).run()
    assert res.core_stats[0].dispatch_stall_rob > 0


def test_lsq_stall_counted_with_tiny_lsq(store_burst):
    res = BaselineSystem(store_burst, config=SystemConfig(
        core=CoreConfig(lsq_entries=2))).run()
    assert res.core_stats[0].dispatch_stall_lsq > 0


def test_stats_committed_excludes_halt(sum_loop):
    gold = golden.run(sum_loop)
    res = BaselineSystem(sum_loop).run()
    assert res.core_stats[0].committed == gold.instructions


def test_serializing_committed_counted(trap_loop):
    res = BaselineSystem(trap_loop).run()
    assert res.core_stats[0].serializing_committed == 30


def test_store_load_counts(sum_loop):
    stats = BaselineSystem(sum_loop).run().core_stats[0]
    assert stats.stores_committed == 51
    assert stats.loads_committed == 50


# ---------------------------------------------------------------------------
# flush / adopt (recovery primitives)
# ---------------------------------------------------------------------------
def test_flush_resets_to_committed_point(sum_loop):
    system = BaselineSystem(sum_loop)
    pipe = system.pipelines[0]
    for _ in range(60):
        system.step()
    committed_before = pipe.stats.committed
    snapshot = pipe.committed_state.snapshot()
    dropped = pipe.flush_pipeline()
    assert dropped >= 0
    assert pipe.committed_state.snapshot() == snapshot
    assert pipe._next_seq == committed_before
    # run to completion after the flush: still correct
    system.run()
    gold = golden.run(sum_loop)
    assert pipe.committed_state.regs == gold.state.regs
    assert pipe.committed_state.mem == gold.state.mem


def test_adopt_state_copies_architectural_point(sum_loop):
    a = BaselineSystem(sum_loop, name="a")
    b = BaselineSystem(sum_loop, name="b")
    pa, pb = a.pipelines[0], b.pipelines[0]
    for _ in range(80):
        a.step()
    # b adopts a's committed state mid-run
    pb.flush_pipeline()
    pb.adopt_state(pa)
    assert pb.committed_state.snapshot() == pa.committed_state.snapshot()
    assert pb.stats.committed == pa.stats.committed
    b.run()
    gold = golden.run(sum_loop)
    assert pb.committed_state.regs == gold.state.regs
    assert pb.committed_state.mem == gold.state.mem


def test_frozen_core_makes_no_progress(sum_loop):
    system = BaselineSystem(sum_loop)
    pipe = system.pipelines[0]
    pipe.frozen_until = 50
    for _ in range(50):
        system.step()
    assert pipe.stats.committed == 0
    assert pipe.stats.cycles == 50
