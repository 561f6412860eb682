"""Cross-module integration tests.

These exercise the whole stack — assembler -> pipeline -> memory ->
redundancy scheme -> recovery — on real kernels, asserting the properties
the paper's argument rests on.
"""

import pytest

from repro.core.config import CoreConfig, SystemConfig
from repro.faults.injector import Block, BlockInventory, FaultInjector
from repro.isa import golden
from repro.isa.assembler import assemble
from repro.redundancy.pair import BaselineSystem, DualCoreSystem
from repro.reunion.check_stage import ReunionParams
from repro.reunion.system import ReunionSystem
from repro.unsync.recovery import RecoveryCostModel
from repro.unsync.system import UnSyncConfig, UnSyncSystem
from repro.workloads import load_workload
from tests.helpers import states_agree


ALL_SCHEMES = ("baseline", "unsync", "reunion")


def run_all(program):
    return {
        "golden": golden.run(program),
        "baseline": BaselineSystem(program).run(),
        "unsync": UnSyncSystem(program).run(),
        "reunion": ReunionSystem(program).run(),
    }


@pytest.mark.parametrize("kernel", ["dot_product", "bubble_sort",
                                    "checksum", "matmul", "atomic_counter"])
def test_all_machines_agree_on_kernels(kernel):
    prog = load_workload(kernel)
    runs = run_all(prog)
    gold = runs.pop("golden")
    for name, res in runs.items():
        assert res.state.regs == gold.state.regs, name
        assert res.state.mem == gold.state.mem, name
        assert res.instructions == gold.instructions, name


def test_dual_core_base_runs_both_cores(sum_loop):
    system = DualCoreSystem(sum_loop)
    res = system.run()
    assert states_agree(system)
    # both pipelines committed the full stream
    assert all(p.stats.committed == res.instructions
               for p in system.pipelines)


def test_redundant_pairs_share_one_bus(sum_loop):
    """Pair systems must show more bus traffic than a single core."""
    base = BaselineSystem(sum_loop)
    base.run()
    uns = UnSyncSystem(sum_loop)
    uns.run()
    assert uns.bus.stats.transactions > base.bus.stats.transactions


def test_unsync_recovery_mid_atomic_kernel():
    """Recovery while non-idempotent SWAPs are in flight must still
    produce the golden outcome (the always-forward property)."""
    prog = load_workload("atomic_counter")
    gold = golden.run(prog)
    cfg = UnSyncConfig(recovery=RecoveryCostModel(l1_restore="invalidate"))
    system = UnSyncSystem(prog, unsync=cfg,
                          injector=FaultInjector(1 / 150, seed=9))
    res = system.run()
    assert res.metrics["unsync.eih.recoveries"] > 0
    assert res.state.mem == gold.state.mem


def test_reunion_rollback_mid_atomic_kernel():
    """Rollback across SWAPs: the serializing group-cut must keep
    re-execution exact."""
    prog = load_workload("atomic_counter")
    gold = golden.run(prog)
    inv = BlockInventory([Block("rob", 80 * 72, pre_commit=True)])
    system = ReunionSystem(prog,
                           injector=FaultInjector(1 / 120, seed=4,
                                                  inventory=inv))
    res = system.run()
    assert res.metrics["reunion.rollback.count"] > 0
    assert res.state.mem == gold.state.mem


def test_unsync_beats_reunion_on_trap_heavy_code(trap_loop):
    uns = UnSyncSystem(trap_loop).run()
    reu = ReunionSystem(trap_loop, params=ReunionParams(
        serializing_policy="drain")).run()
    assert uns.cycles < reu.cycles


def test_schemes_work_on_narrow_config(sum_loop):
    cfg = SystemConfig(core=CoreConfig(
        fetch_width=2, dispatch_width=2, issue_width=2, commit_width=2,
        rob_entries=16, iq_entries=8, lsq_entries=8))
    gold = golden.run(sum_loop)
    for cls in (BaselineSystem, UnSyncSystem, ReunionSystem):
        res = cls(sum_loop, config=cfg).run()
        assert res.state.mem == gold.state.mem, cls.__name__


def test_deterministic_cycle_counts(sum_loop):
    """Simulations are bit- and cycle-deterministic."""
    a = UnSyncSystem(sum_loop).run()
    b = UnSyncSystem(sum_loop).run()
    assert a.cycles == b.cycles
    r1 = ReunionSystem(sum_loop).run()
    r2 = ReunionSystem(sum_loop).run()
    assert r1.cycles == r2.cycles


def test_write_back_baseline_still_correct(sum_loop):
    """The Figure 2 argument forbids write-back under UnSync, but the
    baseline core itself must handle write-back correctly."""
    from repro.mem.cache import CacheConfig, WritePolicy
    cfg = SystemConfig(dcache=CacheConfig(policy=WritePolicy.WRITE_BACK))
    gold = golden.run(sum_loop)
    res = BaselineSystem(sum_loop, config=cfg).run()
    assert res.state.mem == gold.state.mem


def test_cb_and_store_release_observe_same_stream(sum_loop):
    """UnSync's CB drains and Reunion's vocal store release must both see
    the golden store stream (same count)."""
    gold = golden.run(sum_loop, collect_stores=True)
    uns = UnSyncSystem(sum_loop)
    uns_res = uns.run()
    assert uns_res.metrics["unsync.cb.pushes"] == len(gold.store_log)
    reu = ReunionSystem(sum_loop)
    reu.run()
    assert reu.store_queue.pushes <= len(gold.store_log)
    assert reu.store_queue.pushes >= len(gold.store_log) - len(reu.store_queue)
