"""Tests for the checkpoint-based fingerprinting comparator."""

import pytest

from repro.checkpoint import CheckpointParams, CheckpointStore, CheckpointSystem
from repro.faults.injector import Block, BlockInventory, FaultInjector
from repro.harness.runner import baseline_run
from repro.isa import golden
from repro.isa.golden import ArchState
from repro.reunion.system import ReunionSystem
from repro.workloads import load_benchmark, load_kernel


# ---------------------------------------------------------------------------
# store
# ---------------------------------------------------------------------------
def _state(pc=0, **mem):
    s = ArchState()
    s.pc = pc
    for addr, val in mem.items():
        s.write_mem(int(addr), val, 4)
    return s


def test_capture_costs_registers_plus_delta():
    # The delta is a *content* diff: it counts bytes whose value changed,
    # so the test writes full-width nonzero words.
    store = CheckpointStore(capacity=3)
    s = ArchState()
    s.write_mem(0x100, 0x01020304, 4)
    cp1 = store.capture(10, 0, s)
    assert cp1.delta_bytes == store.REG_BYTES + 4  # 4 changed bytes
    s.write_mem(0x104, 0x05060708, 4)
    cp2 = store.capture(20, 5, s)
    assert cp2.delta_bytes == store.REG_BYTES + 4  # only the new bytes


def test_capture_snapshot_is_deep():
    store = CheckpointStore()
    s = ArchState()
    s.write_mem(0x100, 7, 4)
    cp = store.capture(1, 0, s)
    s.write_mem(0x100, 99, 4)
    assert cp.state.read_mem(0x100, 4) == 7


def test_store_capacity_and_retire():
    store = CheckpointStore(capacity=2)
    store.capture(1, 0, ArchState())
    store.capture(2, 1, ArchState())
    assert store.full and not store.can_capture()
    assert store.retire_oldest().seq == 1
    assert not store.full


def test_store_validation():
    with pytest.raises(ValueError):
        CheckpointStore(capacity=0)


def test_params_validation():
    with pytest.raises(ValueError):
        CheckpointParams(interval=0)
    with pytest.raises(ValueError):
        CheckpointParams(comparison_latency=-1)


# ---------------------------------------------------------------------------
# fault-free system
# ---------------------------------------------------------------------------
def test_checkpoint_matches_golden(sum_loop):
    gold = golden.run(sum_loop)
    res = CheckpointSystem(sum_loop).run()
    assert res.instructions == gold.instructions
    assert res.state.regs == gold.state.regs
    assert res.state.mem == gold.state.mem
    assert res.metrics["checkpoint.rollback.count"] == 0


def test_checkpoint_count_tracks_interval():
    prog = load_benchmark("sha")
    gold = golden.run(prog)
    params = CheckpointParams(interval=500)
    res = CheckpointSystem(prog, params=params).run()
    expected = gold.instructions // 500
    # +1 for the initial base checkpoint
    assert expected <= res.metrics["checkpoint.captures"] <= expected + 2


def test_shorter_intervals_cost_more():
    prog = load_kernel("checksum")
    fast = CheckpointSystem(prog, params=CheckpointParams(interval=800)).run()
    slow = CheckpointSystem(prog, params=CheckpointParams(interval=100)).run()
    assert slow.metrics["checkpoint.captures"] \
        > fast.metrics["checkpoint.captures"]
    assert slow.cycles > fast.cycles


def test_heavier_than_reunion():
    """The paper's criticism: checkpointing captures all of system state
    and is costlier than fingerprint-interval comparison."""
    prog = load_benchmark("sha")
    base = baseline_run(prog)
    reunion = ReunionSystem(prog).run()
    checkpoint = CheckpointSystem(prog).run()
    assert checkpoint.cycles > reunion.cycles
    assert checkpoint.cycles > base.cycles


# ---------------------------------------------------------------------------
# faults + rollback
# ---------------------------------------------------------------------------
PIPELINE_ONLY = BlockInventory([Block("rob", 80 * 72, pre_commit=True)])


def test_rollback_recovers_correctness():
    prog = load_benchmark("sha")
    gold = golden.run(prog)
    res = CheckpointSystem(
        prog, injector=FaultInjector(1 / 1500, seed=5,
                                     inventory=PIPELINE_ONLY)).run()
    assert res.metrics["checkpoint.rollback.count"] > 0
    assert res.state.regs == gold.state.regs
    assert res.state.mem == gold.state.mem


def test_detection_latency_longer_than_reunion():
    """The paper: checkpointing 'increases error detection latency'."""
    prog = load_benchmark("sha")
    cp = CheckpointSystem(
        prog, params=CheckpointParams(interval=500),
        injector=FaultInjector(1 / 1500, seed=5,
                               inventory=PIPELINE_ONLY))
    res = cp.run()
    assert res.metrics["checkpoint.rollback.count"] > 0
    # Reunion verifies every ~10 instructions (a few cycles); checkpoint
    # detection waits for the interval boundary — tens to hundreds
    assert res.metrics["checkpoint.detection_latency.mean"] > 30


def test_rollback_loses_interval_work():
    """Cycles grow by roughly the re-executed interval per rollback."""
    prog = load_benchmark("sha")
    clean = CheckpointSystem(prog).run()
    faulty = CheckpointSystem(
        prog, injector=FaultInjector(1 / 1500, seed=5,
                                     inventory=PIPELINE_ONLY)).run()
    assert faulty.cycles > clean.cycles
