"""Tests for the UnSync architecture: CB, EIH, recovery, full system."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import SystemConfig
from repro.faults.events import Outcome
from repro.faults.injector import FaultInjector
from repro.isa import assemble, golden
from repro.mem.cache import WritePolicy
from repro.redundancy.pair import BaselineSystem
from repro.schemes import available, get
from repro.unsync.comm_buffer import CBEntry, CommBuffer, ENTRY_BYTES, matched_drain
from repro.unsync.eih import EIHConfig, ErrorInterruptHandler
from repro.unsync.recovery import RecoveryCostModel
from repro.unsync.system import UnSyncConfig, UnSyncSystem


# ---------------------------------------------------------------------------
# Communication Buffer
# ---------------------------------------------------------------------------
def cb_entry(seq, addr=0x100, value=1):
    return CBEntry(seq=seq, addr=addr, value=value, width=4)


def test_cb_fifo_order():
    cb = CommBuffer(4)
    cb.push(cb_entry(0))
    cb.push(cb_entry(1))
    assert cb.pop().seq == 0
    assert cb.head().seq == 1


def test_cb_rejects_out_of_order_push():
    cb = CommBuffer(4)
    cb.push(cb_entry(5))
    with pytest.raises(ValueError):
        cb.push(cb_entry(3))


def test_cb_capacity_and_stall_accounting():
    cb = CommBuffer(2)
    cb.push(cb_entry(0))
    cb.push(cb_entry(1))
    assert not cb.can_accept()
    assert cb.full_stalls == 1
    with pytest.raises(RuntimeError):
        cb.push(cb_entry(2))


def test_cb_from_kilobytes():
    cb = CommBuffer.from_kilobytes(2.0)
    assert cb.capacity == 2048 // ENTRY_BYTES
    assert cb.size_bytes <= 2048


def test_cb_overwrite_from():
    a, b = CommBuffer(4), CommBuffer(4)
    a.push(cb_entry(0))
    a.push(cb_entry(1))
    b.push(cb_entry(0))
    b.overwrite_from(a)
    assert [e.seq for e in b.entries()] == [0, 1]
    # deep enough: draining b does not affect a
    b.pop()
    assert len(a) == 2


def test_matched_drain_boundary():
    a, b = CommBuffer(8), CommBuffer(8)
    for s in range(3):
        a.push(cb_entry(s))
    for s in range(2):
        b.push(cb_entry(s))
    assert matched_drain(a, b) == 1  # b only has up to seq 1
    assert matched_drain(a, CommBuffer(8)) == -1


def test_cb_zero_capacity_rejected():
    with pytest.raises(ValueError):
        CommBuffer(0)


@settings(max_examples=30)
@given(st.lists(st.integers(min_value=0, max_value=100), unique=True,
                min_size=1, max_size=20))
def test_cb_preserves_push_order(seqs):
    seqs = sorted(seqs)
    cb = CommBuffer(32)
    for s in seqs:
        cb.push(cb_entry(s))
    assert [cb.pop().seq for _ in range(len(seqs))] == seqs


# ---------------------------------------------------------------------------
# EIH
# ---------------------------------------------------------------------------
def test_eih_signal_latency():
    eih = ErrorInterruptHandler(EIHConfig(signal_latency=3, stall_latency=2))
    eih.raise_interrupt(now=10, core_id=1, block="regfile", token="event")
    assert eih.poll(12) is None          # before the signal arrives
    intr = eih.poll(13)
    assert (intr.raise_cycle, intr.core_id, intr.block) == (10, 1, "regfile")
    assert intr.token == "event"         # the caller's payload comes back
    assert eih.poll(14) is None          # consumed


def test_eih_counts():
    eih = ErrorInterruptHandler()
    eih.raise_interrupt(0, 0, "pc")
    eih.raise_interrupt(0, 1, "lsq")
    assert eih.interrupts_received == 2
    assert eih.has_pending
    eih.poll(100)
    eih.poll(100)
    assert eih.recoveries_signalled == 2
    assert not eih.has_pending


# ---------------------------------------------------------------------------
# recovery cost model
# ---------------------------------------------------------------------------
def test_recovery_plan_components_positive():
    plan = RecoveryCostModel().plan(stall_cycles=5, l1_resident_lines=100,
                                    cb_entries=10)
    assert plan.stall_cycles == 5
    assert plan.flush_cycles > 0
    assert plan.regfile_copy_cycles > 0
    assert plan.l1_copy_cycles > plan.regfile_copy_cycles
    assert plan.total_cycles == (plan.stall_cycles + plan.flush_cycles
                                 + plan.regfile_copy_cycles
                                 + plan.l1_copy_cycles + plan.cb_copy_cycles)


def test_recovery_scales_with_l1_residency():
    m = RecoveryCostModel()
    small = m.plan(0, l1_resident_lines=10, cb_entries=0)
    big = m.plan(0, l1_resident_lines=500, cb_entries=0)
    assert big.l1_copy_cycles > 10 * small.l1_copy_cycles / 2


def test_invalidate_mode_is_cheap():
    copy = RecoveryCostModel(l1_restore="copy").plan(5, 256, 10)
    inv = RecoveryCostModel(l1_restore="invalidate").plan(5, 256, 10)
    assert inv.total_cycles < copy.total_cycles / 10


def test_invalid_restore_mode_rejected():
    with pytest.raises(ValueError):
        RecoveryCostModel(l1_restore="nuke")


def test_empty_cb_costs_nothing():
    plan = RecoveryCostModel().plan(0, 0, 0)
    assert plan.cb_copy_cycles == 0


# ---------------------------------------------------------------------------
# full system, fault-free
# ---------------------------------------------------------------------------
def test_unsync_matches_golden(sum_loop):
    gold = golden.run(sum_loop)
    res = UnSyncSystem(sum_loop).run()
    assert res.instructions == gold.instructions
    assert res.state.regs == gold.state.regs
    assert res.state.mem == gold.state.mem


def test_unsync_cores_agree(sum_loop):
    system = UnSyncSystem(sum_loop)
    system.run()
    assert system.states_agree()


def test_unsync_requires_write_through():
    """Figure 2's rule (Sec III-C-1): with a write-back L1D, a second
    strike on a dirty line of the clean core during recovery corrupts the
    only up-to-date copy. Write-through keeps a copy in the ECC L2. Only
    UnSync, which recovers by copying from the clean core, refuses it."""
    table1 = SystemConfig.table1()
    cfg = dataclasses.replace(table1, dcache=dataclasses.replace(
        table1.dcache, policy=WritePolicy.WRITE_BACK))
    program = assemble("halt")
    with pytest.raises(ValueError, match="write-through.*Figure 2"):
        get("unsync").build_system(program, config=cfg)
    for name in available():
        if name != "unsync":
            get(name).build_system(program, config=cfg)


def test_unsync_cb_drains_all_stores(sum_loop):
    system = UnSyncSystem(sum_loop)
    res = system.run()
    # every retired store entered the CB; at halt, at most the final few
    # are still waiting for the bus
    pushes = res.metrics["unsync.cb.pushes"]
    assert pushes == res.core_stats[0].stores_committed
    assert res.metrics["unsync.cb.drains"] >= pushes - 2


def test_small_cb_stalls_store_bursts(store_burst):
    small = UnSyncSystem(store_burst, unsync=UnSyncConfig(cb_entries=2)).run()
    big = UnSyncSystem(store_burst, unsync=UnSyncConfig(cb_entries=256)).run()
    assert small.metrics["unsync.cb.full_stalls"] > 0
    assert big.metrics["unsync.cb.full_stalls"] == 0
    assert small.cycles >= big.cycles


def test_unsync_overhead_vs_baseline_small(sum_loop):
    base = BaselineSystem(sum_loop).run()
    uns = UnSyncSystem(sum_loop).run()
    assert uns.overhead_vs(base) < 0.10  # the paper's ~2% claim, loosely


def test_unsync_serializing_costs_nothing(trap_loop):
    base = BaselineSystem(trap_loop).run()
    uns = UnSyncSystem(trap_loop).run()
    assert uns.overhead_vs(base) < 0.10


# ---------------------------------------------------------------------------
# full system, with faults
# ---------------------------------------------------------------------------
def fast_recovery():
    return UnSyncConfig(recovery=RecoveryCostModel(l1_restore="invalidate"))


LONG_LOOP = """
main:
    li r1, 600
    li r2, 0
    la r6, buf
loop:
    add r2, r2, r1
    mul r3, r1, r1
    sw r3, 0(r6)
    lw r4, 0(r6)
    add r2, r2, r4
    addi r6, r6, 4
    andi r6, r6, 0x7ff
    la r7, buf
    or r6, r6, r7
    addi r1, r1, -1
    bne r1, r0, loop
    la r5, result
    sw r2, 0(r5)
    halt
.data
result: .word 0
buf: .space 2048
"""


@pytest.fixture(scope="module")
def long_loop():
    return assemble(LONG_LOOP, name="long_loop")


def test_unsync_recovers_and_stays_correct(long_loop):
    gold = golden.run(long_loop)
    system = UnSyncSystem(long_loop, unsync=fast_recovery(),
                          injector=FaultInjector(1 / 400, seed=11))
    res = system.run()
    assert res.metrics["unsync.eih.recoveries"] > 0
    assert res.state.regs == gold.state.regs
    assert res.state.mem == gold.state.mem
    assert all(e.outcome is Outcome.DETECTED_RECOVERED
               for e in res.fault_events)


def test_unsync_recovery_costs_cycles(long_loop):
    clean = UnSyncSystem(long_loop, unsync=fast_recovery()).run()
    faulty = UnSyncSystem(long_loop, unsync=fast_recovery(),
                          injector=FaultInjector(1 / 400, seed=11)).run()
    assert faulty.cycles > clean.cycles
    assert faulty.metrics["unsync.recovery.cycles"] > 0


def test_unsync_zero_rate_injector_is_noop(sum_loop):
    with_inj = UnSyncSystem(sum_loop, injector=FaultInjector(0.0)).run()
    without = UnSyncSystem(sum_loop).run()
    assert with_inj.cycles == without.cycles
    assert with_inj.fault_events == []


def test_unsync_metric_keys(sum_loop):
    res = UnSyncSystem(sum_loop).run()
    for key in ("unsync.cb.full_stalls", "unsync.cb.pushes",
                "unsync.cb.drains", "unsync.eih.recoveries",
                "unsync.recovery.cycles"):
        assert key in res.metrics
