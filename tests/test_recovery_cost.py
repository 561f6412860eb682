"""Directed tests for RecoveryCostModel.plan/_block_copy_cycles: zero,
single-block, and large-L1 budgets, plus monotonicity properties."""

import pytest
from hypothesis import given, strategies as st

from repro.unsync import recovery
from repro.unsync.recovery import RecoveryCostModel, RecoveryPlan


def model(**kw):
    return RecoveryCostModel(**kw)


# ---------------------------------------------------------------------------
# _block_copy_cycles
# ---------------------------------------------------------------------------
def test_zero_blocks_cost_nothing():
    m = model()
    assert m._block_copy_cycles(0, 64) == 0
    assert m._block_copy_cycles(-3, 64) == 0


def test_single_block_copy_arithmetic():
    m = model()  # bus 8 B, L2 20 cycles, pipelined
    # 64 B block: 8 beats, written then read back -> 16 beat-cycles,
    # plus one fill/drain of the L2 pipe (2 x 20)
    assert m._block_copy_cycles(1, 64) == 16 + 40


def test_sub_beat_block_rounds_up_to_one_beat():
    m = model()
    assert m._block_copy_cycles(1, 1) == 2 + 40
    assert m._block_copy_cycles(1, 0) == 2 + 40  # max(1, ...) floor


def test_pipelined_copy_hides_l2_latency():
    # every block after the first hides its L2 latency: 32 blocks pay
    # one pipe fill/drain, not 32
    n = 32
    assert model()._block_copy_cycles(n, 64) == n * 16 + 40


def test_large_l1_copy_dominates_the_plan():
    m = model()
    plan = m.plan(stall_cycles=5, l1_resident_lines=512, cb_entries=10)
    assert plan.l1_copy_cycles == 512 * 16 + 40
    assert plan.l1_copy_cycles > plan.regfile_copy_cycles
    assert plan.l1_copy_cycles > plan.cb_copy_cycles
    assert plan.total_cycles == (plan.stall_cycles + plan.flush_cycles
                                 + plan.regfile_copy_cycles
                                 + plan.l1_copy_cycles
                                 + plan.cb_copy_cycles)


# ---------------------------------------------------------------------------
# plan()
# ---------------------------------------------------------------------------
def test_minimal_plan_still_pays_regfile_and_flush():
    plan = model().plan(stall_cycles=0, l1_resident_lines=0, cb_entries=0)
    assert plan.l1_copy_cycles == 0
    assert plan.cb_copy_cycles == 0
    assert plan.flush_cycles == 4
    # 32 regs x 4 B + PC = 132 B -> 17 beats, 2 traversals, + pipe fill
    assert plan.regfile_copy_cycles == 2 * 17 + 40
    assert plan.total_cycles == 4 + 74


def test_invalidate_restore_charges_one_cycle_for_l1():
    plan = model(l1_restore="invalidate").plan(
        stall_cycles=0, l1_resident_lines=512, cb_entries=0)
    assert plan.l1_copy_cycles == 1


def test_plan_is_frozen_value_object():
    plan = model().plan(stall_cycles=1, l1_resident_lines=2, cb_entries=3)
    assert isinstance(plan, RecoveryPlan)
    with pytest.raises(AttributeError):
        plan.stall_cycles = 99


@given(n=st.integers(min_value=0, max_value=4096),
       block_bytes=st.integers(min_value=1, max_value=256))
def test_copy_cycles_monotone_in_block_count(n, block_bytes):
    m = model()
    assert m._block_copy_cycles(n, block_bytes) \
        <= m._block_copy_cycles(n + 1, block_bytes)


@given(lines=st.integers(min_value=0, max_value=1024),
       cb=st.integers(min_value=0, max_value=170),
       stall=st.integers(min_value=0, max_value=50))
def test_plan_total_monotone_in_every_axis(lines, cb, stall):
    m = model()
    base = m.plan(stall_cycles=stall, l1_resident_lines=lines,
                  cb_entries=cb).total_cycles
    assert m.plan(stall_cycles=stall + 1, l1_resident_lines=lines,
                  cb_entries=cb).total_cycles >= base
    assert m.plan(stall_cycles=stall, l1_resident_lines=lines + 1,
                  cb_entries=cb).total_cycles >= base
    assert m.plan(stall_cycles=stall, l1_resident_lines=lines,
                  cb_entries=cb + 1).total_cycles >= base


@given(bus=st.sampled_from([4, 8, 16, 32]),
       lines=st.integers(min_value=1, max_value=256))
def test_wider_bus_never_slows_the_copy(bus, lines):
    m = model()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recovery, "BUS_WIDTH_BYTES", bus)
        narrow = m._block_copy_cycles(lines, 64)
        patch.setattr(recovery, "BUS_WIDTH_BYTES", bus * 2)
        wide = m._block_copy_cycles(lines, 64)
    assert wide <= narrow
