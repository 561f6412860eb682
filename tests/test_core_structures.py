"""Tests for ROB, issue queue, LSQ, branch predictor, and configs."""

import pytest
from hypothesis import given, strategies as st

from repro.core.branch import BimodalPredictor
from repro.core.config import CoreConfig, SystemConfig
from repro.core.iq import IssueQueue
from repro.core.lsq import LSQ
from repro.core.rob import ROB, ROBEntry
from repro.isa.instructions import Instruction, Opcode
from repro.redundancy.pair import BaselineSystem


def entry(seq, op=Opcode.ADD, **kw):
    ins_kw = {}
    if op in (Opcode.SW, Opcode.LW):
        ins_kw = dict(rd=1, rs1=2)
    elif op is Opcode.ADD:
        ins_kw = dict(rd=1, rs1=2, rs2=3)
    e = ROBEntry(seq=seq, ins=Instruction(op, **ins_kw), pc=4 * seq)
    for k, v in kw.items():
        setattr(e, k, v)
    return e


# ---------------------------------------------------------------------------
# ROB
# ---------------------------------------------------------------------------
def test_rob_fifo_order():
    rob = ROB(4)
    for i in range(3):
        rob.push(entry(i))
    assert rob.head().seq == 0
    assert rob.pop().seq == 0
    assert rob.head().seq == 1


def test_rob_capacity():
    rob = ROB(2)
    rob.push(entry(0))
    rob.push(entry(1))
    assert rob.full
    with pytest.raises(RuntimeError):
        rob.push(entry(2))


def test_rob_flush():
    rob = ROB(8)
    for i in range(5):
        rob.push(entry(i))
    assert rob.flush() == 5
    assert rob.empty


def test_rob_occupancy_sampling(sum_loop):
    """``Pipeline.step`` samples ROB, IQ and LSQ occupancy inline at the
    top of every live cycle; each mean is exactly what a cycle-by-cycle
    observer records there (Fig 5's ``rob_mean_occupancy``)."""
    system = BaselineSystem(sum_loop)
    pipe = system.pipelines[0]
    seen = {"rob": [], "iq": [], "lsq": []}
    step = pipe.step

    def observed_step(now):
        if not pipe.done:
            for name, lens in seen.items():
                lens.append(len(getattr(pipe, name)))
        step(now)

    pipe.step = observed_step
    system.run()
    for name, lens in seen.items():
        assert len(lens) == pipe.stats.cycles and max(lens) > 0, name
        assert getattr(pipe, name).mean_occupancy() == sum(lens) / len(lens)


def test_rob_mean_occupancy_empty():
    assert ROB(4).mean_occupancy() == 0.0


def test_rob_zero_capacity_rejected():
    with pytest.raises(ValueError):
        ROB(0)


# ---------------------------------------------------------------------------
# Issue queue
# ---------------------------------------------------------------------------
def test_iq_age_order_iteration():
    iq = IssueQueue(4)
    for i in (3, 1, 2):
        iq.push(entry(i))
    assert [e.seq for e in iq] == [3, 1, 2]  # insertion (dispatch) order


def test_iq_remove_middle():
    iq = IssueQueue(4)
    entries = [entry(i) for i in range(3)]
    for e in entries:
        iq.push(e)
    iq.remove(entries[1])
    assert [e.seq for e in iq] == [0, 2]


def test_iq_capacity():
    iq = IssueQueue(1)
    iq.push(entry(0))
    with pytest.raises(RuntimeError):
        iq.push(entry(1))


# ---------------------------------------------------------------------------
# LSQ + store-to-load forwarding
# ---------------------------------------------------------------------------
def make_store(seq, addr, width=4):
    e = ROBEntry(seq=seq, ins=Instruction(Opcode.SW, rd=1, rs1=2), pc=0)
    e.mem_addr = addr
    return e


def make_load(seq, addr, op=Opcode.LW):
    e = ROBEntry(seq=seq, ins=Instruction(op, rd=1, rs1=2), pc=0)
    e.mem_addr = addr
    return e


def test_forwarding_exact_overlap():
    lsq = LSQ(8)
    st_e = make_store(1, 0x100)
    lsq.push(st_e)
    ld = make_load(2, 0x100)
    lsq.push(ld)
    assert lsq.forwarding_store(ld) is st_e
    assert lsq.forwards == 1


def test_forwarding_partial_overlap():
    lsq = LSQ(8)
    st_e = make_store(1, 0x100)        # bytes 0x100..0x103
    lsq.push(st_e)
    ld = make_load(2, 0x102)           # overlaps
    lsq.push(ld)
    assert lsq.forwarding_store(ld) is st_e


def test_no_forwarding_from_younger_store():
    lsq = LSQ(8)
    ld = make_load(1, 0x100)
    lsq.push(ld)
    lsq.push(make_store(2, 0x100))     # younger than the load
    assert lsq.forwarding_store(ld) is None


def test_forwarding_picks_youngest_older_store():
    lsq = LSQ(8)
    s1 = make_store(1, 0x100)
    s2 = make_store(2, 0x100)
    lsq.push(s1)
    lsq.push(s2)
    ld = make_load(3, 0x100)
    lsq.push(ld)
    assert lsq.forwarding_store(ld) is s2


def test_no_forwarding_disjoint():
    lsq = LSQ(8)
    lsq.push(make_store(1, 0x100))
    ld = make_load(2, 0x104)
    lsq.push(ld)
    assert lsq.forwarding_store(ld) is None


def test_lsq_flush_and_capacity():
    lsq = LSQ(2)
    lsq.push(make_store(0, 0))
    lsq.push(make_store(1, 4))
    assert lsq.full
    with pytest.raises(RuntimeError):
        lsq.push(make_store(2, 8))
    assert lsq.flush() == 2


@given(st.integers(min_value=0, max_value=255),
       st.integers(min_value=0, max_value=255))
def test_forwarding_matches_interval_overlap(store_addr, load_addr):
    """Forwarding fires exactly when the 4-byte intervals intersect."""
    lsq = LSQ(4)
    s = make_store(1, store_addr)
    lsq.push(s)
    ld = make_load(2, load_addr)
    lsq.push(ld)
    overlap = store_addr < load_addr + 4 and load_addr < store_addr + 4
    assert (lsq.forwarding_store(ld) is s) == overlap


# ---------------------------------------------------------------------------
# Branch predictor
# ---------------------------------------------------------------------------
def test_predictor_learns_taken_loop():
    p = BimodalPredictor(64)
    pc = 0x40
    for _ in range(4):
        p.update(pc, True, 0x100)
    assert p.predict(pc)
    assert p.predict_target(pc) == 0x100


def test_predictor_learns_not_taken():
    p = BimodalPredictor(64)
    pc = 0x40
    for _ in range(4):
        p.update(pc, False, 0)
    assert not p.predict(pc)


def test_predictor_saturates():
    p = BimodalPredictor(64)
    pc = 0
    for _ in range(100):
        p.update(pc, True, 8)
    p.update(pc, False, 0)   # one not-taken shouldn't flip a saturated counter
    assert p.predict(pc)


def test_btb_capacity_fifo():
    p = BimodalPredictor(64, btb_entries=2)
    p.update(0x0, True, 1)
    p.update(0x4, True, 2)
    p.update(0x8, True, 3)   # evicts 0x0
    assert p.predict_target(0x0) is None
    assert p.predict_target(0x8) == 3


def test_predictor_counts_lookups_and_mispredicts():
    p = BimodalPredictor(64)
    p.predict(0)
    p.record_mispredict()
    assert (p.lookups, p.mispredicts) == (1, 1)


def test_predictor_entries_power_of_two():
    with pytest.raises(ValueError):
        BimodalPredictor(100)


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------
def test_table1_describe_matches_paper_rows():
    desc = SystemConfig.table1().describe()
    assert "4 logical cores" in desc["Processor Cores"]
    assert desc["Issue Queue"] == "64"
    assert "32KB split I/D" in desc["L1 Cache"]
    assert "4MB" in desc["Shared L2 Cache"]
    assert "48 entries" in desc["I-TLB"]
    assert "64 entries" in desc["D-TLB"]
    assert "400 cycles" in desc["Memory"]


def test_core_config_scaled():
    c = CoreConfig().scaled(rob_entries=128)
    assert c.rob_entries == 128
    assert c.iq_entries == CoreConfig().iq_entries
