"""Targeted tests for corners the mainline suites exercise only
incidentally: fetch redirects, BTB misses, MSHR exhaustion, write-back
eviction traffic and pair-system bookkeeping."""

import pytest

from repro.isa import golden
from repro.isa.assembler import assemble
from repro.mem.bus import Bus
from repro.mem.cache import CacheConfig, WritePolicy
from repro.mem.hierarchy import MemPort
from repro.mem.l2 import SharedL2
from repro.redundancy.pair import BaselineSystem, DualCoreSystem
from repro.redundancy.stats import WriteBuffer


# ---------------------------------------------------------------------------
# fetch-path corners
# ---------------------------------------------------------------------------
def test_unpredictable_branches_cause_redirects():
    src = """
main:
    li r1, 120
    li r5, 0
loop:
    andi r2, r1, 1
    beq r2, r0, even
    addi r5, r5, 3
    j join
even:
    addi r5, r5, 7
join:
    addi r1, r1, -1
    bne r1, r0, loop
    halt
"""
    res = BaselineSystem(assemble(src)).run()
    assert res.core_stats[0].fetch_redirects > 20
    gold = golden.run(assemble(src))
    assert res.state.regs == gold.state.regs


def test_jr_returns_correctly():
    src = """
main:
    jal sub
    jal sub
    la r2, result
    sw r10, 0(r2)
    halt
sub:
    addi r10, r10, 5
    jr ra
.data
result: .word 0
"""
    prog = assemble(src)
    res = BaselineSystem(prog).run()
    assert res.state.read_mem(prog.labels["result"], 4) == 10


def test_jr_through_btb_warms_up():
    # repeated calls to the same subroutine: the BTB learns the return
    src_lines = ["main:"]
    for _ in range(30):
        src_lines.append("    jal sub")
    src_lines += ["    halt", "sub:", "    addi r10, r10, 1", "    jr ra"]
    system = BaselineSystem(assemble("\n".join(src_lines)))
    system.run()
    # late calls predict the return correctly: redirect count well below
    # the call count
    assert system.pipelines[0].predictor.mispredicts < 30


def test_fetch_past_program_end_halts():
    prog = assemble("addi r1, r0, 1")  # no explicit halt
    res = BaselineSystem(prog).run()
    assert res.instructions == 1


# ---------------------------------------------------------------------------
# memory-path corners
# ---------------------------------------------------------------------------
def _port(l1_mshrs=2, dcache_cfg=None):
    bus = Bus()
    l2 = SharedL2()
    return MemPort(bus, l2, l1_mshrs=l1_mshrs, dcache_cfg=dcache_cfg)


def test_l1_mshr_exhaustion_stalls():
    port = _port(l1_mshrs=2)
    # three distinct-line misses at the same cycle: the third must wait
    a = port.load_latency(0x0000, now=0)
    b = port.load_latency(0x1000, now=0)
    c = port.load_latency(0x2000, now=0)
    assert port.stats.mshr_stall_cycles > 0
    assert c > a


def test_secondary_access_waits_for_inflight_fill():
    port = _port()
    first = port.load_latency(0x40, now=0)
    # same line one cycle later: the tag matched (allocated at miss time)
    # but the data is still in flight — the access rides the fill
    merged = port.load_latency(0x44, now=1)
    assert first - 5 <= merged + 1 <= first + 5
    # once the fill has landed it is a plain hit
    assert port.load_latency(0x48, now=first + 10) == \
        port.dcache.config.hit_latency


def test_write_back_eviction_uses_bus():
    cfg = CacheConfig(size_bytes=128, assoc=1, line_bytes=64,
                      policy=WritePolicy.WRITE_BACK)
    port = _port(dcache_cfg=cfg)
    port.store_latency(0x0, now=0)       # allocate dirty line (set 0)
    before = port.bus.stats.transactions
    port.store_latency(0x80, now=100)    # conflicting set -> dirty evict
    # the eviction writeback adds a bus transaction beyond the refill
    assert port.bus.stats.transactions >= before + 2


def test_ifetch_counts_tlb():
    port = _port()
    lat_miss = port.ifetch_latency(0x4000, now=0)
    lat_hit = port.ifetch_latency(0x4004, now=100)
    assert lat_miss > lat_hit
    assert port.itlb.misses == 1


# ---------------------------------------------------------------------------
# pair-system bookkeeping
# ---------------------------------------------------------------------------
def test_dual_core_result_uses_slowest(sum_loop):
    system = DualCoreSystem(sum_loop)
    res = system.run()
    assert res.cycles == max(p.stats.cycles for p in system.pipelines)
    assert res.scheme == "pair"


class _TwoEntryWriteBuffer(WriteBuffer):
    capacity = 2


def test_write_buffer_mechanics():
    wb = _TwoEntryWriteBuffer()
    wb.push(0, 0x100, 1, 4)
    wb.push(1, 0x104, 2, 4)
    assert wb.full and not wb.can_accept()
    assert wb.full_stalls == 1
    with pytest.raises(RuntimeError):
        wb.push(2, 0, 0, 4)


def test_write_buffer_drains_oldest_first_while_the_bus_accepts():
    bus, l2 = Bus(width_bytes=8), SharedL2()
    wb = _TwoEntryWriteBuffer()
    wb.push(0, 0x1000, 1, 4)
    wb.push(1, 0x2000, 2, 4)
    # one 12-byte entry holds the 8-byte bus for two cycles: the younger
    # entry waits behind the older one's transfer
    wb.drain(bus, l2, now=0)
    assert len(wb) == 1
    assert l2.cache.probe(0x1000) and not l2.cache.probe(0x2000)
    wb.drain(bus, l2, now=1)  # the bus refuses: the entry stays queued
    assert len(wb) == 1 and not l2.cache.probe(0x2000)
    wb.drain(bus, l2, now=2)
    assert len(wb) == 0 and l2.cache.probe(0x2000)
    assert bus.stats.transactions == 2


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------
def test_baseline_core_fetches_through_its_system_port(sum_loop):
    system = BaselineSystem(sum_loop)
    assert system.pipelines[0].mem is system.ports[0]
    system.run()
    assert system.ports[0].stats.ifetches > 0


def test_ipc_zero_before_running(sum_loop):
    from repro.redundancy.stats import RunResult
    from repro.isa.golden import ArchState
    r = RunResult(name="x", scheme="baseline", cycles=0, instructions=0,
                  state=ArchState())
    assert r.ipc == 0.0
    with pytest.raises(ValueError):
        r.overhead_vs(r)


def test_halt_only_program_on_all_schemes():
    prog = assemble("halt")
    from repro.reunion.system import ReunionSystem
    from repro.unsync.system import UnSyncSystem
    for cls in (BaselineSystem, UnSyncSystem, ReunionSystem):
        res = cls(prog).run()
        assert res.instructions == 0


def test_frozen_until_applies_to_both_pair_cores(sum_loop):
    system = DualCoreSystem(sum_loop)
    for p in system.pipelines:
        p.frozen_until = 30
    for _ in range(30):
        system.step()
    assert all(p.stats.committed == 0 for p in system.pipelines)
