"""Tests for MSHRs, bus, TLB, DRAM, L2 and pre-warming."""

import pytest

from repro.isa.assembler import assemble
from repro.mem.bus import Bus
from repro.mem.cache import CacheConfig, WritePolicy
from repro.mem.dram import DRAM
from repro.mem.l2 import SharedL2
from repro.mem.mshr import MSHRFile
from repro.mem.prewarm import prewarm_l2
from repro.mem.tlb import TLB, TLBConfig


# ---------------------------------------------------------------------------
# MSHR
# ---------------------------------------------------------------------------
def test_mshr_capacity_enforced():
    m = MSHRFile(2)
    assert m.allocate(0x0, 10)
    assert m.allocate(0x40, 10)
    assert not m.allocate(0x80, 10)  # full
    assert m.full_stalls == 1


def test_mshr_merge_does_not_consume_capacity():
    m = MSHRFile(1)
    assert m.allocate(0x0, 10)
    assert m.allocate(0x0, 10)  # merge
    assert m.merges == 1
    assert m.occupancy == 1


def test_mshr_expiry():
    m = MSHRFile(1)
    m.allocate(0x0, 10)
    m.expire(9)
    assert m.pending(0x0)
    m.expire(10)
    assert not m.pending(0x0)


def test_mshr_zero_capacity_rejected():
    with pytest.raises(ValueError):
        MSHRFile(0)


def test_mshr_ready_cycle():
    m = MSHRFile(4)
    m.allocate(0x40, 77)
    assert m.ready_cycle(0x40) == 77


# ---------------------------------------------------------------------------
# Bus
# ---------------------------------------------------------------------------
def test_bus_transfer_cycles():
    bus = Bus(width_bytes=8)
    assert bus.transfer_cycles(64) == 8
    assert bus.transfer_cycles(8) == 1
    assert bus.transfer_cycles(1) == 1  # at least one beat


def test_bus_fcfs_queuing():
    bus = Bus()
    done1 = bus.request(0, 10)
    done2 = bus.request(5, 10)   # queues behind the first
    assert done1 == 10
    assert done2 == 20
    assert bus.stats.wait_cycles == 5


def test_bus_try_request_respects_busy():
    bus = Bus()
    bus.request(0, 10)
    assert bus.try_request(5, 3) == -1
    assert bus.try_request(10, 3) == 13


def test_bus_zero_duration_rejected():
    with pytest.raises(ValueError):
        Bus().request(0, 0)


# ---------------------------------------------------------------------------
# TLB
# ---------------------------------------------------------------------------
def test_tlb_miss_then_hit():
    tlb = TLB(TLBConfig(entries=4, assoc=2, miss_penalty=30))
    assert tlb.translate(0x1000) == 30
    assert tlb.translate(0x1FFF) == 0  # same page
    assert (tlb.hits, tlb.misses) == (1, 1)


def test_tlb_lru_within_set():
    cfg = TLBConfig(entries=2, assoc=2, page_bytes=4096)
    tlb = TLB(cfg)  # 1 set
    tlb.translate(0x0000)
    tlb.translate(0x1000)
    tlb.translate(0x0000)       # touch first
    tlb.translate(0x2000)       # evicts page 1
    assert tlb.translate(0x0000) == 0
    assert tlb.translate(0x1000) == cfg.miss_penalty


def test_tlb_flush():
    tlb = TLB(TLBConfig())
    tlb.translate(0)
    tlb.flush()
    assert tlb.resident_count() == 0


def test_tlb_config_validation():
    with pytest.raises(ValueError):
        TLBConfig(entries=5, assoc=2)
    with pytest.raises(ValueError):
        TLBConfig(page_bytes=1000)


# ---------------------------------------------------------------------------
# DRAM
# ---------------------------------------------------------------------------
def test_dram_flat_latency():
    d = DRAM(access_latency=400)
    assert d.access(0) == 400
    assert d.accesses == 1


def test_dram_wraps_out_of_range():
    d = DRAM()
    assert d.access(2**40) == d.access_latency  # corrupted pointer serviced


# ---------------------------------------------------------------------------
# Shared L2
# ---------------------------------------------------------------------------
def test_l2_miss_includes_dram():
    l2 = SharedL2()
    lat = l2.access(0x1000, False, now=0)
    assert lat == l2.config.hit_latency + l2.dram.access_latency


def test_l2_hit_after_fill():
    l2 = SharedL2()
    l2.access(0x1000, False, now=0)
    assert l2.access(0x1000, False, now=1000) == l2.config.hit_latency


def test_l2_merges_concurrent_misses():
    l2 = SharedL2()
    first = l2.access(0x1000, False, now=0)
    merged = l2.access(0x1000, False, now=5)
    # the merged request rides the in-flight fill: no second DRAM trip,
    # and it completes just after the fill lands (wait + hit readout)
    assert l2.dram.accesses == 1
    assert 5 + merged == pytest.approx(first + l2.config.hit_latency, abs=1)


# ---------------------------------------------------------------------------
# pre-warming
# ---------------------------------------------------------------------------
def test_prewarm_covers_code_and_data():
    prog = assemble("""
main:
    nop
    halt
.data
buf: .space 256
""")
    l2 = SharedL2()
    n = prewarm_l2(l2, prog)
    assert n >= 1 + 256 // 64
    # code line warm
    assert l2.access(0, False, now=0) == l2.config.hit_latency
    # data line warm
    assert l2.access(prog.labels["buf"], False, now=0) == l2.config.hit_latency
    # stats were reset by prewarm and both accesses above were hits
    assert l2.dram.accesses == 0
