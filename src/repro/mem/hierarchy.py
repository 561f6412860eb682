"""Per-core memory port.

A :class:`MemPort` gives one core its split I/D L1s, I/D TLBs and L1 MSHR
files, all funnelling into the bus + :class:`SharedL2` its system shares
between its cores. The port computes end-to-end latencies; what happens
to *store data* downstream of the L1 (Communication Buffer, write buffer,
direct L2 write) is the redundancy layer's business and is deliberately
not decided here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.mem.bus import Bus
from repro.mem.cache import Cache, CacheConfig
from repro.mem.l2 import SharedL2
from repro.mem.mshr import MSHRFile
from repro.mem.tlb import TLB, TLBConfig


@dataclass
class MemPortStats:
    ifetches: int = 0
    loads: int = 0
    stores: int = 0
    l1i_miss: int = 0
    l1d_miss: int = 0
    mshr_stall_cycles: int = 0


class MemPort:
    """One core's view of the memory system."""

    def __init__(self,
                 bus: Bus,
                 l2: SharedL2,
                 icache_cfg: Optional[CacheConfig] = None,
                 dcache_cfg: Optional[CacheConfig] = None,
                 itlb_cfg: Optional[TLBConfig] = None,
                 dtlb_cfg: Optional[TLBConfig] = None,
                 l1_mshrs: int = 10,
                 name: str = "core0") -> None:
        self.bus = bus
        self.l2 = l2
        self.icache = Cache(icache_cfg or CacheConfig(), name=f"{name}.L1I")
        self.dcache = Cache(dcache_cfg or CacheConfig(), name=f"{name}.L1D")
        self.itlb = TLB(itlb_cfg or TLBConfig(entries=48), name=f"{name}.ITLB")
        self.dtlb = TLB(dtlb_cfg or TLBConfig(entries=64), name=f"{name}.DTLB")
        self.mshrs = MSHRFile(l1_mshrs)
        self.name = name
        self.stats = MemPortStats()
        # telemetry (disabled unless attach_events is called): miss-burst
        # detection state. `_events is None` is checked only inside the
        # miss branches, so the hit path is untouched.
        self._events = None
        self._ev_track = f"{name}.mem"
        self._burst_gap = 16
        self._burst_min = 4
        self._burst_start: Optional[int] = None
        self._burst_last: Optional[int] = None
        self._burst_n = 0
        self._burst_tlb0 = 0

    # -- telemetry ---------------------------------------------------------
    def attach_events(self, events, track: Optional[str] = None,
                      gap: int = 16, min_burst: int = 4) -> None:
        """Enable miss-burst event emission into ``events``.

        L1 misses closer than ``gap`` cycles apart coalesce into one
        burst; a burst of at least ``min_burst`` misses is emitted as a
        span on ``track`` (with the TLB misses that fell inside it in the
        args). Emission happens when a burst *closes*, i.e. in burst-start
        order, which keeps per-track timestamps monotonic.
        """
        self._events = events
        if track is not None:
            self._ev_track = track
        self._burst_gap = gap
        self._burst_min = min_burst

    def _note_miss(self, now: int) -> None:
        if (self._burst_last is not None
                and now - self._burst_last <= self._burst_gap):
            self._burst_last = now
            self._burst_n += 1
            return
        self.flush_miss_bursts()
        self._burst_start = self._burst_last = now
        self._burst_n = 1
        self._burst_tlb0 = self.itlb.misses + self.dtlb.misses

    def flush_miss_bursts(self) -> None:
        """Emit the in-progress burst, if any (also called at run end)."""
        if self._burst_start is not None and self._burst_n >= self._burst_min:
            from repro.telemetry.events import MEM_MISS_BURST
            tlb = self.itlb.misses + self.dtlb.misses - self._burst_tlb0
            self._events.emit(
                MEM_MISS_BURST, self._burst_start, self._ev_track,
                dur=max(1, self._burst_last - self._burst_start),
                args={"misses": self._burst_n, "tlb_misses": tlb})
        self._burst_start = self._burst_last = None
        self._burst_n = 0

    def metric_counters(self, prefix: str = "") -> Dict[str, float]:
        """Flat telemetry-counter rollup of the whole port (L1s, TLBs,
        MSHRs) under ``prefix`` (e.g. ``core0.``)."""
        s = self.stats
        return {
            prefix + "mem.ifetches": float(s.ifetches),
            prefix + "mem.loads": float(s.loads),
            prefix + "mem.stores": float(s.stores),
            prefix + "mem.mshr_stall_cycles": float(s.mshr_stall_cycles),
            prefix + "l1i.hits": float(self.icache.hits),
            prefix + "l1i.misses": float(self.icache.misses),
            prefix + "l1d.hits": float(self.dcache.hits),
            prefix + "l1d.misses": float(self.dcache.misses),
            prefix + "l1d.evictions": float(self.dcache.evictions),
            prefix + "l1d.writebacks": float(self.dcache.writebacks),
            prefix + "itlb.hits": float(self.itlb.hits),
            prefix + "itlb.misses": float(self.itlb.misses),
            prefix + "dtlb.hits": float(self.dtlb.hits),
            prefix + "dtlb.misses": float(self.dtlb.misses),
            prefix + "mshr.allocations": float(self.mshrs.allocations),
            prefix + "mshr.merges": float(self.mshrs.merges),
            prefix + "mshr.full_stalls": float(self.mshrs.full_stalls),
        }

    # -- internals --------------------------------------------------------
    def _refill(self, cache: Cache, addr: int, now: int, is_write: bool) -> int:
        """Latency of a line fill from L2 (and beyond) including the bus."""
        self.mshrs.expire(now)
        line = cache.line_addr(addr)
        if self.mshrs.pending(line):
            # secondary miss: piggyback on the in-flight fill.
            self.mshrs.allocate(line, self.mshrs.ready_cycle(line))
            return max(0, self.mshrs.ready_cycle(line) - now)
        xfer = self.bus.transfer_cycles(cache.config.line_bytes)
        done = self.bus.request(now, xfer)
        bus_part = done - now
        l2_latency = self.l2.access(addr, is_write, now + bus_part)
        total = bus_part + l2_latency
        if not self.mshrs.allocate(line, now + total):
            # L1 MSHR file full: stall until the earliest fill returns.
            earliest = min(e.ready_cycle
                           for e in self.mshrs._entries.values())
            stall = max(0, earliest - now)
            self.stats.mshr_stall_cycles += stall
            self.mshrs.expire(earliest)
            self.mshrs.allocate(line, now + stall + total)
            total += stall
        return total

    def _fill_wait(self, cache: Cache, addr: int, now: int) -> int:
        """Extra wait when the line 'hits' but its fill is still in
        flight (the tag array allocates at miss time; data arrives when
        the MSHR entry matures)."""
        line = cache.line_addr(addr)
        if self.mshrs.pending(line):
            return max(0, self.mshrs.ready_cycle(line) - now)
        return 0

    # -- public accesses ----------------------------------------------------
    def ifetch_latency(self, pc: int, now: int) -> int:
        """Instruction fetch of the line containing ``pc``."""
        self.stats.ifetches += 1
        latency = self.itlb.translate(pc)
        result = self.icache.access(pc, is_write=False)
        latency += result.latency
        if not result.hit:
            self.stats.l1i_miss += 1
            if self._events is not None:
                self._note_miss(now)
            latency += self._refill(self.icache, pc, now + latency,
                                    is_write=False)
        elif self.mshrs._entries:
            # only probe for an in-flight fill when one could exist
            self.mshrs.expire(now)
            latency += self._fill_wait(self.icache, pc, now + latency)
        return latency

    def load_latency(self, addr: int, now: int) -> int:
        """Data load latency."""
        self.stats.loads += 1
        latency = self.dtlb.translate(addr)
        result = self.dcache.access(addr, is_write=False)
        latency += result.latency
        if not result.hit:
            self.stats.l1d_miss += 1
            if self._events is not None:
                self._note_miss(now)
            latency += self._refill(self.dcache, addr, now + latency,
                                    is_write=False)
        elif self.mshrs._entries:
            self.mshrs.expire(now)
            latency += self._fill_wait(self.dcache, addr, now + latency)
        return latency

    def store_latency(self, addr: int, now: int) -> int:
        """Data store latency *into the L1 only*.

        Write-through stores also leave the core; routing that copy (CB,
        write buffer, direct L2) and any resulting back-pressure is done by
        the system model that owns this port.
        """
        self.stats.stores += 1
        latency = self.dtlb.translate(addr)
        result = self.dcache.access(addr, is_write=True)
        latency += result.latency
        if not result.hit and self.dcache.config.allocates_on_write:
            self.stats.l1d_miss += 1
            if self._events is not None:
                self._note_miss(now)
            latency += self._refill(self.dcache, addr, now + latency,
                                    is_write=True)
            if result.writeback_line is not None:
                # dirty eviction travels over the bus too
                xfer = self.bus.transfer_cycles(self.dcache.config.line_bytes)
                self.bus.request(now + latency, xfer)
        return latency

