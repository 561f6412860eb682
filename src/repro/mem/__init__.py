"""Memory-hierarchy substrate.

The paper's Table I hierarchy: per-core 32 KB split I/D L1 (2-way, 64 B
lines, 2-cycle, 10 MSHRs, write-through in UnSync), shared 4 MB 8-way ECC
L2 (20-cycle, 20 MSHRs), 2-way I/D TLBs, 400-cycle DRAM, and a shared
L1<->L2 bus whose occupancy gates both refills and Communication Buffer
drains.

These are *timing* models: they track tags, recency, MSHR slots and bus
busy-cycles, while functional data lives in each core's architectural
memory image (see ``repro.isa.golden.ArchState``). This split is what lets
the redundant-pair simulators stay exact about program semantics while the
hierarchy stays exact about latency and contention, which is all the
paper's Figures 4-6 depend on.
"""
