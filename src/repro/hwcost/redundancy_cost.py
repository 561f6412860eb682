"""System-level cost of redundancy schemes, per protected thread.

Table II compares *single cores*; a designer choosing a scheme pays for
the whole replica group. This module rolls Table II up to the
per-protected-thread level for every registered scheme (each
descriptor's ``system_cost`` returns one of these):

* unprotected   = 1 x plain MIPS core
* UnSync pair   = 2 x (UnSync core + parity L1) + 2 CBs
* Reunion pair  = 2 x (Reunion core + SECDED L1)
* RepTFD pair   = 2 x (plain MIPS core) + replay queue + comparator
* MEEK pair     = OoO leader + small in-order checker + check queue
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.hwcost.components import (
    MIPS_CORE_AREA_UM2, MIPS_CORE_POWER_W, cb_array,
)
from repro.hwcost.synthesis import CoreCosts, synthesize
from repro.hwcost.tech import TECH_65NM, TechNode
from repro.schemes.meek import CHECK_ENTRY_BITS, CHECK_QUEUE_ENTRIES
from repro.schemes.reptfd import REPLAY_ENTRY_BITS, REPLAY_QUEUE_ENTRIES

#: full-value comparator across one replay record (one XOR-reduce tree
#: per compared field plus control).
COMPARATOR_GATES = 2 * REPLAY_ENTRY_BITS + 40

#: MEEK's in-order checker core relative to the OoO leader: no rename,
#: no issue queue, no speculation — an order of magnitude simpler
#: control, dominated by the datapath and its shadow register file.
CHECKER_CORE_FRACTION = 0.3


@dataclass
class SchemeSystemCost:
    """Total silicon for one protected thread under one scheme."""

    scheme: str
    n_cores: int
    total_area_um2: float
    total_power_w: float
    #: does the scheme correct (not just detect) without pair recovery?
    self_correcting: bool

    def area_vs(self, other: "SchemeSystemCost") -> float:
        return self.total_area_um2 / other.total_area_um2 - 1.0

    def power_vs(self, other: "SchemeSystemCost") -> float:
        return self.total_power_w / other.total_power_w - 1.0


def unprotected_cost(tech: TechNode = TECH_65NM) -> SchemeSystemCost:
    c = synthesize("mips", tech)
    return SchemeSystemCost("unprotected", 1, c.total_area_um2,
                            c.total_power_w, self_correcting=False)


def unsync_pair_cost(tech: TechNode = TECH_65NM,
                     cb_entries: int = 10) -> SchemeSystemCost:
    c = synthesize("unsync", tech, cb_entries=cb_entries)
    return SchemeSystemCost("unsync", 2, 2 * c.total_area_um2,
                            2 * c.total_power_w, self_correcting=False)


def reunion_pair_cost(tech: TechNode = TECH_65NM,
                      fingerprint_interval: int = 10) -> SchemeSystemCost:
    c = synthesize("reunion", tech,
                   fingerprint_interval=fingerprint_interval)
    return SchemeSystemCost("reunion", 2, 2 * c.total_area_um2,
                            2 * c.total_power_w, self_correcting=False)


def reptfd_pair_cost(tech: TechNode = TECH_65NM) -> SchemeSystemCost:
    """Two *plain* MIPS cores (no detectors, no CHECK stage) plus the
    replay queue and the full-value comparator — RepTFD's silicon story
    is that all the detection hardware is one FIFO and one comparator."""
    base = synthesize("mips", tech)
    queue = cb_array(REPLAY_QUEUE_ENTRIES, entry_bits=REPLAY_ENTRY_BITS)
    cmp_area = COMPARATOR_GATES * tech.gate_area_um2
    cmp_power = MIPS_CORE_POWER_W * (cmp_area / MIPS_CORE_AREA_UM2)
    area = 2 * base.total_area_um2 + queue.area_um2 + cmp_area
    power = 2 * base.total_power_w + queue.power_w + cmp_power
    return SchemeSystemCost("reptfd", 2, area, power, self_correcting=False)


def meek_pair_cost(tech: TechNode = TECH_65NM) -> SchemeSystemCost:
    """One OoO leader plus the small in-order checker core plus the
    check queue — the sub-2x replication point none of the pair schemes
    can reach."""
    base = synthesize("mips", tech)
    queue = cb_array(CHECK_QUEUE_ENTRIES, entry_bits=CHECK_ENTRY_BITS)
    checker_area = base.total_area_um2 * CHECKER_CORE_FRACTION
    checker_power = base.total_power_w * CHECKER_CORE_FRACTION
    area = base.total_area_um2 + checker_area + queue.area_um2
    power = base.total_power_w + checker_power + queue.power_w
    return SchemeSystemCost("meek", 2, area, power, self_correcting=False)
