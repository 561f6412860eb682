"""Core-level synthesis roll-up: Table II.

Assembles the component library and the cache model into the paper's
three configurations — baseline MIPS, Reunion, UnSync — and reproduces
Table II's area/power accounting (core, L1, CB, totals, overhead %).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.hwcost.cacti import CacheModel, Protection
from repro.hwcost.components import (
    Component, cb_array, crc_generator, csb_array, forwarding_datapath,
    mips_core, unsync_detection_blocks,
)
from repro.hwcost.tech import TECH_65NM, TechNode
from repro.reunion.check_stage import ReunionParams
from repro.reunion.csb import csb_entries_for


@dataclass
class CoreCosts:
    """One column of Table II."""

    name: str
    core_area_um2: float
    l1_area_mm2: float
    cb_area_mm2: Optional[float]
    core_power_w: float
    l1_power_mw: float
    cb_power_mw: Optional[float]
    components: List[Component] = field(default_factory=list)

    @property
    def total_area_um2(self) -> float:
        total = self.core_area_um2 + self.l1_area_mm2 * 1e6
        if self.cb_area_mm2:
            total += self.cb_area_mm2 * 1e6
        return total

    @property
    def total_power_w(self) -> float:
        total = self.core_power_w + self.l1_power_mw / 1e3
        if self.cb_power_mw:
            total += self.cb_power_mw / 1e3
        return total

    def area_overhead_vs(self, base: "CoreCosts") -> float:
        return self.total_area_um2 / base.total_area_um2 - 1.0

    def power_overhead_vs(self, base: "CoreCosts") -> float:
        return self.total_power_w / base.total_power_w - 1.0


def synthesize(scheme: str, tech: TechNode = TECH_65NM) -> CoreCosts:
    """Cost one core configuration.

    ``scheme``: ``"mips"`` (baseline), ``"reunion"``, or ``"unsync"``.
    Reunion's CSB is sized with the paper's rule
    (:func:`repro.reunion.csb.csb_entries_for`: FI + latency + 1 = 17 at
    :class:`~repro.reunion.check_stage.ReunionParams`' default FI=10 /
    6-cycle synthesis point); UnSync's CB has
    :data:`~repro.hwcost.components.CB_ENTRIES` entries.
    """
    l1 = CacheModel(tech=tech)
    base = mips_core(tech)
    if scheme == "mips":
        return CoreCosts(
            name="Basic MIPS",
            core_area_um2=base.area_um2,
            l1_area_mm2=l1.area_mm2(Protection.NONE),
            cb_area_mm2=None,
            core_power_w=base.power_w,
            l1_power_mw=l1.power_w(Protection.NONE) * 1e3,
            cb_power_mw=None,
            components=[base],
        )
    if scheme == "reunion":
        point = ReunionParams()
        csb = csb_array(entries=csb_entries_for(point.fingerprint_interval,
                                                point.comparison_latency))
        crc = crc_generator(tech)
        fwd = forwarding_datapath()
        parts = [base, csb, crc, fwd]
        return CoreCosts(
            name="Reunion",
            core_area_um2=sum(c.area_um2 for c in parts),
            l1_area_mm2=l1.area_mm2(Protection.SECDED),
            cb_area_mm2=None,
            core_power_w=sum(c.power_w for c in parts),
            l1_power_mw=l1.power_w(Protection.SECDED) * 1e3,
            cb_power_mw=None,
            components=parts,
        )
    if scheme == "unsync":
        detect = unsync_detection_blocks()
        cb = cb_array()
        parts = [base, detect]
        return CoreCosts(
            name="UnSync",
            core_area_um2=sum(c.area_um2 for c in parts),
            l1_area_mm2=l1.area_mm2(Protection.PARITY),
            cb_area_mm2=cb.area_um2 / 1e6,
            core_power_w=sum(c.power_w for c in parts),
            l1_power_mw=l1.power_w(Protection.PARITY) * 1e3,
            cb_power_mw=cb.power_w * 1e3,
            components=parts + [cb],
        )
    raise ValueError(f"unknown scheme {scheme!r}")


@dataclass
class SynthesisReport:
    """All three Table II columns plus the derived overhead rows."""

    mips: CoreCosts
    reunion: CoreCosts
    unsync: CoreCosts

    def rows(self) -> Dict[str, List[str]]:
        """Table II, formatted like the paper (strings, same units)."""
        def fmt_area(c: CoreCosts):
            return [f"{c.core_area_um2:.0f}",
                    f"{c.l1_area_mm2:.4f}",
                    f"{c.cb_area_mm2:.5f}" if c.cb_area_mm2 else "N/A",
                    f"{c.total_area_um2:.0f}"]

        def fmt_power(c: CoreCosts):
            return [f"{c.core_power_w:.3f}",
                    f"{c.l1_power_mw:.2f}",
                    f"{c.cb_power_mw:.5f}" if c.cb_power_mw else "N/A",
                    f"{c.total_power_w:.2f}"]

        cols = [self.mips, self.reunion, self.unsync]
        return {
            "Core (um2)": [fmt_area(c)[0] for c in cols],
            "L1 Cache (mm2)": [fmt_area(c)[1] for c in cols],
            "CB (mm2)": [fmt_area(c)[2] for c in cols],
            "Total Area (um2)": [fmt_area(c)[3] for c in cols],
            "Area Overhead (%)": ["N/A",
                                  f"{100 * self.reunion.area_overhead_vs(self.mips):.2f}",
                                  f"{100 * self.unsync.area_overhead_vs(self.mips):.2f}"],
            "Core (W)": [fmt_power(c)[0] for c in cols],
            "L1 Cache (mW)": [fmt_power(c)[1] for c in cols],
            "CB (mW)": [fmt_power(c)[2] for c in cols],
            "Total Power (W)": [fmt_power(c)[3] for c in cols],
            "Power Overhead (%)": ["N/A",
                                   f"{100 * self.reunion.power_overhead_vs(self.mips):.2f}",
                                   f"{100 * self.unsync.power_overhead_vs(self.mips):.2f}"],
        }


def table2(tech: TechNode = TECH_65NM) -> SynthesisReport:
    """The paper's exact synthesis point: 65 nm, 300 MHz, FI=10, CSB=17
    entries x 66 bits, CB=10 entries."""
    return SynthesisReport(
        mips=synthesize("mips", tech),
        reunion=synthesize("reunion", tech),
        unsync=synthesize("unsync", tech),
    )
