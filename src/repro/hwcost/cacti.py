"""Analytical cache area/power model (the CACTI substitute).

Two layers:

* a **physical** layer — SRAM cells x bits x periphery — calibrated so the
  unprotected 32 KB L1 lands on Table II's 0.1934 mm² / 38.35 mW at
  300 MHz;
* a **protection** layer applying the paper's published deltas: 1-bit
  parity per 256-bit line -> +0.26% area, +0.26% power; SECDED (8 check
  bits per 64-bit chunk plus codec) -> +7.86% area, +9.91% power
  (Sec VI-A-1: "SECDED ... 22% cache area" refers to the data-array-only
  worst case from [24]; the net cache-level numbers in Table II are the
  7.85%/10% the model uses).

The physical layer also exposes the raw bit accounting so tests can check
that the direction and rough magnitude of every delta follows from the
geometry, not just from the pasted ratios.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.hwcost.tech import TECH_65NM, TechNode


class Protection(enum.Enum):
    NONE = "none"
    PARITY = "parity"
    SECDED = "secded"


#: paper-derived protection multipliers (Table II ratios)
_AREA_FACTOR = {
    Protection.NONE: 1.0,
    Protection.PARITY: 0.1939 / 0.1934,   # +0.26%
    Protection.SECDED: 0.2086 / 0.1934,   # +7.86%
}
_POWER_FACTOR = {
    Protection.NONE: 1.0,
    Protection.PARITY: 38.45 / 38.35,     # +0.26%
    Protection.SECDED: 42.15 / 38.35,     # +9.91%
}

#: calibration of the physical layer against Table II's baseline L1
_PERIPHERY_FACTOR = 0.3524     # decoders, sense amps, wordline drivers
_ACCESS_ENERGY_J = 100e-12     # dynamic energy per access
_LEAKAGE_W = 8.35e-3           # static power of the 32 KB array


@dataclass(frozen=True)
class CacheModel:
    """One cache instance for costing purposes."""

    size_bytes: int = 32 * 1024
    line_bytes: int = 64
    tag_bits_per_line: int = 20
    tech: TechNode = TECH_65NM

    # -- bit accounting ----------------------------------------------------
    @property
    def data_bits(self) -> int:
        return self.size_bytes * 8

    @property
    def n_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def tag_bits(self) -> int:
        return self.n_lines * self.tag_bits_per_line

    # -- physical layer ----------------------------------------------------
    def area_mm2(self, protection: Protection = Protection.NONE) -> float:
        """Cache area in mm² (protection applied as the paper's net ratio)."""
        base_bits = self.data_bits + self.tag_bits
        base_um2 = base_bits * self.tech.sram_cell_um2 * (1 + _PERIPHERY_FACTOR)
        return base_um2 * _AREA_FACTOR[protection] / 1e6

    def power_w(self, protection: Protection = Protection.NONE,
                accesses_per_second: float = None) -> float:
        """Cache power in W at the synthesis frequency (one access/cycle
        unless ``accesses_per_second`` is given)."""
        if accesses_per_second is None:
            accesses_per_second = self.tech.frequency_hz
        scale = self.size_bytes / (32 * 1024)  # leakage scales with size
        base = _ACCESS_ENERGY_J * accesses_per_second + _LEAKAGE_W * scale
        return base * _POWER_FACTOR[protection]
