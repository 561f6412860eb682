"""Technology-node parameters.

Only what the cost model needs: a NAND2-equivalent gate area, an SRAM
cell area, and the synthesis frequency. 65 nm matches the paper's
synthesis runs. The Table III processors were fabricated at 90 nm, but
die projection scales per-core overheads, so only relative numbers
matter there and no second node is needed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TechNode:
    name: str
    feature_nm: int
    #: area of one NAND2-equivalent gate, µm²
    gate_area_um2: float
    #: area of one 6T SRAM cell, µm²
    sram_cell_um2: float
    #: synthesis clock
    frequency_hz: float
    #: nominal placement density after PNR (paper: 0.49)
    pnr_density: float = 0.49


#: The paper's synthesis corner: 65 nm, 300 MHz, density 0.49.
TECH_65NM = TechNode(name="65nm", feature_nm=65, gate_area_um2=1.8,
                     sram_cell_um2=0.525, frequency_hz=300e6)
