"""Hardware cost model — the Cadence Encounter + CACTI substitute.

The paper's Table II comes from RTL synthesis of a MIPS core at 65 nm /
300 MHz plus CACTI for the caches. We have no EDA tools, but the paper
publishes enough per-component anchors to rebuild its accounting:

* register-file cell 7.80 µm²/bit; CSB cell 10.40 µm²/bit (one extra read
  port); CRC generator 238 gates; CHECK stage = 75% of Execute-stage area
  and 45,447 µm² total; UnSync detection = 17.6% of core area; SECDED =
  +7.85% cache area / +10% cache power; parity = +0.2% area / +0.26%
  power; DMR ≈ 6% power per protected element but ≈ 42% at core level
  once all per-cycle latches are duplicated.

:mod:`repro.hwcost.components` encodes these anchors as a component
library; :mod:`repro.hwcost.cacti` is an analytical cache model calibrated
to the paper's L1 numbers; :mod:`repro.hwcost.synthesis` rolls everything
up into Table II; :mod:`repro.hwcost.die` projects Table III's many-core
die sizes. DESIGN.md records that the roll-up arithmetic reproduces the
paper's own accounting rather than independent synthesis.
"""
