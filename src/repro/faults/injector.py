"""Strike injection: where and when particles hit.

The injector does two jobs:

* **When** — strikes arrive as a Poisson process with a per-cycle (or
  per-instruction) rate from :mod:`repro.faults.ser`.
* **Where** — a strike lands in one sequential block with probability
  proportional to that block's bit count ("the probability of an energy
  particle strike is uniform throughout the processor core", Sec III-B-1),
  then in a uniformly random bit of the block.

The block inventory is also the substrate of the Sec VI-D ROEC analysis:
each block is annotated with which detector protects it under each
architecture, so coverage is a weighted sum over the same inventory that
drives injection.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults.detection import (
    Detector, DMRDetector, NoDetector, ParityDetector, SECDEDDetector,
)


@dataclass(frozen=True)
class Block:
    """One sequential element of the core, sized in storage bits."""

    name: str
    bits: int
    #: True for pipeline-resident state that only exists pre-commit
    #: (covered by Reunion's fingerprint); False for architectural /
    #: long-lived storage.
    pre_commit: bool


#: Sequential-state inventory of one Table I core. Bit counts follow the
#: structure sizes of Table I and CoreConfig defaults. The L1 caches
#: dominate, which is exactly why including the L1 in the region of error
#: coverage (UnSync does, Reunion delegates it to ECC) matters.
BLOCKS: Tuple[Block, ...] = (
    Block("regfile", 32 * 32, pre_commit=False),
    Block("pc", 32, pre_commit=True),
    Block("pipeline_regs", 4 * 4 * 128, pre_commit=True),   # 4 stages x 4-wide
    Block("rob", 80 * 72, pre_commit=True),
    Block("iq", 64 * 40, pre_commit=True),
    Block("lsq", 32 * 72, pre_commit=True),
    Block("itlb", 48 * 52, pre_commit=False),
    Block("dtlb", 64 * 52, pre_commit=False),
    Block("l1i_data", 32 * 1024 * 8, pre_commit=False),
    Block("l1d_data", 32 * 1024 * 8, pre_commit=False),
)

#: Detector assignment per architecture (Sec III-B-1 for UnSync; Sec IV /
#: VI-D for Reunion). ``fingerprint`` marks Reunion's comparison-based
#: coverage, which is not a :class:`Detector` (it is an end-to-end output
#: check) — the ROEC analysis treats it as covering pre-commit blocks only.
UNSYNC_DETECTORS: Dict[str, Detector] = {
    "regfile": ParityDetector(),
    "pc": DMRDetector(),
    "pipeline_regs": DMRDetector(),
    "rob": ParityDetector(),
    "iq": ParityDetector(),
    "lsq": ParityDetector(),
    "itlb": ParityDetector(),
    "dtlb": ParityDetector(),
    "l1i_data": ParityDetector(),
    "l1d_data": ParityDetector(),
    # uncore structures, reachable only under the adversarial inventory
    # (repro.faults.adversarial): CB entries carry parity like the other
    # FIFOs; the EIH pending queue and the in-flight recovery copy are
    # handled specially by UnSyncSystem (a lost interrupt cannot be
    # "detected" by the thing that lost it).
    "cb": ParityDetector(),
}

REUNION_DETECTORS: Dict[str, Detector] = {
    # fingerprint comparison covers the pre-commit pipeline; architectural
    # storage inside the core is unprotected, the L1 gets SECDED.
    "regfile": NoDetector(),
    "pc": NoDetector(),
    "pipeline_regs": NoDetector(),   # covered by fingerprint, see pre_commit
    "rob": NoDetector(),
    "iq": NoDetector(),
    "lsq": NoDetector(),
    "itlb": NoDetector(),
    "dtlb": NoDetector(),
    "l1i_data": SECDEDDetector(),
    "l1d_data": SECDEDDetector(),
}


@dataclass(frozen=True)
class Strike:
    """One scheduled particle strike.

    ``flipped_bits`` is the upset cluster size within one protected word
    (1 for the classic single-event upset; even values defeat 1-bit
    parity). ``core`` pins the struck core explicitly; ``None`` keeps the
    legacy derivation (``bit % 2``) so existing stores stay reproducible.
    """

    cycle: int
    block: str
    bit: int
    flipped_bits: int = 1
    core: Optional[int] = None

    def core_id(self) -> int:
        return self.core if self.core is not None else self.bit % 2


class BlockInventory:
    """A weighted set of blocks with coverage queries."""

    def __init__(self, blocks: Sequence[Block] = BLOCKS) -> None:
        if not blocks:
            raise ValueError("empty inventory")
        self.blocks = tuple(blocks)
        self.total_bits = sum(b.bits for b in self.blocks)
        self._by_name = {b.name: b for b in self.blocks}

    def __iter__(self):
        return iter(self.blocks)

    def get(self, name: str) -> Block:
        return self._by_name[name]

    def weights(self) -> List[float]:
        return [b.bits / self.total_bits for b in self.blocks]

    def coverage(self, detectors: Dict[str, Detector],
                 fingerprint_pre_commit: bool = False) -> float:
        """Fraction of sequential-state bits on which a single-bit upset
        is detected.

        ``fingerprint_pre_commit=True`` additionally counts every
        ``pre_commit`` block as covered (Reunion's output comparison).
        """
        covered = 0
        for b in self.blocks:
            result = detectors.get(b.name, NoDetector()).check(1)
            if (result.detected or result.corrected
                    or (fingerprint_pre_commit and b.pre_commit)):
                covered += b.bits
        return covered / self.total_bits


class FaultInjector:
    """Poisson strike scheduler over a :class:`BlockInventory`."""

    def __init__(self, per_cycle_rate: float,
                 inventory: Optional[BlockInventory] = None,
                 seed: int = 0) -> None:
        if per_cycle_rate < 0:
            raise ValueError("rate must be non-negative")
        self.rate = per_cycle_rate
        self.inventory = inventory or BlockInventory()
        self._rng = random.Random(seed)
        self._names = [b.name for b in self.inventory]
        self._weights = [b.bits for b in self.inventory]

    def next_interval(self) -> float:
        """Cycles until the next strike (exponential; inf at rate 0)."""
        if self.rate == 0:
            return math.inf
        return self._rng.expovariate(self.rate)

    def strike_at(self, cycle: int) -> Strike:
        """A strike at ``cycle`` in a bit chosen by area weighting."""
        name = self._rng.choices(self._names, weights=self._weights, k=1)[0]
        bit = self._rng.randrange(self.inventory.get(name).bits)
        return Strike(cycle=cycle, block=name, bit=bit)

    # -- simulator-facing scheduling ----------------------------------------
    def next_strike(self, now: int) -> Optional[Strike]:
        """The next strike after cycle ``now`` (``None`` at rate 0).

        This is the hook the pair simulators arm strikes through; the
        base implementation reproduces the historical draw sequence
        (interval, block, bit) exactly, so standard campaign stores stay
        byte-identical. Subclasses may return queued correlated strikes.
        """
        interval = self.next_interval()
        if interval == math.inf:
            return None
        return self.strike_at(now + max(1, int(interval)))

    def on_recovery(self, now: int, duration_cycles: int) -> None:
        """Notification that a recovery/rollback episode began at ``now``
        and is budgeted ``duration_cycles``. The base injector ignores it;
        the adversarial injector uses it to chase recoveries with strikes
        inside the vulnerability window."""

    def preempt(self, armed: Optional[Strike]) -> Optional[Strike]:
        """Re-arm after :meth:`on_recovery` may have queued new strikes.

        The simulators cache one pre-drawn strike; a correlated strike
        queued *after* that draw (a recovery chaser) must preempt it or
        it would be delivered late, outside the window it was aimed at.
        The base injector never queues, so the armed strike stands.
        """
        return armed
