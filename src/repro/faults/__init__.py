"""Soft-error substrate: SER math, strike injection, and detection models.

The paper's threat model is single-event upsets in *sequential* elements
(Sec III-B-1, citing AVF work: storage cells are the dominant vulnerability).
This package provides:

* :mod:`repro.faults.ser` — FIT-rate arithmetic, technology-node scaling,
  and conversion to per-instruction / per-cycle strike probabilities
  (the Sec VI-C sweep runs on these).
* :mod:`repro.faults.injector` — Poisson-process strike scheduling over a
  weighted inventory of microarchitectural blocks.
* :mod:`repro.faults.detection` — behaviourally-accurate models of 1-bit
  parity, DMR, and SECDED: what each catches, what it misses, and what it
  costs in latency.
* :mod:`repro.faults.events` — fault-event records and outcome taxonomy
  (masked / detected / silent data corruption).
"""

from repro.faults.ser import (
    SERModel, fit_to_per_cycle, fit_to_per_instruction, scale_fit,
    PAPER_SER_90NM_PER_INSTRUCTION, BREAK_EVEN_SER,
)
from repro.faults.injector import FaultInjector, Strike, BlockInventory, BLOCKS
from repro.faults.detection import (
    Detector, ParityDetector, DMRDetector, SECDEDDetector, NoDetector,
)
from repro.faults.events import FaultEvent, Outcome, TRIAL_OUTCOMES
from repro.faults.adversarial import (
    ADVERSARIAL_MODEL, AdversarialInjector, FAULT_MODELS, STANDARD_MODEL,
    adversarial_injector,
)

__all__ = [
    "SERModel", "fit_to_per_cycle", "fit_to_per_instruction", "scale_fit",
    "PAPER_SER_90NM_PER_INSTRUCTION", "BREAK_EVEN_SER",
    "FaultInjector", "Strike", "BlockInventory", "BLOCKS",
    "Detector", "ParityDetector", "DMRDetector", "SECDEDDetector",
    "NoDetector",
    "FaultEvent", "Outcome", "TRIAL_OUTCOMES",
    "ADVERSARIAL_MODEL", "AdversarialInjector",
    "FAULT_MODELS", "STANDARD_MODEL", "adversarial_injector",
]
