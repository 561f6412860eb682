"""Fault-event records and outcome taxonomy."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class Outcome(enum.Enum):
    """What ultimately became of a strike."""

    #: bit flipped in dead state; program output unaffected, nothing fired
    MASKED = "masked"
    #: a detector fired and the system recovered
    DETECTED_RECOVERED = "detected-recovered"
    #: a detector fired but recovery was impossible. The ``fault.due``
    #: reasons the schemes emit: ``retry-budget-exhausted`` (a strike
    #: outlasted a recovery's retries), ``paired-strike`` (UnSync's copy
    #: source was struck too), ``interrupt-lost`` (a strike on the EIH
    #: queue destroyed the recovery signal) and ``detect-only-ecc``
    #: (a 2-bit cluster in Reunion's SECDED L1)
    DETECTED_UNRECOVERABLE = "detected-unrecoverable"
    #: no detector fired and the architectural output changed
    SDC = "silent-data-corruption"
    #: trial-level: the simulator wedged past its cycle watchdog budget
    HANG = "hang"
    #: trial-level: the simulator (or its worker process) died
    CRASH = "crash"


#: canonical per-trial outcome labels, worst first. Every campaign trial
#: is classified into exactly one of these (see
#: :func:`repro.campaign.trial.classify_trial`).
TRIAL_OUTCOMES = ("crash", "hang", "sdc", "due", "recovered")


@dataclass
class FaultEvent:
    """One injected strike and its adjudicated outcome."""

    cycle: int
    core_id: int
    block: str
    bit: int
    outcome: Optional[Outcome] = None
    #: cycles from strike to detection (when detected)
    detection_latency: int = 0
    #: cycles of recovery penalty charged (when recovered)
    recovery_cycles: int = 0

    @property
    def detected(self) -> bool:
        return self.outcome in (Outcome.DETECTED_RECOVERED,
                                Outcome.DETECTED_UNRECOVERABLE)
