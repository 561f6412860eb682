"""Soft-error-rate arithmetic.

The paper (Sec VI-C) derives its operating point like this: take the
published SERs at 180 nm (1,000 FIT) and 130 nm (100,000 FIT), extrapolate
the exponential ratio one more node to 90 nm, observe (from iRoc data) that
SER saturates at 65 nm and beyond, and convert to a *per-instruction*
upset probability of ``2.89e-17`` at 90 nm. It then sweeps the
per-instruction SER from 1e-7 down to 1e-17 and reports that neither
architecture's IPC moves, and computes a hypothetical *break-even* SER of
``1.29e-3`` at which UnSync's recovery cost would eat its error-free
advantage over Reunion.

This module reproduces that arithmetic as first-class functions so the
sweep in ``benchmarks/test_ser_sweep.py`` is driven by the same numbers.

FIT = failures per 10^9 device-hours.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Published anchor points used by the paper.
FIT_180NM = 1_000.0
FIT_130NM = 100_000.0

#: Paper's adopted per-instruction SER at the 90 nm node (Sec VI-C, [41]).
PAPER_SER_90NM_PER_INSTRUCTION = 2.89e-17

#: Paper's hypothetical break-even SER (per instruction) at which Reunion
#: and UnSync deliver equal performance.
BREAK_EVEN_SER = 1.29e-3

HOURS_TO_SECONDS = 3600.0
FIT_HOURS = 1e9

#: clock frequency and IPC at which :class:`SERModel` converts a node's
#: FIT rate into a per-instruction (and per-cycle) strike probability
FREQUENCY_HZ = 2e9
IPC = 1.0


def scale_fit(fit_at_prev: float, ratio: float = FIT_130NM / FIT_180NM) -> float:
    """One technology-node step of the exponential SER trend.

    ``ratio`` defaults to the 180->130 nm jump (x100) that the paper
    extrapolates from; the saturation at <=65 nm is a *caller* decision
    (see :class:`SERModel`).
    """
    return fit_at_prev * ratio


def fit_to_per_cycle(fit: float, frequency_hz: float) -> float:
    """Convert a FIT rate into a per-clock-cycle upset probability."""
    if frequency_hz <= 0:
        raise ValueError("frequency must be positive")
    upsets_per_second = fit / (FIT_HOURS * HOURS_TO_SECONDS)
    return upsets_per_second / frequency_hz


def fit_to_per_instruction(fit: float, frequency_hz: float, ipc: float) -> float:
    """Convert a FIT rate into a per-retired-instruction upset probability."""
    if ipc <= 0:
        raise ValueError("ipc must be positive")
    return fit_to_per_cycle(fit, frequency_hz) / ipc


@dataclass(frozen=True)
class SERModel:
    """Per-instruction strike probability with the paper's node trend.

    >>> m = SERModel.at_node(90)
    >>> 0 < m.per_instruction < 1
    True
    """

    per_instruction: float

    #: nodes at which the exponential trend applies; below, SER saturates.
    _TREND_NODES = (180, 130, 90)

    @classmethod
    def at_node(cls, node_nm: int) -> "SERModel":
        """Model for a technology node following the paper's extrapolation,
        at :data:`FREQUENCY_HZ` and :data:`IPC`.

        180 nm and 130 nm use the published FITs; 90 nm extrapolates the
        exponential ratio; 65 nm and below saturate at the 90 nm value
        (the iRoc observation the paper cites).
        """
        if node_nm >= 180:
            fit = FIT_180NM
        elif node_nm >= 130:
            fit = FIT_130NM
        else:
            fit = scale_fit(FIT_130NM)  # 90 nm extrapolation
        per_ins = fit_to_per_instruction(fit, FREQUENCY_HZ, IPC)
        if node_nm <= 65:
            # saturation: clamp to the 90 nm value
            per_ins = min(per_ins, fit_to_per_instruction(
                scale_fit(FIT_130NM), FREQUENCY_HZ, IPC))
        return cls(per_instruction=per_ins)

    def per_cycle(self) -> float:
        """Per-clock-cycle strike probability at :data:`IPC`.

        :class:`repro.faults.injector.FaultInjector` takes its rate per
        cycle, so this is the bridge from the paper's per-instruction
        operating points to the injector (and the campaign engine's
        ``--node`` option).
        """
        return self.per_instruction * IPC


def break_even_ser(error_free_advantage_cycles: float,
                   recovery_penalty_cycles: float) -> float:
    """Per-instruction SER at which a recovery-heavy scheme's advantage
    vanishes.

    UnSync wins ``error_free_advantage_cycles`` per instruction during
    error-free execution but pays ``recovery_penalty_cycles`` per error
    beyond what Reunion pays. The break-even SER is where the expected
    per-instruction recovery cost equals the advantage::

        SER * recovery_penalty = advantage
    """
    if recovery_penalty_cycles <= 0:
        raise ValueError("recovery penalty must be positive")
    if error_free_advantage_cycles <= 0:
        return 0.0
    return error_free_advantage_cycles / recovery_penalty_cycles
