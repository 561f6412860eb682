"""Streaming per-cell aggregation of campaign outcomes.

Aggregates are pure integer accumulators (trial counts, strike counts,
cycle sums), so adding results in any order yields bit-identical state —
the property the resume and serial-vs-parallel determinism tests pin.
Proportions are reported with Wilson confidence intervals from
:mod:`repro.harness.statistics`, which also drive the engine's optional
sequential early stopping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.campaign.trial import TrialResult
from repro.faults.events import TRIAL_OUTCOMES
from repro.harness.statistics import Interval, wilson_interval


def _interval_dict(iv: Interval) -> Dict[str, float]:
    return {"estimate": iv.estimate, "low": iv.low, "high": iv.high}


@dataclass
class CellAggregate:
    """Running totals for one (scheme, workload, SER) cell."""

    cell: str
    trials: int = 0
    strikes: int = 0
    cycles: int = 0
    instructions: int = 0
    recovery_cycles: int = 0
    #: trials that suffered >=1 silent data corruption
    sdc_trials: int = 0
    #: trials with >=1 detected-but-unrecoverable event
    due_trials: int = 0
    #: trials with >=1 successful detect-and-recover
    recovered_trials: int = 0
    #: trials whose run saw no strike at all
    clean_trials: int = 0
    #: raw event counts per Outcome.value
    events: Dict[str, int] = field(default_factory=dict)
    #: whole-trial taxonomy label -> trial count (every trial lands in
    #: exactly ONE bucket of TRIAL_OUTCOMES; sums to ``trials``)
    outcome_trials: Dict[str, int] = field(default_factory=dict)
    #: summed per-trial telemetry counters (integers -> exact merges)
    metrics: Dict[str, int] = field(default_factory=dict)

    def add(self, result: TrialResult) -> None:
        self.trials += 1
        self.strikes += result.strikes
        self.cycles += result.cycles
        self.instructions += result.instructions
        self.recovery_cycles += result.recovery_cycles
        self.sdc_trials += 1 if result.suffered_sdc else 0
        self.due_trials += 1 if result.suffered_due else 0
        self.recovered_trials += 1 if result.recovered else 0
        self.clean_trials += 1 if result.strikes == 0 else 0
        label = result.taxonomy
        self.outcome_trials[label] = self.outcome_trials.get(label, 0) + 1
        for key, count in result.outcomes.items():
            self.events[key] = self.events.get(key, 0) + count
        for key, value in result.metrics.items():
            self.metrics[key] = self.metrics.get(key, 0) + value

    # -- proportions --------------------------------------------------------
    def proportion(self, successes: int) -> Interval:
        return wilson_interval(successes, self.trials)

    @property
    def sdc_interval(self) -> Interval:
        return self.proportion(self.sdc_trials)

    @property
    def due_interval(self) -> Interval:
        return self.proportion(self.due_trials)

    @property
    def recovered_interval(self) -> Interval:
        return self.proportion(self.recovered_trials)

    @property
    def hang_trials(self) -> int:
        return self.outcome_trials.get("hang", 0)

    @property
    def crash_trials(self) -> int:
        return self.outcome_trials.get("crash", 0)

    @property
    def hang_interval(self) -> Interval:
        return self.proportion(self.hang_trials)

    @property
    def crash_interval(self) -> Interval:
        return self.proportion(self.crash_trials)

    def ci_met(self, halfwidth: Optional[float]) -> bool:
        """Sequential early-stop test on the SDC proportion's CI."""
        if halfwidth is None or self.trials == 0:
            return False
        return self.sdc_interval.width / 2 <= halfwidth

    def summary(self) -> Dict:
        def mean(total: float) -> float:
            return total / self.trials if self.trials else 0.0
        return {
            "trials": self.trials,
            "strikes": self.strikes,
            "clean_trials": self.clean_trials,
            "events": dict(sorted(self.events.items())),
            "outcomes_by_trial": {label: self.outcome_trials.get(label, 0)
                                  for label in TRIAL_OUTCOMES},
            "p_sdc": _interval_dict(self.sdc_interval),
            "p_due": _interval_dict(self.due_interval),
            "p_recovered": _interval_dict(self.recovered_interval),
            "p_hang": _interval_dict(self.hang_interval),
            "p_crash": _interval_dict(self.crash_interval),
            "mean_cycles": mean(self.cycles),
            "mean_recovery_cycles": mean(self.recovery_cycles),
            "ipc": (self.instructions / self.cycles if self.cycles else 0.0),
            "metrics": dict(sorted(self.metrics.items())),
        }


class Aggregator:
    """All cells of a campaign, streamed."""

    def __init__(self) -> None:
        self.cells: Dict[str, CellAggregate] = {}

    def add(self, result: TrialResult) -> None:
        cell = result.cell
        if cell not in self.cells:
            self.cells[cell] = CellAggregate(cell)
        self.cells[cell].add(result)

    def summary(self, cell_order: Optional[List[str]] = None) -> Dict:
        """Machine-readable per-cell + total statistics.

        ``cell_order`` (the spec's canonical cell list) fixes the key
        order so two summaries of the same campaign serialize
        identically; cells never run (e.g. an aborted campaign) are
        omitted.
        """
        order = cell_order if cell_order is not None else sorted(self.cells)
        cells = {c: self.cells[c].summary() for c in order if c in self.cells}
        totals = {
            "trials": sum(c["trials"] for c in cells.values()),
            "strikes": sum(c["strikes"] for c in cells.values()),
            "sdc_trials": sum(self.cells[c].sdc_trials for c in cells),
            "due_trials": sum(self.cells[c].due_trials for c in cells),
            "recovered_trials": sum(self.cells[c].recovered_trials
                                    for c in cells),
            "hang_trials": sum(self.cells[c].hang_trials for c in cells),
            "crash_trials": sum(self.cells[c].crash_trials for c in cells),
        }
        return {"cells": cells, "totals": totals}
