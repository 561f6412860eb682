"""Runtime energy estimation: hwcost power x simulated time.

The paper reports *power* (Table II) and *performance* (Figs 4-6)
separately; a system designer ultimately pays for their product. This
module closes the loop: take a simulation's cycle count, the scheme's
per-protected-thread silicon power, and produce energy and
energy-delay-product figures per workload.

Model: the synthesis corner is 300 MHz (Sec V), so one simulated cycle is
1/300 MHz of wall time; the scheme's whole replica group
(:meth:`~repro.schemes.base.ResilienceScheme.system_cost`) burns its
total power for the run's duration, plus the event-based extras that
scale with activity rather than time (CB/CSB traffic, fingerprint
transfers, recoveries). Each scheme descriptor prices its own events
(:meth:`~repro.schemes.base.ResilienceScheme.event_energy`) from the
component library's per-access numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.hwcost.tech import TECH_65NM, TechNode
from repro.redundancy.stats import RunResult
from repro.schemes import get as get_scheme


@dataclass
class EnergyReport:
    """Energy accounting for one run."""

    scheme: str
    workload: str
    cycles: int
    time_s: float
    #: time-proportional core + L1 energy
    core_energy_j: float
    #: activity-proportional extras (CB/CSB traffic, fingerprints, ...)
    event_energy_j: float
    breakdown: Dict[str, float] = field(default_factory=dict)

    @property
    def total_energy_j(self) -> float:
        return self.core_energy_j + self.event_energy_j

    @property
    def edp(self) -> float:
        """Energy-delay product (J*s) — the efficiency figure of merit."""
        return self.total_energy_j * self.time_s

    def energy_per_instruction_nj(self, instructions: int) -> float:
        if instructions <= 0:
            raise ValueError("need a positive instruction count")
        return self.total_energy_j / instructions * 1e9


def energy_estimate(result: RunResult,
                    tech: TechNode = TECH_65NM) -> EnergyReport:
    """Estimate the energy of one finished run.

    Raises ``ValueError`` for a scheme that is not registered or that has
    no cost model.
    """
    desc = get_scheme(result.scheme)
    cost = desc.system_cost(tech)
    if cost is None:
        raise ValueError(f"scheme {result.scheme!r} has no cost model")
    time_s = result.cycles / tech.frequency_hz
    core_energy = cost.total_power_w * time_s
    events = desc.event_energy(result.metrics, tech)
    return EnergyReport(
        scheme=result.scheme,
        workload=result.name,
        cycles=result.cycles,
        time_s=time_s,
        core_energy_j=core_energy,
        event_energy_j=sum(events.values()),
        breakdown={"cores": core_energy, **events},
    )


def compare_energy(results: Dict[str, RunResult],
                   tech: TechNode = TECH_65NM) -> Dict[str, EnergyReport]:
    """Energy reports for a dict of scheme -> result (same workload)."""
    return {scheme: energy_estimate(res, tech)
            for scheme, res in results.items()}
