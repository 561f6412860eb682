"""Campaign specifications: the trial grid and its deterministic expansion.

A campaign is a grid of **cells** — one per (scheme, workload, SER) — and
every cell holds ``trials`` seeded Monte Carlo trials. The expansion
order is fixed (cell-major, seed-ascending) and every trial is fully
determined by its :class:`TrialSpec`, which is what makes campaigns
resumable and makes serial and parallel execution produce identical
numbers.

Trials inside a cell are grouped into fixed **batches** of ``batch``
seeds. The batch is the campaign's scheduling shard (one batch per cell
is fanned out per wave) *and* the sequential-early-stopping decision
boundary: the engine only evaluates a cell's confidence interval when a
whole prefix of batches has completed, so the decision sequence is
independent of interruptions and worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Tuple

from repro.schemes import protected_schemes


class CampaignError(ValueError):
    """Invalid campaign specification or store/spec mismatch."""


def cell_id(scheme: str, workload: str, ser: float) -> str:
    """Canonical cell key, e.g. ``"unsync/sha/0.0001"``."""
    return f"{scheme}/{workload}/{ser:g}"


@dataclass(frozen=True)
class TrialSpec:
    """One Monte Carlo trial: everything the worker needs, picklable."""

    scheme: str
    workload: str
    #: per-cycle strike rate for :class:`repro.faults.injector.FaultInjector`
    ser: float
    seed: int
    #: ``"standard"`` (isolated single-bit upsets) or ``"adversarial"``
    #: (multi-bit clusters, paired-core strikes, recovery chasing — see
    #: :mod:`repro.faults.adversarial`)
    fault_model: str = "standard"
    #: cycle-budget watchdog for this trial's simulation (``None`` keeps
    #: the runner's generous default); a tripped watchdog classifies the
    #: trial as ``HANG``
    watchdog_cycles: Optional[int] = None

    @property
    def cell(self) -> str:
        return cell_id(self.scheme, self.workload, self.ser)

    def key(self) -> Tuple[str, int]:
        """The store's dedup/resume key."""
        return (self.cell, self.seed)


@dataclass(frozen=True)
class CampaignSpec:
    """The full (scheme x workload x SER x seed) grid of a campaign."""

    schemes: Tuple[str, ...]
    workloads: Tuple[str, ...]
    #: per-cycle strike rates (use ``SERModel.per_cycle`` to derive one
    #: from a technology node)
    sers: Tuple[float, ...]
    #: seeded trials per cell
    trials: int = 50
    seed_base: int = 0
    #: sequential early stopping: a cell stops once the Wilson CI on its
    #: SDC proportion has half-width <= this (None = run every trial)
    ci_halfwidth: Optional[float] = None
    #: trials per scheduling batch / early-stop decision boundary
    batch: int = 25
    #: fault model every trial uses (``"standard"`` or ``"adversarial"``)
    fault_model: str = "standard"
    #: per-trial cycle-budget watchdog (None = runner default)
    watchdog_cycles: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "schemes", tuple(self.schemes))
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(self, "sers", tuple(float(s) for s in self.sers))
        for name in ("trials", "seed_base", "batch"):  # JSON may say 4.0
            object.__setattr__(self, name, int(getattr(self, name)))
        # a live registry view: the unprotected baseline is never a
        # target, and a scheme registered later is campaignable at once
        protected = protected_schemes()
        for scheme in self.schemes:
            if scheme not in protected:
                raise CampaignError(
                    f"scheme {scheme!r} cannot take fault injection "
                    f"(choose from {protected})")
        from repro.workloads import workload_names
        known = workload_names()
        for name in self.workloads:
            if name not in known:
                raise CampaignError(
                    f"unknown workload {name!r} (try one of "
                    f"{', '.join(known)})")
        if not self.schemes or not self.workloads or not self.sers:
            raise CampaignError("campaign grid has an empty axis")
        if any(s < 0 for s in self.sers):
            raise CampaignError("SER rates must be non-negative")
        if len(set(self.sers)) != len(self.sers):
            raise CampaignError("duplicate SER rates in grid")
        if self.trials <= 0:
            raise CampaignError("need at least one trial per cell")
        if self.batch <= 0:
            raise CampaignError("batch must be positive")
        if self.ci_halfwidth is not None and not 0 < self.ci_halfwidth < 1:
            raise CampaignError("ci_halfwidth must be in (0, 1)")
        from repro.faults.adversarial import FAULT_MODELS
        if self.fault_model not in FAULT_MODELS:
            raise CampaignError(
                f"fault_model {self.fault_model!r} unknown "
                f"(choose from {FAULT_MODELS})")
        if self.watchdog_cycles is not None and self.watchdog_cycles <= 0:
            raise CampaignError("watchdog_cycles must be positive")

    # -- expansion ----------------------------------------------------------
    def cells(self) -> List[Tuple[str, str, float]]:
        """All (scheme, workload, ser) cells in canonical order."""
        return [(s, w, r) for s in self.schemes for w in self.workloads
                for r in self.sers]

    def cell_trials(self, scheme: str, workload: str,
                    ser: float) -> List[TrialSpec]:
        """One cell's trials in seed order."""
        return [TrialSpec(scheme, workload, ser, self.seed_base + i,
                          fault_model=self.fault_model,
                          watchdog_cycles=self.watchdog_cycles)
                for i in range(self.trials)]

    def batches(self, scheme: str, workload: str,
                ser: float) -> List[List[TrialSpec]]:
        """A cell's trials chunked into fixed scheduling batches."""
        trials = self.cell_trials(scheme, workload, ser)
        return [trials[i:i + self.batch]
                for i in range(0, len(trials), self.batch)]

    @property
    def total_trials(self) -> int:
        return len(self.schemes) * len(self.workloads) * len(self.sers) \
            * self.trials

    def fingerprint(self) -> str:
        """Short stable digest of the canonical spec JSON.

        Two specs share a fingerprint iff they are equal, so the service
        journal can verify that a re-adopted job's on-disk store still
        belongs to the spec it was submitted with before resuming it.
        """
        import hashlib
        import json
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    # -- JSON round-trip (store header, journal, service submission) --------
    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        """The one decoder of a spec record (store header, journal entry,
        service submission): an absent field takes the dataclass default
        and an unknown one is rejected."""
        names = sorted(f.name for f in fields(cls))
        unknown = sorted(set(data) - set(names))
        if unknown:
            raise CampaignError(f"unknown spec field(s) {unknown} "
                                f"(spec fields: {names})")
        try:
            return cls(**data)
        except TypeError as exc:  # an absent axis, or "trials": null
            raise CampaignError(f"malformed spec record: {exc}") from exc
