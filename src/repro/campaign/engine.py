"""Campaign orchestration: expand, resume, fan out, aggregate.

Execution proceeds in **waves**. Each wave takes, from every cell that
is still active, the missing trials of its earliest incomplete batch,
and fans the union across the executor. At wave boundaries — and only
there — the engine re-derives each cell's situation *from the store
contents*:

* all trials present           -> cell finished;
* a full prefix of batches present and the SDC CI narrow enough
  (``spec.ci_halfwidth``)      -> cell early-stopped, rest skipped;
* otherwise                    -> schedule the earliest incomplete batch.

Because the decision inputs are deterministic functions of the completed
trial set, and every trial is a pure function of its seed, a campaign
killed at any point and resumed reaches byte-identical statistics, and
``workers=1`` and ``workers=N`` runs are indistinguishable in every
number they report (the tests pin both).
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.campaign.aggregate import Aggregator, CellAggregate
from repro.campaign.executor import (
    ExecutionReport,
    default_workers,
    execute_trials,
)
from repro.campaign.progress import ProgressTracker, Ticker
from repro.campaign.snapshot import CACHE, run_trial_differential
from repro.campaign.spec import (
    CampaignError,
    CampaignSpec,
    TrialSpec,
    cell_id,
)
from repro.campaign.store import ResultStore
from repro.campaign.trial import TrialResult


@dataclass
class CampaignSummary:
    """The campaign's final word: statistics plus observability."""

    spec: Dict
    cells: Dict
    totals: Dict
    progress: Optional[Dict] = None
    early_stopped: List[str] = field(default_factory=list)
    #: per-scheme silicon cost (area/power vs the unprotected baseline),
    #: from each scheme's registry-declared ``system_cost`` — a pure
    #: function of the spec, so it belongs in the deterministic portion
    hwcost: Dict = field(default_factory=dict)

    def stats_dict(self) -> Dict:
        """The deterministic portion (no timing) — what the resume and
        serial-vs-parallel tests compare byte-for-byte."""
        return {"spec": self.spec, "cells": self.cells,
                "totals": self.totals,
                "early_stopped": sorted(self.early_stopped),
                "hwcost": self.hwcost}

    def to_dict(self) -> Dict:
        data = self.stats_dict()
        data["progress"] = self.progress
        return data


def _scheme_hwcost(schemes: Sequence[str]) -> Dict:
    """Per-scheme silicon cost section for the campaign summary.

    Every number is a pure function of the scheme registry (no
    simulation state), so the section is identical across serial,
    parallel, resumed and summarize-only paths. Schemes whose descriptor
    declares no cost model are simply absent.
    """
    from repro.schemes import get as get_scheme

    base = get_scheme("baseline").system_cost()
    section: Dict = {}
    for name in schemes:
        cost = get_scheme(name).system_cost()
        if cost is None:
            continue
        section[name] = {
            "n_cores": cost.n_cores,
            "area_um2": round(cost.total_area_um2, 3),
            "power_w": round(cost.total_power_w, 6),
            "area_overhead": round(cost.area_vs(base), 6),
            "power_overhead": round(cost.power_vs(base), 6),
            "self_correcting": cost.self_correcting,
        }
    return section


def _preload(store: ResultStore, aggregator: Aggregator
             ) -> Dict[Tuple[str, int], TrialResult]:
    """Replay the store into the aggregator; returns completed trials."""
    completed: Dict[Tuple[str, int], TrialResult] = {}
    for record in store.iter_trials():
        result = TrialResult.from_record(record)
        completed[result.key()] = result
        aggregator.add(result)
    return completed


def _prefix_aggregate(cell: str, batches: Sequence[Sequence[TrialSpec]],
                      completed: Dict[Tuple[str, int], TrialResult],
                      n_batches: int) -> CellAggregate:
    """Aggregate over exactly the first ``n_batches`` batches.

    The early-stop test must see the same trial set no matter when the
    campaign was interrupted, so it is evaluated on full batch prefixes
    only — never on whatever happens to be on disk.
    """
    agg = CellAggregate(cell)
    for batch in batches[:n_batches]:
        for trial in batch:
            agg.add(completed[trial.key()])
    return agg


#: a cell's state at a wave boundary when it has no batch left to run
FINISHED = "finished"
EARLY_STOPPED = "early-stopped"


def cell_step(spec: CampaignSpec, cell_axes: Tuple[str, str, float],
              completed: Dict[Tuple[str, int], TrialResult]
              ) -> Union[List[TrialSpec], str]:
    """What one cell does next, given the completed trials.

    Returns the missing trials of the cell's earliest incomplete batch,
    or :data:`FINISHED` once every trial is present, or
    :data:`EARLY_STOPPED` when the first k batches are complete, batch k
    is untouched, and that k-batch prefix meets ``spec.ci_halfwidth``.
    The early-stop test sees only clean batch prefixes: an interrupted
    partial batch is completed first, so the decision sequence does not
    depend on when a campaign was interrupted.
    """
    batches = spec.batches(*cell_axes)
    for k, batch in enumerate(batches):
        missing = [t for t in batch if t.key() not in completed]
        if not missing:
            continue
        if (spec.ci_halfwidth is not None and k > 0
                and len(missing) == len(batch)
                and _prefix_aggregate(cell_id(*cell_axes), batches,
                                      completed, k
                                      ).ci_met(spec.ci_halfwidth)):
            return EARLY_STOPPED
        return missing
    return FINISHED


def as_store(store_or_path) -> ResultStore:
    """Coerce a path into a :class:`ResultStore`; pass store objects
    through.

    The service scheduler hands in a :class:`ResultStore` built with an
    ``on_append`` observer (its live rollups); a path gets a plain one.
    """
    if hasattr(store_or_path, "append_trial"):
        return store_or_path
    return ResultStore(store_or_path)


def run_campaign(spec: CampaignSpec,
                 store_path,
                 workers: Optional[int] = None,
                 runner=run_trial_differential,
                 ticker_enabled: Optional[bool] = None,
                 should_stop: Optional[Callable[[], bool]] = None,
                 executor: Optional[Callable[..., List[TrialResult]]]
                 = None,
                 ) -> CampaignSummary:
    """Run (or resume) a campaign against a JSONL store.

    A fresh store is created from ``spec``; an existing one must carry an
    identical spec header, and its completed trials are skipped.
    ``store_path`` may also be an already-constructed store object (see
    :func:`as_store`) — the service layer passes its observed store
    through this seam. The returned summary's statistics depend
    only on the spec — never on worker count, timing, interruptions or
    retry history.

    ``runner`` runs one trial. The default fast-forwards each trial
    from a cached fault-free prefix (:mod:`repro.campaign.snapshot`),
    and before each pooled wave the coordinator builds them as far as
    the wave's trials share them, so forked workers inherit them.
    :func:`~repro.campaign.trial.run_trial` re-simulates from cycle 0
    and writes the same bytes; tests pass it as the reference, and a
    store begun with one runner may be resumed with the other.

    ``should_stop`` is polled at wave boundaries only; returning True
    stops cleanly after the in-flight wave — every completed trial is
    already durably appended, so the campaign resumes from its store
    with nothing lost or repeated. This is the scheduler's cancellation
    and drain-on-shutdown hook, and by construction it can never change
    a statistic, only *when* the remaining trials run.

    ``executor`` replaces :func:`execute_trials` as the wave fan-out
    (same call signature and ordering contract); the service layer's
    distributed :class:`~repro.service.workers.WaveDispatcher` plugs in
    here without forking the wave loop, so batch boundaries, early
    stopping, and store append order stay identical to a local run.
    """
    exec_fn = execute_trials if executor is None else executor
    warm = None
    if runner is run_trial_differential and executor is None \
            and multiprocessing.get_start_method() == "fork":
        # forked trial pools inherit what the coordinator built
        warm = CACHE.warm
    store = as_store(store_path)
    store.repair()  # drop any torn final line before we append past it
    if store.exists():
        stored = store.load_spec()
        if stored != spec:
            raise CampaignError(
                f"store {store.path!r} holds a different campaign "
                f"(stored spec {stored.to_dict()} != requested "
                f"{spec.to_dict()}); pick a new store file or use "
                f"`campaign resume` to continue the stored one")
    else:
        store.create(spec)

    aggregator = Aggregator()
    completed = _preload(store, aggregator)

    tracker = ProgressTracker(planned=spec.total_trials)
    ticker = Ticker(tracker, enabled=ticker_enabled)
    cells = spec.cells()
    for cell_axes in cells:
        cid = cell_id(*cell_axes)
        tracker.plan_cell(cid, spec.trials)
        already = sum(1 for t in spec.cell_trials(*cell_axes)
                      if t.key() in completed)
        if already:
            tracker.resume_skip(cid, already)

    early_stopped: List[str] = []
    finished: Set[str] = set()

    def on_result(result: TrialResult) -> None:
        store.append_trial(result.to_record())
        completed[result.key()] = result
        aggregator.add(result)
        tracker.update(result.cell)
        ticker.tick()

    try:
        while True:
            if should_stop is not None and should_stop():
                break  # graceful: everything completed is on disk
            wave: List[TrialSpec] = []
            for cell_axes in cells:
                cid = cell_id(*cell_axes)
                if cid in finished:
                    continue
                step = cell_step(spec, cell_axes, completed)
                if isinstance(step, list):
                    wave.extend(step)
                    continue
                finished.add(cid)
                if step == EARLY_STOPPED:
                    early_stopped.append(cid)
                    tracker.early_stop(cid)
                tracker.finish_cell(cid)
            if not wave:
                break
            wave_workers = workers or default_workers(len(wave))
            if warm is not None and wave_workers > 1:
                warm(wave, wave_workers)
            wave_report = ExecutionReport()
            exec_fn(wave, workers=workers, runner=runner,
                    on_result=on_result, report=wave_report)
            tracker.absorb(wave_report.worker_failures, wave_report.retries,
                           wave_report.crashes)
            if wave_report.degraded_to_serial:
                workers = 1  # the pool is gone; stay serial from here on
    finally:
        ticker.close()

    stats = aggregator.summary(cell_order=[cell_id(*c) for c in cells])
    return CampaignSummary(spec=spec.to_dict(), cells=stats["cells"],
                           totals=stats["totals"],
                           progress=tracker.summary(),
                           early_stopped=early_stopped,
                           hwcost=_scheme_hwcost(spec.schemes))


def summarize_store(store_path) -> CampaignSummary:
    """Aggregate whatever a store holds, without running anything.

    Cells are labelled early-stopped by the same :func:`cell_step` rule
    the engine applies, so for a finished campaign the summary is
    byte-identical to what ``run_campaign`` returned for the same store
    (minus the progress section, which is ``None`` here), and an
    interrupted campaign's partial cells are never mislabelled.
    ``store_path`` may be a path or a store object (see :func:`as_store`).
    """
    store = as_store(store_path)
    if not store.exists():
        raise CampaignError(f"no campaign store at {store.path!r}")
    spec = store.load_spec()
    aggregator = Aggregator()
    completed = _preload(store, aggregator)
    cells = spec.cells()
    early_stopped = [cell_id(*c) for c in cells
                     if cell_step(spec, c, completed) == EARLY_STOPPED]
    stats = aggregator.summary(cell_order=[cell_id(*c) for c in cells])
    return CampaignSummary(spec=spec.to_dict(), cells=stats["cells"],
                           totals=stats["totals"], progress=None,
                           early_stopped=early_stopped,
                           hwcost=_scheme_hwcost(spec.schemes))
