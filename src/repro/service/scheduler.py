"""Asyncio job scheduler: many campaign grids, one worker budget.

Submitted grids become :class:`Job` objects multiplexed over the
existing campaign engine — each running job executes
:func:`repro.campaign.engine.run_campaign` in a worker thread, whose
:class:`~repro.service.workers.WaveDispatcher` leases each wave to the
distributed workers or, when none is live, fans it across the process
pool exactly as the CLI does. The scheduler therefore *wraps* the
executor rather than forking it: it decides only which grid runs next,
with

* **FIFO admission** — the oldest queued job starts whenever fewer than
  ``max_concurrent`` jobs are running;
* **cancellation** — polled by the engine at wave boundaries, so a
  cancelled job's store holds only whole, durable trial records;
* **graceful drain** — shutdown stops admissions, lets in-flight waves
  finish, and leaves non-terminal jobs journaled for re-adoption.

Rollups for the dashboard are fed by the store's ``on_append`` observer:
every durable trial record also updates a per-job
:class:`~repro.campaign.aggregate.Aggregator` and the service
:class:`~repro.telemetry.metrics.MetricsRegistry` under a lock, so the
SSE stream reads a consistent snapshot without touching any file. A
re-adopted job's aggregate starts from the trials its store already
holds, so it counts every trial of the job, not only this server's;
the service's trial counters and trials/sec window count only new ones.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Deque, Dict, List, Optional

from repro.campaign.aggregate import Aggregator
from repro.campaign.engine import run_campaign
from repro.campaign.snapshot import run_trial_differential
from repro.campaign.spec import CampaignError, CampaignSpec, TrialSpec
from repro.campaign.store import ResultStore
from repro.campaign.trial import TrialResult
from repro.harness.statistics import wilson_interval
from repro.service.journal import JobJournal
from repro.service.workers import LeaseBroker, WaveDispatcher
from repro.telemetry.metrics import MetricsRegistry

#: job lifecycle states
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
#: stopped mid-run by a drain; re-adopted from the journal on restart
SUSPENDED = "suspended"

#: sliding window (seconds) for the dashboard's trials/sec rollup
RATE_WINDOW_S = 30.0


@dataclass
class Job:
    """One submitted campaign grid and its live bookkeeping."""

    job_id: str
    spec: CampaignSpec
    store_path: str
    workers: Optional[int]
    seq: int
    state: str = QUEUED
    error: Optional[str] = None
    #: deterministic portion of the final summary (DONE jobs only)
    summary: Optional[Dict] = None
    #: live aggregate: the store's trials when the job started, then
    #: every trial its store's on_append observer sees
    agg: Aggregator = field(default_factory=Aggregator)
    cancel_requested: bool = False
    #: set to make the engine stop at the next wave boundary
    stop_event: threading.Event = field(default_factory=threading.Event)

    @property
    def trials_done(self) -> int:
        # a copy of the cells, taken at once: the engine thread may be
        # adding one
        return sum(cell.trials for cell in list(self.agg.cells.values()))

    def status(self) -> Dict:
        """JSON-ready status for the HTTP API."""
        return {
            "job_id": self.job_id,
            "state": self.state,
            "trials_done": self.trials_done,
            "total_trials": self.spec.total_trials,
            "store": self.store_path,
            "error": self.error,
        }


def _rate_dict(successes: int, trials: int) -> Dict[str, float]:
    if trials == 0:
        # no evidence yet: the whole [0, 1] interval is plausible
        return {"estimate": 0.0, "low": 0.0, "high": 1.0}
    iv = wilson_interval(successes, trials)
    return {"estimate": iv.estimate, "low": iv.low, "high": iv.high}


class JobScheduler:
    """FIFO multiplexer for campaign jobs on one event loop.

    ``submit``/``cancel``/``status`` are called from the event-loop
    thread (HTTP handlers); trial execution happens in worker threads
    via ``asyncio.to_thread``, which is why rollup state is guarded by a
    plain :class:`threading.Lock` rather than loop discipline.
    """

    def __init__(self, data_dir, *,
                 journal: JobJournal,
                 broker: LeaseBroker,
                 max_concurrent: int = 1,
                 runner: Callable[[TrialSpec], TrialResult]
                 = run_trial_differential,
                 metrics: Optional[MetricsRegistry] = None,
                 default_workers: Optional[int] = None,
                 expect_workers: int = 0,
                 worker_wait: float = 10.0) -> None:
        if max_concurrent <= 0:
            raise CampaignError("max_concurrent must be positive")
        self.data_dir = os.fspath(data_dir)
        self.max_concurrent = max_concurrent
        self.journal = journal
        self.runner = runner
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.default_workers = default_workers
        self.broker = broker
        self.expect_workers = expect_workers
        self.worker_wait = worker_wait
        self._jobs: Dict[str, Job] = {}
        self._seq = itertools.count(1)
        self._numbers = itertools.count(journal.next_job_number())
        self._tasks: Dict[str, "asyncio.Task[None]"] = {}
        self._wake: Optional[asyncio.Event] = None
        self._stopping = False
        self._stopped = threading.Event()
        self._lock = threading.Lock()
        self._completions: Deque[float] = deque()

    # -- submission ---------------------------------------------------------
    def submit(self, spec: CampaignSpec, *,
               workers: Optional[int] = None,
               job_id: Optional[str] = None,
               store_path: Optional[str] = None,
               journal_event: bool = True) -> Job:
        """Queue one campaign grid; returns its :class:`Job`.

        ``job_id``/``store_path``/``journal_event=False`` are the
        re-adoption path: a journal replay resubmits an orphaned job
        against its original store, and the campaign engine's resume
        semantics skip every trial already on disk.
        """
        if job_id is None:
            job_id = f"job-{next(self._numbers):06d}"
        if job_id in self._jobs:
            raise CampaignError(f"job {job_id!r} already exists")
        if store_path is None:
            store_path = os.path.join(self.data_dir, job_id, "store.jsonl")
        job = Job(job_id=job_id, spec=spec,
                  workers=workers if workers is not None
                  else self.default_workers,
                  store_path=store_path, seq=next(self._seq))
        with self._lock:
            self._jobs[job_id] = job
        self.metrics.counter("service.jobs.submitted").inc()
        if journal_event:
            self.journal.submitted(
                job_id, spec=spec.to_dict(), store=store_path,
                workers=workers, fingerprint=spec.fingerprint())
        self._set_wake()
        return job

    def adopt_orphans(self) -> List[Job]:
        """Resubmit every journaled non-terminal job (server restart).

        A job whose recorded store no longer matches its spec
        fingerprint is marked FAILED instead of silently re-running a
        different campaign.
        """
        adopted: List[Job] = []
        # exclusive adoption: two servers pointed at one data dir must
        # not both resubmit (and both run) the same orphaned campaigns
        self.journal.acquire_lock()
        for entry in self.journal.orphans():
            spec = CampaignSpec.from_dict(entry.spec)
            if entry.fingerprint and spec.fingerprint() != entry.fingerprint:
                self.journal.failed(
                    entry.job_id,
                    "journal fingerprint mismatch — store not re-adopted")
                continue
            adopted.append(self.submit(
                spec, workers=entry.workers, job_id=entry.job_id,
                store_path=entry.store, journal_event=False))
        return adopted

    # -- queries ------------------------------------------------------------
    def get(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        return sorted(self._jobs.values(), key=lambda j: j.seq)

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; True if the job existed and was live."""
        job = self._jobs.get(job_id)
        if job is None or job.state in (DONE, FAILED, CANCELLED):
            return False
        job.cancel_requested = True
        if job.state == QUEUED:
            job.state = CANCELLED
            self.metrics.counter("service.jobs.cancelled").inc()
            self.journal.cancelled(job_id)
        else:
            job.stop_event.set()  # engine stops at next wave boundary
        self._set_wake()
        return True

    # -- rollups ------------------------------------------------------------
    def _on_trial(self, job: Job, record: Dict) -> None:
        """Store observer — runs in the job's engine thread."""
        result = TrialResult.from_record(record)
        now = time.monotonic()
        with self._lock:
            job.agg.add(result)
            self._completions.append(now)
            while self._completions and \
                    self._completions[0] < now - RATE_WINDOW_S:
                self._completions.popleft()
        self.metrics.counter("service.trials.completed").inc()
        self.metrics.counter(f"service.outcomes.{result.taxonomy}").inc()

    def rollup(self) -> Dict:
        """One consistent dashboard snapshot: jobs, rates, throughput.

        Outcome proportions carry Wilson 95% CIs (the campaign's own
        statistics layer). ``cached_verdict_rate`` is the prefix
        cache's hit proxy: zero-observable-strike trials are exactly the
        ones served the cached prefix verdict.
        """
        now = time.monotonic()
        with self._lock:
            jobs = [job.status() for job in self.jobs()]
            trials = strikes = clean = 0
            outcome_counts = {"sdc": 0, "due": 0, "recovered": 0,
                              "hang": 0, "crash": 0}
            for job in self._jobs.values():
                for cell in job.agg.cells.values():
                    trials += cell.trials
                    strikes += cell.strikes
                    clean += cell.clean_trials
                    outcome_counts["sdc"] += cell.sdc_trials
                    outcome_counts["due"] += cell.due_trials
                    outcome_counts["recovered"] += cell.recovered_trials
                    outcome_counts["hang"] += cell.hang_trials
                    outcome_counts["crash"] += cell.crash_trials
            window = [t for t in self._completions
                      if t >= now - RATE_WINDOW_S]
        running = sum(1 for j in jobs if j["state"] == RUNNING)
        queued = sum(1 for j in jobs if j["state"] == QUEUED)
        self.metrics.gauge("service.jobs.running").set(running)
        return {
            "jobs": jobs,
            "totals": {
                "trials": trials,
                "strikes": strikes,
                "jobs_running": running,
                "jobs_queued": queued,
                "rates": {name: _rate_dict(count, trials)
                          for name, count in sorted(outcome_counts.items())},
                "cached_verdict_rate": (clean / trials) if trials else 0.0,
            },
            "trials_per_sec": len(window) / RATE_WINDOW_S,
            "draining": self._stopping,
        }

    # -- the scheduling loop ------------------------------------------------
    def _set_wake(self) -> None:
        if self._wake is not None:
            self._wake.set()

    def _runnable(self) -> Optional[Job]:
        """The oldest queued job, if a slot is free."""
        jobs = self._jobs.values()
        if sum(1 for j in jobs if j.state == RUNNING) \
                >= self.max_concurrent:
            return None
        return min((j for j in jobs if j.state == QUEUED),
                   key=lambda j: j.seq, default=None)

    def _make_store(self, job: Job) -> ResultStore:
        parent = os.path.dirname(os.path.abspath(job.store_path))
        os.makedirs(parent, exist_ok=True)
        return ResultStore(job.store_path,
                           on_append=partial(self._on_trial, job))

    def _execute(self, job: Job):
        """Worker-thread body: the unmodified campaign engine, its waves
        fanned out by a :class:`WaveDispatcher` (which runs a wave in
        this process whenever no worker is live)."""
        store = self._make_store(job)
        if store.exists():
            # a re-adopted job: count what an earlier server already ran
            done = [TrialResult.from_record(record)
                    for record in store.iter_trials()]
            with self._lock:
                for result in done:
                    job.agg.add(result)
        dispatcher = WaveDispatcher(
            self.broker, job_id=job.job_id,
            expect_workers=self.expect_workers,
            worker_wait=self.worker_wait, metrics=self.metrics)
        return run_campaign(
            job.spec, store, workers=job.workers,
            runner=self.runner, should_stop=job.stop_event.is_set,
            executor=dispatcher)

    async def _run_job(self, job: Job) -> None:
        self.metrics.counter("service.jobs.started").inc()
        self.journal.started(job.job_id)
        try:
            summary = await asyncio.to_thread(self._execute, job)
        except Exception:
            job.state = FAILED
            job.error = traceback.format_exc()[-2000:]
            self.metrics.counter("service.jobs.failed").inc()
            self.journal.failed(job.job_id, job.error)
        else:
            progress = summary.progress or {}
            remaining = progress.get("planned_trials", 0) \
                - progress.get("resumed_trials", 0) \
                - progress.get("trials_run", 0) \
                - progress.get("early_stopped_trials", 0)
            if job.cancel_requested:
                job.state = CANCELLED
                self.metrics.counter("service.jobs.cancelled").inc()
                self.journal.cancelled(job.job_id)
            elif remaining > 0:
                # a drain stopped the engine at a wave boundary; the
                # journal keeps the job non-terminal for re-adoption
                job.state = SUSPENDED
            else:
                job.state = DONE
                job.summary = summary.stats_dict()
                self.metrics.counter("service.jobs.completed").inc()
                self.journal.finished(job.job_id)
        finally:
            self._tasks.pop(job.job_id, None)
            self._set_wake()

    def request_stop(self) -> None:
        """Begin a graceful drain: no new admissions, running jobs stop
        at their next wave boundary, queued jobs stay journaled."""
        self._stopping = True
        for job in self._jobs.values():
            if job.state == RUNNING:
                job.stop_event.set()
        self._set_wake()

    @property
    def stopping(self) -> bool:
        return self._stopping

    async def run(self) -> None:
        """Main loop; returns once a requested drain has completed."""
        self._wake = asyncio.Event()
        self._set_wake()
        try:
            while True:
                await self._wake.wait()
                self._wake.clear()
                if self._stopping:
                    if self._tasks:
                        await asyncio.gather(
                            *list(self._tasks.values()),
                            return_exceptions=True)
                    break
                while True:
                    job = self._runnable()
                    if job is None:
                        break
                    # flip state here, not in _run_job: create_task does
                    # not run synchronously, and _runnable must see the
                    # admission immediately or this loop never breaks
                    job.state = RUNNING
                    self._tasks[job.job_id] = asyncio.create_task(
                        self._run_job(job))
        finally:
            self.journal.release_lock()
            self._stopped.set()
