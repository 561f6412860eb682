"""Trial fan-out: process pool with retry and serial fallback.

The executor never decides *what* to run — the engine hands it a wave of
:class:`TrialSpec` and it returns one :class:`TrialResult` per trial, in
submission order. Failure policy:

* a trial that raises in a worker is retried **once**, in-process,
  where the full traceback is visible;
* a second failure records the trial as a ``CRASH`` outcome (traceback
  attached) instead of aborting the grid — one pathological seed costs
  one data point, not the campaign;
* a broken pool (worker SIGKILLed, interpreter mismatch, ...) degrades
  the rest of the campaign to serial execution instead of dying.

Because every trial is a pure function of its spec, retries and
degradation cannot change any number — only wall-clock time.
"""

from __future__ import annotations

import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.campaign.snapshot import run_trial_differential
from repro.campaign.spec import TrialSpec
from repro.campaign.trial import TrialResult, crash_result


@dataclass
class ExecutionReport:
    """What the fan-out had to absorb (feeds the progress layer)."""

    worker_failures: int = 0
    retries: int = 0
    #: trials recorded as CRASH after failing their run AND the retry
    crashes: int = 0
    degraded_to_serial: bool = False


def default_workers(n_trials: int) -> int:
    return max(1, min(n_trials, os.cpu_count() or 1))


def _retry(trial: TrialSpec, runner: Callable[[TrialSpec], TrialResult],
           first_error: BaseException,
           report: ExecutionReport) -> TrialResult:
    """Complete a pool-failed trial in-process: one attempt, no backoff
    (a deterministic simulation gains nothing from sleeping)."""
    report.worker_failures += 1
    report.retries += 1
    try:
        return runner(trial)
    except Exception as exc:
        report.worker_failures += 1
        report.crashes += 1
        cause = "".join(traceback.format_exception(
            type(exc), exc, exc.__traceback__))
        return crash_result(trial, f"first: {first_error!r}\nretry:\n{cause}")


def _execute_serial(trials: Sequence[TrialSpec],
                    runner: Callable[[TrialSpec], TrialResult],
                    report: ExecutionReport,
                    on_result: Optional[Callable[[TrialResult], None]]
                    ) -> List[TrialResult]:
    results = []
    for trial in trials:
        try:
            result = runner(trial)
        except Exception as exc:
            result = _retry(trial, runner, exc, report)
        results.append(result)
        if on_result is not None:
            on_result(result)
    return results


def execute_trials(trials: Sequence[TrialSpec],
                   workers: Optional[int] = None,
                   runner: Callable[[TrialSpec], TrialResult]
                   = run_trial_differential,
                   on_result: Optional[Callable[[TrialResult], None]] = None,
                   report: Optional[ExecutionReport] = None,
                   ) -> List[TrialResult]:
    """Run one wave of trials; results in the wave's original order.

    ``on_result`` fires in the wave's original order as results are
    collected (the engine appends to the store and ticks progress from
    it).
    """
    if report is None:
        report = ExecutionReport()
    if not trials:
        return []
    if workers is None:
        workers = default_workers(len(trials))
    if workers <= 1:
        return _execute_serial(trials, runner, report, on_result)

    pool = ProcessPoolExecutor(max_workers=min(workers, len(trials)))
    results: List[TrialResult] = []
    abandoned = False
    try:
        futures = [pool.submit(runner, t) for t in trials]
        for index, (trial, future) in enumerate(zip(trials, futures)):
            try:
                result = future.result()
            except BrokenProcessPool as exc:
                # pool is unusable: absorb the failure and finish the
                # remainder of the wave serially
                report.worker_failures += 1
                report.degraded_to_serial = True
                abandoned = True
                result = _retry(trial, runner, exc, report)
                results.append(result)
                if on_result is not None:
                    on_result(result)
                rest = _execute_serial(trials[index + 1:], runner, report,
                                       on_result)
                results.extend(rest)
                return results
            except Exception as exc:
                result = _retry(trial, runner, exc, report)
            results.append(result)
            if on_result is not None:
                on_result(result)
        return results
    except KeyboardInterrupt:
        # graceful SIGINT/SIGTERM: every collected result has already
        # been appended to the store via on_result; abandon the rest of
        # the wave instead of blocking shutdown on in-flight workers
        # (the campaign resumes from the store)
        abandoned = True
        raise
    finally:
        pool.shutdown(wait=not abandoned, cancel_futures=abandoned)
