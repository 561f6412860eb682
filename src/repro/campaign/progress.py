"""Campaign observability: throughput, per-cell ETA, failure counts.

Two consumers, one source of truth. The :class:`ProgressTracker` keeps
the counters (injectable clock, so tests drive time by hand) and renders
both a single-line stderr ticker for humans and a machine-readable dict
for the summary. Timing numbers live *only* here — the statistical
summary stays bit-deterministic while the progress section is free to
report wall-clock truth.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, Optional, TextIO


class ProgressTracker:
    """Counters for one campaign run."""

    def __init__(self, planned: int,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._t0 = clock()
        self.planned = planned
        self.done = 0
        self.skipped_resume = 0
        self.skipped_early_stop = 0
        self.worker_failures = 0
        self.retries = 0
        self.crashes = 0
        self.cells_total = 0
        self.cells_finished = 0
        #: cell -> (done, planned) for per-cell ETA
        self._cells: Dict[str, list] = {}

    # -- engine hooks -------------------------------------------------------
    def plan_cell(self, cell: str, planned: int) -> None:
        self._cells[cell] = [0, planned]
        self.cells_total += 1

    def update(self, cell: str) -> None:
        self.done += 1
        if cell in self._cells:
            self._cells[cell][0] += 1

    def resume_skip(self, cell: str, n: int) -> None:
        """n trials found already complete in the store."""
        self.skipped_resume += n
        if cell in self._cells:
            self._cells[cell][0] += n

    def early_stop(self, cell: str) -> None:
        """A cell's CI converged; its remaining trials will never run."""
        done, planned = self._cells.get(cell, (0, 0))
        self.skipped_early_stop += planned - done
        self.planned -= planned - done
        if cell in self._cells:
            self._cells[cell][1] = done

    def finish_cell(self, cell: str) -> None:
        self.cells_finished += 1

    def absorb(self, worker_failures: int, retries: int,
               crashes: int = 0) -> None:
        self.worker_failures += worker_failures
        self.retries += retries
        self.crashes += crashes

    # -- derived ------------------------------------------------------------
    @property
    def elapsed(self) -> float:
        return max(self._clock() - self._t0, 0.0)

    @property
    def remaining(self) -> int:
        return max(self.planned - self.skipped_resume - self.done, 0)

    @property
    def trials_per_second(self) -> float:
        return self.done / self.elapsed if self.elapsed > 0 else 0.0

    def eta_seconds(self) -> Optional[float]:
        rate = self.trials_per_second
        if rate <= 0:
            return None
        return self.remaining / rate

    def cell_eta_seconds(self, cell: str) -> Optional[float]:
        rate = self.trials_per_second
        if cell not in self._cells or rate <= 0:
            return None
        done, planned = self._cells[cell]
        return max(planned - done, 0) / rate

    # -- rendering ----------------------------------------------------------
    def render(self) -> str:
        eta = self.eta_seconds()
        eta_s = f"{eta:.0f}s" if eta is not None else "?"
        line = (f"campaign: {self.done + self.skipped_resume}/{self.planned} "
                f"trials  {self.trials_per_second:.1f} trials/s  eta {eta_s}"
                f"  cells {self.cells_finished}/{self.cells_total}")
        if self.worker_failures:
            line += f"  failures {self.worker_failures}"
        if self.skipped_early_stop:
            line += f"  early-stopped {self.skipped_early_stop}"
        return line

    def summary(self) -> Dict:
        return {
            "planned_trials": self.planned,
            "trials_run": self.done,
            "resumed_trials": self.skipped_resume,
            "early_stopped_trials": self.skipped_early_stop,
            "elapsed_seconds": self.elapsed,
            "trials_per_second": self.trials_per_second,
            "worker_failures": self.worker_failures,
            "retries": self.retries,
            "crashes": self.crashes,
            "cells": {cell: {"done": done, "planned": planned,
                             "eta_seconds": self.cell_eta_seconds(cell)}
                      for cell, (done, planned)
                      in sorted(self._cells.items())},
        }


class Ticker:
    """Throttled single-line stderr progress display.

    Enabled by default only on a TTY, so pytest output and shell
    redirections stay clean; pass ``enabled=True`` to force.
    """

    #: seconds between redraws
    interval = 0.5

    def __init__(self, tracker: ProgressTracker,
                 stream: Optional[TextIO] = None,
                 enabled: Optional[bool] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.tracker = tracker
        self.stream = stream if stream is not None else sys.stderr
        self._clock = clock
        self._last = -float("inf")
        if enabled is None:
            enabled = bool(getattr(self.stream, "isatty", lambda: False)())
        self.enabled = enabled

    def tick(self, force: bool = False) -> None:
        if not self.enabled:
            return
        now = self._clock()
        if not force and now - self._last < self.interval:
            return
        self._last = now
        self.stream.write("\r\x1b[K" + self.tracker.render())
        self.stream.flush()

    def close(self) -> None:
        if self.enabled:
            self.tick(force=True)
            self.stream.write("\n")
            self.stream.flush()
