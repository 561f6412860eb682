"""Resumable Monte Carlo fault-injection campaign engine.

The paper's reliability story (Sec VI-C: SER sweeps, recovery cost,
break-even) is statistical — it needs thousands of seeded injection
trials per (scheme, workload, SER) cell, not one deterministic run. This
package turns the repo's single-run primitives (``faults.injector``,
``faults.ser.SERModel``, ``harness.runner.run_scheme``) into campaigns:

* :class:`CampaignSpec` — the trial grid and its deterministic expansion;
* :class:`ResultStore` — append-only JSONL, keyed by (cell, seed), so an
  interrupted campaign resumes by skipping completed trials;
* :func:`execute_trials` — process-pool fan-out with one retry and
  graceful degradation to serial execution;
* :class:`Aggregator` — streaming SDC/DUE/recovery proportions with
  Wilson confidence intervals and sequential early stopping;
* :class:`ProgressTracker` / :class:`Ticker` — trials/sec, per-cell ETA
  and failure counts, as a live stderr line and a machine-readable dict;
* :func:`run_campaign` / :func:`summarize_store` — the orchestration the
  ``repro campaign`` CLI drives.

Every statistic a campaign reports is a pure function of its spec:
worker counts, interruptions, retries and timing can never change a
number, only the wall-clock. The tests pin this.
"""

from repro.campaign.engine import as_store, run_campaign, summarize_store
from repro.campaign.spec import CampaignError, CampaignSpec
from repro.campaign.trial import run_trial

__all__ = [
    "as_store", "run_campaign", "summarize_store",
    "CampaignError", "CampaignSpec",
    "run_trial",
]
