"""Campaign-as-a-service: the HTTP face of the campaign engine.

One process owning one JSONL store serves a single sweep; the service
lets clients submit grids over HTTP, watch them, and farm their trials
out to worker processes. It adds that seam *around* the campaign
engine — never a fork of it:

* :class:`~repro.service.scheduler.JobScheduler` — an asyncio scheduler
  that runs submitted grids oldest first, at most ``max_concurrent`` at
  a time, each through the existing campaign engine into one ordinary
  JSONL store, with cancellation and graceful drain-on-shutdown;
* :class:`~repro.service.journal.JobJournal` — append-only job-state
  journal so a restarted server re-adopts in-flight campaigns with no
  trial lost or repeated (the store's (cell, seed) keying does the
  deduplication);
* :mod:`~repro.service.server` — ``repro serve``: submit/status/cancel/
  results/metrics over HTTP plus a live dashboard streaming
  MetricsRegistry rollups as server-sent events (stdlib only);
* :class:`~repro.service.client.ServiceClient` — the stdlib HTTP client
  the CI smoke and tests drive the API with;
* :mod:`~repro.service.workers` — the distributed worker tier:
  ``repro worker`` processes claim wave-grained leases over HTTP,
  renew them with heartbeats, and stream results back; expired leases
  requeue (at-least-once) and the dispatcher falls back to local
  execution when no workers are available;
* :mod:`~repro.service.retry` — the backoff policy (exponential + full
  jitter, budgets) of the worker tier's HTTP calls;
* :mod:`~repro.service.chaos` — seeded fault injection for the service
  stack itself (worker SIGKILLs, dropped heartbeats, torn journal
  lines, injected 500s/stalls).

Every determinism invariant of the single-process engine survives
multiplexing because the service only decides *when* grids run, never
what a trial computes or in what order a store's bytes land.
"""
