"""Summarisation backend of ``repro metrics summarize``.

Two input shapes, auto-detected:

* a **metrics snapshot** JSON (written by ``repro trace run --metrics``
  or ``MetricsRegistry.snapshot()``): counters/gauges/histograms for one
  run;
* a **campaign store** JSONL (``repro campaign run --store``): the
  per-trial integral metric rollups are summed per cell and in total.

Both reduce to one dict shape so the CLI renders them uniformly.
"""

from __future__ import annotations

import json
import os
from typing import Dict


def _is_snapshot(doc: Dict) -> bool:
    return isinstance(doc, dict) and "counters" in doc


def summarize_snapshot(doc: Dict) -> Dict:
    """Normalise one run's metrics snapshot."""
    hists = {
        name: {"count": h.get("count", 0), "mean": h.get("mean", 0.0)}
        for name, h in sorted(doc.get("histograms", {}).items())}
    return {
        "kind": "snapshot",
        "counters": dict(sorted(doc.get("counters", {}).items())),
        "gauges": dict(sorted(doc.get("gauges", {}).items())),
        "histograms": hists,
    }


def summarize_store(path: str) -> Dict:
    """Per-cell and total metric sums of a campaign store, read from the
    campaign aggregate (:attr:`CellAggregate.metrics`).

    Only integral counters ever enter trial records (see
    ``campaign.trial``), so sums are exact and order-independent.
    """
    from repro.campaign.engine import summarize_store as aggregate_store

    summary = aggregate_store(path)
    cells = summary.cells
    totals: Dict[str, int] = {}
    for cell in cells.values():
        for name, value in cell["metrics"].items():
            totals[name] = totals.get(name, 0) + value
    return {
        "kind": "campaign",
        "trials": summary.totals["trials"],
        "cells": {c: {"trials": cells[c]["trials"],
                      "metrics": cells[c]["metrics"]}
                  for c in sorted(cells)},
        "totals": dict(sorted(totals.items())),
    }


def summarize_path(path: str) -> Dict:
    """Auto-detect the input shape and summarise; a missing ``path``
    raises :class:`FileNotFoundError`."""
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    if path.endswith(".jsonl"):
        return summarize_store(path)
    with open(path) as fh:
        first = fh.read(1)
        fh.seek(0)
        if first == "{":
            try:
                doc = json.load(fh)
            except json.JSONDecodeError:
                doc = None
            if doc is not None and _is_snapshot(doc):
                return summarize_snapshot(doc)
    # fall back: treat as a JSONL store regardless of extension
    return summarize_store(path)
