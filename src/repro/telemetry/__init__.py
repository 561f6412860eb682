"""repro.telemetry — unified metrics, event tracing, and profiling.

One :class:`Telemetry` object bundles the two sinks the simulators feed:

* ``telemetry.metrics`` — a hierarchical :class:`MetricsRegistry`
  (counters / gauges / histograms);
* ``telemetry.events`` — a bounded :class:`EventLog` of typed, tracked
  events exportable as JSONL or Chrome trace-event JSON.

Systems take ``telemetry=None`` (the default: disabled). Hot paths bind
``events`` once and use the ``if sink is not None`` idiom from
``core/pipeline.py``, and the systems observe a histogram only through
``DualCoreSystem._observe``, which does nothing without telemetry; so a
disabled run pays at most a handful of ``None`` checks on already-cold
branches.

Usage::

    from repro.telemetry import Telemetry
    from repro.telemetry.chrome import write_chrome

    tel = Telemetry()
    res = UnSyncSystem(program, telemetry=tel,
                       injector=FaultInjector(2e-3, seed=3)).run()
    write_chrome(tel.events, "trace.json")   # open in ui.perfetto.dev
    tel.metrics.snapshot()                   # JSON-ready metric dump
"""

from __future__ import annotations

from repro.telemetry.events import EventLog
from repro.telemetry.metrics import MetricsRegistry


class Telemetry:
    """Live telemetry: a metrics registry plus an event log."""

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.events = EventLog()


__all__ = ["Telemetry"]
