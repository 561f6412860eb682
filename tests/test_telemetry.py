"""Tests for repro.telemetry: metrics, events, Chrome export, wiring."""

import json
from pathlib import Path

import pytest

from repro.faults.injector import FaultInjector
from repro.harness.runner import run_scheme
from repro.telemetry import MetricsRegistry, Telemetry
from repro.telemetry.chrome import to_chrome, validate_chrome, write_chrome
from repro.telemetry.events import (
    CB_DRAIN, EIH_INTERRUPT, EIH_RECOVERY, EventLog, FAULT_DETECTED,
    FAULT_INJECTED, FP_COMPARE,
)
from repro.telemetry.metrics import Histogram
from repro.telemetry.summary import summarize_path, summarize_snapshot
from repro.workloads import load_workload


@pytest.fixture(scope="module")
def checksum():
    return load_workload("checksum")


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------
def test_counter_gauge_histogram_basics(monkeypatch):
    monkeypatch.setattr(Histogram, "bounds", (10, 100))
    reg = MetricsRegistry()
    reg.counter("a.b").inc()
    reg.counter("a.b").inc(4)
    assert reg.counter("a.b").value == 5
    reg.gauge("occ").set(7)
    reg.gauge("occ").set(2)
    assert reg.gauge("occ").value == 2
    h = reg.histogram("lat")
    for v in (5, 50, 500):
        h.observe(v)
    assert h.buckets == [1, 1, 1]          # <=10, <=100, +inf overflow
    assert h.count == 3 and h.mean == pytest.approx(555 / 3)


def test_registry_instruments_are_singletons_per_name():
    reg = MetricsRegistry()
    assert reg.counter("x") is reg.counter("x")
    assert reg.histogram("h") is reg.histogram("h")


def test_merge_counters_and_snapshot():
    reg = MetricsRegistry()
    reg.merge_counters({"b": 2.0, "a": 1.0})
    reg.merge_counters({"a": 3.0})
    snap = reg.snapshot()
    assert snap["counters"] == {"a": 4.0, "b": 2.0}
    assert list(snap["counters"]) == ["a", "b"]  # sorted
    json.dumps(snap)  # JSON-ready


def test_systems_observe_histograms_only_with_telemetry():
    from repro.redundancy.pair import BaselineSystem
    program = load_workload("fibonacci")
    tel = Telemetry()
    BaselineSystem(program, telemetry=tel)._observe("x.latency", 5)
    assert tel.metrics.snapshot()["histograms"]["x.latency"]["count"] == 1
    BaselineSystem(program)._observe("x.latency", 5)  # off: nothing to feed


# ---------------------------------------------------------------------------
# event log
# ---------------------------------------------------------------------------
def test_event_log_tracks_and_by_name():
    log = EventLog()
    log.emit("a.one", 5, "core0")
    log.emit("a.two", 6, "cb", dur=3, args={"n": 2})
    log.emit("a.one", 9, "core0")
    assert len(log) == 3
    assert log.tracks() == ["core0", "cb"]
    assert [e.ts for e in log.by_name("a.one")] == [5, 9]
    d = log.by_name("a.two")[0].to_dict()
    assert d == {"name": "a.two", "ts": 6, "track": "cb", "dur": 3,
                 "args": {"n": 2}}


def test_event_log_bounded(monkeypatch):
    monkeypatch.setattr(EventLog, "limit", 2)
    log = EventLog()
    for ts in range(5):
        log.emit("x", ts, "t")
    assert len(log) == 2 and log.dropped == 3


def test_event_log_jsonl_roundtrip(tmp_path):
    log = EventLog()
    log.emit("a", 1, "t")
    log.emit("b", 2, "t", dur=4)
    path = tmp_path / "ev.jsonl"
    log.write_jsonl(str(path))
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert lines == [{"name": "a", "ts": 1, "track": "t"},
                     {"name": "b", "ts": 2, "track": "t", "dur": 4}]


# ---------------------------------------------------------------------------
# Chrome trace export
# ---------------------------------------------------------------------------
def test_to_chrome_structure():
    log = EventLog()
    log.emit("fault.injected", 10, "core0")
    log.emit("eih.recovery", 12, "eih", dur=40, args={"core": 0})
    doc = to_chrome(log)
    recs = doc["traceEvents"]
    meta = [r for r in recs if r["ph"] == "M"]
    assert [m["args"]["name"] for m in meta] == ["core0", "eih"]
    span = [r for r in recs if r["ph"] == "X"][0]
    assert span["dur"] == 40.0 and span["cat"] == "eih"
    instant = [r for r in recs if r["ph"] == "i"][0]
    assert instant["s"] == "t" and instant["cat"] == "fault"
    assert validate_chrome(doc) == []


def test_validate_chrome_catches_non_monotonic_track():
    log = EventLog()
    log.emit("a", 10, "t")
    log.emit("b", 4, "t")
    problems = validate_chrome(to_chrome(log))
    assert problems and "monotonic" in problems[0]


def test_validate_chrome_catches_structural_damage(tmp_path):
    assert validate_chrome({"nope": 1}) == ["no traceEvents array"]
    assert validate_chrome({"traceEvents": [{"ph": "i"}]})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert "unreadable" in validate_chrome(str(bad))[0]


# ---------------------------------------------------------------------------
# system wiring: UnSync end-to-end
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def unsync_traced(checksum):
    tel = Telemetry()
    res = run_scheme("unsync", checksum, telemetry=tel,
                     injector=FaultInjector(0.002, seed=3))
    return tel, res


def test_unsync_injected_run_emits_detection_chain(unsync_traced):
    tel, res = unsync_traced
    assert res.metrics["unsync.eih.recoveries"] > 0
    injected = tel.events.by_name(FAULT_INJECTED)
    detected = tel.events.by_name(FAULT_DETECTED)
    interrupts = tel.events.by_name(EIH_INTERRUPT)
    recoveries = tel.events.by_name(EIH_RECOVERY)
    assert injected and detected and interrupts and recoveries
    # causality: strike <= detection <= EIH interrupt, recovery is a span
    assert injected[0].ts <= detected[0].ts <= interrupts[0].ts
    assert recoveries[0].dur > 0
    assert recoveries[0].track == "eih"
    assert tel.events.by_name(CB_DRAIN)


def test_unsync_trace_export_is_valid(unsync_traced, tmp_path):
    tel, _ = unsync_traced
    path = tmp_path / "trace.json"
    doc = write_chrome(tel.events, str(path))
    assert validate_chrome(doc) == []
    assert validate_chrome(str(path)) == []


def test_run_metrics_cover_all_layers(unsync_traced):
    tel, res = unsync_traced
    assert res.metrics["core0.pipeline.committed"] > 0
    assert res.metrics["core1.pipeline.committed"] > 0
    assert res.metrics["core0.l1i.hits"] > 0
    assert res.metrics["unsync.cb.pushes"] > 0
    assert res.metrics["unsync.cb.max_occupancy"] > 0
    # registry saw the same rollup plus the live histograms
    snap = tel.metrics.snapshot()
    assert snap["counters"]["unsync.cb.pushes"] == \
        res.metrics["unsync.cb.pushes"]
    assert snap["histograms"]["unsync.detection.latency"]["count"] > 0
    assert snap["histograms"]["unsync.recovery.duration"]["count"] > 0


def test_telemetry_does_not_perturb_timing(checksum):
    off = run_scheme("unsync", checksum,
                     injector=FaultInjector(0.002, seed=3))
    on = run_scheme("unsync", checksum, telemetry=Telemetry(),
                    injector=FaultInjector(0.002, seed=3))
    assert on.cycles == off.cycles
    assert on.instructions == off.instructions
    # disabled runs still report the full metric rollup
    assert on.metrics == off.metrics


# ---------------------------------------------------------------------------
# system wiring: Reunion
# ---------------------------------------------------------------------------
def test_reunion_run_emits_fingerprint_compares(checksum, tmp_path):
    tel = Telemetry()
    res = run_scheme("reunion", checksum, telemetry=tel)
    compares = tel.events.by_name(FP_COMPARE)
    assert compares
    assert res.metrics["reunion.fingerprint.compared"] == len(compares)
    # verdict lands later than the compare decision, never before
    assert all(e.args["verified_at"] >= e.ts for e in compares)
    path = tmp_path / "reunion.json"
    write_chrome(tel.events, str(path))
    assert validate_chrome(str(path)) == []


# ---------------------------------------------------------------------------
# campaign rollup
# ---------------------------------------------------------------------------
def test_trial_metrics_roundtrip():
    from repro.campaign.spec import TrialSpec
    from repro.campaign.trial import TrialResult, run_trial
    res = run_trial(TrialSpec(scheme="unsync", workload="checksum",
                              ser=0.002, seed=3))
    assert res.metrics  # integral scheme-level counters only
    assert all(not k.startswith("core") for k in res.metrics)
    assert res.metrics["unsync.cb.pushes"] > 0
    back = TrialResult.from_record(
        json.loads(json.dumps(res.to_record())))
    assert back.metrics == res.metrics


def test_trial_metrics_filter():
    from repro.campaign.trial import trial_metrics
    assert trial_metrics({"core0.x": 5, "unsync.a": 3.0, "unsync.b": 0,
                          "unsync.c": 1.5}) == {"unsync.a": 3}


def test_aggregate_sums_metrics():
    from repro.campaign.spec import TrialSpec
    from repro.campaign.aggregate import Aggregator
    from repro.campaign.trial import run_trial
    agg = Aggregator()
    trials = [run_trial(TrialSpec(scheme="unsync", workload="checksum",
                                  ser=0.002, seed=s)) for s in (3, 4)]
    for t in trials:
        agg.add(t)
    cell = next(iter(agg.cells.values()))
    assert cell.summary()["metrics"]["unsync.cb.pushes"] == \
        sum(t.metrics["unsync.cb.pushes"] for t in trials)


# ---------------------------------------------------------------------------
# summaries + CLI
# ---------------------------------------------------------------------------
def test_summarize_snapshot_shape():
    reg = MetricsRegistry()
    reg.counter("a").inc(2)
    reg.histogram("h").observe(10)
    s = summarize_snapshot(reg.snapshot())
    assert s["kind"] == "snapshot"
    assert s["counters"] == {"a": 2}
    assert s["histograms"]["h"] == {"count": 1, "mean": 10.0}


def test_summarize_path_autodetects(tmp_path, checksum):
    tel = Telemetry()
    run_scheme("unsync", checksum, telemetry=tel)
    snap_path = tmp_path / "metrics.json"
    snap_path.write_text(json.dumps(tel.metrics.snapshot()))
    s = summarize_path(str(snap_path))
    assert s["kind"] == "snapshot" and s["counters"]


def test_summarize_store_sums_each_cells_trial_metrics():
    """``metrics summarize STORE``: per-cell and total sums of the trial
    records' metrics, cells in sorted order."""
    path = Path(__file__).parent / "data" / \
        "golden_unsync_reunion_adversarial.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    trials = [r for r in records if r["kind"] == "trial"]
    cells, totals = {}, {}
    for r in trials:
        cell = cells.setdefault(r["cell"], {"trials": 0, "metrics": {}})
        cell["trials"] += 1
        for name, value in r["metrics"].items():
            cell["metrics"][name] = cell["metrics"].get(name, 0) + value
            totals[name] = totals.get(name, 0) + value
    s = summarize_path(str(path))
    assert s["kind"] == "campaign" and s["trials"] == len(trials)
    assert list(s["cells"]) == sorted(cells)
    assert s["cells"] == cells and s["totals"] == totals
    assert totals  # the fixture's trials do carry metrics


@pytest.mark.parametrize("name", ["gone.jsonl", "gone.json"])
def test_cli_metrics_summarize_missing_path(tmp_path, name):
    from repro.cli import main
    with pytest.raises(SystemExit, match="no metrics snapshot or "
                                         "campaign store at"):
        main(["metrics", "summarize", str(tmp_path / name)])


def test_cli_metrics_summarize_rejects_a_file_that_is_neither(tmp_path):
    from repro.cli import main
    path = tmp_path / "other.json"
    path.write_text('{"answer": 42}\n')
    with pytest.raises(SystemExit, match="not a spec header"):
        main(["metrics", "summarize", str(path)])


def test_cli_trace_run_and_metrics_summarize(tmp_path, capsys):
    from repro.cli import main
    out = tmp_path / "t.json"
    met = tmp_path / "m.json"
    rc = main(["trace", "run", "checksum", "--inject", "0.002",
               "--seed", "3", "--out", str(out), "--metrics", str(met)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "eih.recovery" in text
    assert validate_chrome(str(out)) == []
    rc = main(["metrics", "summarize", str(met)])
    assert rc == 0
    assert "unsync.cb.pushes" in capsys.readouterr().out
