import json

import pytest

from perfbench import ledger

MS = 1_000_000  # ns
CELL = "unsync/fibonacci/0.01"
LEASE = "job-000001-v1-0"


def _span(name, layer, t0, t1, sid, ident, parent=0):
    return [name, layer, t0 * MS, t1 * MS, sid, parent, 1, ident]


def _served_trace(tmp_path):
    server = {
        "pid": 10, "ppid": 1, "role": "serve", "counters": {},
        "by_tag": {}, "missing": [],
        "stats": {"repro.service.journal.JobJournal.record":
                  ["service", 3, 3 * MS, 0]},
        "spans": [
            _span("job.submit", "service", 0, 1, 1, "job-000001"),
            _span("job.run", "service", 3, 1000, 2, "job-000001"),
            _span("lease.offer", "service", 10, 11, 3,
                  [[LEASE, [[CELL, 0], [CELL, 1]]]]),
            _span("lease.claim", "service", 200, 201, 4, None),
            _span("lease.claim", "service", 509, 510, 5, LEASE),
            _span("lease.complete", "service", 600, 601, 6, LEASE),
            _span("store.append", "campaign", 640, 641, 7, [CELL, 0]),
            _span("store.append", "campaign", 641, 642, 8, [CELL, 1]),
        ]}
    worker = {
        "pid": 11, "ppid": 1, "role": "worker", "counters": {},
        "by_tag": {}, "missing": [], "stats": {},
        "spans": [_span("http", "blocked", 508, 510, 1,
                        ["POST", "/api/workers/w0001/claim"])]}
    client = {
        "pid": 12, "ppid": 1, "role": "benchmark client", "counters": {},
        "by_tag": {}, "missing": [], "stats": {},
        "spans": [_span("client", "blocked", 0, 3, 1, "submit"),
                  _span("client", "blocked", 5, 6, 2, "status")]}
    for proc in (server, worker, client):
        (tmp_path / f"proc-{proc['pid']}.json").write_text(json.dumps(proc))
    return str(tmp_path)


def test_lease_and_scheduler_latencies_from_spans(tmp_path):
    doc = ledger.build(_served_trace(tmp_path), "served", {})
    m = doc["metrics"]
    assert m["service.scheduler.queue_wait_p50_s"] == pytest.approx(0.002)
    assert m["service.workers.claims"] == 2
    assert m["service.workers.claim_hit_frac"] == 0.5
    assert m["service.workers.lease_wait_p50_s"] == pytest.approx(0.5)
    assert m["service.workers.lease_run_p50_s"] == pytest.approx(0.09)
    assert m["service.workers.post_to_append_p50_s"] == pytest.approx(0.04)
    assert m["service.http.claim.p50_ms"] == pytest.approx(2.0)
    assert m["service.http.submit.p50_ms"] == pytest.approx(3.0)
    assert m["service.http.status.p50_ms"] == pytest.approx(1.0)
    assert m["service.journal.writes"] == 3
    assert doc["served_job"] == pytest.approx({
        "queue_s": 0.002, "engine_start_s": 0.007, "claim_wait_s": 0.5,
        "worker_s": 0.09, "post_to_append_s": 0.041,
        "engine_finish_s": 0.359, "job_s": 0.997, "jobs": 1})


def test_start_latency_is_each_wave_until_its_first_trial(tmp_path):
    coordinator = {
        "pid": 20, "ppid": 1, "role": "campaign run", "counters": {},
        "by_tag": {}, "missing": [], "stats": {},
        "spans": [_span("campaign", "campaign", 0, 100, 1, None),
                  _span("wave", "campaign", 10, 40, 2, 4, parent=1),
                  _span("wave", "campaign", 50, 90, 3, 4, parent=1)]}
    # trials run in another process: 30 ms into the first wave, 5 ms
    # into the second; the later trials of each wave do not count
    pool = {
        "pid": 21, "ppid": 20, "role": "campaign pool-worker",
        "counters": {}, "by_tag": {}, "missing": [], "stats": {},
        "spans": [_span("trial", "campaign", t0, t0 + 2, i, [CELL, i])
                  for i, t0 in enumerate((40, 45, 55, 60), 1)]}
    for proc in (coordinator, pool):
        (tmp_path / f"proc-{proc['pid']}.json").write_text(json.dumps(proc))
    m = ledger.build(str(tmp_path), "tiny", {"workers": 2})["metrics"]
    assert m["campaign.engine.waves"] == 2
    assert m["campaign.executor.start_latency_p50_s"] == pytest.approx(
        (0.030 + 0.005) / 2)


def test_chrome_trace_has_one_event_per_span_and_named_processes(tmp_path):
    ledger.build(_served_trace(tmp_path), "served", {})
    with open(tmp_path / "trace.json") as fh:
        events = json.load(fh)["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    names = [e for e in events if e["ph"] == "M"]
    assert len(spans) == 11
    assert min(e["ts"] for e in spans) == 0
    assert {e["args"]["name"] for e in names} == {
        "serve (10)", "worker (11)", "benchmark client (12)"}
