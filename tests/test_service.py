"""Campaign service tests: job journal, asyncio scheduler (FIFO
admission, cancellation, drain), the HTTP API round-trip, and restart
re-adoption with no lost or duplicated trials."""

import asyncio
import json
import os
import socket
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.campaign import CampaignError, CampaignSpec, TrialResult
from repro.campaign.engine import run_campaign
from repro.service import journal as journal_mod
from repro.service.client import ServiceClient, ServiceError
from repro.service.journal import JobJournal, JournalLocked
from repro.service.scheduler import (
    CANCELLED, DONE, QUEUED, RUNNING, SUSPENDED, JobScheduler,
)
from repro.service.server import CampaignService, spec_from_request
from repro.service.workers import LeaseBroker


def small_spec(**overrides):
    base = dict(schemes=("unsync",), workloads=("fibonacci",),
                sers=(0.01,), trials=4, batch=2)
    base.update(overrides)
    return CampaignSpec(**base)


def fast_runner(trial):
    """Deterministic stand-in for the simulator: seconds become ms."""
    strikes = 1 + trial.seed % 2
    return TrialResult(scheme=trial.scheme, workload=trial.workload,
                       ser=trial.ser, seed=trial.seed, cycles=100,
                       instructions=120, strikes=strikes,
                       outcomes={"detected-recovered": strikes},
                       recovery_cycles=10 * strikes)


def make_scheduler(tmp_path, **kwargs):
    kwargs.setdefault("journal", JobJournal(tmp_path / "journal.jsonl"))
    kwargs.setdefault("broker", LeaseBroker())
    kwargs.setdefault("runner", fast_runner)
    kwargs.setdefault("default_workers", 1)
    return JobScheduler(tmp_path, **kwargs)


def run_until_settled(sched, timeout=30.0):
    """Drive the scheduler loop until no job is queued or running."""
    async def drive():
        task = asyncio.create_task(sched.run())
        deadline = asyncio.get_running_loop().time() + timeout
        while any(j.state in (QUEUED, RUNNING) for j in sched.jobs()):
            if asyncio.get_running_loop().time() > deadline:
                break
            await asyncio.sleep(0.01)
        sched.request_stop()
        await task
    asyncio.run(drive())


# ---------------------------------------------------------------------------
# journal
# ---------------------------------------------------------------------------
def test_journal_replay_keeps_last_state(tmp_path):
    journal = JobJournal(tmp_path / "j.jsonl")
    journal.submitted("job-000001", spec={"trials": 4}, store="s.jsonl",
                      workers=1, fingerprint="abc")
    journal.started("job-000001")
    journal.submitted("job-000002", spec={}, store="s2.jsonl",
                      workers=None, fingerprint="def")
    journal.finished("job-000001")
    entries = {e.job_id: e for e in journal.replay()}
    assert entries["job-000001"].terminal
    assert entries["job-000001"].state == "finished"
    assert entries["job-000002"].state == "submitted"
    assert [e.job_id for e in journal.orphans()] == ["job-000002"]
    assert journal.next_job_number() == 3


def test_journal_tolerates_torn_final_line(tmp_path):
    journal = JobJournal(tmp_path / "j.jsonl")
    journal.submitted("job-000001", spec={}, store="s", workers=None,
                      fingerprint="")
    with open(journal.path, "a") as fh:
        fh.write('{"event": "fini')  # killed mid-append
    assert [e.job_id for e in journal.orphans()] == ["job-000001"]


def test_journal_rejects_mid_file_garbage(tmp_path):
    journal = JobJournal(tmp_path / "j.jsonl")
    with open(journal.path, "w") as fh:
        fh.write("not json\n")
        fh.write('{"event": "started", "job_id": "job-000001"}\n')
    with pytest.raises(ValueError):
        journal.replay()


def test_journal_lock_blocks_double_adoption(tmp_path):
    """Regression: two servers over one data dir must not both re-adopt
    (and both restart) the same orphaned jobs."""
    submitter = make_scheduler(tmp_path)
    orphan = submitter.submit(small_spec())  # journaled, never run
    sched1 = make_scheduler(tmp_path)
    adopted = sched1.adopt_orphans()  # first server owns the journal now
    assert [j.job_id for j in adopted] == [orphan.job_id]
    sched2 = make_scheduler(tmp_path)  # fresh JobJournal, same path
    with pytest.raises(JournalLocked) as err:
        sched2.adopt_orphans()
    assert str(os.getpid()) in str(err.value)
    # the loser adopted nothing: no duplicate Job for the orphan
    assert sched2.jobs() == []
    sched1.journal.release_lock()


def test_journal_lock_released_by_scheduler_run(tmp_path):
    """run()'s finally releases the lock, so a sequential restart (the
    normal adopt -> crash/stop -> adopt again cycle) just works."""
    submitter = make_scheduler(tmp_path)
    submitter.submit(small_spec())
    sched1 = make_scheduler(tmp_path)
    adopted = sched1.adopt_orphans()
    run_until_settled(sched1)
    assert adopted[0].state == DONE
    assert not os.path.exists(sched1.journal.lock_path)
    sched2 = make_scheduler(tmp_path)
    assert sched2.adopt_orphans() == []  # lock re-acquired cleanly
    sched2.journal.release_lock()


def test_journal_stale_lock_is_broken(tmp_path, monkeypatch):
    """A lock left by a dead process (or with no pid and long expired)
    must not wedge every future restart."""
    journal = JobJournal(tmp_path / "journal.jsonl")
    # a pid that existed and is now certainly gone
    proc = subprocess.Popen([sys.executable, "-c", ""])
    proc.wait()
    with open(journal.lock_path, "w") as fh:
        json.dump({"pid": proc.pid, "created": 0.0}, fh)
    journal.acquire_lock()  # breaks the stale lock, takes ownership
    assert journal._read_lock()["pid"] == os.getpid()
    journal.release_lock()
    # pid-less lock: stale only once older than the grace window
    with open(journal.lock_path, "w") as fh:
        json.dump({"created": time.time()}, fh)
    with pytest.raises(JournalLocked):
        journal.acquire_lock()
    monkeypatch.setattr(journal_mod, "STALE_LOCK_SECONDS", 0.0)
    journal.acquire_lock()
    journal.release_lock()


def test_journal_lock_with_our_pid_and_no_holder_is_broken(tmp_path):
    """A server restarted under its dead predecessor's pid (pid 1 in a
    restarted container) takes over the lock that predecessor left; a
    live journal of this process still blocks a second one."""
    journal = JobJournal(tmp_path / "journal.jsonl")
    with open(journal.lock_path, "w") as fh:
        json.dump({"pid": os.getpid(), "created": time.time()}, fh)
    journal.acquire_lock()
    with pytest.raises(JournalLocked):
        JobJournal(tmp_path / "journal.jsonl").acquire_lock()
    journal.release_lock()
    assert not os.path.exists(journal.lock_path)


# ---------------------------------------------------------------------------
# scheduler
# ---------------------------------------------------------------------------
def test_scheduler_runs_job_to_done(tmp_path):
    sched = make_scheduler(tmp_path)
    job = sched.submit(small_spec())
    run_until_settled(sched)
    assert job.state == DONE
    assert job.trials_done == 4
    assert job.summary["totals"]["trials"] == 4
    assert sched.metrics.counter("service.trials.completed").value == 4


def test_scheduler_admits_fifo(tmp_path):
    sched = make_scheduler(tmp_path)  # default: one running job at a time
    jobs = [sched.submit(small_spec(seed_base=i)) for i in range(3)]
    for job in jobs:
        assert sched._runnable() is job  # oldest queued job first
        job.state = RUNNING
        assert sched._runnable() is None  # max_concurrent reached
        job.state = DONE
    assert sched._runnable() is None  # nothing left to admit


def test_cancel_queued_job_never_runs(tmp_path):
    sched = make_scheduler(tmp_path, max_concurrent=1)
    first = sched.submit(small_spec())
    second = sched.submit(small_spec(seed_base=1))
    assert sched.cancel(second.job_id)
    run_until_settled(sched)
    assert first.state == DONE
    assert second.state == CANCELLED
    assert second.trials_done == 0
    # cancellation is terminal: a restart does not re-adopt it
    assert sched.journal.orphans() == []


def test_rollup_shape(tmp_path):
    sched = make_scheduler(tmp_path)
    sched.submit(small_spec())
    run_until_settled(sched)
    rollup = sched.rollup()
    assert rollup["totals"]["trials"] == 4
    assert set(rollup["totals"]["rates"]) == \
        {"sdc", "due", "recovered", "hang", "crash"}
    for interval in rollup["totals"]["rates"].values():
        assert {"estimate", "low", "high"} <= set(interval)
    assert rollup["trials_per_sec"] >= 0.0


def test_adopt_orphans_resumes_without_duplicates(tmp_path):
    """A server restart re-adopts the journaled job and the store's
    (cell, seed) keying guarantees no trial is lost or run twice."""
    sched1 = make_scheduler(tmp_path)
    job = sched1.submit(small_spec(trials=6, batch=2))
    # simulate a crash after the first wave: run the engine directly
    # against the job's store for one batch worth of trials
    store = sched1._make_store(job)
    store.create(job.spec)
    for trial in job.spec.expand()[:2]:
        store.append_trial(fast_runner(trial).to_record())
    # restart: a fresh scheduler over the same journal and data dir
    sched2 = make_scheduler(tmp_path)
    adopted = sched2.adopt_orphans()
    assert [j.job_id for j in adopted] == [job.job_id]
    assert adopted[0].store_path == job.store_path
    run_until_settled(sched2)
    assert adopted[0].state == DONE
    # resumed 2, ran 4 — and every (cell, seed) appears exactly once
    with open(job.store_path) as fh:
        records = [json.loads(line) for line in fh][1:]
    keys = [(r["cell"], r["seed"]) for r in records]
    assert len(keys) == 6
    assert len(set(keys)) == 6
    # job numbering continues after the restart instead of colliding
    assert sched2.submit(small_spec()).job_id != job.job_id


def test_adopt_orphans_rejects_fingerprint_mismatch(tmp_path):
    journal = JobJournal(tmp_path / "journal.jsonl")
    journal.submitted("job-000001", spec=small_spec().to_dict(),
                      store="s.jsonl", workers=1,
                      fingerprint="not-the-real-fingerprint")
    sched = make_scheduler(tmp_path, journal=journal)
    assert sched.adopt_orphans() == []
    assert journal.orphans() == []  # marked failed, not left dangling


def test_drain_suspends_running_job_for_readoption(tmp_path):
    gate = threading.Event()

    def slow_runner(trial):
        gate.wait(timeout=10.0)
        return fast_runner(trial)

    sched = make_scheduler(tmp_path, runner=slow_runner)
    job = sched.submit(small_spec(trials=6, batch=2))

    async def drive():
        task = asyncio.create_task(sched.run())
        while job.state != RUNNING:
            await asyncio.sleep(0.01)
        sched.request_stop()  # drain: engine stops at a wave boundary
        gate.set()
        await task
    asyncio.run(drive())
    assert job.state == SUSPENDED
    assert 0 < job.trials_done < 6
    # suspended jobs are exactly what a restarted server re-adopts
    assert [e.job_id for e in sched.journal.orphans()] == [job.job_id]
    sched2 = make_scheduler(tmp_path)
    adopted = sched2.adopt_orphans()
    run_until_settled(sched2)
    assert adopted[0].state == DONE
    assert adopted[0].trials_done == 6  # the suspended run's trials too


def test_readopted_job_counts_the_trials_its_store_held(tmp_path):
    """Re-adopted with 4 of its 8 trials on disk, a job ends counting all
    8, while the service's trial counter counts the 4 this server ran."""
    spec = small_spec(trials=8, batch=4)
    full = tmp_path / "full.jsonl"
    run_campaign(spec, full, workers=1, runner=fast_runner)
    store = tmp_path / "job-000001" / "store.jsonl"
    store.parent.mkdir()
    store.write_bytes(b"".join(full.read_bytes().splitlines(True)[:5]))
    JobJournal(tmp_path / "journal.jsonl").submitted(
        "job-000001", spec=spec.to_dict(), store=str(store), workers=1,
        fingerprint=spec.fingerprint())
    sched = make_scheduler(tmp_path)
    [job] = sched.adopt_orphans()
    run_until_settled(sched)
    assert job.state == DONE
    assert job.trials_done == job.status()["total_trials"] == 8
    assert sched.rollup()["totals"]["trials"] == 8
    assert sched.metrics.snapshot()["counters"][
        "service.trials.completed"] == 4
    assert store.read_bytes() == full.read_bytes()


def test_drain_under_cancellation_storm(tmp_path):
    """Cancel every job mid-drain: states settle to CANCELLED/DONE only,
    the journal holds no orphans, and no engine thread leaks."""
    gate = threading.Event()

    def slow_runner(trial):
        gate.wait(timeout=10.0)
        return fast_runner(trial)

    threads_before = set(threading.enumerate())
    sched = make_scheduler(tmp_path, runner=slow_runner, max_concurrent=3)
    jobs = [sched.submit(small_spec(trials=6, batch=2, seed_base=10 * i))
            for i in range(8)]

    async def drive():
        task = asyncio.create_task(sched.run())
        while sum(1 for j in jobs if j.state == RUNNING) < 3:
            await asyncio.sleep(0.01)
        sched.request_stop()  # drain begins with 3 running, 5 queued
        for job in jobs:      # ...and the storm cancels all of them
            sched.cancel(job.job_id)
        gate.set()
        await task
    asyncio.run(drive())

    # every job reached a terminal state, none wedged mid-transition
    assert {j.state for j in jobs} <= {CANCELLED, DONE}
    assert sum(1 for j in jobs if j.state == CANCELLED) >= 5
    # cancelled jobs stopped at wave boundaries: only whole, durable
    # trial records, never more than the grid
    for job in jobs:
        assert 0 <= job.trials_done <= 6
    # cancelled is terminal, so a restarted server re-adopts nothing
    assert sched.journal.orphans() == []
    sched2 = make_scheduler(tmp_path)
    assert sched2.adopt_orphans() == []
    sched2.journal.release_lock()
    # no engine threads leak past the drain
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        leaked = [t for t in threading.enumerate()
                  if t not in threads_before and t.is_alive()]
        if not leaked:
            break
        time.sleep(0.05)
    assert leaked == []


def test_older_journal_submission_still_readopts(tmp_path):
    """A ``submitted`` line written before the scheduler went FIFO
    carries ``tenant``, ``priority``, ``shards`` and the execution mode
    the service used to record; replay ignores those keys and the job
    still re-adopts to completion."""
    spec = small_spec()
    store = tmp_path / "job-000001" / "store.jsonl"
    line = {"event": "submitted", "job_id": "job-000001",
            "spec": spec.to_dict(), "tenant": "default", "priority": 0,
            "store": str(store), "shards": 0, "workers": 1,
            "exec_mode": "full", "fingerprint": spec.fingerprint()}
    (tmp_path / "journal.jsonl").write_text(
        json.dumps(line, sort_keys=True) + "\n")
    sched = make_scheduler(tmp_path)
    adopted = sched.adopt_orphans()
    assert [j.job_id for j in adopted] == ["job-000001"]
    assert adopted[0].store_path == str(store)
    run_until_settled(sched)
    assert adopted[0].state == DONE
    assert adopted[0].trials_done == 4
    assert sched.journal.orphans() == []


# ---------------------------------------------------------------------------
# submission validation
# ---------------------------------------------------------------------------
def test_spec_from_request_validates():
    good = {"schemes": ["unsync"], "workloads": ["fibonacci"],
            "sers": [0.01], "trials": 4, "workers": 1}
    assert spec_from_request(good).trials == 4
    for bad in ({"schemes": ["unsync"], "workloads": ["fibonacci"]},
                {"schemes": ["unsync"], "workloads": ["nope"],
                 "sers": [0.01]},
                dict(good, bogus_field=1),
                []):
        with pytest.raises(CampaignError):
            spec_from_request(bad)
    for bad in (dict(good, tenant="t"), dict(good, priority=3),
                dict(good, shards=2)):
        with pytest.raises(CampaignError, match="unknown submission"):
            spec_from_request(bad)


# ---------------------------------------------------------------------------
# HTTP round-trip
# ---------------------------------------------------------------------------
@pytest.fixture()
def service(tmp_path, monkeypatch):
    monkeypatch.setattr(CampaignService, "stream_interval", 0.05)
    sched = make_scheduler(tmp_path, max_concurrent=2)
    svc = CampaignService(sched, port=0)
    loop = asyncio.new_event_loop()

    def run():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(svc.start())
        try:
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    deadline = time.monotonic() + 10.0
    while not svc.port and time.monotonic() < deadline:
        time.sleep(0.01)
    yield svc, ServiceClient("127.0.0.1", svc.port, timeout=10.0)
    asyncio.run_coroutine_threadsafe(svc.stop(), loop).result(timeout=30)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=10)


def test_http_round_trip(service):
    svc, client = service
    assert client.healthz()["ok"] is True
    job = client.submit({"schemes": ["unsync"],
                         "workloads": ["fibonacci"],
                         "sers": [0.01], "trials": 4, "batch": 2})
    status = client.wait(job["job_id"], timeout=30.0)
    assert status["state"] == "done"
    assert status["trials_done"] == 4
    results = client.results(job["job_id"])
    assert results["summary"]["totals"]["trials"] == 4
    assert any(j["job_id"] == job["job_id"] for j in client.jobs())
    metrics = client.metrics()
    assert metrics["rollup"]["totals"]["trials"] == 4
    assert "service.trials.completed" in str(metrics["registry"])


def test_http_errors(service):
    svc, client = service
    with pytest.raises(ServiceError) as err:
        client.submit({"schemes": ["unsync"], "workloads": ["nope"],
                       "sers": [0.01]})
    assert err.value.status == 400
    with pytest.raises(ServiceError) as err:
        client.status("job-999999")
    assert err.value.status == 404
    with pytest.raises(ServiceError) as err:
        client._request("PUT", "/api/jobs")
    assert err.value.status == 405


def test_http_malformed_content_length_is_a_bad_request(service):
    svc, client = service
    for value in ("abc", "-5"):
        with socket.create_connection(("127.0.0.1", svc.port),
                                      timeout=5) as sock:
            sock.sendall(f"POST /api/jobs HTTP/1.1\r\n"
                         f"Content-Length: {value}\r\n\r\n".encode())
            reply = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), (value, reply)
        assert json.loads(body) == {"error": "bad request"}
    assert client.healthz()["ok"] is True


def test_http_submit_rejects_bad_workers_before_journaling(service):
    svc, client = service
    body = {"schemes": ["unsync"], "workloads": ["fibonacci"],
            "sers": [0.01], "trials": 2, "batch": 2}
    for bad in ("abc", 0, -1, 1.5, True, [2]):
        with pytest.raises(ServiceError) as err:
            client.submit(dict(body, workers=bad))
        assert err.value.status == 400
        assert "workers" in err.value.message
    assert client.jobs() == []
    assert svc.scheduler.journal.replay() == []
    for good in (None, 2):
        job = client.submit(dict(body, workers=good))
        assert client.wait(job["job_id"], timeout=30.0)["state"] == "done"


def test_http_submit_has_no_execution_mode(service):
    """Every job fast-forwards from cached prefixes: a submission naming
    an execution mode is refused, and job status reports none."""
    svc, client = service
    body = {"schemes": ["unsync"], "workloads": ["fibonacci"],
            "sers": [0.01], "trials": 2, "batch": 2}
    with pytest.raises(ServiceError) as err:
        client.submit(dict(body, exec_mode="full"))
    assert err.value.status == 400
    assert "exec_mode" in err.value.message
    job = client.submit(body)
    status = client.wait(job["job_id"], timeout=30.0)
    assert status["state"] == "done"
    assert "exec_mode" not in status


def test_http_stream_and_dashboard(service):
    svc, client = service
    client.submit({"schemes": ["unsync"], "workloads": ["fibonacci"],
                   "sers": [0.01], "trials": 4, "batch": 2})
    with urllib.request.urlopen(
            f"http://127.0.0.1:{svc.port}/api/stream", timeout=5) as resp:
        assert resp.headers["Content-Type"] == "text/event-stream"
        line = resp.readline().decode()
        assert line.startswith("data: ")
        rollup = json.loads(line[len("data: "):])
        assert "totals" in rollup and "jobs" in rollup
    with urllib.request.urlopen(
            f"http://127.0.0.1:{svc.port}/", timeout=5) as resp:
        page = resp.read().decode()
        assert "EventSource" in page and "/api/stream" in page


def test_http_cancel(service):
    svc, client = service
    # fill both slots so the third job stays queued and can be cancelled
    for seed in (10, 20):
        client.submit({"schemes": ["unsync"],
                       "workloads": ["fibonacci"], "sers": [0.01],
                       "trials": 4, "batch": 2, "seed_base": seed})
    victim = client.submit({"schemes": ["unsync"],
                            "workloads": ["fibonacci"], "sers": [0.01],
                            "trials": 4, "batch": 2, "seed_base": 30})
    cancelled = client.cancel(victim["job_id"])
    assert cancelled["state"] in ("cancelled", "running", "done")
