"""Distributed worker tier tests: lease broker, wave dispatcher,
worker loop over HTTP, chaos injection, and the byte-identity of
distributed stores against direct local runs."""

import asyncio
import dataclasses
import json
import threading
import time

import pytest

from repro.campaign import CampaignSpec, TrialResult, TrialSpec
from repro.campaign.engine import run_campaign
from repro.campaign.executor import ExecutionReport
from repro.campaign.snapshot import CACHE
from repro.campaign.trial import run_trial
from repro.service.chaos import ChaosConfig, ChaosController, ChaosError
from repro.service.client import ServiceClient, ServiceError
from repro.service.journal import JobJournal
from repro.service.scheduler import DONE, JobScheduler
from repro.campaign.store import ResultStore
from repro.service.server import CampaignService, spec_from_request
from repro.service.workers import (ABANDONED, PENDING, Lease, LeaseBroker,
                                   WaveDispatcher, WorkerClient, run_worker)
from repro.telemetry.metrics import MetricsRegistry


def small_spec(**overrides):
    base = dict(schemes=("unsync",), workloads=("fibonacci",),
                sers=(0.01,), trials=4, batch=2)
    base.update(overrides)
    return CampaignSpec(**base)


def fast_runner(trial):
    strikes = 1 + trial.seed % 2
    return TrialResult(scheme=trial.scheme, workload=trial.workload,
                       ser=trial.ser, seed=trial.seed, cycles=100,
                       instructions=120, strikes=strikes,
                       outcomes={"detected-recovered": strikes},
                       recovery_cycles=10 * strikes)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def wire_trials(spec):
    return [t for axes in spec.cells() for t in spec.cell_trials(*axes)]


def broker_worker(broker, stop, runner=fast_runner, name="t"):
    """In-thread worker driving the broker directly (no HTTP)."""
    session = broker.register(name)
    worker_id = session["worker_id"]
    while not stop.is_set():
        lease = broker.claim(worker_id)
        if lease is None:
            time.sleep(0.005)
            continue
        records = [runner(TrialSpec(**w)).to_record()
                   for w in lease["trials"]]
        broker.complete(worker_id, lease["lease_id"], records)


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------
def test_trial_wire_round_trip():
    for trial in wire_trials(small_spec(fault_model="adversarial",
                                        watchdog_cycles=5000)):
        wire = json.loads(json.dumps(dataclasses.asdict(trial)))
        assert TrialSpec(**wire) == trial


def test_spec_with_every_field_set_survives_every_decoder(tmp_path):
    """Store header, service submission and lease wire all decode a
    spec (and its trials) that sets every field off its default."""
    spec = CampaignSpec(schemes=("reptfd", "meek"),
                        workloads=("checksum", "sha"), sers=(0.002, 0.0),
                        trials=3, seed_base=11, ci_halfwidth=0.2, batch=2,
                        fault_model="adversarial", watchdog_cycles=7000)
    for f in dataclasses.fields(CampaignSpec):
        assert getattr(spec, f.name) != f.default, f.name
    record = json.loads(json.dumps(spec.to_dict()))
    assert CampaignSpec.from_dict(record) == spec
    store = ResultStore(str(tmp_path / "s.jsonl"))
    store.create(spec)
    assert store.load_spec() == spec
    assert spec_from_request(dict(record, workers=2)) == spec

    trials = spec.expand()
    for f in dataclasses.fields(TrialSpec):
        assert any(getattr(t, f.name) != f.default for t in trials), f.name
    broker = LeaseBroker(lease_ttl=10.0)
    worker_id = broker.register()["worker_id"]
    broker.offer([Lease(lease_id="L1", job_id="j", trials=trials)])
    payload = json.loads(json.dumps(broker.claim(worker_id)))
    assert [TrialSpec(**w) for w in payload["trials"]] == trials


# ---------------------------------------------------------------------------
# lease broker
# ---------------------------------------------------------------------------
def test_broker_register_claim_complete():
    clock = FakeClock()
    broker = LeaseBroker(lease_ttl=10.0, clock=clock)
    worker_id = broker.register("alpha")["worker_id"]
    trials = wire_trials(small_spec())
    broker.offer([Lease(lease_id="L1", job_id="j", trials=trials)])
    lease = broker.claim(worker_id)
    assert lease["lease_id"] == "L1"
    assert [TrialSpec(**w) for w in lease["trials"]] == trials
    assert broker.claim(worker_id) is None  # queue drained
    records = [fast_runner(t).to_record() for t in trials]
    assert broker.complete(worker_id, "L1", records) is True
    # duplicate completion (late at-least-once replay) is rejected
    assert broker.complete(worker_id, "L1", records) is False
    state, got = broker.poll(["L1"])["L1"]
    assert state == "done" and got == records
    counts = broker.stats()["counters"]
    assert counts["completed"] == 1 and counts["rejected"] == 1


def test_broker_counts_only_in_its_registry():
    registry = MetricsRegistry()
    broker = LeaseBroker(lease_ttl=10.0, clock=FakeClock(),
                         metrics=registry)
    assert not hasattr(broker, "counters")
    worker_id = broker.register("alpha")["worker_id"]
    broker.offer([Lease(lease_id="L1", job_id="j",
                        trials=wire_trials(small_spec())[:1])])
    broker.claim(worker_id)
    # reading the six counts adds no zero-valued counter to the registry
    assert broker.stats()["counters"] == {
        "granted": 1, "completed": 0, "expired": 0, "requeued": 0,
        "abandoned": 0, "rejected": 0}
    assert registry.snapshot()["counters"] == {"service.lease.granted": 1}


def test_broker_unknown_worker_claim_raises():
    broker = LeaseBroker(lease_ttl=1.0)
    with pytest.raises(KeyError):
        broker.claim("w9999")


def test_heartbeat_renews_lease_and_liveness():
    clock = FakeClock()
    broker = LeaseBroker(lease_ttl=10.0, clock=clock)
    worker_id = broker.register()["worker_id"]
    broker.offer([Lease(lease_id="L1", job_id="j",
                        trials=wire_trials(small_spec())[:1])])
    broker.claim(worker_id)
    clock.now += 8.0
    ack = broker.heartbeat(worker_id, ["L1"])
    assert ack == {"ok": True, "lost": []}
    clock.now += 8.0  # 16s after claim, 8s after renewal: still valid
    assert broker.expire_overdue() == 0
    assert broker.live_workers() == 1
    clock.now += 30.0
    assert broker.live_workers() == 0
    assert broker.heartbeat("w-nope", []) is None


def test_expired_lease_requeues_and_late_complete_is_first_wins():
    clock = FakeClock()
    broker = LeaseBroker(lease_ttl=5.0, clock=clock)
    dead = broker.register("dead")["worker_id"]
    heir = broker.register("heir")["worker_id"]
    trials = wire_trials(small_spec())[:2]
    broker.offer([Lease(lease_id="L1", job_id="j", trials=trials)])
    broker.claim(dead)
    clock.now += 6.0
    assert broker.expire_overdue() == 1
    assert broker.stats()["counters"]["requeued"] == 1
    state, _ = broker.poll(["L1"])["L1"]
    assert state == PENDING
    # the presumed-dead worker posts first: its work is valid, accepted
    clock.now += 1.5
    records = [fast_runner(t).to_record() for t in trials]
    assert broker.complete(dead, "L1", records) is True
    # the heir claims nothing (the requeue became a no-op)
    assert broker.claim(heir) is None
    # recovery latency was recorded for the expired->completed lease
    assert broker.stats()["recovery_latency_max"] > 0.0


def test_lease_abandoned_after_requeue_budget(monkeypatch):
    monkeypatch.setattr(LeaseBroker, "max_requeues", 2)
    clock = FakeClock()
    broker = LeaseBroker(lease_ttl=5.0, clock=clock)
    worker_id = broker.register()["worker_id"]
    broker.offer([Lease(lease_id="L1", job_id="j",
                        trials=wire_trials(small_spec())[:1])])
    for _ in range(2):
        assert broker.claim(worker_id)["lease_id"] == "L1"
        clock.now += 6.0
        assert broker.expire_overdue() == 1
    assert broker.claim(worker_id)["lease_id"] == "L1"
    clock.now += 6.0
    assert broker.expire_overdue() == 1
    state, _ = broker.poll(["L1"])["L1"]
    assert state == ABANDONED
    assert broker.stats()["counters"]["abandoned"] == 1
    # withdrawn for local execution; a late post is now rejected
    taken = broker.withdraw(["L1"])
    assert len(taken) == 1
    assert broker.complete(worker_id, "L1", []) is False


def test_withdraw_skips_done_leases():
    broker = LeaseBroker(lease_ttl=5.0)
    worker_id = broker.register()["worker_id"]
    broker.offer([Lease(lease_id="L1", job_id="j",
                        trials=wire_trials(small_spec())[:1])])
    lease = broker.claim(worker_id)
    broker.complete(worker_id, "L1",
                    [fast_runner(TrialSpec(**w)).to_record()
                     for w in lease["trials"]])
    assert broker.withdraw(["L1"]) == []


# ---------------------------------------------------------------------------
# wave dispatcher
# ---------------------------------------------------------------------------
def run_distributed(tmp_path, spec, n_workers=2):
    broker = LeaseBroker(lease_ttl=10.0)
    stop = threading.Event()
    threads = [threading.Thread(target=broker_worker,
                                args=(broker, stop), daemon=True)
               for _ in range(n_workers)]
    for thread in threads:
        thread.start()
    dispatcher = WaveDispatcher(broker, job_id="job-d")
    store = tmp_path / "dist.jsonl"
    try:
        summary = run_campaign(spec, store, runner=fast_runner,
                               workers=1, executor=dispatcher)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=5)
    return store, summary


def test_dispatcher_store_byte_identical_to_local_run(tmp_path,
                                                      monkeypatch):
    monkeypatch.setattr(WaveDispatcher, "poll_interval", 0.01)
    spec = small_spec(schemes=("unsync", "reunion"), trials=6, batch=2)
    direct = tmp_path / "direct.jsonl"
    run_campaign(spec, direct, runner=fast_runner, workers=1)
    dist, summary = run_distributed(tmp_path, spec)
    assert dist.read_bytes() == direct.read_bytes()
    assert summary.progress["trials_run"] == spec.total_trials


def test_dispatcher_local_fallback_when_no_worker_registers(tmp_path,
                                                           monkeypatch):
    monkeypatch.setattr(WaveDispatcher, "poll_interval", 0.01)
    spec = small_spec()
    broker = LeaseBroker(lease_ttl=10.0)
    dispatcher = WaveDispatcher(broker, job_id="job-f",
                                expect_workers=2, worker_wait=0.2)
    store = tmp_path / "fallback.jsonl"
    started = time.monotonic()
    run_campaign(spec, store, runner=fast_runner, workers=1,
                 executor=dispatcher)
    assert time.monotonic() - started < 5.0
    direct = tmp_path / "direct.jsonl"
    run_campaign(spec, direct, runner=fast_runner, workers=1)
    assert store.read_bytes() == direct.read_bytes()
    assert dispatcher._local_only is True


def test_dispatcher_opportunistic_without_expectations(tmp_path,
                                                      monkeypatch):
    """expect_workers=0: no one is live, waves run locally at once."""
    monkeypatch.setattr(WaveDispatcher, "poll_interval", 0.01)
    spec = small_spec()
    broker = LeaseBroker(lease_ttl=10.0)
    dispatcher = WaveDispatcher(broker, job_id="job-o")
    store = tmp_path / "opp.jsonl"
    started = time.monotonic()
    run_campaign(spec, store, runner=fast_runner, workers=1,
                 executor=dispatcher)
    assert time.monotonic() - started < 2.0
    assert dispatcher._local_only is False  # workers may still join


def test_dispatcher_survives_all_workers_dying_mid_wave(tmp_path,
                                                       monkeypatch):
    monkeypatch.setattr(WaveDispatcher, "poll_interval", 0.02)
    spec = small_spec(trials=6, batch=3)
    broker = LeaseBroker(lease_ttl=0.15)
    worker_id = broker.register("doomed")["worker_id"]

    def doomed():
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if broker.claim(worker_id) is not None:
                return  # dies holding the lease, never completes
            time.sleep(0.005)

    thread = threading.Thread(target=doomed, daemon=True)
    thread.start()
    dispatcher = WaveDispatcher(broker, job_id="job-x")
    report = ExecutionReport()
    store = tmp_path / "died.jsonl"

    # drive the engine manually so we can inspect the wave report
    summary = run_campaign(
        spec, store, runner=fast_runner, workers=1,
        executor=lambda *a, **kw: dispatcher(
            *a, **{**kw, "report": report}))
    thread.join(timeout=5)
    direct = tmp_path / "direct.jsonl"
    run_campaign(spec, direct, runner=fast_runner, workers=1)
    assert store.read_bytes() == direct.read_bytes()
    assert summary.progress["trials_run"] == spec.total_trials
    # the died-with-lease worker registered as an expiry/requeue
    assert report.worker_failures >= 1


def test_dispatcher_results_deduplicate_on_cell_seed(tmp_path):
    """A lease completed twice (late replay) contributes once."""
    broker = LeaseBroker(lease_ttl=10.0)
    trials = wire_trials(small_spec())
    worker_id = broker.register()["worker_id"]
    broker.offer([Lease(lease_id="L1", job_id="j", trials=trials)])
    lease = broker.claim(worker_id)
    records = [fast_runner(TrialSpec(**w)).to_record()
               for w in lease["trials"]]
    assert broker.complete(worker_id, "L1", records) is True
    assert broker.complete(worker_id, "L1", records) is False
    state, got = broker.poll(["L1"])["L1"]
    assert len(got) == len(trials)


# ---------------------------------------------------------------------------
# chaos controller
# ---------------------------------------------------------------------------
def test_chaos_spec_parsing():
    config = ChaosConfig.parse(
        "seed=7,kill-after=5,kill-point=boundary,hb-drop=3,"
        "hb-delay=0.5,http-500-rate=0.2,http-stall-rate=0.1,"
        "http-stall=0.25,tear-journal-every=3")
    assert config.seed == 7
    assert config.kill_after == 5
    assert config.kill_point == "boundary"
    assert config.hb_drop == 3
    assert config.http_500_rate == 0.2
    assert config.tear_journal_every == 3
    with pytest.raises(ChaosError):
        ChaosConfig.parse("unknown-key=1")
    with pytest.raises(ChaosError):
        ChaosConfig.parse("seed")
    with pytest.raises(ChaosError):
        ChaosConfig.parse("kill-after=x")
    with pytest.raises(ChaosError):
        ChaosConfig.parse("kill-point=sideways")
    assert ChaosController.from_spec(None) is None
    assert ChaosController.from_spec("") is None


def test_chaos_kill_mid_wave_fires_once_at_threshold():
    kills = []
    chaos = ChaosController(ChaosConfig(kill_after=3),
                            kill=lambda: kills.append(1))
    for _ in range(2):
        chaos.after_trial()
    assert kills == []
    chaos.after_trial()
    assert kills == [1]
    chaos.after_trial()  # never kills twice
    chaos.at_wave_boundary()  # wrong kill-point: no-op
    assert kills == [1]


def test_chaos_kill_at_boundary_waits_for_boundary():
    kills = []
    chaos = ChaosController(
        ChaosConfig(kill_after=2, kill_point="boundary"),
        kill=lambda: kills.append(1))
    chaos.after_trial()
    chaos.after_trial()
    assert kills == []  # mid-wave: still alive
    chaos.at_wave_boundary()
    assert kills == [1]


def test_chaos_heartbeat_drops_are_counted():
    chaos = ChaosController(ChaosConfig(hb_drop=2, hb_delay=0.25))
    assert chaos.drop_heartbeat() is True
    assert chaos.drop_heartbeat() is True
    assert chaos.drop_heartbeat() is False
    assert chaos.heartbeat_delay() == 0.25


def test_chaos_http_faults_are_seed_deterministic():
    def sequence(seed):
        chaos = ChaosController(ChaosConfig(
            seed=seed, http_500_rate=0.3, http_stall_rate=0.2))
        return [chaos.http_fault() for _ in range(50)]

    first = sequence(11)
    assert first == sequence(11)
    assert first != sequence(12)
    kinds = {fault[0] for fault in first if fault is not None}
    assert kinds == {"error", "stall"}


def test_chaos_journal_tear_every_nth():
    chaos = ChaosController(ChaosConfig(tear_journal_every=3))
    pattern = [chaos.tear_journal() for _ in range(6)]
    assert pattern == [False, False, True, False, False, True]


# ---------------------------------------------------------------------------
# torn journal + repair
# ---------------------------------------------------------------------------
def test_journal_chaos_tear_is_repaired_on_next_append(tmp_path):
    chaos = ChaosController(ChaosConfig(tear_journal_every=2))
    journal = JobJournal(tmp_path / "j.jsonl", chaos=chaos)
    journal.submitted("job-000001", spec={}, store="s", workers=None,
                      fingerprint="")
    journal.finished("job-000001")  # torn mid-line by chaos
    raw = (tmp_path / "j.jsonl").read_bytes()
    assert not raw.endswith(b"\n")
    # replay tolerates the torn tail: the job looks unfinished, which
    # is crash-equivalent (re-adoption re-runs zero missing trials)
    assert [e.job_id for e in journal.orphans()] == ["job-000001"]
    # the next append repairs the tear instead of corrupting mid-file
    journal.started("job-000001")
    entries = journal.replay()
    assert [e.state for e in entries] == ["started"]


def test_journal_repair_completes_newline_less_record(tmp_path):
    journal = JobJournal(tmp_path / "j.jsonl")
    with open(journal.path, "w") as fh:
        fh.write('{"event": "submitted", "job_id": "job-000001"}')
    assert journal.repair() is True
    assert (tmp_path / "j.jsonl").read_bytes().endswith(b"}\n")
    assert journal.repair() is False


def test_journal_append_drops_a_garbled_complete_final_line(tmp_path):
    """A final line that ends in its newline but does not parse is
    dropped before the next append, so it never becomes mid-file garbage
    that makes every later replay (and so server start) raise."""
    journal = JobJournal(tmp_path / "j.jsonl")
    journal.submitted("job-000001", spec={}, store="s", workers=None,
                      fingerprint="")
    with open(journal.path, "a") as fh:
        fh.write('{"event": "fini\n')
    journal.started("job-000001")
    assert [e.state for e in journal.replay()] == ["started"]


@pytest.mark.parametrize("tail", [b'{"event": "\xff\xfe', b'\xff\xfe\n'],
                         ids=["fragment", "complete-line"])
def test_journal_repair_drops_a_tail_that_is_not_utf8(tmp_path, tail):
    journal = JobJournal(tmp_path / "j.jsonl")
    journal.submitted("job-000001", spec={}, store="s", workers=None,
                      fingerprint="")
    good = (tmp_path / "j.jsonl").read_bytes()
    with open(journal.path, "ab") as fh:
        fh.write(tail)
    # a torn final line, whatever its bytes
    assert [e.state for e in journal.replay()] == ["submitted"]
    assert journal.repair() is True
    assert (tmp_path / "j.jsonl").read_bytes() == good


# ---------------------------------------------------------------------------
# HTTP worker loop end-to-end
# ---------------------------------------------------------------------------
@pytest.fixture()
def worker_service(tmp_path, monkeypatch):
    """Service with a lease broker and NO local runner injection — the
    submitted jobs can only finish through distributed workers or the
    dispatcher's local fallback (which uses fast_runner)."""
    monkeypatch.setattr(CampaignService, "stream_interval", 0.05)
    broker = LeaseBroker(lease_ttl=2.0)
    sched = JobScheduler(
        tmp_path, journal=JobJournal(tmp_path / "journal.jsonl"),
        runner=fast_runner, default_workers=1, broker=broker,
        expect_workers=1, worker_wait=10.0)
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
    yield svc, broker
    asyncio.run_coroutine_threadsafe(svc.stop(), loop).result(timeout=30)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=10)


def test_worker_over_http_runs_job(tmp_path, worker_service):
    svc, broker = worker_service
    stop = threading.Event()
    worker = threading.Thread(
        target=run_worker, args=("127.0.0.1", svc.port),
        kwargs=dict(name="w-http", runner=fast_runner,
                    poll_interval=0.02, stop=stop),
        daemon=True)
    worker.start()
    client = ServiceClient("127.0.0.1", svc.port, timeout=10.0)
    job = client.submit({"schemes": ["unsync"],
                         "workloads": ["fibonacci"],
                         "sers": [0.01], "trials": 4, "batch": 2})
    status = client.wait(job["job_id"], timeout=30.0)
    assert status["state"] == "done"
    assert status["trials_done"] == 4
    workers_view = client._request("GET", "/api/workers")
    assert any(w["name"] == "w-http" for w in workers_view["workers"])
    assert workers_view["leases"]["counters"]["completed"] >= 1
    stop.set()
    worker.join(timeout=10)
    # distributed store is byte-identical to a direct local run
    direct = tmp_path / "direct.jsonl"
    run_campaign(small_spec(), direct, runner=fast_runner, workers=1)
    store = svc.scheduler.get(job["job_id"]).store_path
    with open(store, "rb") as fh:
        assert fh.read() == direct.read_bytes()


def test_worker_fast_forwards_from_its_prefix_cache(tmp_path,
                                                   worker_service):
    """``repro worker``'s default runner fast-forwards from the worker
    process's prefix cache, and its store equals full replay."""
    svc, broker = worker_service
    spec = CampaignSpec(schemes=("unsync", "reunion"),
                        workloads=("fibonacci",), sers=(0.005, 1e-6),
                        trials=4, batch=4)
    CACHE.clear()
    stats = {}
    stop = threading.Event()
    worker = threading.Thread(
        target=lambda: stats.update(run_worker(
            "127.0.0.1", svc.port, name="w-diff", poll_interval=0.02,
            stop=stop)),
        daemon=True)
    worker.start()
    try:
        client = ServiceClient("127.0.0.1", svc.port, timeout=10.0)
        job = client.submit({"schemes": list(spec.schemes),
                             "workloads": list(spec.workloads),
                             "sers": list(spec.sers),
                             "trials": spec.trials, "batch": spec.batch})
        status = client.wait(job["job_id"], timeout=60.0)
        assert status["state"] == "done"
        stop.set()
        worker.join(timeout=10)
        assert not worker.is_alive()
        # one wave of four cells: four leases, all finished by the worker
        assert stats["leases"] == 4 and stats["trials"] == 16
        assert broker.stats()["counters"]["completed"] == 4
        assert svc.scheduler.metrics.snapshot()["counters"].get(
            "service.dispatch.local_takeover", 0) == 0
        assert set(CACHE._prefixes) == {("unsync", "fibonacci", None),
                                        ("reunion", "fibonacci", None)}
    finally:
        stop.set()
        CACHE.clear()
    reference = tmp_path / "reference.jsonl"
    run_campaign(spec, reference, workers=1, runner=run_trial)
    with open(status["store"], "rb") as fh:
        assert fh.read() == reference.read_bytes()


def test_worker_client_absorbs_injected_500s(tmp_path, worker_service,
                                            monkeypatch):
    svc, broker = worker_service
    svc.chaos = ChaosController(ChaosConfig(seed=5, http_500_rate=0.4))
    from repro.service.retry import RetryPolicy
    monkeypatch.setattr(WorkerClient, "policy", RetryPolicy(
        max_attempts=12, base_delay=0.005, max_delay=0.02, budget=20.0))
    client = WorkerClient("127.0.0.1", svc.port)
    for _ in range(5):
        session = client.register("resilient")
        assert session["worker_id"]
    svc.chaos = None


def test_worker_404_triggers_reregistration(worker_service):
    svc, broker = worker_service
    client = WorkerClient("127.0.0.1", svc.port)
    with pytest.raises(ServiceError) as info:
        client.claim("w-unknown")
    assert info.value.status == 404


def test_run_worker_max_idle_exits(worker_service):
    svc, broker = worker_service
    stats = run_worker("127.0.0.1", svc.port, name="idler",
                       runner=fast_runner, poll_interval=0.02,
                       max_idle=0.2)
    assert stats["leases"] == 0
    assert stats["trials"] == 0
