"""Unit tests for the campaign subsystem (spec, store, trial, executor,
aggregation, progress, CLI). End-to-end resume/determinism pins live in
``test_campaign_resume.py``."""

import io
import json

import pytest

from repro.campaign import (
    CampaignError, CampaignSpec, run_campaign, run_trial, summarize_store,
)
from repro.campaign.aggregate import Aggregator
from repro.campaign.executor import ExecutionReport, execute_trials
from repro.campaign.progress import ProgressTracker, Ticker
from repro.campaign.spec import TrialSpec, cell_id
from repro.campaign.store import ResultStore, StoreCorruption
from repro.campaign.trial import TrialResult
from repro.harness.statistics import wilson_interval
from tests.helpers import expand


def small_spec(**overrides):
    base = dict(schemes=("unsync",), workloads=("fibonacci",),
                sers=(0.01,), trials=4, batch=2)
    base.update(overrides)
    return CampaignSpec(**base)


def fake_result(trial, strikes=1, sdc=0):
    outcomes = {}
    if strikes - sdc > 0:
        outcomes["detected-recovered"] = strikes - sdc
    if sdc:
        outcomes["silent-data-corruption"] = sdc
    return TrialResult(scheme=trial.scheme, workload=trial.workload,
                       ser=trial.ser, seed=trial.seed, cycles=100,
                       instructions=120, strikes=strikes,
                       outcomes=outcomes, recovery_cycles=10 * strikes)


# ---------------------------------------------------------------------------
# spec
# ---------------------------------------------------------------------------
def test_spec_rejects_baseline_scheme():
    with pytest.raises(CampaignError):
        small_spec(schemes=("baseline",))


def test_spec_rejects_bad_grids():
    for bad in (dict(workloads=()), dict(trials=0), dict(batch=0),
                dict(sers=(-1.0,)), dict(sers=(1e-3, 1e-3)),
                dict(ci_halfwidth=0.0), dict(ci_halfwidth=1.5)):
        with pytest.raises(CampaignError):
            small_spec(**bad)


def test_spec_expansion_is_cell_major_and_seeded():
    spec = small_spec(schemes=("unsync", "reunion"), sers=(0.01, 0.02),
                      trials=3, seed_base=7)
    trials = expand(spec)
    assert len(trials) == spec.total_trials == 2 * 2 * 3
    assert trials[0] == TrialSpec("unsync", "fibonacci", 0.01, 7)
    assert [t.seed for t in trials[:3]] == [7, 8, 9]
    # cells are contiguous and in canonical order
    assert [t.cell for t in trials[:6]] == \
        ["unsync/fibonacci/0.01"] * 3 + ["unsync/fibonacci/0.02"] * 3


def test_spec_batches_are_fixed_chunks():
    spec = small_spec(trials=5, batch=2)
    batches = spec.batches("unsync", "fibonacci", 0.01)
    assert [len(b) for b in batches] == [2, 2, 1]
    assert batches[1][0].seed == 2


def test_spec_json_roundtrip():
    spec = small_spec(ci_halfwidth=0.05, sers=(1e-4, 2.5e-3))
    assert CampaignSpec.from_dict(
        json.loads(json.dumps(spec.to_dict()))) == spec


def test_spec_rejects_unknown_workload():
    with pytest.raises(CampaignError, match="unknown workload 'nope'"):
        small_spec(workloads=("fibonacci", "nope"))


def test_spec_from_dict_rejects_unknown_key_and_defaults_absent_ones():
    record = small_spec().to_dict()
    with pytest.raises(CampaignError, match=r"unknown spec field\(s\) "
                                            r"\['labels'\]"):
        CampaignSpec.from_dict(dict(record, labels="traced"))
    with pytest.raises(CampaignError, match="sers"):
        CampaignSpec.from_dict({k: v for k, v in record.items()
                                if k != "sers"})
    bare = CampaignSpec.from_dict({"schemes": ["unsync"],
                                   "workloads": ["fibonacci"],
                                   "sers": [0.01]})
    assert bare == CampaignSpec(schemes=("unsync",),
                                workloads=("fibonacci",), sers=(0.01,))
    assert bare.trials == 50 and bare.batch == 25


def test_cell_id_format():
    assert cell_id("unsync", "sha", 1e-4) == "unsync/sha/0.0001"


# ---------------------------------------------------------------------------
# store
# ---------------------------------------------------------------------------
def test_store_roundtrip(tmp_path):
    store = ResultStore(tmp_path / "c.jsonl")
    spec = small_spec()
    assert not store.exists()
    store.create(spec)
    assert store.exists() and store.load_spec() == spec
    trial = expand(spec)[0]
    store.append_trial(fake_result(trial).to_record())
    assert {(r["cell"], r["seed"]) for r in store.iter_trials()} == \
        {trial.key()}
    with pytest.raises(CampaignError):
        store.create(spec)  # no silent overwrite


def test_store_deduplicates_on_key(tmp_path):
    store = ResultStore(tmp_path / "c.jsonl")
    store.create(small_spec())
    trial = expand(small_spec())[0]
    store.append_trial(fake_result(trial, strikes=1).to_record())
    store.append_trial(fake_result(trial, strikes=9).to_record())
    records = list(store.iter_trials())
    assert len(records) == 1 and records[0]["strikes"] == 1  # first wins


def test_store_tolerates_torn_final_line(tmp_path):
    path = tmp_path / "c.jsonl"
    store = ResultStore(path)
    store.create(small_spec())
    trial = expand(small_spec())[0]
    store.append_trial(fake_result(trial).to_record())
    with open(path, "a") as fh:
        fh.write('{"kind": "trial", "cel')  # killed mid-write
    assert len(list(store.iter_trials())) == 1


def test_store_mid_file_garbage_is_corruption(tmp_path):
    path = tmp_path / "c.jsonl"
    store = ResultStore(path)
    store.create(small_spec())
    with open(path, "a") as fh:
        fh.write("not json\n")
        fh.write(json.dumps(fake_result(
            expand(small_spec())[0]).to_record()) + "\n")
    with pytest.raises(StoreCorruption):
        list(store.iter_trials())


def test_store_read_stops_at_an_append_in_flight(tmp_path, monkeypatch):
    """A store read while its engine appends (a running job's results
    request) stops at the half-written line, even if the rest lands
    before the reader looks past it."""
    from repro.campaign import store as store_mod

    path = tmp_path / "c.jsonl"
    store = ResultStore(path)
    store.create(small_spec())
    record = fake_result(expand(small_spec())[0]).to_record()
    line = json.dumps(dict(record, kind="trial")) + "\n"
    with open(path, "a") as fh:
        fh.write(line[:20])

    class AppendingFile(io.FileIO):
        def readinto(self, buffer):
            n = super().readinto(buffer)
            if not n and path.stat().st_size < 2 * len(line):
                with open(path, "a") as fh:  # the engine ends its line
                    fh.write(line[20:])
            return n

    monkeypatch.setattr(store_mod, "open", lambda path, mode: (
        io.BufferedReader(AppendingFile(path))), raising=False)
    assert list(store.iter_trials()) == []
    monkeypatch.undo()
    assert len(list(store.iter_trials())) == 1


# the second tail is cut inside a multi-byte character: not UTF-8
@pytest.mark.parametrize("tail", [b'{"torn":', b'{"kind": "trial", "c\xc3'],
                         ids=["torn-json", "not-utf8"])
def test_store_repair_truncates_torn_line(tmp_path, tail):
    path = tmp_path / "c.jsonl"
    store = ResultStore(path)
    store.create(small_spec())
    good = path.read_bytes()
    with open(path, "ab") as fh:
        fh.write(tail)
    assert list(store.iter_trials()) == []
    assert store.repair() is True
    assert path.read_bytes() == good
    assert store.repair() is False  # idempotent


def test_store_repair_completes_newline_less_record(tmp_path):
    path = tmp_path / "c.jsonl"
    store = ResultStore(path)
    store.create(small_spec())
    record = fake_result(expand(small_spec())[0]).to_record()
    with open(path, "a") as fh:
        fh.write(json.dumps(dict(record, kind="trial")))  # no newline
    assert store.repair() is True
    assert len(list(store.iter_trials())) == 1


def test_load_spec_reads_only_the_header(tmp_path, monkeypatch):
    """read_jsonl streams, so the header costs the same to load however
    many trials follow it: a 2.5 MB store costs one buffered read."""
    from repro.campaign import store as store_mod

    path = tmp_path / "big.jsonl"
    store = ResultStore(path)
    spec = small_spec()
    store.create(spec)
    record = fake_result(expand(spec)[0]).to_record()
    line = json.dumps(dict(record, kind="trial"), sort_keys=True) + "\n"
    with open(path, "a") as fh:
        fh.write(line * (2_500_000 // len(line) + 1))
    reads = []

    class CountingFile(io.FileIO):
        def readinto(self, buffer):
            reads.append(super().readinto(buffer))
            return reads[-1]

        def readall(self):
            data = super().readall()
            reads.append(len(data))
            return data

    monkeypatch.setattr(store_mod, "open", lambda path, mode: (
        io.BufferedReader(CountingFile(path))), raising=False)
    assert store.load_spec() == spec
    assert 0 < sum(reads) <= io.DEFAULT_BUFFER_SIZE


# ---------------------------------------------------------------------------
# trial worker
# ---------------------------------------------------------------------------
def test_run_trial_is_deterministic():
    trial = TrialSpec("unsync", "fibonacci", 0.01, seed=3)
    assert run_trial(trial) == run_trial(trial)


def test_run_trial_injects_and_recovers():
    # seed 1 at 0.01 strikes/cycle lands 12 strikes on this kernel
    result = run_trial(TrialSpec("unsync", "fibonacci", 0.01, seed=1))
    assert result.strikes > 0
    assert result.recovered and result.recovery_cycles > 0
    assert sum(result.outcomes.values()) == result.strikes


def test_trial_record_roundtrip():
    result = run_trial(TrialSpec("reunion", "fibonacci", 0.02, seed=5))
    assert TrialResult.from_record(
        json.loads(json.dumps(result.to_record()))) == result


def test_run_trial_unknown_workload():
    with pytest.raises(KeyError):
        run_trial(TrialSpec("unsync", "no_such_workload", 0.01, 0))


# ---------------------------------------------------------------------------
# executor
# ---------------------------------------------------------------------------
def test_executor_retries_once_then_succeeds():
    spec = small_spec()
    calls = {}

    def flaky(trial):
        calls[trial.seed] = calls.get(trial.seed, 0) + 1
        if trial.seed == 2 and calls[trial.seed] == 1:
            raise RuntimeError("transient")
        return fake_result(trial)

    report = ExecutionReport()
    results = execute_trials(expand(spec), workers=1, runner=flaky,
                             report=report)
    assert [r.seed for r in results] == [0, 1, 2, 3]
    assert report.retries == 1 and report.worker_failures == 1


def test_executor_records_double_failure_as_crash():
    def broken(trial):
        raise ValueError("always")

    report = ExecutionReport()
    results = execute_trials(expand(small_spec()), workers=1, runner=broken,
                             report=report)
    # one pathological trial costs a CRASH data point, not the campaign
    assert [r.seed for r in results] == [0, 1, 2, 3]
    assert all(r.outcome == "crash" for r in results)
    assert all("ValueError" in r.error for r in results)
    assert report.crashes == len(results)


def test_executor_on_result_order_matches_submission():
    seen = []
    execute_trials(expand(small_spec()), workers=1, runner=fake_result,
                   on_result=lambda r: seen.append(r.seed))
    assert seen == [0, 1, 2, 3]


def test_executor_pool_matches_serial():
    trials = expand(small_spec(trials=6))
    serial = execute_trials(trials, workers=1)
    pooled = execute_trials(trials, workers=3)
    assert serial == pooled


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------
def test_aggregate_counts_and_wilson_ci():
    spec = small_spec(trials=8)
    agg = Aggregator()
    for i, trial in enumerate(expand(spec)):
        agg.add(fake_result(trial, strikes=2, sdc=1 if i < 2 else 0))
    cell = agg.cells["unsync/fibonacci/0.01"]
    assert cell.trials == 8 and cell.strikes == 16 and cell.sdc_trials == 2
    assert cell.sdc_interval == wilson_interval(2, 8)
    assert cell.recovered_trials == 8  # every trial had a recovery too
    summary = cell.summary()
    assert summary["p_sdc"]["estimate"] == pytest.approx(0.25)
    assert summary["mean_recovery_cycles"] == pytest.approx(20.0)


def test_aggregate_order_independent():
    spec = small_spec(trials=10)
    results = [fake_result(t, strikes=t.seed % 3, sdc=t.seed % 2)
               for t in expand(spec)]
    fwd, rev = Aggregator(), Aggregator()
    for r in results:
        fwd.add(r)
    for r in reversed(results):
        rev.add(r)
    assert fwd.summary() == rev.summary()


def test_ci_met_thresholds():
    spec = small_spec(trials=100)
    agg = Aggregator()
    for trial in expand(spec):
        agg.add(fake_result(trial, strikes=1, sdc=0))
    cell = agg.cells["unsync/fibonacci/0.01"]
    width = cell.sdc_interval.width / 2
    assert cell.ci_met(width + 1e-12)
    assert not cell.ci_met(width / 2)
    assert not cell.ci_met(None)


# ---------------------------------------------------------------------------
# progress
# ---------------------------------------------------------------------------
def test_progress_throughput_and_eta():
    now = [0.0]
    tracker = ProgressTracker(planned=10, clock=lambda: now[0])
    tracker.plan_cell("c1", 5)
    tracker.plan_cell("c2", 5)
    now[0] = 2.0
    for _ in range(4):
        tracker.update("c1")
    assert tracker.trials_per_second == pytest.approx(2.0)
    assert tracker.eta_seconds() == pytest.approx(3.0)
    assert tracker.cell_eta_seconds("c2") == pytest.approx(2.5)
    assert "4/10 trials" in tracker.render()
    summary = tracker.summary()
    assert summary["trials_per_second"] == pytest.approx(2.0)
    assert summary["cells"]["c1"]["done"] == 4


def test_progress_early_stop_shrinks_plan():
    tracker = ProgressTracker(planned=10, clock=lambda: 1.0)
    tracker.plan_cell("c1", 5)
    tracker.plan_cell("c2", 5)
    tracker.update("c1")
    tracker.early_stop("c1")
    assert tracker.planned == 6
    assert tracker.summary()["early_stopped_trials"] == 4


def test_ticker_respects_enabled_flag():
    class Sink:
        def __init__(self):
            self.data = ""

        def write(self, s):
            self.data += s

        def flush(self):
            pass

    tracker = ProgressTracker(planned=1, clock=lambda: 0.0)
    off = Sink()
    Ticker(tracker, stream=off).tick(force=True)  # not a TTY -> disabled
    assert off.data == ""
    on = Sink()
    Ticker(tracker, stream=on, enabled=True).tick(force=True)
    assert "trials" in on.data


# ---------------------------------------------------------------------------
# engine edges
# ---------------------------------------------------------------------------
def test_engine_rejects_spec_mismatch(tmp_path):
    path = tmp_path / "c.jsonl"
    run_campaign(small_spec(), path, workers=1)
    with pytest.raises(CampaignError):
        run_campaign(small_spec(trials=9), path, workers=1)


def test_engine_counts_progress(tmp_path):
    summary = run_campaign(small_spec(), tmp_path / "c.jsonl", workers=1)
    assert summary.progress["trials_run"] == 4
    assert summary.progress["worker_failures"] == 0
    assert summary.totals["trials"] == 4
    cell = summary.cells["unsync/fibonacci/0.01"]
    assert {"p_sdc", "p_due", "p_recovered"} <= set(cell)


def test_summarize_missing_store(tmp_path):
    with pytest.raises(CampaignError):
        summarize_store(tmp_path / "absent.jsonl")


def test_summarize_does_not_label_interrupted_cell_early_stopped(tmp_path):
    """A campaign stopped after its first wave holds one of two batches,
    and 4 trials cannot meet a 0.01 CI: the cell is unfinished, not
    early-stopped, and summarize must say what the engine says."""
    spec = small_spec(trials=8, batch=4, ci_halfwidth=0.01)
    path = tmp_path / "c.jsonl"
    polls = iter([False])  # run one wave, then stop at the boundary
    ran = run_campaign(spec, path, workers=1,
                       should_stop=lambda: next(polls, True))
    assert ran.totals["trials"] == 4
    assert ran.early_stopped == []
    assert summarize_store(path).early_stopped == []


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def run_cli(capsys, *argv):
    from repro.cli import main
    rc = main(list(argv))
    return rc, capsys.readouterr().out


def test_cli_campaign_run_and_summarize(tmp_path, capsys):
    store = str(tmp_path / "c.jsonl")
    rc, out = run_cli(capsys, "campaign", "run", "--store", store,
                      "--schemes", "unsync", "--workloads", "fibonacci",
                      "--ser", "0.01", "--trials", "4", "--workers", "1",
                      "--batch", "2")
    assert rc == 0
    assert "unsync/fibonacci/0.01" in out and "P[SDC]" in out
    rc, out = run_cli(capsys, "campaign", "summarize", "--store", store,
                      "--json")
    assert rc == 0
    data = json.loads(out)
    assert data["totals"]["trials"] == 4
    assert data["spec"]["trials"] == 4


def test_cli_campaign_resume_noop_when_complete(tmp_path, capsys):
    store = str(tmp_path / "c.jsonl")
    run_cli(capsys, "campaign", "run", "--store", store,
            "--schemes", "unsync", "--workloads", "fibonacci",
            "--ser", "0.01", "--trials", "2", "--workers", "1")
    rc, out = run_cli(capsys, "campaign", "resume", "--store", store,
                      "--json")
    assert rc == 0
    data = json.loads(out)
    assert data["progress"]["trials_run"] == 0
    assert data["progress"]["resumed_trials"] == 2


def test_cli_campaign_requires_rates(tmp_path):
    from repro.cli import main
    with pytest.raises(SystemExit):
        main(["campaign", "run", "--store", str(tmp_path / "c.jsonl"),
              "--workloads", "fibonacci"])


def test_cli_campaign_node_rates(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("repro.cli.NODE_ACCELERATION", 1e11)
    store = str(tmp_path / "c.jsonl")
    rc, out = run_cli(capsys, "campaign", "run", "--store", store,
                      "--schemes", "unsync", "--workloads", "fibonacci",
                      "--node", "90",
                      "--trials", "2", "--workers", "1", "--json")
    assert rc == 0
    sers = json.loads(out)["spec"]["sers"]
    from repro.faults.ser import SERModel
    assert sers == [SERModel.at_node(90).per_cycle() * 1e11]


def test_cli_campaign_summarize_missing_store(tmp_path):
    from repro.cli import main
    with pytest.raises(SystemExit):
        main(["campaign", "summarize", "--store",
              str(tmp_path / "absent.jsonl")])


def test_each_workload_is_assembled_once_per_process():
    from repro.workloads import (
        PROFILES, load_benchmark, load_workload, workload_names,
    )

    for name in workload_names():
        program = load_workload(name)
        assert load_workload(name) is program
        if name in PROFILES:
            assert load_benchmark(name) is program
