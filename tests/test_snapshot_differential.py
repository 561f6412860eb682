"""Differential-replay execution: snapshot/restore + full-replay equivalence.

The contract under test, end to end: fast-forwarding trials from cached
prefix snapshots (every campaign's runner) may never change a single
byte of a campaign store relative to full replay (``run_trial``, the
reference). That decomposes into

* scheme-agnostic snapshot/restore — a restored replica's continued
  execution is bit-identical to the original's (registers, memory,
  cycles, metrics), for every registered scheme;
* differential trial == full trial for arbitrary (scheme, workload,
  seed, SER, fault model) — the hypothesis property;
* the prefix ring / checkpoint-store plumbing and the copy-on-write
  page sharing the fast path rides on;
* the executor returning pooled results in wave order;
* the coordinator building each prefix once per campaign, pool workers
  inheriting it, a failed warm-up build falling back to the lazy
  per-worker build, and a scheme that cannot snapshot crashing every
  trial of its key;
* the reach: a warm-up builds each prefix only as far as two of its
  wave's trials share it, a trial striking past it restores from its
  newest epoch, a later wave that shares more extends it from there,
  and only a prefix built to its end serves a cached verdict;
* whole campaigns: serial/parallel differential stores equal to the
  full-replay store, byte for byte.
"""

import filecmp
import inspect
import os
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign import snapshot
from repro.campaign.engine import run_campaign
from repro.campaign.executor import execute_trials
from repro.campaign.snapshot import (
    CACHE,
    DEFAULT_INTERVAL,
    PrefixSnapshotCache,
    peek_first_strike,
    prefix_key,
    run_trial_differential,
    shared_reach,
)
from repro.campaign.spec import CampaignSpec, TrialSpec
from repro.campaign.store import ResultStore
from repro.campaign.trial import run_trial
from repro.checkpoint.snapshot import (
    SnapshotUnsupported,
    capture_system,
    instruction_index,
    restore_system,
)
from repro.checkpoint.store import CheckpointStore
from repro.faults.injector import FaultInjector
from repro.isa.memory import PAGE_SIZE, CowPagedMemory, PagedMemory
from repro.redundancy.pair import DualCoreSystem
from repro.schemes import get as get_scheme
from repro.schemes import protected_schemes
from repro.workloads import load_workload

SCHEMES = protected_schemes()


def _final_state(res):
    return (res.cycles, res.instructions, res.state.regs,
            sorted(res.state.mem.items()), res.metrics)


# ---------------------------------------------------------------------------
# snapshot/restore round-trip (all registered schemes, baseline included)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("scheme", list(SCHEMES) + ["baseline"])
def test_roundtrip_restored_replica_runs_identically(scheme):
    program = load_workload("checksum")
    desc = get_scheme(scheme)
    kwargs = {}
    if scheme != "baseline":
        kwargs["injector"] = FaultInjector(0.0)
    original = desc.build_system(program, **kwargs)
    for _ in range(400):
        original.step()
    snap = desc.snapshot(original)
    replica = restore_system(snap, program)
    assert replica.now == original.now
    assert _final_state(replica.run()) == _final_state(original.run())


def test_snapshot_shares_pages_through_the_pool():
    program = load_workload("checksum")
    system = get_scheme("unsync").build_system(
        program, injector=FaultInjector(0.0))
    pool = {}
    index = instruction_index(program)
    first = capture_system(system, program, pool=pool, ins_index=index)
    grew_to = sum(len(p) for p in pool.values())
    assert first.delta_bytes > grew_to  # payload + newly pooled pages
    again = capture_system(system, program, pool=pool, ins_index=index)
    # an unchanged memory image interns into the same pooled pages: the
    # second capture pays for its pickle payload only
    assert sum(len(p) for p in pool.values()) == grew_to
    assert again.delta_bytes == len(again.payload)


def test_baseline_scheme_refuses_injector_attach():
    program = load_workload("fibonacci")
    desc = get_scheme("baseline")
    system = desc.build_system(program)
    with pytest.raises(ValueError, match="baseline"):
        desc.attach_injector(system, FaultInjector(0.01, seed=1))
    # the chassis takes an injector, but the baseline never passes one on
    with pytest.raises(TypeError):
        desc.build_system(program, injector=FaultInjector(0.01, seed=1))


# ---------------------------------------------------------------------------
# the hypothesis property: differential == full, bit for bit
# ---------------------------------------------------------------------------
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scheme=st.sampled_from(SCHEMES),
       workload=st.sampled_from(["fibonacci", "checksum"]),
       seed=st.integers(min_value=0, max_value=2 ** 20),
       ser=st.sampled_from([0.02, 0.005, 1e-4, 1e-6, 1e-9]),
       fault_model=st.sampled_from(["standard", "adversarial"]))
def test_differential_trial_equals_full_trial(scheme, workload, seed, ser,
                                              fault_model):
    trial = TrialSpec(scheme=scheme, workload=workload, ser=ser,
                      seed=seed, fault_model=fault_model)
    full = run_trial(trial)
    differential = run_trial_differential(trial)
    assert differential.to_record() == full.to_record()


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scheme=st.sampled_from(SCHEMES),
       seed=st.integers(min_value=0, max_value=2 ** 20),
       interval=st.sampled_from([64, 256, 1024]))
def test_restore_epoch_choice_cannot_change_the_result(scheme, seed,
                                                       interval):
    # mid-run strike rate, so restores actually happen at several epochs
    trial = TrialSpec(scheme=scheme, workload="checksum", ser=5e-4,
                      seed=seed)
    full = run_trial(trial)
    cache = PrefixSnapshotCache(interval=interval)
    assert cache.run(trial).to_record() == full.to_record()


def test_zero_strike_fast_path_serves_the_cached_prefix():
    trial = TrialSpec(scheme="unsync", workload="fibonacci", ser=1e-12,
                      seed=0)
    assert peek_first_strike(trial) is not None  # far-future, not never
    cache = PrefixSnapshotCache()
    first = cache.run(trial)
    prefix = cache.prefix(trial)
    assert first.cycles == prefix.result.cycles
    assert first.to_record() == run_trial(trial).to_record()


def test_watchdog_hang_survives_the_fast_path():
    trial = TrialSpec(scheme="unsync", workload="checksum", ser=1e-12,
                      seed=3, watchdog_cycles=50)
    differential = PrefixSnapshotCache().run(trial)
    full = run_trial(trial)
    assert full.outcome == "hang"
    assert differential.to_record() == full.to_record()


# ---------------------------------------------------------------------------
# checkpoint-store plumbing the prefix ring reuses
# ---------------------------------------------------------------------------
def test_capture_payload_accounts_like_capture():
    store = CheckpointStore(capacity=2)
    store.capture_payload(seq=0, cycle=0, payload=b"abc", delta_bytes=3)
    store.capture_payload(seq=1, cycle=10, payload=b"defg", delta_bytes=4)
    assert [(cp.cycle, cp.delta_bytes) for cp in store] == [(0, 3), (10, 4)]
    assert store.full
    with pytest.raises(RuntimeError):
        store.capture_payload(seq=2, cycle=20, payload=b"x", delta_bytes=1)


def test_capture_payload_takes_delta_bytes_fifth():
    """perfbench/tracer.py charges snapshot bytes from positional
    argument 4 (``self`` is 0) of ``capture_payload``."""
    params = inspect.signature(CheckpointStore.capture_payload).parameters
    assert list(params) == ["self", "seq", "cycle", "payload", "delta_bytes"]


def test_store_validation():
    with pytest.raises(ValueError):
        CheckpointStore(capacity=0)


def test_at_or_before_picks_the_newest_covering_checkpoint():
    store = CheckpointStore(capacity=8)
    for i, cycle in enumerate([0, 100, 200, 300]):
        store.capture_payload(seq=i, cycle=cycle, payload=cycle,
                              delta_bytes=0)
    assert store.at_or_before(250).cycle == 200
    assert store.at_or_before(300).cycle == 300
    assert store.at_or_before(10 ** 9).cycle == 300
    assert store.at_or_before(0).cycle == 0
    assert CheckpointStore().at_or_before(5) is None


def test_thin_every_other_halves_and_keeps_the_oldest():
    store = CheckpointStore(capacity=6)
    for i in range(6):
        store.capture_payload(seq=i, cycle=10 * i, payload=i, delta_bytes=0)
    assert store.thin_every_other() == 3
    assert [cp.cycle for cp in store._stack] == [0, 20, 40]
    assert not store.full  # room again: the ring keeps absorbing


def test_prefix_ring_pressure_doubles_the_interval():
    trial = TrialSpec(scheme="unsync", workload="checksum", ser=1e-12,
                      seed=0)
    cache = PrefixSnapshotCache(interval=8, ring_capacity=4)
    prefix = cache.prefix(trial)
    assert prefix.interval > 8  # the run is far longer than 4 epochs of 8
    assert len(prefix.ring) <= 4
    # thinned or not, the ring still serves any strike cycle
    assert prefix.ring.at_or_before(prefix.final_cycle) is not None


# ---------------------------------------------------------------------------
# copy-on-write paged memory
# ---------------------------------------------------------------------------
def test_cow_memory_privatizes_on_first_write():
    base = PagedMemory()
    base.write(10, 0xAABBCCDD, 4)
    shared = {pno: bytes(page) for pno, page in base._pages.items()}
    cow = CowPagedMemory(dict(shared))
    assert cow.read(10, 4) == 0xAABBCCDD
    cow.write(10, 0x11223344, 4)
    assert cow.read(10, 4) == 0x11223344
    # the shared page object is untouched; only the COW copy changed
    assert shared[10 // PAGE_SIZE][10 % PAGE_SIZE] == 0xDD
    assert isinstance(cow._pages[10 // PAGE_SIZE], bytearray)


def test_cow_memory_write_byte_and_fresh_pages():
    cow = CowPagedMemory({})
    cow.write_byte(PAGE_SIZE + 3, 0x7F)
    assert cow.read_byte(PAGE_SIZE + 3) == 0x7F
    assert cow.read_byte(0) == 0


def test_cow_memory_equals_plain_memory():
    plain = PagedMemory()
    for addr in (0, 5, PAGE_SIZE - 1, PAGE_SIZE, 3 * PAGE_SIZE + 7):
        plain.write(addr, addr & 0xFF, 1)
    cow = CowPagedMemory({pno: bytes(p)
                          for pno, p in plain._pages.items()})
    assert cow == plain
    cow.write(5, 0xEE, 1)
    assert cow != plain


# ---------------------------------------------------------------------------
# worker-local memo bounds
# ---------------------------------------------------------------------------
def test_prefix_cache_is_lru_bounded():
    cache = PrefixSnapshotCache(max_prefixes=2)
    for scheme in ("unsync", "reunion", "reptfd"):
        cache.prefix(TrialSpec(scheme=scheme, workload="fibonacci",
                               ser=1e-6, seed=0))
    assert len(cache._prefixes) == 2
    assert [k[0] for k in cache._prefixes] == ["reunion", "reptfd"]


# ---------------------------------------------------------------------------
# executor ordering + whole-campaign byte identity
# ---------------------------------------------------------------------------
def test_pooled_results_come_back_in_wave_order():
    trials = [TrialSpec(scheme=scheme, workload="fibonacci", ser=0.005,
                        seed=s) for scheme in ("unsync", "reunion")
              for s in range(3)]
    seen = []
    results = execute_trials(trials, workers=2, on_result=seen.append)
    assert [r.key() for r in results] == [t.key() for t in trials]
    assert seen == results
    assert [r.to_record() for r in results] == \
           [run_trial(t).to_record() for t in trials]


@pytest.mark.parametrize("workers", [1, 2])
def test_campaign_store_byte_identical_across_modes(tmp_path, workers):
    spec = CampaignSpec(schemes=("unsync", "reptfd"),
                        workloads=("fibonacci",), sers=(0.005, 1e-6),
                        trials=4, batch=2)
    full = tmp_path / "full.jsonl"
    diff = tmp_path / "diff.jsonl"
    s_full = run_campaign(spec, full, workers=workers, runner=run_trial)
    s_diff = run_campaign(spec, diff, workers=workers)
    assert filecmp.cmp(full, diff, shallow=False)
    assert s_full.stats_dict() == s_diff.stats_dict()


def test_store_begun_full_resumes_differential(tmp_path):
    spec = CampaignSpec(schemes=("unsync",), workloads=("fibonacci",),
                        sers=(0.005,), trials=6, batch=3)
    ref = tmp_path / "ref.jsonl"
    mixed = tmp_path / "mixed.jsonl"
    run_campaign(spec, ref, workers=1, runner=run_trial)
    # simulate an interrupted full-replay run: store holds one batch only
    partial = ResultStore(mixed)
    partial.create(spec)
    first_batch = spec.batches(*spec.cells()[0])[0]
    for trial in first_batch:
        partial.append_trial(run_trial(trial).to_record())
    # ...then resume the remainder differentially
    run_campaign(spec, mixed, workers=1)
    assert filecmp.cmp(ref, mixed, shallow=False)


# ---------------------------------------------------------------------------
# coordinator warm-up: each prefix built once per campaign
# ---------------------------------------------------------------------------
@pytest.fixture
def cold_cache():
    """The calling process's prefix cache, empty before and after."""
    CACHE.clear()
    yield CACHE
    CACHE.clear()
    CACHE.interval = DEFAULT_INTERVAL


def record_builds(monkeypatch, log, fail_first=None):
    """Log ``scheme workload pid`` for every prefix build, in any process
    (forked pools inherit the wrapper); the first build of scheme
    ``fail_first`` raises instead of building."""
    real = PrefixSnapshotCache._build

    def build(self, trial, *args):
        first = trial.scheme not in {scheme for scheme, _, _ in builds(log)}
        with open(log, "a") as fh:
            fh.write(f"{trial.scheme} {trial.workload} {os.getpid()}\n")
        if trial.scheme == fail_first and first:
            raise RuntimeError("injected prefix build failure")
        return real(self, trial, *args)

    monkeypatch.setattr(PrefixSnapshotCache, "_build", build)


def builds(log):
    if not log.exists():
        return []
    return [tuple(line.split()) for line in log.read_text().splitlines()]


def run_both_modes(tmp_path, spec):
    full = tmp_path / "full.jsonl"
    diff = tmp_path / "diff.jsonl"
    run_campaign(spec, full, workers=1, runner=run_trial)
    run_campaign(spec, diff, workers=2)
    assert filecmp.cmp(full, diff, shallow=False)


THREE_KEYS = CampaignSpec(schemes=("unsync", "reunion", "reptfd"),
                          workloads=("fibonacci",), sers=(0.005, 1e-6),
                          trials=4, batch=2)


@pytest.mark.parametrize("interval", [None, 256])
def test_each_prefix_is_built_once_per_campaign(tmp_path, monkeypatch,
                                                cold_cache, interval):
    if interval is not None:
        cold_cache.interval = interval
    log = tmp_path / "builds.log"
    record_builds(monkeypatch, log)
    # two waves (batch 2 of 4), struck and unstruck trials in each
    run_both_modes(tmp_path, THREE_KEYS)
    keys = sorted((scheme, workload) for scheme, workload, _ in builds(log))
    assert keys == sorted((s, "fibonacci") for s in THREE_KEYS.schemes)


def test_one_missing_key_builds_in_the_calling_process(tmp_path,
                                                       monkeypatch,
                                                       cold_cache):
    log = tmp_path / "builds.log"
    record_builds(monkeypatch, log)
    spec = CampaignSpec(schemes=("unsync",), workloads=("fibonacci",),
                        sers=(0.005,), trials=4, batch=4)
    run_both_modes(tmp_path, spec)
    assert builds(log) == [("unsync", "fibonacci", str(os.getpid()))]


def test_process_cache_keeps_prefixes_across_campaigns(tmp_path,
                                                       monkeypatch,
                                                       cold_cache):
    """What a long-running ``repro worker`` relies on: a later campaign
    in the same process, serial or pooled, builds no prefix again."""
    log = tmp_path / "builds.log"
    record_builds(monkeypatch, log)
    spec = CampaignSpec(schemes=("unsync",), workloads=("fibonacci",),
                        sers=(0.005,), trials=4, batch=4)
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    run_campaign(spec, first, workers=1)
    assert builds(log) == [("unsync", "fibonacci", str(os.getpid()))]
    run_campaign(spec, second, workers=2)
    assert len(builds(log)) == 1
    assert filecmp.cmp(first, second, shallow=False)


def test_failed_warm_up_build_falls_back_to_lazy_builds(tmp_path,
                                                        monkeypatch,
                                                        cold_cache):
    log = tmp_path / "builds.log"
    record_builds(monkeypatch, log, fail_first="reunion")
    # one wave: a later wave's warm-up would retry the key
    run_both_modes(tmp_path, replace(THREE_KEYS, batch=4))
    pids = {}
    for scheme, _, pid in builds(log):
        pids.setdefault(scheme, []).append(pid)
    assert len(pids["unsync"]) == len(pids["reptfd"]) == 1
    # the failed warm-up build, then the trial workers' own builds
    failed, *lazy = pids["reunion"]
    assert lazy and failed not in lazy
    assert str(os.getpid()) not in pids["reunion"]


def test_unsupported_snapshot_makes_every_trial_of_its_key_a_crash(
        tmp_path, monkeypatch, cold_cache):
    """Nothing catches ``SnapshotUnsupported``: the warm-up leaves the
    key cold, each of its trials raises it building the prefix, fails
    its retry too, and is stored as a CRASH; other keys run normally."""
    def refuse(self, system, pool=None, ins_index=None):
        raise SnapshotUnsupported(f"cannot snapshot {type(system).__name__}")

    monkeypatch.setattr(get_scheme("unsync").__class__, "snapshot", refuse)
    store = tmp_path / "s.jsonl"
    run_campaign(replace(THREE_KEYS, batch=4), store, workers=2)
    assert ("unsync", "fibonacci", None) not in cold_cache._prefixes
    outcomes = {}
    for record in ResultStore(str(store)).iter_trials():
        outcomes.setdefault(record["scheme"], []).append(record)
    assert [r["outcome"] for r in outcomes["unsync"]] == ["crash"] * 8
    assert all("SnapshotUnsupported" in r["error"]
               for r in outcomes["unsync"])
    for scheme in ("reunion", "reptfd"):
        assert len(outcomes[scheme]) == 8
        assert "crash" not in {r["outcome"] for r in outcomes[scheme]}


def test_interrupt_during_warm_up_propagates(monkeypatch, cold_cache):
    def interrupted(self, trial, build):
        raise KeyboardInterrupt

    monkeypatch.setattr(PrefixSnapshotCache, "_adopt", interrupted)
    wave = [TrialSpec(scheme=scheme, workload="fibonacci", ser=1e-6, seed=0)
            for scheme in ("unsync", "reunion", "reptfd")]
    with pytest.raises(KeyboardInterrupt):
        cold_cache.warm(wave, workers=2)
    assert not cold_cache._prefixes


# ---------------------------------------------------------------------------
# the reach: each prefix built only as far as its wave's trials share it
# ---------------------------------------------------------------------------
#: a capture interval that puts several epochs inside checksum's run
#: (608 cycles fault-free under UnSync)
SHORT_INTERVAL = 64


def checksum_trial(seed, ser=1e-3, scheme="unsync"):
    return TrialSpec(scheme=scheme, workload="checksum", ser=ser, seed=seed)


def record_steps(monkeypatch, log):
    """Log ``scheme cycle`` for every cycle a chassis system steps, in
    any process (MEEK steps itself, so these tests leave it out)."""
    real = DualCoreSystem.step

    def step(self):
        with open(log, "a") as fh:
            fh.write(f"{self.scheme} {self.now}\n")
        real(self)

    monkeypatch.setattr(DualCoreSystem, "step", step)


def steps(log, scheme):
    if not log.exists():
        return []
    return [int(cycle) for name, cycle in
            (line.split() for line in log.read_text().splitlines())
            if name == scheme]


def epochs(prefix):
    return [checkpoint.cycle for checkpoint in prefix.ring]


def assert_same_ring(prefix, straight, program):
    """Same epochs, memory images and interval, and every epoch restores
    to a replica that runs like the straight build's. (The pickle
    streams themselves may differ: a restored system holds its own
    copies of strings the original shared with code constants.)"""
    assert epochs(prefix) == epochs(straight)
    assert prefix.interval == straight.interval
    for ours, theirs in zip(prefix.ring, straight.ring):
        assert ours.state.mems == theirs.state.mems
        assert _final_state(restore_system(ours.state, program).run()) == \
            _final_state(restore_system(theirs.state, program).run())


@pytest.mark.parametrize("firsts, reach", [
    ([], 0), ([391], 0), ([None], 0),
    ([144, 391], 144), ([391, 144, 271], 271),
    ([None, 300], 300), ([300, None, None], None),
])
def test_shared_reach_is_the_latest_strike_two_trials_reach(firsts, reach):
    assert shared_reach(firsts) == reach


def test_warm_stops_each_prefix_at_the_last_epoch_before_the_reach(
        tmp_path, monkeypatch):
    # first strikes 144, 271, 269 and 391, all inside the 608-cycle run:
    # two of them reach 271, only seed 7 reaches 391
    wave = [checksum_trial(seed) for seed in (1, 3, 4, 7)]
    reach = shared_reach([peek_first_strike(t) for t in wave])
    assert reach == 271
    log = tmp_path / "steps.log"
    record_steps(monkeypatch, log)
    cache = PrefixSnapshotCache(interval=SHORT_INTERVAL)
    cache.warm(wave, workers=2)  # one key: built in the calling process
    key = prefix_key(wave[0])
    prefix = cache._prefixes[key]
    last = reach // SHORT_INTERVAL * SHORT_INTERVAL
    assert 0 < last < reach
    assert epochs(prefix) == list(range(0, last + 1, SHORT_INTERVAL))
    assert prefix.final_cycle == last
    # no cycle past the last epoch at or before the reach, none twice
    assert steps(log, "unsync") == list(range(last))
    assert not prefix.complete
    assert prefix.result is None and prefix.hang is None
    # seed 7 restores from the newest epoch and steps the rest itself
    for trial in wave:
        assert cache.run(trial).to_record() == run_trial(trial).to_record()
    assert cache._prefixes[key] is prefix
    assert epochs(prefix) == list(range(0, last + 1, SHORT_INTERVAL))


#: perfbench's strike-early grids at seed base 0. Every first strike of
#: adversarial's one wave precedes the first 1,024-cycle capture; on
#: midrun one trial per key strikes past it, so a warm-up that built
#: every epoch some trial restores from would step all 8 keys first
EARLY_GRIDS = {
    "adversarial": CampaignSpec(
        schemes=("unsync", "reunion", "reptfd", "meek"),
        workloads=("sha", "qsort"), sers=(4e-3,), trials=3, batch=3,
        fault_model="adversarial", watchdog_cycles=8000),
    "midrun": CampaignSpec(
        schemes=("unsync", "reunion", "reptfd", "meek"),
        workloads=("bzip2", "mcf"), sers=(2e-3,), trials=3, batch=3,
        watchdog_cycles=6000),
}


@pytest.mark.parametrize("grid", list(EARLY_GRIDS))
def test_seed_0_grid_warms_with_only_the_epoch_0_snapshot(grid):
    spec = EARLY_GRIDS[grid]
    wave = [t for cell in spec.cells() for t in spec.batches(*cell)[0]]
    latest = max(peek_first_strike(t) for t in wave)
    assert (latest >= DEFAULT_INTERVAL) == (grid == "midrun")
    cache = PrefixSnapshotCache()
    cache.warm(wave, workers=2)
    assert len(cache._prefixes) == 8
    for prefix in cache._prefixes.values():
        assert epochs(prefix) == [0]
        assert not prefix.complete


@pytest.mark.parametrize("schemes", [("unsync",), ("unsync", "reptfd")],
                         ids=["in-process", "build-pool"])
def test_a_later_wave_extends_the_prefix_from_its_newest_epoch(
        tmp_path, monkeypatch, schemes):
    log = tmp_path / "steps.log"
    record_steps(monkeypatch, log)
    cache = PrefixSnapshotCache(interval=SHORT_INTERVAL)
    waves = [
        # first strikes 144 and 271: two trials share up to 144
        [checksum_trial(seed, scheme=s) for s in schemes for seed in (1, 3)],
        # 269 and 391: two share up to 269, more than the first wave
        [checksum_trial(seed, scheme=s) for s in schemes for seed in (4, 7)],
        # two that never strike within the run: extends to the end
        [checksum_trial(seed, ser=1e-12, scheme=s)
         for s in schemes for seed in (0, 1)],
    ]
    newest = []
    for wave in waves:
        cache.warm(wave, workers=2)
        newest.append(cache._prefixes[prefix_key(wave[0])].final_cycle)
    assert newest[0] < newest[1] < newest[2]
    stepped = {scheme: steps(log, scheme) for scheme in schemes}
    program = load_workload("checksum")
    for scheme in schemes:
        trial = checksum_trial(0, ser=1e-12, scheme=scheme)
        extended = cache._prefixes[prefix_key(trial)]
        assert extended.complete
        # each cycle stepped once: every wave resumed where the last
        # stopped, and no wave stepped a cycle again
        assert stepped[scheme] == list(range(extended.final_cycle))
        straight = PrefixSnapshotCache(interval=SHORT_INTERVAL).prefix(trial)
        assert_same_ring(extended, straight, program)
        assert extended.final_cycle == straight.final_cycle
        assert _final_state(extended.result) == _final_state(straight.result)


#: trials against a reunion checksum prefix warmed for the strikes of
#: seeds 1 and 7 (cycles 144 and 391: epochs 0, 64 and 128): one
#: striking before the next capture was due, one after it, and one
#: unstruck within the run
PAST_THE_REACH = {
    "before-next-capture": checksum_trial(2, ser=0.02, scheme="reunion"),
    "after-next-capture": checksum_trial(3, scheme="reunion"),
    "unstruck": checksum_trial(0, ser=1e-12, scheme="reunion"),
}


@pytest.mark.parametrize("case", list(PAST_THE_REACH))
def test_a_strike_past_a_partial_prefix_is_never_served_a_cached_verdict(
        case):
    head = checksum_trial(1, scheme="reunion")
    cache = PrefixSnapshotCache(interval=SHORT_INTERVAL)
    cache.warm([head, checksum_trial(7, scheme="reunion")], workers=2)
    prefix = cache._prefixes[prefix_key(head)]
    assert not prefix.complete and prefix.final_cycle > 0
    ring = epochs(prefix)
    next_capture = prefix.final_cycle + SHORT_INTERVAL
    run_end = PrefixSnapshotCache().prefix(
        PAST_THE_REACH["unstruck"]).final_cycle
    trial = PAST_THE_REACH[case]
    first = peek_first_strike(trial)
    # every case strikes past the reach and past the newest epoch
    assert first > peek_first_strike(head)
    assert (first < next_capture) == (case == "before-next-capture")
    assert (first >= run_end) == (case == "unstruck")
    assert cache.run(trial).to_record() == run_trial(trial).to_record()
    # restored from the newest epoch: the prefix is neither extended nor
    # replaced
    assert cache._prefixes[prefix_key(head)] is prefix
    assert epochs(prefix) == ring and not prefix.complete


def test_warm_peeks_no_trial_of_a_complete_prefix(monkeypatch):
    cache = PrefixSnapshotCache()
    trial = TrialSpec(scheme="unsync", workload="fibonacci", ser=1e-6,
                      seed=0)
    assert cache.prefix(trial).complete
    peeked = []
    monkeypatch.setattr(snapshot, "peek_first_strike", peeked.append)
    cache.warm([replace(trial, seed=seed) for seed in range(3)], workers=2)
    assert peeked == []


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scheme=st.sampled_from(SCHEMES),
       workload=st.sampled_from(["fibonacci", "checksum"]),
       seeds=st.lists(st.integers(min_value=0, max_value=2 ** 20),
                      min_size=1, max_size=3, unique=True),
       ser=st.sampled_from([0.02, 0.005, 1e-3]),
       later_seed=st.integers(min_value=0, max_value=2 ** 20),
       later_ser=st.sampled_from([0.005, 1e-3, 1e-9]),
       fault_model=st.sampled_from(["standard", "adversarial"]),
       interval=st.sampled_from([16, 64, 256]))
def test_trials_from_warm_built_partial_prefixes_equal_full_trials(
        scheme, workload, seeds, ser, later_seed, later_ser, fault_model,
        interval):
    # a watchdog keeps livelocked recoveries short (one for all: the
    # watchdog is part of the prefix key)
    wave = [TrialSpec(scheme=scheme, workload=workload, ser=ser, seed=seed,
                      fault_model=fault_model, watchdog_cycles=20_000)
            for seed in seeds]
    cache = PrefixSnapshotCache(interval=interval)
    cache.warm(wave, workers=2)  # one key: built in the calling process
    # the wave's own trials, then one that may strike past the reach
    later = replace(wave[0], seed=later_seed, ser=later_ser)
    for trial in wave + [later]:
        assert cache.run(trial).to_record() == run_trial(trial).to_record()
