"""Tests for the adversarial fault model and recovery-path hardening:
multi-bit upsets, paired-core strikes, strikes during recovery, the
HANG/CRASH outcome taxonomy, and the campaign watchdog."""

import json

import pytest

from repro.campaign import (
    CampaignError, CampaignSpec, run_campaign, run_trial, summarize_store,
)
from repro.campaign.trial import classify_trial, crash_result, hang_result
from repro.campaign.spec import TrialSpec
from repro.faults import adversarial
from repro.faults.adversarial import (
    ADVERSARIAL_MODEL, FAULT_MODELS, STANDARD_MODEL, AdversarialInjector,
    adversarial_injector,
)
from repro.faults.events import Outcome, TRIAL_OUTCOMES
from repro.faults.injector import (
    BLOCKS, BlockInventory, FaultInjector, Strike,
)
from repro.isa import golden
from repro.isa.assembler import assemble
from repro.redundancy.pair import SimulationHang
from repro.reunion.system import REUNION_UNCORE_BLOCKS, ReunionSystem
from repro.unsync.eih import ErrorInterruptHandler
from repro.unsync.recovery import RecoveryCostModel
from repro.unsync.system import UnSyncConfig, UnSyncSystem


LOOP = """
main:
    li r1, 400
    li r2, 0
    la r6, buf
loop:
    add r2, r2, r1
    mul r3, r1, r1
    sw r3, 0(r6)
    lw r4, 0(r6)
    add r2, r2, r4
    addi r1, r1, -1
    bne r1, r0, loop
    la r5, result
    sw r2, 0(r5)
    halt
.data
result: .word 0
buf: .space 64
"""


@pytest.fixture(scope="module")
def loop():
    return assemble(LOOP, name="adv_loop")


class ScriptedInjector(FaultInjector):
    """Deterministic injector replaying a fixed strike list (in cycle
    order), for directed recovery-path tests."""

    def __init__(self, strikes, inventory=None):
        super().__init__(0.0, inventory=inventory)
        self._script = sorted(strikes, key=lambda s: s.cycle)
        self.recovery_notices = []

    def next_strike(self, now):
        return self._script.pop(0) if self._script else None

    def on_recovery(self, now, duration_cycles):
        self.recovery_notices.append((now, duration_cycles))

    def preempt(self, armed):
        if self._script and (armed is None
                             or self._script[0].cycle <= armed.cycle):
            nxt = self._script.pop(0)
            if armed is not None:
                self._script.append(armed)
                self._script.sort(key=lambda s: s.cycle)
            return nxt
        return armed


def fast_unsync():
    return UnSyncConfig(recovery=RecoveryCostModel(l1_restore="invalidate"))


class NoPairWindowUnSync(UnSyncSystem):
    """UnSync with a zero paired-strike window: isolates recovery
    re-entry from the paired-strike DUE rule."""

    pair_due_window = 0


# ---------------------------------------------------------------------------
# adversarial injector generation
# ---------------------------------------------------------------------------
def test_adversarial_mixture_constants():
    # every mixture fraction is a probability, companions land inside a
    # real window, and a multi-bit cluster flips at least two bits
    for fraction in (adversarial.MULTI_BIT_FRACTION,
                     adversarial.PAIRED_FRACTION,
                     adversarial.RECOVERY_CHASE_FRACTION,
                     adversarial.UNCORE_FRACTION):
        assert 0.0 <= fraction <= 1.0
    assert adversarial.PAIR_WINDOW_CYCLES > 0
    assert adversarial.CLUSTER_SIZES
    assert min(adversarial.CLUSTER_SIZES) >= 2


def test_fault_model_names():
    assert STANDARD_MODEL in FAULT_MODELS
    assert ADVERSARIAL_MODEL in FAULT_MODELS


def drain(inj, draws=400):
    strikes, now = [], 0
    for _ in range(draws):
        s = inj.next_strike(now)
        if s is None:
            break
        strikes.append(s)
        now = s.cycle
    return strikes


def test_adversarial_injector_same_seed_reproduces():
    a = drain(adversarial_injector("unsync", 0.01, seed=7))
    b = drain(adversarial_injector("unsync", 0.01, seed=7))
    assert a == b
    assert a != drain(adversarial_injector("unsync", 0.01, seed=8))


def test_adversarial_injector_produces_the_advertised_mixture():
    inj = adversarial_injector("unsync", 0.01, seed=3)
    strikes = drain(inj, draws=600)
    assert any(s.flipped_bits > 1 for s in strikes)
    assert any(s.flipped_bits == 2 for s in strikes)  # parity-defeating
    assert inj.multi_bit_strikes > 0
    assert inj.paired_strikes > 0
    assert inj.uncore_strikes > 0
    # companions land on the opposite core within the pair window
    assert all(s.core in (0, 1) for s in strikes)
    uncore_names = {"cb", "eih_pending", "recovery_copy"}
    assert any(s.block in uncore_names for s in strikes)


def test_adversarial_injector_chases_recovery_windows():
    inj = adversarial_injector("unsync", 0.01, seed=1)
    for now in range(0, 4000, 100):
        inj.on_recovery(now, 80)
    assert inj.chase_strikes > 0
    # chase strikes are queued and come out in cycle order
    strikes = drain(inj)
    assert all(a.cycle <= b.cycle or a.core is not None
               for a, b in zip(strikes, strikes[1:]))


def test_reunion_uncore_is_csb_pre_commit():
    inj = adversarial_injector("reunion", 0.01, seed=2)
    assert inj.inventory.get("csb").pre_commit


# ---------------------------------------------------------------------------
# EIH determinism + queue strikes (satellite: deterministic pop order)
# ---------------------------------------------------------------------------
def pop_all(eih, now=100):
    order = []
    while True:
        got = eih.poll(now)
        if got is None:
            break
        order.append((got.core_id, got.block))
    return order


def test_eih_pop_order_independent_of_raise_order():
    a = ErrorInterruptHandler()
    a.raise_interrupt(10, 0, "regfile")
    a.raise_interrupt(10, 1, "lsq")
    a.raise_interrupt(12, 0, "rob")
    b = ErrorInterruptHandler()
    b.raise_interrupt(12, 0, "rob")
    b.raise_interrupt(10, 1, "lsq")
    b.raise_interrupt(10, 0, "regfile")
    assert pop_all(a) == pop_all(b) == [(0, "regfile"), (1, "lsq"),
                                        (0, "rob")]


def test_eih_drop_latest_pending_is_deterministic():
    eih = ErrorInterruptHandler()
    eih.raise_interrupt(10, 0, "regfile", token="old")
    eih.raise_interrupt(20, 1, "lsq", token="young")
    dropped = eih.drop_latest_pending()
    assert dropped.token == "young"
    assert eih.interrupts_dropped == 1
    assert eih.pending_for(0) and not eih.pending_for(1)


# ---------------------------------------------------------------------------
# UnSync hardening (directed strikes)
# ---------------------------------------------------------------------------
def test_even_bit_flip_defeats_parity_into_sdc(loop):
    system = UnSyncSystem(loop, unsync=fast_unsync(), injector=ScriptedInjector(
        [Strike(cycle=100, block="regfile", bit=4, flipped_bits=2, core=0)]))
    res = system.run()
    assert [e.outcome for e in res.fault_events] == [Outcome.SDC]
    assert res.metrics["unsync.eih.recoveries"] == 0


def test_odd_bit_cluster_still_detected(loop):
    system = UnSyncSystem(loop, unsync=fast_unsync(), injector=ScriptedInjector(
        [Strike(cycle=100, block="regfile", bit=4, flipped_bits=3, core=0)]))
    res = system.run()
    assert [e.outcome for e in res.fault_events] == [Outcome.DETECTED_RECOVERED]
    assert res.metrics["unsync.eih.recoveries"] == 1


def test_paired_strikes_within_window_are_due(loop):
    system = UnSyncSystem(loop, unsync=fast_unsync(), injector=ScriptedInjector(
        [Strike(cycle=100, block="regfile", bit=4, flipped_bits=1, core=0),
         Strike(cycle=102, block="lsq", bit=9, flipped_bits=1, core=1)]))
    res = system.run()
    assert system.due_count > 0
    assert any(e.outcome is Outcome.DETECTED_UNRECOVERABLE
               for e in res.fault_events)
    assert res.metrics["unsync.due.count"] == system.due_count


def test_isolated_strikes_outside_window_both_recover(loop):
    # the second strike lands well after the first recovery completes
    # (~cycle 230) but before the program ends
    system = UnSyncSystem(loop, unsync=fast_unsync(), injector=ScriptedInjector(
        [Strike(cycle=100, block="regfile", bit=4, flipped_bits=1, core=0),
         Strike(cycle=600, block="lsq", bit=9, flipped_bits=1, core=1)]))
    res = system.run()
    assert system.due_count == 0
    assert all(e.outcome is Outcome.DETECTED_RECOVERED
               for e in res.fault_events)
    assert res.metrics["unsync.eih.recoveries"] == 2


def test_eih_queue_strike_loses_the_pending_interrupt(loop):
    system = UnSyncSystem(loop, unsync=fast_unsync(), injector=ScriptedInjector(
        [Strike(cycle=100, block="regfile", bit=4, flipped_bits=1, core=0),
         Strike(cycle=101, block="eih_pending", bit=0, core=1)]))
    res = system.run()
    outcomes = [e.outcome for e in res.fault_events]
    assert outcomes == [Outcome.DETECTED_UNRECOVERABLE, Outcome.MASKED]
    assert system.due_count == 1
    assert res.metrics["unsync.eih.dropped_interrupts"] == 1
    # the signal never arrived
    assert res.metrics["unsync.eih.recoveries"] == 0


def test_recovery_copy_strike_outside_recovery_is_masked(loop):
    system = UnSyncSystem(loop, unsync=fast_unsync(), injector=ScriptedInjector(
        [Strike(cycle=100, block="recovery_copy", bit=0, core=0)]))
    res = system.run()
    assert [e.outcome for e in res.fault_events] == [Outcome.MASKED]


def test_strike_during_recovery_reenters_and_restarts(loop):
    # the default "copy" restore keeps the recovery window long enough
    # for the second strike to land inside it
    system = NoPairWindowUnSync(loop, injector=ScriptedInjector(
        [Strike(cycle=100, block="regfile", bit=4, flipped_bits=1, core=0),
         Strike(cycle=140, block="lsq", bit=9, flipped_bits=1, core=1)]))
    res = system.run()
    assert system.recovery_reentries >= 1
    assert system.recovery_aborts >= 1
    assert system.due_count == 0
    gold = golden.run(loop)
    assert res.state.regs == gold.state.regs
    assert res.metrics["unsync.recovery.reentries"] == system.recovery_reentries


def test_recovery_retry_budget_exhaustion_degrades_to_due(loop):
    class NoRetryUnSync(NoPairWindowUnSync):
        recovery_retry_budget = 0

    system = NoRetryUnSync(loop, injector=ScriptedInjector(
        [Strike(cycle=100, block="regfile", bit=4, flipped_bits=1, core=0),
         Strike(cycle=140, block="lsq", bit=9, flipped_bits=1, core=1)]))
    system.run()
    assert system.recovery_reentries >= 1
    assert system.recovery_aborts == 0
    assert system.due_count >= 1


def test_recovery_copy_strike_inside_recovery_restarts_it(loop):
    system = NoPairWindowUnSync(loop, injector=ScriptedInjector(
        [Strike(cycle=100, block="regfile", bit=4, flipped_bits=1, core=0),
         Strike(cycle=140, block="recovery_copy", bit=0, core=1)]))
    res = system.run()
    assert system.recovery_reentries >= 1
    assert res.fault_events[1].outcome is Outcome.DETECTED_RECOVERED


def test_unsync_notifies_injector_of_recoveries(loop):
    inj = ScriptedInjector(
        [Strike(cycle=100, block="regfile", bit=4, flipped_bits=1, core=0)])
    UnSyncSystem(loop, unsync=fast_unsync(), injector=inj).run()
    assert len(inj.recovery_notices) == 1
    assert inj.recovery_notices[0][1] > 0


# ---------------------------------------------------------------------------
# Reunion hardening (directed strikes)
# ---------------------------------------------------------------------------
def reunion_inventory():
    return BlockInventory(tuple(BLOCKS) + REUNION_UNCORE_BLOCKS)


def test_secded_two_bit_cluster_is_due(loop):
    system = ReunionSystem(loop, injector=ScriptedInjector(
        [Strike(cycle=100, block="l1d_data", bit=8, flipped_bits=2, core=0)]))
    res = system.run()
    assert [e.outcome for e in res.fault_events] == \
        [Outcome.DETECTED_UNRECOVERABLE]
    assert system.due_count == 1
    assert res.metrics["reunion.due.count"] == 1


def test_secded_three_bit_cluster_escapes_as_sdc(loop):
    system = ReunionSystem(loop, injector=ScriptedInjector(
        [Strike(cycle=100, block="l1d_data", bit=8, flipped_bits=3, core=0)]))
    res = system.run()
    assert [e.outcome for e in res.fault_events] == [Outcome.SDC]


def test_reunion_strike_during_rollback_aborts_and_recovers(loop):
    # first strike corrupts a fingerprint -> mismatch -> rollback; the
    # second lands in the rollback window on pre-commit state
    inj = ScriptedInjector(
        [Strike(cycle=100, block="rob", bit=3, flipped_bits=1, core=0)],
        inventory=reunion_inventory())

    system = ReunionSystem(loop, injector=inj)
    # schedule the chase strike reactively, inside the rollback window
    orig = inj.on_recovery

    def chase(now, duration):
        orig(now, duration)
        if not inj._script:
            inj._script.append(Strike(cycle=now + 1, block="iq", bit=5,
                                      flipped_bits=1, core=1))
    inj.on_recovery = chase
    res = system.run()
    assert system.rollbacks >= 1
    assert system.recovery_reentries >= 1
    assert system.recovery_aborts >= 1
    gold = golden.run(loop)
    assert res.state.regs == gold.state.regs


def test_reunion_csb_strike_flows_through_fingerprint_path(loop):
    system = ReunionSystem(loop, injector=ScriptedInjector(
        [Strike(cycle=100, block="csb", bit=3, flipped_bits=1, core=0)],
        inventory=reunion_inventory()))
    res = system.run()
    # pre-commit corruption: caught by the comparison (or aliased -> SDC)
    assert res.fault_events[0].outcome in (Outcome.DETECTED_RECOVERED,
                                           Outcome.SDC)


def test_reunion_notifies_injector_of_rollbacks(loop):
    inj = ScriptedInjector(
        [Strike(cycle=100, block="rob", bit=3, flipped_bits=1, core=0)],
        inventory=reunion_inventory())
    ReunionSystem(loop, injector=inj).run()
    assert len(inj.recovery_notices) >= 1


# ---------------------------------------------------------------------------
# outcome taxonomy
# ---------------------------------------------------------------------------
def test_trial_outcome_taxonomy_is_exhaustive():
    assert tuple(TRIAL_OUTCOMES) == ("crash", "hang", "sdc", "due",
                                     "recovered")
    assert Outcome.HANG.value == "hang"
    assert Outcome.CRASH.value == "crash"


def test_classify_trial_priority():
    sdc = Outcome.SDC.value
    due = Outcome.DETECTED_UNRECOVERABLE.value
    assert classify_trial({}) == "recovered"
    assert classify_trial({"masked": 3}) == "recovered"
    assert classify_trial({due: 1}) == "due"
    assert classify_trial({sdc: 1, due: 1}) == "sdc"
    assert classify_trial({"hang": 1, sdc: 2}) == "hang"
    assert classify_trial({"crash": 1, "hang": 1, sdc: 1, due: 1}) == "crash"


def test_hang_result_from_simulation_hang():
    trial = TrialSpec("unsync", "fibonacci", 0.001, 7)
    exc = SimulationHang("wedged", cycles=123, committed=45)
    result = hang_result(trial, exc)
    assert result.outcome == "hang" and result.taxonomy == "hang"
    assert result.cycles == 123 and result.instructions == 45
    assert "wedged" in result.error
    record = result.to_record()
    assert record["outcome"] == "hang"


def test_crash_result_keeps_traceback_tail():
    trial = TrialSpec("unsync", "fibonacci", 0.001, 7)
    result = crash_result(trial, "x" * 5000 + "KeyError: boom")
    assert result.outcome == "crash"
    assert result.error.endswith("KeyError: boom")
    assert len(result.error) <= 2000


def test_watchdog_classifies_wedged_trial_as_hang():
    trial = TrialSpec("unsync", "fibonacci", 0.0, 0, watchdog_cycles=40)
    result = run_trial(trial)
    assert result.outcome == "hang"
    assert result.cycles == 40


# ---------------------------------------------------------------------------
# campaign integration
# ---------------------------------------------------------------------------
def test_spec_rejects_unknown_fault_model():
    with pytest.raises(CampaignError):
        CampaignSpec(schemes=("unsync",), workloads=("fibonacci",),
                     sers=(0.001,), trials=2, fault_model="cosmic")
    with pytest.raises(CampaignError):
        CampaignSpec(schemes=("unsync",), workloads=("fibonacci",),
                     sers=(0.001,), trials=2, watchdog_cycles=0)


def test_spec_round_trips_fault_model():
    spec = CampaignSpec(schemes=("unsync",), workloads=("fibonacci",),
                        sers=(0.001,), trials=2,
                        fault_model="adversarial", watchdog_cycles=9999)
    assert CampaignSpec.from_dict(spec.to_dict()) == spec
    # pre-taxonomy headers default to the standard model
    legacy = {k: v for k, v in spec.to_dict().items()
              if k not in ("fault_model", "watchdog_cycles")}
    old = CampaignSpec.from_dict(legacy)
    assert old.fault_model == "standard" and old.watchdog_cycles is None


def adv_spec(**overrides):
    base = dict(schemes=("unsync", "reunion"), workloads=("fibonacci",),
                sers=(0.003,), trials=10, fault_model="adversarial")
    base.update(overrides)
    return CampaignSpec(**base)


def test_adversarial_campaign_classifies_every_trial(tmp_path):
    store = tmp_path / "adv.jsonl"
    summary = run_campaign(adv_spec(), store, workers=1)
    labels = [json.loads(line)["outcome"]
              for line in store.read_text().splitlines()[1:]]
    assert len(labels) == adv_spec().total_trials
    assert set(labels) <= set(TRIAL_OUTCOMES)
    for cell in summary.cells.values():
        by_trial = cell["outcomes_by_trial"]
        assert tuple(by_trial) == tuple(TRIAL_OUTCOMES)
        assert sum(by_trial.values()) == cell["trials"]
        assert set(cell) >= {"p_sdc", "p_due", "p_hang", "p_crash"}


def test_adversarial_campaign_produces_sdc_and_due(tmp_path):
    summary = run_campaign(adv_spec(trials=25), tmp_path / "adv.jsonl",
                           workers=2)
    assert summary.totals["sdc_trials"] > 0    # even-bit parity defeats
    assert summary.totals["due_trials"] > 0    # paired / queue strikes
    assert summary.totals["crash_trials"] == 0


def test_adversarial_campaign_serial_equals_parallel(tmp_path):
    spec = adv_spec()
    serial = run_campaign(spec, tmp_path / "s.jsonl", workers=1)
    pooled = run_campaign(spec, tmp_path / "p.jsonl", workers=3)
    assert serial.stats_dict() == pooled.stats_dict()


def test_adversarial_campaign_resume_is_byte_identical(tmp_path):
    spec = adv_spec()
    store = tmp_path / "r.jsonl"
    # interrupted run: only the first wave-equivalent completes
    first = run_campaign(adv_spec(trials=4, batch=4), tmp_path / "pre.jsonl",
                         workers=1)
    full = run_campaign(spec, store, workers=1)
    lines = store.read_text()
    resumed = run_campaign(spec, store, workers=1)  # everything cached
    assert resumed.stats_dict() == full.stats_dict()
    assert store.read_text() == lines  # append-only store untouched
    assert summarize_store(store).stats_dict() == full.stats_dict()
    assert first.totals["trials"] == 8


def test_standard_model_numbers_are_unchanged_by_the_taxonomy(tmp_path):
    # the standard injector must reproduce its historical draw sequence:
    # same seeds -> same strikes -> same aggregate, taxonomy merely adds
    # labels on top
    spec = CampaignSpec(schemes=("unsync",), workloads=("fibonacci",),
                        sers=(0.002,), trials=8)
    summary = run_campaign(spec, tmp_path / "std.jsonl", workers=1)
    cell = summary.cells["unsync/fibonacci/0.002"]
    by_trial = cell["outcomes_by_trial"]
    assert by_trial["hang"] == 0 and by_trial["crash"] == 0
    assert sum(by_trial.values()) == cell["trials"]
