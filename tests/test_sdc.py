"""Tests for the SDC corruption experiments + AVF cross-validation."""

import pytest

from repro.faults.avf import regfile_liveness_avf
from repro.faults.sdc import (
    SDCCampaign, SDCOutcome, run_with_corruption,
)
from repro.isa.assembler import assemble
from repro.workloads import load_workload


DEAD_VALUE = assemble("""
main:
    addi r5, r0, 7          # written, never read: corruption is dead
    li r1, 20
loop:
    addi r1, r1, -1
    bne r1, r0, loop
    addi r5, r0, 9          # overwritten regardless
    la r2, result
    sw r5, 0(r2)
    halt
.data
result: .word 0
""", name="dead_value")

LIVE_VALUE = assemble("""
main:
    addi r5, r0, 7          # read at the very end: live whole run
    li r1, 20
loop:
    addi r1, r1, -1
    bne r1, r0, loop
    la r2, result
    sw r5, 0(r2)
    halt
.data
result: .word 0
""", name="live_value")


def test_corrupting_dead_register_is_masked():
    # flip r5 early: it's rewritten before the only read
    outcome = run_with_corruption(DEAD_VALUE, at_instruction=5,
                                  target="reg", index=5, bit=0)
    assert outcome is SDCOutcome.MASKED


def test_corrupting_live_register_is_sdc():
    outcome = run_with_corruption(LIVE_VALUE, at_instruction=5,
                                  target="reg", index=5, bit=0)
    assert outcome is SDCOutcome.SDC


def test_corrupting_r0_is_always_masked():
    outcome = run_with_corruption(LIVE_VALUE, at_instruction=5,
                                  target="reg", index=0, bit=3)
    assert outcome is SDCOutcome.MASKED


def test_corrupting_loop_counter_can_crash():
    # flip a high bit of the loop counter: the countdown overshoots and
    # the loop runs ~2^31 iterations -> watchdog (limit) catches it
    outcome = run_with_corruption(LIVE_VALUE, at_instruction=4,
                                  target="reg", index=1, bit=31,
                                  max_instructions=5_000)
    assert outcome is SDCOutcome.CRASH


def test_memory_corruption_of_result_is_sdc():
    prog = load_workload("fibonacci")
    addr = prog.labels["result"]
    from repro.isa import golden
    total = golden.run(prog).instructions
    outcome = run_with_corruption(prog, at_instruction=total - 1,
                                  target="mem", index=addr, bit=2)
    # result is written at the end... corrupt just before the final store:
    # the store overwrites it -> masked; corrupt the stored value's source
    # is a different path. Accept either determinate outcome.
    assert outcome in (SDCOutcome.MASKED, SDCOutcome.SDC)


def test_unknown_target_rejected():
    with pytest.raises(ValueError):
        run_with_corruption(LIVE_VALUE, 1, "cache", 0, 0)


# ---------------------------------------------------------------------------
# campaigns + AVF cross-validation
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def checksum_campaign():
    return SDCCampaign(load_workload("checksum"), trials=150,
                       seed=3).run_campaign(target="reg")


def test_campaign_rates_sum_to_one(checksum_campaign):
    rates = checksum_campaign.rates()
    assert sum(rates.values()) == pytest.approx(1.0)
    assert len(checksum_campaign.results) == 150


def test_campaign_masking_dominates(checksum_campaign):
    """Most random register bits are dead at any instant — masking should
    dominate, which is the whole premise of AVF-guided protection."""
    assert checksum_campaign.masking_rate > 0.5


def test_campaign_deterministic():
    a = SDCCampaign(load_workload("fibonacci"), trials=40, seed=9)
    b = SDCCampaign(load_workload("fibonacci"), trials=40, seed=9)
    assert [r.outcome for r in a.run_campaign().results] == \
        [r.outcome for r in b.run_campaign().results]


def test_dynamic_sdc_rate_tracks_static_avf(checksum_campaign):
    """The static liveness AVF and the measured non-masked rate must
    agree on order of magnitude — the AVF-validation experiment."""
    avf = regfile_liveness_avf(load_workload("checksum"))
    dynamic = 1.0 - checksum_campaign.masking_rate
    assert dynamic == pytest.approx(avf, abs=0.15)
