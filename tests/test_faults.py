"""Tests for SER math, detectors, injector, and the block inventory."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.faults.detection import (
    DMRDetector, NoDetector, ParityDetector, SECDEDDetector,
)
from repro.faults.events import FaultEvent, Outcome
from repro.faults.injector import (
    Block, BlockInventory, BLOCKS, FaultInjector, REUNION_DETECTORS,
    UNSYNC_DETECTORS,
)
from repro.faults.ser import (
    BREAK_EVEN_SER, FIT_130NM, FIT_180NM, PAPER_SER_90NM_PER_INSTRUCTION,
    SERModel, break_even_ser, fit_to_per_cycle, fit_to_per_instruction,
    scale_fit,
)


# ---------------------------------------------------------------------------
# SER arithmetic
# ---------------------------------------------------------------------------
def test_fit_anchors_are_papers():
    assert FIT_180NM == 1_000
    assert FIT_130NM == 100_000
    assert BREAK_EVEN_SER == 1.29e-3
    assert PAPER_SER_90NM_PER_INSTRUCTION == 2.89e-17


def test_scale_fit_default_is_exponential_step():
    assert scale_fit(FIT_180NM) == FIT_130NM


def test_fit_to_per_cycle():
    # 3600 failures per 1e9 hours at 1 Hz = 1e-9 per cycle
    assert fit_to_per_cycle(3600, 1.0) == pytest.approx(1e-9)


def test_fit_to_per_instruction_divides_by_ipc():
    per_cycle = fit_to_per_cycle(1000, 2e9)
    assert fit_to_per_instruction(1000, 2e9, 2.0) == pytest.approx(per_cycle / 2)


def test_fit_invalid_args():
    with pytest.raises(ValueError):
        fit_to_per_cycle(100, 0)
    with pytest.raises(ValueError):
        fit_to_per_instruction(100, 1e9, 0)


def test_sermodel_trend_nodes():
    m180 = SERModel.at_node(180)
    m130 = SERModel.at_node(130)
    m90 = SERModel.at_node(90)
    assert m130.per_instruction == pytest.approx(100 * m180.per_instruction)
    assert m90.per_instruction == pytest.approx(100 * m130.per_instruction)


def test_sermodel_saturates_below_65nm():
    m90 = SERModel.at_node(90)
    m65 = SERModel.at_node(65)
    m45 = SERModel.at_node(45)
    assert m65.per_instruction == pytest.approx(m90.per_instruction)
    assert m45.per_instruction == pytest.approx(m90.per_instruction)


def test_sermodel_expectations():
    m = SERModel(per_instruction=1e-6)
    assert m.errors_expected(1_000_000) == pytest.approx(1.0)
    assert m.mean_instructions_between_errors() == pytest.approx(1e6)
    assert m.probability_of_at_least_one(1_000_000) == pytest.approx(
        1 - math.exp(-1), rel=1e-6)


def test_sermodel_zero_rate():
    assert SERModel(0.0).mean_instructions_between_errors() == math.inf


def test_break_even_function():
    # advantage 0.05 cyc/instr, penalty 50 cyc/error -> 1e-3 errors/instr
    assert break_even_ser(0.05, 50) == pytest.approx(1e-3)
    assert break_even_ser(0.0, 50) == 0.0
    with pytest.raises(ValueError):
        break_even_ser(0.05, 0)


# ---------------------------------------------------------------------------
# detectors
# ---------------------------------------------------------------------------
def test_parity_detects_odd_misses_even():
    p = ParityDetector()
    assert p.check(1).detected
    assert p.check(3).detected
    assert not p.check(2).detected
    assert not p.check(0).detected
    assert not p.check(1).corrected  # parity never corrects


def test_dmr_detects_any_upset_same_cycle():
    d = DMRDetector()
    assert d.check(1).detected
    assert d.check(5).detected
    assert d.check(1).latency_cycles == 0


def test_secded_corrects_one_detects_two():
    s = SECDEDDetector()
    one = s.check(1)
    assert one.detected and one.corrected
    two = s.check(2)
    assert two.detected and not two.corrected
    three = s.check(3)
    assert not three.detected  # conservative: 3+ may alias


def test_no_detector():
    n = NoDetector()
    assert not n.check(1).detected


def test_parity_latency_one_cycle():
    assert ParityDetector().check(1).latency_cycles == 1


# ---------------------------------------------------------------------------
# inventory and injector
# ---------------------------------------------------------------------------
def test_default_inventory_block_names():
    names = {b.name for b in BLOCKS}
    assert {"regfile", "pc", "pipeline_regs", "rob", "iq", "lsq",
            "itlb", "dtlb", "l1i_data", "l1d_data"} == names


def test_l1_dominates_bit_count():
    inv = BlockInventory()
    l1_bits = inv.get("l1i_data").bits + inv.get("l1d_data").bits
    assert l1_bits / inv.total_bits > 0.9


def test_inventory_weights_sum_to_one():
    inv = BlockInventory()
    assert sum(inv.weights()) == pytest.approx(1.0)


def test_empty_inventory_rejected():
    with pytest.raises(ValueError):
        BlockInventory([])


def test_unsync_covers_everything_single_bit():
    inv = BlockInventory()
    assert inv.coverage(UNSYNC_DETECTORS) == pytest.approx(1.0)


def test_reunion_system_coverage_below_unsync():
    inv = BlockInventory()
    reunion = inv.coverage(REUNION_DETECTORS, fingerprint_pre_commit=True)
    assert reunion < 1.0
    # the gap is the architectural storage (ARF + TLBs)
    exposed = (inv.get("regfile").bits + inv.get("itlb").bits
               + inv.get("dtlb").bits)
    assert 1.0 - reunion == pytest.approx(exposed / inv.total_bits)


def test_unsync_parity_misses_double_bit_in_storage():
    inv = BlockInventory()
    caught = sum(b.bits for b in inv
                 if UNSYNC_DETECTORS[b.name].check(2).detected)
    # DMR blocks still catch 2-bit upsets; parity blocks do not
    assert 0 < caught / inv.total_bits < 0.2


def _strikes(inj, horizon):
    """Walk the strike stream the way the simulators arm it."""
    strikes = []
    strike = inj.next_strike(0)
    while strike is not None and strike.cycle < horizon:
        strikes.append(strike)
        strike = inj.next_strike(strike.cycle)
    return strikes


def test_injector_deterministic_by_seed():
    a = _strikes(FaultInjector(0.01, seed=5), 10_000)
    b = _strikes(FaultInjector(0.01, seed=5), 10_000)
    assert a == b
    c = _strikes(FaultInjector(0.01, seed=6), 10_000)
    assert a != c


def test_injector_rate_zero_never_strikes():
    inj = FaultInjector(0.0)
    assert inj.next_interval() == math.inf
    assert inj.next_strike(0) is None


def test_injector_strike_count_tracks_rate():
    strikes = _strikes(FaultInjector(1 / 100, seed=1), 100_000)
    assert 800 <= len(strikes) <= 1200  # ~1000 expected


@pytest.mark.parametrize("rate", [1.0, 0.5, 1 / 100])
def test_next_strike_lands_at_least_one_cycle_after_now(rate):
    """Sub-cycle interval draws still advance the clock, so a simulator
    sees at most one strike per cycle however high the rate."""
    inj = FaultInjector(rate, seed=2)
    now = 0
    for _ in range(1000):
        strike = inj.next_strike(now)
        assert strike.cycle >= now + 1
        now = strike.cycle


def test_injector_weights_follow_bits():
    inj = FaultInjector(1.0, seed=3)
    hits = [inj.strike_at(0).block for _ in range(2000)]
    l1_frac = sum(1 for b in hits if b.startswith("l1")) / len(hits)
    assert l1_frac > 0.9  # L1s are >90% of bits


def test_injector_bit_in_range():
    inj = FaultInjector(1.0, seed=4)
    for _ in range(100):
        s = inj.strike_at(0)
        assert 0 <= s.bit < inj.inventory.get(s.block).bits


def test_negative_rate_rejected():
    with pytest.raises(ValueError):
        FaultInjector(-1.0)


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------
def test_fault_event_detected_property():
    e = FaultEvent(cycle=0, core_id=0, block="regfile", bit=0,
                   outcome=Outcome.DETECTED_RECOVERED)
    assert e.detected
    e2 = FaultEvent(cycle=0, core_id=0, block="regfile", bit=0,
                    outcome=Outcome.SDC)
    assert not e2.detected


@given(st.integers(min_value=1, max_value=64))
def test_parity_detection_parity_property(k):
    assert ParityDetector().check(k).detected == (k % 2 == 1)
