"""Tests for the TMR comparator and the system-level cost roll-up."""

import pytest

from repro.faults.events import Outcome
from repro.faults.injector import FaultInjector
from repro.isa import golden
from repro.hwcost.redundancy_cost import (
    redundancy_comparison, reunion_pair_cost, tmr_triple_cost,
    unprotected_cost, unsync_pair_cost,
)
from repro.redundancy.pair import BaselineSystem
from repro.redundancy.tmr import TMRSystem
from repro.workloads import load_benchmark, load_kernel


# ---------------------------------------------------------------------------
# TMR system, fault-free
# ---------------------------------------------------------------------------
def test_tmr_matches_golden(sum_loop):
    gold = golden.run(sum_loop)
    res = TMRSystem(sum_loop).run()
    assert res.instructions == gold.instructions
    assert res.state.regs == gold.state.regs
    assert res.state.mem == gold.state.mem


def test_tmr_votes_once_per_store(sum_loop):
    gold = golden.run(sum_loop, collect_stores=True)
    system = TMRSystem(sum_loop)
    res = system.run()
    # every store is voted at most once; the tail may still sit in CBs
    assert res.metrics["tmr.votes"] <= len(gold.store_log)
    assert res.metrics["tmr.votes"] >= len(gold.store_log) - 3


def test_tmr_all_three_cores_commit(sum_loop):
    system = TMRSystem(sum_loop)
    res = system.run()
    assert all(p.stats.committed == res.instructions
               for p in system.pipelines)


def test_tmr_overhead_vs_baseline_modest(sum_loop):
    base = BaselineSystem(sum_loop).run()
    tmr = TMRSystem(sum_loop).run()
    # three cores on one bus cost something, but the thread still runs
    assert tmr.cycles < base.cycles * 1.4


# ---------------------------------------------------------------------------
# TMR under faults
# ---------------------------------------------------------------------------
def test_tmr_corrects_and_stays_correct():
    prog = load_kernel("checksum")
    gold = golden.run(prog)
    system = TMRSystem(prog, injector=FaultInjector(1 / 400, seed=8))
    res = system.run()
    assert res.metrics["tmr.corrections"] > 0
    assert res.state.mem == gold.state.mem
    assert all(e.outcome is Outcome.DETECTED_RECOVERED
               for e in res.fault_events)


def test_tmr_majority_keeps_running_during_recovery():
    """Unlike UnSync, a strike freezes only one core: with a strike rate
    that would lock a pair system, TMR's completion time barely moves."""
    prog = load_kernel("checksum")
    clean = TMRSystem(prog).run()
    faulty = TMRSystem(prog, injector=FaultInjector(1 / 600, seed=8)).run()
    assert faulty.cycles <= clean.cycles * 1.6


def test_tmr_lagging_core_drops_already_voted_stores(sum_loop):
    system = TMRSystem(sum_loop, injector=FaultInjector(1 / 500, seed=2))
    res = system.run()
    # correctness implies the recovered core didn't double-write or jam
    gold = golden.run(sum_loop)
    assert res.state.mem == gold.state.mem


# ---------------------------------------------------------------------------
# system-level cost comparison
# ---------------------------------------------------------------------------
def test_cost_ordering():
    costs = {c.scheme: c for c in redundancy_comparison()}
    # area: unprotected < unsync pair < reunion pair < tmr triple
    assert costs["unprotected"].total_area_um2 \
        < costs["unsync"].total_area_um2 \
        < costs["reunion"].total_area_um2 \
        < costs["tmr"].total_area_um2
    # power: striking result of the roll-up — two Reunion cores burn more
    # than three plain MIPS cores, because the CHECK stage nearly doubles
    # per-core power; UnSync's pair undercuts both
    assert costs["unsync"].total_power_w < costs["tmr"].total_power_w \
        < costs["reunion"].total_power_w


def test_tmr_power_near_200_percent_over_unprotected():
    tmr = tmr_triple_cost()
    base = unprotected_cost()
    assert tmr.power_vs(base) == pytest.approx(2.0, abs=0.1)


def test_only_tmr_self_corrects():
    costs = {c.scheme: c for c in redundancy_comparison()}
    assert costs["tmr"].self_correcting
    assert not costs["unsync"].self_correcting
    assert not costs["reunion"].self_correcting


def test_unsync_pair_cheaper_than_reunion_pair():
    """The paper's comparison at the replica-group level."""
    uns = unsync_pair_cost()
    reu = reunion_pair_cost()
    assert uns.total_area_um2 < reu.total_area_um2
    assert uns.total_power_w < reu.total_power_w


def test_core_counts():
    assert unprotected_cost().n_cores == 1
    assert unsync_pair_cost().n_cores == 2
    assert tmr_triple_cost().n_cores == 3
