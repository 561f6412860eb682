"""Tests for Reunion's relaxed-input-replication (input incoherence)."""

import pytest

from repro.isa import golden
from repro.reunion.check_stage import ReunionParams
from repro.reunion.system import ReunionSystem
from repro.workloads import load_kernel


def test_default_has_no_incoherence(sum_loop):
    res = ReunionSystem(sum_loop).run()
    assert res.metrics["reunion.incoherence.events"] == 0


def test_incoherence_costs_cycles():
    prog = load_kernel("matmul")  # long enough that events are certain
    quiet = ReunionSystem(prog).run()
    noisy = ReunionSystem(prog, params=ReunionParams(
        input_incoherence_rate=0.01)).run()
    assert noisy.metrics["reunion.incoherence.events"] > 0
    assert noisy.cycles > quiet.cycles
    assert noisy.metrics["reunion.incoherence.cycles"] > 0


def test_incoherence_preserves_correctness(sum_loop):
    gold = golden.run(sum_loop)
    res = ReunionSystem(sum_loop, params=ReunionParams(
        input_incoherence_rate=0.02)).run()
    assert res.state.regs == gold.state.regs
    assert res.state.mem == gold.state.mem


def test_higher_rate_more_events():
    prog = load_kernel("checksum")
    lo = ReunionSystem(prog, params=ReunionParams(
        input_incoherence_rate=0.005)).run()
    hi = ReunionSystem(prog, params=ReunionParams(
        input_incoherence_rate=0.05)).run()
    assert hi.metrics["reunion.incoherence.events"] \
        > lo.metrics["reunion.incoherence.events"]


def test_escalation_fraction_tracks_probability():
    prog = load_kernel("checksum")
    res = ReunionSystem(prog, params=ReunionParams(
        input_incoherence_rate=0.2,
        incoherence_escalation_prob=0.5)).run()
    events = res.metrics["reunion.incoherence.events"]
    syncs = res.metrics["reunion.incoherence.syncs"]
    assert events > 20
    assert 0.2 <= syncs / events <= 0.8  # around the configured 0.5


def test_escalation_costs_more():
    prog = load_kernel("checksum")
    cheap = ReunionSystem(prog, params=ReunionParams(
        input_incoherence_rate=0.05,
        incoherence_escalation_prob=0.0)).run()
    dear = ReunionSystem(prog, params=ReunionParams(
        input_incoherence_rate=0.05,
        incoherence_escalation_prob=1.0)).run()
    per_cheap = cheap.metrics["reunion.incoherence.cycles"] / max(
        1, cheap.metrics["reunion.incoherence.events"])
    per_dear = dear.metrics["reunion.incoherence.cycles"] / max(
        1, dear.metrics["reunion.incoherence.events"])
    assert per_dear > per_cheap
