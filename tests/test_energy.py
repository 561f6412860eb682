"""Tests for the runtime energy model."""

import json
import os

import pytest

from repro.harness.energy import compare_energy, energy_estimate
from repro.harness.runner import compare_schemes, run_scheme
from repro.hwcost.tech import TECH_65NM
from repro.schemes import ResilienceScheme, available, get, register
from repro.workloads import load_benchmark, load_workload

#: each registered scheme's ``energy_estimate(...).breakdown`` on
#: fibonacci, as ``repr`` floats, captured before the energy model moved
#: onto the scheme descriptors
GOLDEN_ENERGY = os.path.join(os.path.dirname(__file__), "data",
                             "golden_energy.json")


@pytest.fixture(scope="module")
def gzip_runs():
    cmp = compare_schemes(load_benchmark("gzip"))
    return {"baseline": cmp.baseline, "unsync": cmp.unsync,
            "reunion": cmp.reunion}


def test_energy_positive_and_consistent(gzip_runs):
    for scheme, res in gzip_runs.items():
        rep = energy_estimate(res)
        assert rep.total_energy_j > 0
        assert rep.time_s == pytest.approx(
            res.cycles / TECH_65NM.frequency_hz)
        assert rep.total_energy_j == pytest.approx(
            sum(rep.breakdown.values()))


def test_redundancy_costs_energy(gzip_runs):
    reports = compare_energy(gzip_runs)
    assert reports["unsync"].total_energy_j \
        > reports["baseline"].total_energy_j


def test_unsync_beats_reunion_on_energy(gzip_runs):
    """The paper's combined claim: lower power AND fewer cycles means the
    energy gap exceeds the power gap alone."""
    reports = compare_energy(gzip_runs)
    uns, reu = reports["unsync"], reports["reunion"]
    assert uns.total_energy_j < reu.total_energy_j
    assert uns.edp < reu.edp


def test_energy_per_instruction(gzip_runs):
    rep = energy_estimate(gzip_runs["baseline"])
    epi = rep.energy_per_instruction_nj(gzip_runs["baseline"].instructions)
    # a ~1 W core at IPC ~2, 300 MHz: a few nJ per instruction
    assert 0.5 < epi < 50
    with pytest.raises(ValueError):
        rep.energy_per_instruction_nj(0)


def test_event_energy_scheme_specific(gzip_runs):
    uns = energy_estimate(gzip_runs["unsync"])
    reu = energy_estimate(gzip_runs["reunion"])
    assert "cb_traffic" in uns.breakdown
    assert "fingerprints" in reu.breakdown
    assert uns.event_energy_j > 0
    assert reu.event_energy_j > 0
    # extras are second-order next to the cores themselves
    assert uns.event_energy_j < 0.2 * uns.core_energy_j


def test_unknown_scheme_rejected(gzip_runs, restored_registry):
    class Uncosted(ResilienceScheme):
        name = "uncosted"  # registered, but no system_cost model

    res = gzip_runs["baseline"]
    register(Uncosted())
    for scheme in ("quantum", "uncosted"):
        res2 = type(res)(name=res.name, scheme=scheme, cycles=1,
                         instructions=1, state=res.state)
        with pytest.raises(ValueError):
            energy_estimate(res2)


@pytest.mark.parametrize("scheme", available())
def test_energy_matches_golden_breakdown(scheme):
    with open(GOLDEN_ENERGY) as f:
        want = {k: float(v) for k, v in json.load(f)[scheme].items()}
    rep = energy_estimate(run_scheme(scheme, load_workload("fibonacci")))
    assert set(rep.breakdown) == set(want)
    for key, value in rep.breakdown.items():
        if key == "cores" and scheme in ("reptfd", "meek"):
            # the system cost also prices the replay/check queue, the
            # comparator and MEEK's fractional checker core, which the
            # golden value's flat per-core table left out
            assert value == get(scheme).system_cost().total_power_w \
                * rep.time_s
        else:
            assert value == want[key], key
