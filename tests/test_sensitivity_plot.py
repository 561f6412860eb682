"""Tests for the sensitivity sweeps and ASCII charts."""

import pytest

from repro.harness.plot import line_chart
from repro.harness.sensitivity import KNOBS, elasticity, sweep
from repro.workloads import load_workload


# ---------------------------------------------------------------------------
# sensitivity
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def rob_sweep():
    return sweep(load_workload("checksum"), "rob_entries", (16, 80),
                 schemes=("baseline", "reunion"))


def test_sweep_shape(rob_sweep):
    assert len(rob_sweep) == 4  # 2 values x 2 schemes
    assert {p.scheme for p in rob_sweep} == {"baseline", "reunion"}
    assert {p.value for p in rob_sweep} == {16, 80}


def test_bigger_rob_never_hurts(rob_sweep):
    by = {(p.scheme, p.value): p for p in rob_sweep}
    for scheme in ("baseline", "reunion"):
        assert by[(scheme, 80)].cycles <= by[(scheme, 16)].cycles


def test_reunion_more_rob_sensitive_than_baseline(rob_sweep):
    """Deferred commit makes Reunion's ROB appetite larger — the Fig 5
    mechanism, expressed as an elasticity."""
    e_base = elasticity(rob_sweep, "baseline")
    e_reunion = elasticity(rob_sweep, "reunion")
    # both negative (more ROB = fewer cycles); Reunion more so
    assert e_reunion <= e_base <= 0.01


def test_unknown_parameter_rejected():
    with pytest.raises(ValueError, match="unknown parameter"):
        sweep(load_workload("fibonacci"), "warp_factor", (1, 2))


def test_all_knobs_produce_valid_configs():
    from repro.core.config import SystemConfig
    base = SystemConfig.table1()
    samples = {"rob_entries": 64, "iq_entries": 32, "lsq_entries": 16,
               "issue_width": 2, "bus_width_bytes": 16, "l1_size_kb": 16,
               "l2_latency": 10, "dram_latency": 200}
    for name, knob in KNOBS.items():
        cfg = knob(base, samples[name])
        assert cfg is not base


def test_elasticity_validation(rob_sweep):
    with pytest.raises(ValueError):
        elasticity([p for p in rob_sweep if p.scheme == "baseline"][:1],
                   "baseline")
    with pytest.raises(ValueError):
        elasticity(rob_sweep, "tmr")


def test_dram_latency_hurts():
    pts = sweep(load_workload("dot_product"), "dram_latency", (100, 800),
                schemes=("baseline",))
    assert pts[1].cycles >= pts[0].cycles


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------
def test_line_chart_renders_all_series():
    out = line_chart({"up": [(0, 0), (1, 1)], "down": [(0, 1), (1, 0)]},
                     title="T", width=30, height=8)
    assert "T" in out
    assert "*" in out and "o" in out
    assert "legend: * up   o down" in out


def test_line_chart_single_point():
    out = line_chart({"p": [(5, 5)]})
    assert "*" in out


def test_line_chart_empty():
    assert line_chart({}) == "(no data)"
