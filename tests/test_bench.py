"""Tests for the ``repro bench`` throughput harness."""

import json

import pytest

from repro.harness import bench
from repro.harness.bench import (
    BenchBaselineError, BenchResult, REFERENCE_SCENARIO, SCENARIOS,
    check_regression, load_report, run_bench, to_report, write_report,
)


def test_scenario_registry():
    assert set(SCENARIOS) == {"golden", "baseline-core", "unsync-pair",
                              "reunion-pair", "telemetry-pair",
                              "campaign-smoke", "campaign-differential"}
    assert REFERENCE_SCENARIO in SCENARIOS


def test_run_bench_quick_smoke():
    results = run_bench(["golden", "baseline-core"], quick=True)
    by_name = {r.scenario: r for r in results}
    assert set(by_name) == {"golden", "baseline-core"}
    for r in results:
        assert r.instructions > 0
        assert r.seconds > 0
        assert r.instr_per_sec > 0
    # the interpreter must out-run the cycle-stepped core
    assert (by_name["golden"].instr_per_sec
            > by_name["baseline-core"].instr_per_sec)


def test_baseline_core_times_the_baseline_system():
    """`baseline-core` runs the unprotected baseline the figures
    normalise against, write buffer included, and counts its one core's
    cycles; the pairs count both cores' cycles."""
    from repro.harness.runner import run_scheme
    from repro.workloads import load_workload
    program = load_workload("bzip2")
    base = run_scheme("baseline", program)
    assert (base.instructions, base.cycles) == (6266, 3187)
    assert SCENARIOS["baseline-core"](False)() == (6266, 3187)
    pair = run_scheme("unsync", program)
    assert SCENARIOS["unsync-pair"](False)() == \
        (pair.instructions, 2 * pair.cycles)


def test_run_bench_rejects_unknown_scenario():
    with pytest.raises(ValueError, match="unknown scenario"):
        run_bench(["golden", "no-such-scenario"])


def test_report_roundtrip(tmp_path):
    results = [
        BenchResult("golden", instructions=1000, cycles=0,
                    seconds=0.01, repeats=1),
        BenchResult("unsync-pair", instructions=1000, cycles=2000,
                    seconds=0.1, repeats=1),
    ]
    path = tmp_path / "BENCH_pipeline.json"
    written = write_report(results, str(path), quick=True)
    loaded = load_report(str(path))
    assert loaded == written
    assert loaded["schema"] == bench.SCHEMA
    assert loaded["scenarios"]["unsync-pair"]["instr_per_sec"] == 10000.0


def test_load_report_rejects_non_reports(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text(json.dumps({"hello": 1}))
    with pytest.raises(ValueError, match="not a bench report"):
        load_report(str(path))


def _report(**instr_per_sec):
    results = [BenchResult(name, instructions=int(ips), cycles=0,
                           seconds=1.0, repeats=1)
               for name, ips in instr_per_sec.items()]
    return to_report(results, quick=False)


def test_check_regression_relative_mode():
    base = _report(golden=100_000, **{"unsync-pair": 10_000})
    # same relative index on a machine twice as fast: no failure
    fast = _report(golden=200_000, **{"unsync-pair": 20_000})
    assert check_regression(fast, base) == []
    # unsync-pair lost half its relative throughput: failure
    slow = _report(golden=200_000, **{"unsync-pair": 10_000})
    failures = check_regression(slow, base)
    assert len(failures) == 1 and "unsync-pair" in failures[0]


def test_check_regression_absolute_mode():
    base = _report(golden=100_000, **{"unsync-pair": 10_000})
    ok = _report(golden=100_000, **{"unsync-pair": 9_000})
    bad = _report(golden=100_000, **{"unsync-pair": 7_000})
    assert check_regression(ok, base, absolute=True) == []
    failures = check_regression(bad, base, absolute=True)
    assert failures and "30.0% regression" in failures[0]
    # golden itself participates in absolute mode
    gbad = _report(golden=50_000, **{"unsync-pair": 10_000})
    assert any("golden" in f for f in check_regression(gbad, base,
                                                       absolute=True))


def test_check_regression_skips_scenarios_missing_from_baseline():
    base = _report(golden=100_000, **{"unsync-pair": 10_000})
    cur = _report(golden=100_000, **{"unsync-pair": 10_000,
                                     "telemetry-pair": 9_000})
    # telemetry-pair is new this PR: skipped, not failed
    assert check_regression(cur, base) == []


def test_check_regression_rejects_disjoint_scenario_sets():
    base = _report(golden=100_000, **{"unsync-pair": 10_000})
    cur = _report(golden=100_000, **{"reunion-pair": 10_000})
    with pytest.raises(BenchBaselineError, match="no scenarios comparable"):
        check_regression(cur, base)
    # a golden-only baseline compares nothing in relative mode either
    with pytest.raises(BenchBaselineError):
        check_regression(cur, _report(golden=100_000))


def test_relative_check_requires_golden():
    base = _report(golden=100_000, **{"unsync-pair": 10_000})
    cur = _report(**{"unsync-pair": 10_000})
    with pytest.raises(BenchBaselineError, match="reference scenario"):
        check_regression(cur, base)


def test_load_report_rejects_invalid_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(BenchBaselineError, match="not valid JSON"):
        load_report(str(path))


def test_relative_index_uses_median_of_round_ratios():
    # golden round 2 is 10x slower (machine-load spike). The aggregate
    # best-of quotient would be unaffected, but a spike on the *scenario*
    # side would tank it; the per-round median shrugs either off.
    results = [
        BenchResult("golden", instructions=1000, cycles=0, seconds=0.01,
                    repeats=3, round_seconds=(0.01, 0.1, 0.01)),
        BenchResult("unsync-pair", instructions=1000, cycles=0, seconds=0.1,
                    repeats=3, round_seconds=(0.1, 1.0, 0.1)),
    ]
    report = to_report(results, quick=False)
    idx = bench._relative_index(report["scenarios"])
    # every round agrees: unsync runs at 0.1x golden throughput
    assert idx["unsync-pair"] == pytest.approx(0.1)
    # drift hitting one side of one round moves the median only slightly
    skewed = [
        BenchResult("golden", instructions=1000, cycles=0, seconds=0.01,
                    repeats=3, round_seconds=(0.01, 0.01, 0.01)),
        BenchResult("unsync-pair", instructions=1000, cycles=0, seconds=0.1,
                    repeats=3, round_seconds=(0.1, 1.0, 0.1)),
    ]
    idx = bench._relative_index(to_report(skewed, quick=False)["scenarios"])
    assert idx["unsync-pair"] == pytest.approx(0.1)


def test_relative_index_falls_back_without_round_data():
    # reports written before round timing existed have no round_seconds
    base = _report(golden=100_000, **{"unsync-pair": 10_000})
    for rec in base["scenarios"].values():
        del rec["round_seconds"]
    idx = bench._relative_index(base["scenarios"])
    assert idx["unsync-pair"] == pytest.approx(0.1)


def test_run_bench_records_round_seconds():
    results = run_bench(["golden"], quick=True, repeat=2)
    assert len(results[0].round_seconds) == 2
    assert results[0].seconds == min(results[0].round_seconds)


def test_regression_threshold_boundary():
    base = _report(golden=100_000, **{"unsync-pair": 10_000})
    near_limit = _report(golden=100_000, **{"unsync-pair": 7_600})  # -24%
    assert check_regression(near_limit, base, max_regression=0.25) == []
    below = _report(golden=100_000, **{"unsync-pair": 7_400})       # -26%
    assert check_regression(below, base, max_regression=0.25)
