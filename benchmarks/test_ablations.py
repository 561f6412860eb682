"""Ablation benches for the design choices DESIGN.md calls out.

Not paper artifacts, but the knobs whose settings the reproduction had to
choose; each ablation shows the choice matters in the direction the
design notes claim:

* Reunion's serializing policy (drain / send / cut);
* UnSync's recovery L1-restore mode (copy vs invalidate);
* headline UnSync-vs-Reunion performance ("up to 20%" in the abstract).
"""

import pytest

from repro.faults.injector import FaultInjector
from repro.harness.report import format_table, pct
from repro.harness.runner import baseline_run, run_scheme
from repro.reunion.check_stage import ReunionParams
from repro.unsync.recovery import RecoveryCostModel
from repro.unsync.system import UnSyncConfig
from repro.workloads import load_benchmark


def test_serializing_policy_ablation(benchmark):
    """drain > send > cut in cost, on the most serializing benchmark."""
    prog = load_benchmark("bzip2")
    base = baseline_run(prog)

    def sweep():
        out = {}
        for policy in ("drain", "send", "cut"):
            res = run_scheme("reunion", prog, params=ReunionParams(
                serializing_policy=policy))
            out[policy] = res.cycles / base.cycles - 1
        return out

    overheads = benchmark(sweep)
    print()
    print(format_table(["policy", "Reunion overhead on bzip2"],
                       [(k, pct(v)) for k, v in overheads.items()],
                       title="Ablation: serializing-instruction policy"))
    assert overheads["drain"] > overheads["send"] > overheads["cut"]
    assert overheads["cut"] > 0.05  # even the weak reading is >10x UnSync
    benchmark.extra_info["overheads"] = {
        k: round(v, 4) for k, v in overheads.items()}


def test_recovery_mode_ablation(benchmark):
    """Copy-mode recovery is an order of magnitude costlier per event."""
    prog = load_benchmark("gzip")

    def sweep():
        out = {}
        for mode in ("copy", "invalidate"):
            cfg = UnSyncConfig(recovery=RecoveryCostModel(l1_restore=mode))
            res = run_scheme("unsync", prog, unsync=cfg,
                             injector=FaultInjector(1 / 1500, seed=2024))
            recoveries = max(1, res.metrics["unsync.eih.recoveries"])
            out[mode] = (res.cycles,
                         res.metrics["unsync.recovery.cycles"] / recoveries)
        return out

    results = benchmark(sweep)
    print()
    print(format_table(
        ["L1 restore", "total cycles", "cycles per recovery"],
        [(k, v[0], f"{v[1]:.0f}") for k, v in results.items()],
        title="Ablation: recovery L1-restore mode"))
    # the L1 bulk copy at least doubles the per-event cost (the common
    # terms — stall, flush, ARF and CB copies — are shared by both modes)
    assert results["copy"][1] > 2 * results["invalidate"][1]
    benchmark.extra_info["per_recovery_cycles"] = {
        k: round(v[1]) for k, v in results.items()}


def test_headline_unsync_vs_reunion(benchmark):
    """Abstract: 'up to 20% improved performance' over Reunion."""
    benches = ("bzip2", "ammp", "galgel", "sha", "gzip")

    def sweep():
        out = {}
        for name in benches:
            prog = load_benchmark(name)
            uns = run_scheme("unsync", prog)
            reu = run_scheme("reunion", prog)
            out[name] = reu.cycles / uns.cycles - 1
        return out

    speedups = benchmark(sweep)
    print()
    print(format_table(["benchmark", "UnSync speedup over Reunion"],
                       [(k, pct(v)) for k, v in speedups.items()],
                       title="Headline: UnSync vs Reunion (paper: up to "
                             "20%)"))
    best = max(speedups.values())
    assert best > 0.05                        # a real gap exists
    assert all(v > -0.02 for v in speedups.values())  # UnSync never loses
    benchmark.extra_info["best_speedup"] = round(best, 4)
    benchmark.extra_info["paper"] = "up to 20%"
