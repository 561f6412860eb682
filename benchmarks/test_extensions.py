"""Benches for the extension experiments beyond the paper's figures.

* pair scaling: the Table I machine is a 4-core / two-pair CMP — measure
  the cross-pair uncore interference single-pair runs can't see;
* Figure 2 hazard quantification: the unrecoverability probability that
  justifies the write-through requirement;
* redundancy spectrum: per-protected-thread silicon cost of UnSync vs
  Reunion vs TMR, with TMR's measured availability advantage.
"""

import pytest

from repro.faults.injector import FaultInjector
from repro.harness.report import format_table, pct
from repro.harness.runner import run_scheme
from repro.hwcost.redundancy_cost import redundancy_comparison
from repro.mem.cache import WritePolicy
from repro.redundancy.multipair import MultiPairSystem
from repro.redundancy.tmr import TMRSystem
from repro.unsync.eih import EIHConfig
from repro.unsync.writeback_hazard import HazardModel
from repro.workloads import load_benchmark


def test_pair_scaling(benchmark):
    """Two pairs on one L2 (the paper's Figure 1 topology)."""
    def experiment():
        solo = {}
        for name in ("sha", "gzip"):
            solo[name] = run_scheme("unsync", load_benchmark(name)).cycles
        mp = MultiPairSystem([load_benchmark("sha"), load_benchmark("gzip")])
        shared = mp.run()
        return solo, shared

    solo, shared = benchmark(experiment)
    rows = []
    for r in shared.pair_results:
        bench = r.name.split(".")[-1]
        interference = r.cycles / solo[bench] - 1
        rows.append([bench, solo[bench], r.cycles, pct(interference)])
    print()
    print(format_table(["pair workload", "solo cycles", "shared cycles",
                        "interference"], rows,
                       title="Two UnSync pairs on one bus + L2"))
    for r in shared.pair_results:
        bench = r.name.split(".")[-1]
        assert r.cycles >= solo[bench]          # sharing never helps
        assert r.cycles <= solo[bench] * 1.5    # ...and is not catastrophic
    benchmark.extra_info["aggregate_ipc"] = round(
        shared.aggregate_throughput, 3)


def test_figure2_hazard_quantified(benchmark):
    """The write-through requirement, as numbers."""
    def experiment():
        rows = []
        for window_name, eih in (("tight (5 cyc)", EIHConfig(2, 3)),
                                 ("loose (40 cyc)", EIHConfig(20, 20))):
            m = HazardModel(strike_rate_per_cycle=1e-4,
                            dirty_fraction_of_bits=0.4, eih=eih)
            rows.append((window_name,
                         m.p_unrecoverable_given_detection(
                             WritePolicy.WRITE_BACK),
                         m.p_unrecoverable_given_detection(
                             WritePolicy.WRITE_THROUGH),
                         m.monte_carlo(WritePolicy.WRITE_BACK,
                                       trials=150_000, seed=1)))
        return rows

    rows = benchmark(experiment)
    print()
    print(format_table(
        ["EIH window", "P[unrec] write-back", "write-through",
         "monte-carlo (WB)"],
        [(n, f"{wb:.2e}", f"{wt:.0e}", f"{mc:.2e}") for n, wb, wt, mc in rows],
        title="Figure 2 (quantified): unrecoverable-error probability per "
              "detected error"))
    for _, wb, wt, mc in rows:
        assert wt == 0.0                       # write-through: never
        assert wb > 0                          # write-back: real exposure
        assert mc == pytest.approx(wb, rel=0.3)
    # a longer EIH window raises the exposure
    assert rows[1][1] > rows[0][1]


def test_redundancy_spectrum(benchmark):
    """UnSync vs Reunion vs TMR: silicon cost and availability."""
    def experiment():
        costs = redundancy_comparison()
        prog = load_benchmark("gzip")
        tmr_faulty = TMRSystem(prog,
                               injector=FaultInjector(1 / 1500, seed=5)).run()
        tmr_clean = TMRSystem(prog).run()
        return costs, tmr_clean, tmr_faulty

    costs, tmr_clean, tmr_faulty = benchmark(experiment)
    print()
    print(format_table(
        ["scheme", "cores", "area (um2)", "power (W)", "self-correcting"],
        [(c.scheme, c.n_cores, f"{c.total_area_um2:.0f}",
          f"{c.total_power_w:.2f}", c.self_correcting) for c in costs],
        title="Redundancy spectrum: cost per protected thread"))
    print(f"TMR under strikes: {tmr_faulty.metrics['tmr.corrections']:.0f} "
          f"corrections, slowdown "
          f"{pct(tmr_faulty.cycles / tmr_clean.cycles - 1)} "
          f"(majority keeps running)")

    by = {c.scheme: c for c in costs}
    assert by["unsync"].total_area_um2 < by["reunion"].total_area_um2 \
        < by["tmr"].total_area_um2
    assert by["unsync"].total_power_w < by["tmr"].total_power_w \
        < by["reunion"].total_power_w   # 2 CHECK stages > a third core
    assert tmr_faulty.cycles < tmr_clean.cycles * 1.5
    benchmark.extra_info["tmr_slowdown_under_strikes"] = round(
        tmr_faulty.cycles / tmr_clean.cycles - 1, 4)
