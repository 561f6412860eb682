"""Compare two sets of benchmark runs, metric by metric and workload by
workload.

    python3 perfbench/compare.py BASE.json NEW.json

Each file is a set of runs written by ``perfbench/run.py --out FILE``
(run it once per seed; each run appends). For every end-to-end metric of
``BENCHMARK.json`` and every workload in both sets this prints each
side's median and quartiles, the share of paired runs the new side wins
(runs pair by seed, else by order), the metric's bound and a verdict:

* ``regression``: the new median is worse than the base median by more
  than the bound;
* ``unresolved``: the base runs spread (interquartile range over median)
  wider than the bound, so "no change" cannot be told from noise, and
  not every new run beats every base run;
* ``gain``: the new side wins at least nine tenths of the pairs and the
  medians differ by more than the base runs' interquartile range;
* ``same``: none of the above.

It also prints each set's hosts and flags runs that started while the
1-minute load average exceeded the CPU count. Exit status 1 means at
least one regression.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence

if __package__ in (None, ""):  # run as a script, not with -m
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))

from perfbench.stats import quartiles  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _beats(a: float, b: float, better: str) -> bool:
    """Does value ``a`` read better than ``b``?"""
    return a > b if better == "higher" else a < b


def verdict(base: Sequence[float], new: Sequence[float], better: str,
            bound: float, pairs: Sequence[tuple]) -> Dict[str, Any]:
    """The comparison of one (metric, workload) pair; ``pairs`` are
    ``(base, new)`` values of paired runs."""
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    base_spread = (bq3 - bq1) / abs(bmed) if bmed else float("inf")
    worse_by = (nmed - bmed) / abs(bmed) if bmed else 0.0
    if better == "higher":
        worse_by = -worse_by
    wins = sum(1 for b, n in pairs if _beats(n, b, better))
    win_frac = wins / len(pairs) if pairs else 0.0
    all_better = all(_beats(n, b, better) for b in base for n in new)
    if worse_by > bound:
        label = "regression"
    elif base_spread > bound and not all_better:
        label = "unresolved"
    elif win_frac >= 0.9 and abs(nmed - bmed) > (bq3 - bq1):
        label = "gain"
    else:
        label = "same"
    return {"base": [bq1, bmed, bq3], "new": [nq1, nmed, nq3],
            "worse_by": worse_by, "win_frac": win_frac,
            "pairs": len(pairs), "base_spread": base_spread,
            "bound": bound, "verdict": label}


def _quartiles(q: List[float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def load_runs(path: str) -> List[Dict[str, Any]]:
    with open(path) as fh:
        return json.load(fh)["runs"]


def _values(runs: List[Dict[str, Any]], workload: str,
            metric: str) -> Dict[int, List[float]]:
    """seed -> values of untraced runs, in run order."""
    out: Dict[int, List[float]] = {}
    for run in runs:
        result = run["workloads"].get(workload)
        if result is not None and metric in result["metrics"]:
            out.setdefault(run["seed"], []).append(
                result["metrics"][metric])
    return out


def _pairs(base: Dict[int, List[float]],
           new: Dict[int, List[float]]) -> List[tuple]:
    shared = sorted(set(base) & set(new))
    if shared:
        return [(b, n) for seed in shared
                for b, n in zip(base[seed], new[seed])]
    flat_base = [v for vs in base.values() for v in vs]
    flat_new = [v for vs in new.values() for v in vs]
    return list(zip(flat_base, flat_new))


def describe_hosts(label: str, runs: List[Dict[str, Any]]) -> None:
    hosts = sorted({(r["host"]["python"], r["host"]["cpu_count"],
                     r["host"]["git_rev"][:12]) for r in runs})
    for python, cpus, rev in hosts:
        print(f"{label}: python {python}, {cpus} CPUs, rev {rev}")
    loaded = 0
    for run in runs:
        cpus = run["host"]["cpu_count"] or 1
        starts = [w["loadavg"][0][0] for w in run["workloads"].values()
                  if w["loadavg"] and w["loadavg"][0]]
        loaded += any(load > cpus for load in starts)
    if loaded:
        print(f"{label}: {loaded} of {len(runs)} runs started with the "
              f"1-minute load above the CPU count")


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare.py BASE.json NEW.json", file=sys.stderr)
        return 2
    base_runs, new_runs = load_runs(argv[0]), load_runs(argv[1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    describe_hosts("base", base_runs)
    describe_hosts("new", new_runs)
    workloads = [w for w in dict.fromkeys(
        name for run in base_runs for name in run["workloads"])
        if any(w in run["workloads"] for run in new_runs)]
    print(f"{'workload':<12} {'metric':<20} {'base median [q1, q3]':<30} "
          f"{'new median [q1, q3]':<30} {'worse':>7} {'wins':>9} "
          f"{'bound':>6}  verdict")
    regressions = 0
    for workload in workloads:
        for metric in metrics:
            base = _values(base_runs, workload, metric["name"])
            new = _values(new_runs, workload, metric["name"])
            if not base or not new:
                continue
            row = verdict([v for vs in base.values() for v in vs],
                          [v for vs in new.values() for v in vs],
                          metric["better"], metric["bound"],
                          _pairs(base, new))
            regressions += row["verdict"] == "regression"
            print(f"{workload:<12} {metric['name']:<20} "
                  f"{_quartiles(row['base']):<30} "
                  f"{_quartiles(row['new']):<30} "
                  f"{100 * row['worse_by']:>6.1f}% "
                  f"{row['win_frac']:>5.2f}/{row['pairs']:<3} "
                  f"{metric['bound']:>6.2f}  {row['verdict']}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
