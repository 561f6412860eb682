"""Run the benchmark: time the ``repro`` CLI end to end and check it.

    python3 perfbench/run.py --workload midrun --seed 0 --seconds 30
    PYTHONPATH=src python -m perfbench.run [--workloads W ...] [--seed N]
        [--seconds S] [--repeats K] [--trace] [--out FILE]

A run of one workload first sets up ``extra_setups`` times without
running anything (launch until the CLI is ready, then stop it), then
repeats the workload's measured unit (a campaign, or a served session of
several jobs) until the next unit would overrun ``--seconds``, and at
least ``--repeats`` times. End-to-end metrics are medians over units;
``setup_s`` is the median over the set-ups and the units. Every unit's
outputs are checked (see README.md), and the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

With ``--trace`` the untraced units get half the time (and at least
one), then one traced unit runs under :mod:`perfbench.launch`, and the
metrics are the per-layer ones from its ledger.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from statistics import median
from typing import Any, Dict, List, Optional

if __package__ in (None, ""):  # run as a script, not with -m
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))

from perfbench import ledger  # noqa: E402
from perfbench.speed import SpeedProbe  # noqa: E402
from perfbench.stats import tail  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    ROOT, SRC, WORKLOADS, HTTPFailure, Outcome, clock, fresh_dir,
)

SCRATCH = os.path.join(ROOT, "perfbench", ".scratch")


def load_definitions() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def loadavg() -> List[float]:
    try:
        with open("/proc/loadavg") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except (OSError, ValueError):
        return []


def git_rev() -> str:
    # look no further up than the checkout: outside a git checkout the
    # answer is "unknown", not the commit of some enclosing repository
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host() -> Dict[str, Any]:
    return {"python": platform.python_version(),
            "cpu_count": os.cpu_count(), "git_rev": git_rev(),
            "platform": platform.platform()}


def end_to_end(outcomes: List[Outcome],
               setups: List[float]) -> Dict[str, float]:
    rates = [o.trials / o.busy_s for o in outcomes if o.busy_s > 0]
    first = [v for o in outcomes for v in o.first_s]
    done = [v for o in outcomes for v in o.done_s]
    return {
        "trials_per_s": median(rates) if rates else 0.0,
        "setup_s": median(setups),
        "peak_rss_mb": max(o.rss_mb for o in outcomes),
        "first_result_p50_s": median(first) if first else 0.0,
        "done_p50_s": median(done) if done else 0.0,
    }


def identity_failures(name: str, outcomes: List[Outcome],
                      reference: List[str]) -> Dict[str, Any]:
    """Stores that differ from ``reference`` (one digest per store of a
    unit); each fails what it holds: a campaign's trials, or one job."""
    failed, problems = 0, []
    for i, o in enumerate(outcomes):
        for j, digest in enumerate(o.digests):
            if digest and digest != reference[j]:
                failed += o.attempted_per_store
                problems.append(f"{name} unit {i} store {j}: sha256 "
                                f"{digest[:12]} != {reference[j][:12]}")
    return {"failed": failed, "problems": problems}


def _trace(w, seed: int, work: str, outcomes: List[Outcome],
           reference: List[str], probe: SpeedProbe) -> Dict[str, Any]:
    """One traced unit; its ledger, and its identity against
    ``reference``."""
    trace_dir = fresh_dir(os.path.join(SCRATCH, f"trace-{w.name}"))
    traced = w.run_unit(seed, work, "traced", probe, trace_dir=trace_dir)
    doc = ledger.build(trace_dir, w.name, w.trace_context(traced, outcomes))
    identity = identity_failures(f"{w.name} traced", [traced], reference)
    return {"metrics": doc["metrics"], "sanity": doc["sanity"],
            "attempted": traced.attempted,
            "failed": traced.failed + identity["failed"],
            "problems": traced.problems + identity["problems"],
            "dir": trace_dir}


def measure(name: str, seed: int, seconds: float, repeats: int,
            trace: bool) -> Dict[str, Any]:
    """Run one workload; returns its metrics and everything behind them."""
    w = WORKLOADS[name]
    work = fresh_dir(os.path.join(SCRATCH, f"{name}-{os.getpid()}"))
    budget = seconds / 2 if trace else seconds
    floor = 1 if trace else repeats
    setups: List[float] = []
    wall_setups: List[float] = []
    attempted = failed = 0
    problems: List[str] = []
    outcomes: List[Outcome] = []
    loads = [loadavg()]
    start = clock()
    try:
        with SpeedProbe() as probe:
            for i in range(w.extra_setups):
                try:
                    scaled, wall = w.set_up(seed, work, f"s{i}", probe)
                except (OSError, HTTPFailure) as exc:
                    attempted += 1
                    failed += 1
                    problems.append(f"{name} set-up {i}: {exc!r}")
                    continue
                setups.append(scaled)
                wall_setups.append(wall)
            units_start = clock()
            while True:
                outcomes.append(w.run_unit(seed, work, f"u{len(outcomes)}",
                                           probe))
                loads.append(loadavg())
                n = len(outcomes)
                unit_s = (clock() - units_start) / n
                if n >= floor and clock() + unit_s - start > budget:
                    break
            reference = w.reference(seed, work, outcomes)
            identity = identity_failures(name, outcomes, reference)
            setups += [o.setup_s for o in outcomes]
            wall_setups += [o.raw["setup_s"] for o in outcomes]
            result = {
                "metrics": end_to_end(outcomes, setups),
                "attempted": attempted + sum(o.attempted for o in outcomes),
                "failed": failed + identity["failed"]
                + sum(o.failed for o in outcomes),
                "problems": problems
                + [p for o in outcomes for p in o.problems]
                + identity["problems"],
                "setups": {"scaled": setups, "wall": wall_setups},
                "units": [{"setup_s": o.setup_s, "rss_mb": o.rss_mb,
                           "first_s": o.first_s, "done_s": o.done_s,
                           "trials": o.trials, "busy_s": o.busy_s,
                           "failed": o.failed, "digests": o.digests,
                           "raw": o.raw}
                          for o in outcomes],
                "loadavg": loads,
            }
            done = [v for o in outcomes for v in o.done_s]
            first = [v for o in outcomes for v in o.first_s]
            result["tails"] = {"first_result": tail(first),
                               "done": tail(done), "samples": len(done)}
            if trace:
                result["trace"] = _trace(w, seed, work, outcomes, reference,
                                         probe)
                result["loadavg"].append(loadavg())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result


def _print_metrics(name: str, metrics: Dict[str, float],
                   units: Dict[str, str]) -> None:
    for metric, value in metrics.items():
        print(f"  {name:<12} {metric:<42} {value:>14.6g} "
              f"{units.get(metric, '')}")


def _append_report(path: str, run: Dict[str, Any]) -> None:
    """Add ``run`` to the set of runs stored in ``path``."""
    doc: Dict[str, Any] = {"schema": 1, "runs": []}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc["runs"].append(run)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _interrupt(signum, frame):
    # a killed benchmark must still stop and reap the processes it
    # started: unwind through their cleanup like Ctrl-C does
    raise KeyboardInterrupt


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench.run",
        description="time the repro CLI end to end, check its outputs, "
                    "and print every metric in BENCHMARK.json")
    parser.add_argument("--workload", "--workloads", dest="workloads",
                        nargs="+", action="extend", choices=list(WORKLOADS),
                        help="workloads to run (default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed_base and served jobs' seeds")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="minimum measured units per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1],
                        help="1: add a traced run and report the "
                             "per-layer ledger")
    parser.add_argument("--out", metavar="FILE",
                        help="append this run's report to the set in FILE")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    try:
        definitions = load_definitions()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGTERM, _interrupt)
    seconds = args.seconds if args.seconds is not None \
        else float(definitions["run_seconds"])
    names = args.workloads or list(WORKLOADS)
    units = {group: {m["name"]: m["unit"] for m in definitions[group]}
             for group in ("end_to_end", "per_layer")}
    reported_units = units["per_layer" if args.trace else "end_to_end"]

    run: Dict[str, Any] = {"host": host(), "seed": args.seed,
                           "seconds": seconds, "trace": bool(args.trace),
                           "workloads": {}}
    correct, attempted, failed = True, 0, 0
    reported: Dict[str, Dict[str, Any]] = {}
    for name in names:
        result = measure(name, args.seed, seconds, max(1, args.repeats),
                         bool(args.trace))
        run["workloads"][name] = result
        print(f"{name}: seed {args.seed}, {len(result['units'])} units, "
              f"{len(result['setups']['scaled'])} set-ups")
        _print_metrics(name, result["metrics"], units["end_to_end"])
        tails = result["tails"]
        for label in ("first_result", "done"):
            if tails[label]:
                p, value = tails[label]
                print(f"  {name:<12} {label} tail: p{p} = {value:.4f} s "
                      f"(n={tails['samples']})")
        parts = [result]
        metrics = result["metrics"]
        if args.trace:
            traced = result["trace"]
            parts.append(traced)
            metrics = traced["metrics"]
            print(f"  {name:<12} per-layer ledger: {traced['dir']}")
            _print_metrics(name, {m: metrics[m] for m in units["per_layer"]},
                           units["per_layer"])
            print(f"  {name:<12} sanity: {traced['sanity']}")
        for part in parts:
            attempted += part["attempted"]
            failed += part["failed"]
            for problem in part["problems"]:
                print(f"  FAIL {problem}")
        correct = correct and failed == 0
        prefix = "" if len(names) == 1 else f"{name}:"
        for metric, unit in reported_units.items():
            reported[prefix + metric] = {"value": metrics[metric],
                                         "unit": unit}
    if args.out:
        _append_report(args.out, run)
        print(f"appended the report to {args.out}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        sys.exit(130)
