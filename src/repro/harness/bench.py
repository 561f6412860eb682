"""Simulator-throughput benchmark harness (``repro bench``).

The paper's evaluation is thousands of seeded injection runs, so the
figure-of-merit for the *reproduction* itself is simulator throughput:
how many simulated instructions and cycles per wall-clock second each
layer of the stack sustains. This module runs a fixed set of seeded
scenarios — the golden interpreter, the unprotected baseline system (one
out-of-order core and its write buffer), the UnSync and Reunion pairs,
and a serial campaign smoke — and writes the measurements to
``BENCH_pipeline.json`` at the repo root so the perf trajectory
accumulates across PRs.

Every scenario is deterministic (fixed workloads, fixed seeds); only the
wall-clock varies. Regression checking therefore supports two modes:

* **relative** (default): each scenario's throughput is normalised by
  the golden-interpreter throughput measured *in the same run*, which
  cancels machine speed and makes the check meaningful on CI runners of
  unknown horsepower;
* **absolute**: raw instr/sec comparison, for before/after runs on the
  same machine (the numbers quoted in EXPERIMENTS.md).
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: schema version of BENCH_pipeline.json
SCHEMA = 1

#: scenario used as the machine-speed yardstick in relative checks
REFERENCE_SCENARIO = "golden"


class BenchBaselineError(ValueError):
    """The baseline report cannot support the requested regression check
    (missing file content, wrong shape, or disjoint scenario sets). The
    message is actionable — the CLI prints it without a traceback."""


@dataclass(frozen=True)
class BenchResult:
    """One scenario's measurement (best of ``repeats`` runs)."""

    scenario: str
    instructions: int
    cycles: int
    seconds: float
    repeats: int
    #: wall time of every repeat, in round order. Repeats are interleaved
    #: round-robin across scenarios, so round i of two scenarios ran
    #: adjacently — per-round ratios cancel machine-load drift.
    round_seconds: Tuple[float, ...] = ()

    @property
    def instr_per_sec(self) -> float:
        return self.instructions / self.seconds if self.seconds else 0.0

    @property
    def cycles_per_sec(self) -> float:
        return self.cycles / self.seconds if self.seconds else 0.0

    def to_record(self) -> Dict:
        return {
            "instructions": self.instructions,
            "cycles": self.cycles,
            "seconds": round(self.seconds, 6),
            "repeats": self.repeats,
            "round_seconds": [round(s, 6) for s in self.round_seconds],
            "instr_per_sec": round(self.instr_per_sec, 1),
            "cycles_per_sec": round(self.cycles_per_sec, 1),
        }


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------
def _sc_golden(quick: bool) -> Callable[[], Tuple[int, int]]:
    from repro.isa import golden
    from repro.workloads import load_workload
    program = load_workload("fibonacci" if quick else "bzip2")
    # the interpreter finishes bzip2 in ~10 ms — too short to time
    # against OS jitter, and golden is the regression check's yardstick.
    # Loop it so the timed region is comparable to the pair scenarios.
    reps = 1 if quick else 8

    def run() -> Tuple[int, int]:
        total = 0
        for _ in range(reps):
            res = golden.run(program, max_instructions=2_000_000)
            total += res.instructions
        return total, 0
    return run


def _sc_scheme(scheme: str, quick: bool,
               telemetry: bool = False) -> Callable[[], Tuple[int, int]]:
    """One registered scheme's system on one workload. With ``telemetry``
    the unsync pair runs with full telemetry *enabled*: its gap to
    `unsync-pair` is the telemetry-on overhead, and `unsync-pair` against
    the committed baseline is the telemetry-off gate."""
    from repro.harness.runner import run_scheme
    from repro.telemetry import Telemetry
    from repro.workloads import load_workload
    program = load_workload("fibonacci" if quick else "bzip2")

    def run() -> Tuple[int, int]:
        res = run_scheme(scheme, program,
                         telemetry=Telemetry() if telemetry else None)
        # a pair steps two pipelines per wall-clock cycle; count each so
        # cycles/sec reflects simulated core-cycles of work
        return res.instructions, len(res.core_stats) * res.cycles
    return run


def _sc_campaign(quick: bool) -> Callable[[], Tuple[int, int]]:
    from repro.campaign.spec import TrialSpec
    from repro.campaign.trial import run_trial
    trials = 3 if quick else 8

    def run() -> Tuple[int, int]:
        instructions = cycles = 0
        for seed in range(trials):
            spec = TrialSpec(scheme="unsync", workload="fibonacci",
                             ser=0.005, seed=seed)
            res = run_trial(spec)
            instructions += res.instructions
            cycles += 2 * res.cycles
        return instructions, cycles
    return run


def _sc_campaign_differential(quick: bool) -> Callable[[], Tuple[int, int]]:
    """Differential-replay trial throughput on a late-injection grid.

    Paper-scale SERs put the first strike past the kernel's fault-free
    completion for most seeds, so the differential runner serves the cached
    prefix verdict instead of re-simulating — the gap between this
    scenario and ``campaign-smoke`` (scaled by the trial counts and
    strike profiles) is the differential-replay win the EXPERIMENTS
    table quotes. The prefix cache is warmed in the factory, outside the
    timed region, mirroring the other scenarios' workload assembly.
    """
    from repro.campaign.snapshot import CACHE, run_trial_differential
    from repro.campaign.spec import TrialSpec
    trials = 6 if quick else 24

    def spec_for(seed: int) -> TrialSpec:
        return TrialSpec(scheme="unsync", workload="fibonacci",
                         ser=1e-6, seed=seed)

    CACHE.clear()
    run_trial_differential(spec_for(0))  # build the prefix ring once

    def run() -> Tuple[int, int]:
        instructions = cycles = 0
        for seed in range(trials):
            res = run_trial_differential(spec_for(seed))
            instructions += res.instructions
            cycles += 2 * res.cycles
        return instructions, cycles
    return run


#: name -> factory(quick) -> zero-arg runner returning (instructions, cycles)
SCENARIOS: Dict[str, Callable[[bool], Callable[[], Tuple[int, int]]]] = {
    "golden": _sc_golden,
    "baseline-core": lambda quick: _sc_scheme("baseline", quick),
    "unsync-pair": lambda quick: _sc_scheme("unsync", quick),
    "reunion-pair": lambda quick: _sc_scheme("reunion", quick),
    "telemetry-pair": lambda quick: _sc_scheme("unsync", quick,
                                               telemetry=True),
    "campaign-smoke": _sc_campaign,
    "campaign-differential": _sc_campaign_differential,
}


def run_bench(scenarios: Optional[List[str]] = None,
              quick: bool = False,
              repeat: Optional[int] = None) -> List[BenchResult]:
    """Run the selected scenarios; best-of-``repeat`` wall time each.

    Workload assembly happens inside the factory, *before* the timed
    region, so the numbers measure simulation throughput only. Repeats
    are *interleaved* round-robin across scenarios (not run
    back-to-back), so slow machine-load drift hits every scenario
    equally and the golden-relative regression index stays stable on
    busy runners.
    """
    names = list(scenarios) if scenarios else list(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise ValueError(f"unknown scenario(s) {', '.join(unknown)} "
                         f"(known: {', '.join(SCENARIOS)})")
    repeats = repeat if repeat is not None else (1 if quick else 3)
    runners = {name: SCENARIOS[name](quick) for name in names}
    best: Dict[str, Tuple[float, int, int]] = {}
    rounds: Dict[str, List[float]] = {name: [] for name in names}
    for _ in range(repeats):
        for name in names:
            t0 = time.perf_counter()
            instructions, cycles = runners[name]()
            dt = time.perf_counter() - t0
            rounds[name].append(dt)
            if name not in best or dt < best[name][0]:
                best[name] = (dt, instructions, cycles)
    return [BenchResult(scenario=name, instructions=best[name][1],
                        cycles=best[name][2], seconds=best[name][0],
                        repeats=repeats,
                        round_seconds=tuple(rounds[name]))
            for name in names]


# ---------------------------------------------------------------------------
# report I/O
# ---------------------------------------------------------------------------
def to_report(results: List[BenchResult], quick: bool) -> Dict:
    return {
        "schema": SCHEMA,
        "quick": quick,
        "scenarios": {r.scenario: r.to_record() for r in results},
    }


def write_report(results: List[BenchResult], path: str,
                 quick: bool = False) -> Dict:
    report = to_report(results, quick)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def load_report(path: str) -> Dict:
    with open(path) as fh:
        try:
            report = json.load(fh)
        except json.JSONDecodeError as exc:
            raise BenchBaselineError(
                f"{path}: not valid JSON ({exc}); regenerate it with "
                f"`python -m repro bench --out {path}`")
    if not isinstance(report, dict) or "scenarios" not in report:
        raise BenchBaselineError(
            f"{path}: not a bench report (no 'scenarios' key); regenerate "
            f"it with `python -m repro bench --out {path}`")
    return report


# ---------------------------------------------------------------------------
# regression checking
# ---------------------------------------------------------------------------
def _relative_index(scenarios: Dict[str, Dict]) -> Dict[str, float]:
    """Throughput of each scenario as a multiple of the golden
    interpreter's in the same report (machine-speed independent).

    When both sides carry per-round timings (interleaved repeats), the
    index is the *median of per-round ratios*: round *i* of a scenario
    and of golden ran back-to-back, so their ratio cancels machine-load
    drift that a best-of/best-of quotient would inherit. Reports from
    before round timing existed fall back to the aggregate quotient.
    """
    ref = scenarios.get(REFERENCE_SCENARIO, {})
    if not ref.get("instr_per_sec"):
        raise BenchBaselineError(
            f"reference scenario {REFERENCE_SCENARIO!r} missing from report; "
            f"cannot run a relative regression check (include it in "
            f"--scenarios, or pass --absolute)")
    ref_rounds = ref.get("round_seconds") or []
    out: Dict[str, float] = {}
    for name, rec in scenarios.items():
        if name == REFERENCE_SCENARIO:
            continue
        rounds = rec.get("round_seconds") or []
        if ref_rounds and len(rounds) == len(ref_rounds):
            ratios = [(rec["instructions"] / ts) / (ref["instructions"] / tg)
                      for ts, tg in zip(rounds, ref_rounds)
                      if ts > 0 and tg > 0]
            if ratios:
                out[name] = statistics.median(ratios)
                continue
        out[name] = rec["instr_per_sec"] / ref["instr_per_sec"]
    return out


def check_regression(current: Dict, baseline: Dict,
                     max_regression: float = 0.25,
                     absolute: bool = False) -> List[str]:
    """Compare a fresh report against a committed baseline.

    Returns a list of human-readable failures (empty = pass). Scenarios
    present in only one report are skipped — the committed baseline may
    trail a newly added scenario by one PR — but *zero* overlap raises
    :class:`BenchBaselineError`: a check that compares nothing would
    otherwise report success.
    """
    failures: List[str] = []
    cur, base = current["scenarios"], baseline["scenarios"]
    if absolute:
        cur_m = {n: r["instr_per_sec"] for n, r in cur.items()}
        base_m = {n: r["instr_per_sec"] for n, r in base.items()}
        unit = "instr/sec"
    else:
        cur_m, base_m = _relative_index(cur), _relative_index(base)
        unit = "x golden throughput"
    if not set(cur_m) & set(base_m):
        raise BenchBaselineError(
            f"baseline has no scenarios comparable with this run "
            f"(baseline: {sorted(base_m)}; run: {sorted(cur_m)}; the "
            f"{REFERENCE_SCENARIO!r} reference is excluded in relative "
            f"mode); regenerate the baseline with "
            f"`python -m repro bench --out BENCH_pipeline.json`")
    for name in sorted(set(cur_m) & set(base_m)):
        was, now = base_m[name], cur_m[name]
        if was <= 0:
            continue
        drop = 1.0 - now / was
        if drop > max_regression:
            failures.append(
                f"{name}: {now:.3g} {unit} vs baseline {was:.3g} "
                f"({100 * drop:.1f}% regression > "
                f"{100 * max_regression:.0f}% allowed)")
    return failures
