"""Merge the traced run's per-process files into the per-layer ledger.

Each process of a traced run leaves ``proc-<pid>.json`` (see
:mod:`perfbench.tracer`). :func:`build` folds them into

* the per-layer metrics: those named in ``BENCHMARK.json``
  (``per_layer``), which every workload exercises, plus the ones only
  some workloads exercise (service, checkpoint, prefix cache), which
  read 0 elsewhere and are kept in ``ledger.json`` only;
* ``ledger.json``: all those metrics, each layer's self time, the
  costliest functions, where a trial's time goes per scheme, and where a
  served job's time goes;
* ``trace.json``: every span as a Chrome trace event (load it in
  https://ui.perfetto.dev or chrome://tracing).

A layer's self time is the summed self time of its wrapped functions.
The ``blocked`` pseudo-layer (waiting on a future, the lease broker, or
an HTTP round trip) is kept out of every share: ``<layer>.self_frac`` is
the layer's self time over the self time of all other layers.
"""

from __future__ import annotations

import bisect
import glob
import json
import os
from collections import defaultdict
from statistics import median
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: layers whose time is simulation work (the acceptance check on midrun)
SIMULATOR_LAYERS = ("isa", "core", "mem", "redundancy", "unsync",
                    "reunion", "schemes", "faults")
#: client-side HTTP routes reported as ``service.http.<route>.p50_ms``
HTTP_ROUTES = ("submit", "status", "claim", "heartbeat", "results")

NS = 1e-9
MB = float(1 << 20)


def load(trace_dir: str) -> List[Dict[str, Any]]:
    procs = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "proc-*.json"))):
        with open(path) as fh:
            procs.append(json.load(fh))
    return procs


class _Spans:
    """All spans of all processes, as dicts, indexed by name."""

    def __init__(self, procs: List[Dict[str, Any]]) -> None:
        self.by_name: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
        self.by_id: Dict[Tuple[int, int], Dict[str, Any]] = {}
        for proc in procs:
            for name, layer, t0, t1, sid, parent, tid, ident in \
                    proc["spans"]:
                span = {"name": name, "layer": layer, "t0": t0 * NS,
                        "t1": t1 * NS, "pid": proc["pid"], "tid": tid,
                        "sid": sid, "parent": parent, "ident": ident}
                self.by_name[name].append(span)
                self.by_id[(proc["pid"], sid)] = span

    def __getitem__(self, name: str) -> List[Dict[str, Any]]:
        return self.by_name.get(name, [])

    def parent(self, span: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        return self.by_id.get((span["pid"], span["parent"]))

    def total(self, name: str) -> float:
        return sum((s["t1"] - s["t0"] for s in self[name]), 0.0)


def _p50(values: List[float]) -> float:
    return median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _route(path: str) -> str:
    return path.rstrip("/").rsplit("/", 1)[-1]


def _functions(procs: Iterable[Dict[str, Any]]) -> Dict[str, List]:
    """stats key -> [layer, calls, total ns, child ns] over all processes."""
    out: Dict[str, List] = {}
    for proc in procs:
        for key, (layer, calls, total, child) in proc["stats"].items():
            row = out.setdefault(key, [layer, 0, 0, 0])
            row[1] += calls
            row[2] += total
            row[3] += child
    return out


def _lease_job(lease_id: str) -> str:
    return lease_id.rsplit("-v", 1)[0]


def _service_metrics(spans: _Spans) -> Tuple[Dict[str, float], Dict]:
    """Lease, scheduler and HTTP latencies, plus the served-job breakdown."""
    m: Dict[str, float] = {}
    routes: Dict[str, List[float]] = defaultdict(list)
    for span in spans["http"]:
        routes[_route(span["ident"][1])].append(span["t1"] - span["t0"])
    for span in spans["client"]:
        routes[span["ident"]].append(span["t1"] - span["t0"])
    for route in HTTP_ROUTES:
        m[f"service.http.{route}.p50_ms"] = _p50(routes[route]) * 1e3

    submitted = {s["ident"]: s["t1"] for s in spans["job.submit"]}
    started = {s["ident"]: s for s in spans["job.run"]}
    m["service.scheduler.queue_wait_p50_s"] = _p50(
        [started[j]["t0"] - t for j, t in submitted.items()
         if j in started])

    claims = spans["lease.claim"]
    m["service.workers.claims"] = float(len(claims))
    m["service.workers.claim_hit_frac"] = _ratio(
        sum(1 for s in claims if s["ident"]), len(claims))
    offered: Dict[str, float] = {}
    keys_of: Dict[str, List[Tuple[str, int]]] = {}
    for span in spans["lease.offer"]:
        for lease_id, keys in span["ident"] or []:
            offered[lease_id] = span["t0"]
            keys_of[lease_id] = [tuple(k) for k in keys]
    claimed: Dict[str, float] = {}
    for span in claims:
        if span["ident"]:
            claimed.setdefault(span["ident"], span["t1"])
    completed = {s["ident"]: s["t0"] for s in spans["lease.complete"]}
    appended: Dict[Tuple[str, int], float] = {}
    for span in spans["store.append"]:
        if span["ident"]:
            appended.setdefault(tuple(span["ident"]), span["t0"])
    wait = {l: claimed[l] - offered[l] for l in claimed if l in offered}
    run = {l: completed[l] - claimed[l] for l in completed if l in claimed}
    post = {}
    for lease_id, t in completed.items():
        times = [appended[k] for k in keys_of.get(lease_id, [])
                 if k in appended]
        if times:
            post[lease_id] = min(times) - t
    m["service.workers.lease_wait_p50_s"] = _p50(list(wait.values()))
    m["service.workers.lease_run_p50_s"] = _p50(list(run.values()))
    m["service.workers.post_to_append_p50_s"] = _p50(list(post.values()))

    # a served job's path, cut at consecutive events: queued, engine up
    # to the first lease offer, the worker's idle wait for its first
    # claim, its leases, its last post until the last store append, and
    # the engine's finish (leases of one job overlap, so per-lease
    # intervals would double-count)
    events: Dict[str, Dict[str, List[float]]] = defaultdict(
        lambda: defaultdict(list))
    for name, table in (("offer", offered), ("claim", claimed),
                        ("complete", completed)):
        for lease_id, t in table.items():
            events[_lease_job(lease_id)][name].append(t)
    for lease_id, keys in keys_of.items():
        events[_lease_job(lease_id)]["append"] += [
            appended[k] for k in keys if k in appended]
    rows = []
    for job_id, span in started.items():
        e = events.get(job_id, {})
        if not all(e.get(k) for k in ("offer", "claim", "complete",
                                       "append")):
            continue
        marks = [submitted.get(job_id, span["t0"]), span["t0"],
                 min(e["offer"]), min(e["claim"]), max(e["complete"]),
                 max(e["append"]), span["t1"]]
        rows.append([b - a for a, b in zip(marks, marks[1:])]
                    + [span["t1"] - span["t0"]])
    names = ("queue_s", "engine_start_s", "claim_wait_s", "worker_s",
             "post_to_append_s", "engine_finish_s", "job_s")
    breakdown: Dict[str, float] = {}
    if rows:
        breakdown = {n: median([r[i] for r in rows])
                     for i, n in enumerate(names)}
        breakdown["jobs"] = len(rows)
    return m, breakdown


def build(trace_dir: str, workload: str,
          context: Dict[str, Any]) -> Dict[str, Any]:
    """The ledger of one traced run; writes ``ledger.json`` and
    ``trace.json`` into ``trace_dir``.

    ``context`` carries what the trace cannot know: ``workers`` (trial
    runners working at once), ``strikes`` and ``struck_cycles`` (summed
    over the traced store), and ``traced_s`` / ``untraced_s`` (the
    traced unit's time and the untraced median).
    """
    procs = load(trace_dir)
    fns = _functions(procs)
    spans = _Spans(procs)

    def calls(*keys: str) -> int:
        return sum(fns[k][1] for k in keys if k in fns)

    def total_s(*keys: str) -> float:
        return sum(fns[k][2] for k in keys if k in fns) * NS

    layer_self: Dict[str, float] = defaultdict(float)
    for layer, _, total, child in fns.values():
        layer_self[layer] += (total - child) * NS
    busy = sum(v for layer, v in layer_self.items() if layer != "blocked")

    m: Dict[str, float] = {}
    for layer in ("isa", "core", "mem", "redundancy", "unsync", "reunion",
                  "schemes", "faults", "checkpoint", "campaign", "service",
                  "workloads"):
        m[f"{layer}.self_frac"] = _ratio(layer_self[layer], busy)
    steps = sum(row[1] for key, row in fns.items()
                if key.startswith("repro.isa.golden.STEP_DISPATCH["))
    m["isa.steps"] = float(steps)
    cycles = calls("repro.core.pipeline.Pipeline.step")
    m["core.cycles"] = float(cycles)
    m["core.self_us_per_cycle"] = _ratio(layer_self["core"], cycles) * 1e6
    mem_keys = [f"repro.mem.hierarchy.MemPort.{n}_latency"
                for n in ("ifetch", "load", "store")]
    accesses = calls(*mem_keys)
    m["mem.accesses"] = float(accesses)
    m["mem.self_ns_per_access"] = _ratio(layer_self["mem"], accesses) * 1e9
    m["unsync.recoveries"] = float(
        calls("repro.unsync.system.UnSyncSystem._recover"))
    m["reunion.rollbacks"] = float(
        calls("repro.reunion.system.ReunionSystem._rollback"))
    m["faults.strikes"] = float(context.get("strikes", 0))

    counters: Dict[str, float] = defaultdict(float)
    for proc in procs:
        for key, value in proc["counters"].items():
            counters[key] += value
    snap = "repro.schemes.base.ResilienceScheme.snapshot"
    restore = "repro.schemes.base.ResilienceScheme.restore"
    m["checkpoint.captures"] = float(calls(snap))
    m["checkpoint.capture_s"] = total_s(snap)
    m["checkpoint.restores"] = float(calls(restore))
    m["checkpoint.restore_s"] = total_s(restore)
    m["checkpoint.snapshot_mb"] = counters["checkpoint.snapshot_bytes"] / MB
    m["checkpoint.fastforward_frac"] = _ratio(
        counters["checkpoint.restored_from_cycles"],
        context.get("struck_cycles", 0))

    trials = spans["trial"]
    trial_busy = spans.total("trial")
    m["campaign.trial.count"] = float(len(trials))
    m["campaign.trial.busy_s"] = trial_busy
    m["campaign.trial.p50_ms"] = _p50(
        [s["t1"] - s["t0"] for s in trials]) * 1e3
    m["campaign.prefix.builds"] = float(len(spans["prefix.build"]))
    m["campaign.prefix.build_s"] = spans.total("prefix.build")
    differential = calls("repro.campaign.snapshot.PrefixSnapshotCache.run")
    m["campaign.cached_verdict_frac"] = _ratio(
        differential - calls(restore), len(trials))
    m["campaign.executor.pools"] = float(calls(
        "concurrent.futures.process.ProcessPoolExecutor.__init__"))
    waves = [s for s in spans["wave"]
             if (spans.parent(s) or {}).get("name") == "campaign"]
    wave_wall = sum(s["t1"] - s["t0"] for s in waves)
    m["campaign.executor.overhead_frac"] = (
        1.0 - _ratio(trial_busy, context.get("workers", 1) * wave_wall)
        if wave_wall else 0.0)
    m["campaign.executor.start_latency_p50_s"] = _p50(
        _start_latencies(waves, trials))
    m["campaign.store.appends"] = float(len(spans["store.append"]))
    m["campaign.store.append_s"] = spans.total("store.append")
    m["campaign.engine.waves"] = float(len(waves))
    m["campaign.engine.boundary_s"] = spans.total("campaign") - wave_wall

    service, served_job = _service_metrics(spans)
    m.update(service)
    journal = "repro.service.journal.JobJournal.record"
    m["service.journal.writes"] = float(calls(journal))
    m["service.journal.write_s"] = total_s(journal)
    m["workloads.assemble_s"] = total_s("repro.workloads.load_workload")
    m["trace.overhead_frac"] = _ratio(context.get("traced_s", 0.0),
                                      context.get("untraced_s", 0.0)) - 1.0

    by_scheme = _trial_time_by_scheme(procs)
    sim_in_trials = sum(b["busy_s"] * sum(b["layers"].get(l, 0.0)
                                          for l in SIMULATOR_LAYERS)
                        for b in by_scheme.values())
    sanity = {"simulator_share_of_trial_busy": _ratio(sim_in_trials,
                                                      trial_busy)}
    if workload == "midrun":
        sanity["ok"] = sanity["simulator_share_of_trial_busy"] >= 0.8
    elif workload == "paper-scale":
        sanity["ok"] = (m["campaign.cached_verdict_frac"] >= 0.95
                        and m["campaign.prefix.builds"] > 8)

    doc = {
        "workload": workload,
        "metrics": m,
        "layers": {layer: {"self_s": v, "self_frac": _ratio(v, busy)}
                   for layer, v in sorted(layer_self.items())},
        "functions": _top_functions(fns),
        "trial_time_by_scheme": by_scheme,
        "served_job": served_job,
        "sanity": sanity,
        "missing_targets": sorted({k for p in procs for k in p["missing"]}),
        "processes": [{"pid": p["pid"], "ppid": p["ppid"],
                       "role": p["role"]} for p in procs],
        "context": context,
    }
    with open(os.path.join(trace_dir, "ledger.json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    with open(os.path.join(trace_dir, "trace.json"), "w") as fh:
        json.dump(chrome_trace(procs), fh)
    return doc


def _start_latencies(waves: List[Dict[str, Any]],
                     trials: List[Dict[str, Any]]) -> List[float]:
    """Per wave, from its start until the first trial inside it starts:
    a campaign's pool start-up, or a served wave's offer until the
    worker claims it and starts running. Waves of one run do not
    overlap, and trials run in other processes on the same clock."""
    starts = sorted(s["t0"] for s in trials)
    out = []
    for wave in waves:
        i = bisect.bisect_left(starts, wave["t0"])
        if i < len(starts) and starts[i] <= wave["t1"]:
            out.append(starts[i] - wave["t0"])
    return out


def _top_functions(fns: Dict[str, List], limit: int = 25) -> List[Dict]:
    rows = sorted(fns.items(), key=lambda kv: kv[1][3] - kv[1][2])
    return [{"function": key, "layer": layer, "calls": calls,
             "self_s": (total - child) * NS, "total_s": total * NS}
            for key, (layer, calls, total, child) in rows[:limit] if calls]


def _trial_time_by_scheme(procs: List[Dict[str, Any]]) -> Dict[str, Dict]:
    """Per scheme: trials, their busy time, and each layer's share of it."""
    merged: Dict[str, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    for proc in procs:
        for tag, bucket in proc["by_tag"].items():
            for key, value in bucket.items():
                merged[tag][key] += value
    out = {}
    for tag, bucket in sorted(merged.items()):
        trials = int(bucket.pop("trials", 0))
        total = sum(bucket.values())
        out[tag] = {"trials": trials, "busy_s": total * NS,
                    "layers": {layer: _ratio(v, total)
                               for layer, v in sorted(bucket.items())}}
    return out


def chrome_trace(procs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Every span as a complete ("X") event; one track per process."""
    starts = [s[2] for p in procs for s in p["spans"]]
    origin = min(starts) if starts else 0
    events: List[Dict[str, Any]] = []
    for proc in procs:
        events.append({"ph": "M", "name": "process_name", "pid": proc["pid"],
                       "args": {"name": f"{proc['role']} ({proc['pid']})"}})
        for name, layer, t0, t1, sid, parent, tid, ident in proc["spans"]:
            events.append({"ph": "X", "name": name, "cat": layer,
                           "pid": proc["pid"], "tid": tid,
                           "ts": (t0 - origin) / 1e3,
                           "dur": (t1 - t0) / 1e3,
                           "args": {"id": sid, "parent": parent,
                                    "ident": ident}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}
