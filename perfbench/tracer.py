"""Timing wrappers for the traced run.

:func:`install` replaces the entry points listed in :data:`TARGETS` with
wrappers that time every call, and :func:`uninstall` puts the originals
back. There are two kinds of wrapper:

* **aggregate** wrappers keep only ``(calls, total ns, child ns)`` per
  function, in memory. They are cheap enough for per-cycle calls such as
  ``Pipeline.step``, ``MemPort.*`` and the commit-gate hooks;
* **span** wrappers also record one span per call (name, start, end,
  parent span, thread, identifier). They sit on coarse boundaries: trial,
  wave, prefix build, restore, store append, HTTP request and lease.

A call's self time is its total time minus the time its wrapped callees
took. Every timestamp comes from ``time.perf_counter_ns``, which is
CLOCK_MONOTONIC, so spans from different processes share one time axis.

Methods are wrapped on their classes. A few module-level functions are
rebound as well (``run_campaign``, ``execute_trials``, ``run_scheme``,
``load_workload`` and ``golden.run``): their callers look the name up at
call time and nothing compares their identity. ``run_trial`` is never
rebound, because ``run_campaign`` picks the differential runner only
when ``runner is run_trial`` and default arguments bound it at import.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: extracts a span identifier (or a counter dict, or a trial-time tag)
#: from ``(args, kwargs, result)`` of a wrapped call
Extractor = Callable[[tuple, dict, Any], Any]


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    ``attr`` is ``"func"`` (module attribute), ``"Class.method"`` (a
    method defined on that class itself) or ``"TABLE[*]"`` (every value
    of a module-level dict).
    """

    layer: str
    module: str
    attr: str
    #: span name; ``None`` keeps only the aggregate
    span: Optional[str] = None
    ident: Optional[Extractor] = None
    #: returns ``{counter: increment}`` for each call
    count: Optional[Extractor] = None
    #: returns the key (the scheme) under which the call's time and that
    #: of everything it calls is attributed — set on trial entry points
    tag: Optional[Extractor] = None


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return kwargs[name] if name in kwargs else args[index]


def _trial_key(args, kwargs, result):
    trial = args[1]
    return [trial.cell, trial.seed]


def _trial_scheme(args, kwargs, result):
    return args[1].scheme


def _prefix_key(args, kwargs, result):
    trial = args[1]
    return [trial.scheme, trial.workload]


def _scheme_arg(args, kwargs, result):
    return args[0]


def _wave_size(args, kwargs, result):
    return len(args[0])


def _record_key(args, kwargs, result):
    record = args[1]
    return [record["cell"], record["seed"]]


def _snapshot_bytes(args, kwargs, result):
    return {"checkpoint.snapshot_bytes": _arg(args, kwargs, 4, "delta_bytes")}


def _restored_from(args, kwargs, result):
    return {"checkpoint.restored_from_cycles": args[1].cycle}


def _job_result(args, kwargs, result):
    return result.job_id


def _job_arg(args, kwargs, result):
    return args[1].job_id


def _dispatcher_job(args, kwargs, result):
    return args[0].job_id


def _offered(args, kwargs, result):
    return [[lease.lease_id, [[t.cell, t.seed] for t in lease.trials]]
            for lease in args[1]]


def _claimed(args, kwargs, result):
    return result["lease_id"] if result else None


def _completed(args, kwargs, result):
    return _arg(args, kwargs, 2, "lease_id")


def _request(args, kwargs, result):
    return [args[1], args[2]]


def _targets() -> List[Target]:
    t = Target
    commit_hooks = ("can_commit", "on_commit")
    # only the hooks each gate defines itself; the pipeline skips
    # inherited no-op hooks, so those stay unwrapped
    gates = [("repro.unsync.system", "_UnSyncGate", "unsync", commit_hooks),
             ("repro.reunion.system", "_ReunionGate", "reunion",
              ("dispatch_allowed", "on_dispatch", "on_complete")
              + commit_hooks),
             ("repro.schemes.reptfd", "_LeaderGate", "schemes", commit_hooks),
             ("repro.schemes.reptfd", "_TrailerGate", "schemes",
              commit_hooks),
             ("repro.schemes.meek", "_MEEKGate", "schemes", commit_hooks)]
    systems = [("repro.unsync.system", "UnSyncSystem"),
               ("repro.reunion.system", "ReunionSystem"),
               ("repro.schemes.reptfd", "RepTFDSystem"),
               ("repro.schemes.meek", "MEEKSystem")]
    out = [
        t("isa", "repro.isa.golden", "STEP_DISPATCH[*]"),
        t("isa", "repro.isa.golden", "run"),
        t("core", "repro.core.pipeline", "Pipeline.step"),
        t("mem", "repro.mem.hierarchy", "MemPort.ifetch_latency"),
        t("mem", "repro.mem.hierarchy", "MemPort.load_latency"),
        t("mem", "repro.mem.hierarchy", "MemPort.store_latency"),
        t("redundancy", "repro.redundancy.pair", "DualCoreSystem.step"),
        t("redundancy", "repro.redundancy.pair", "DualCoreSystem.run"),
        t("redundancy", "repro.redundancy.pair", "DualCoreSystem.result"),
        t("unsync", "repro.unsync.system", "UnSyncSystem.on_cycle"),
        t("unsync", "repro.unsync.system", "UnSyncSystem._recover"),
        t("reunion", "repro.reunion.system", "ReunionSystem.on_cycle"),
        t("reunion", "repro.reunion.system", "ReunionSystem._rollback"),
        t("schemes", "repro.schemes.reptfd", "RepTFDSystem.on_cycle"),
        t("schemes", "repro.schemes.reptfd", "RepTFDSystem._rollback"),
        t("schemes", "repro.schemes.meek", "MEEKSystem.step"),
        t("schemes", "repro.schemes.meek", "MEEKSystem.run"),
        t("schemes", "repro.schemes.meek", "MEEKSystem._recheck"),
        t("faults", "repro.faults.injector", "FaultInjector.next_strike"),
        t("faults", "repro.faults.injector", "FaultInjector.on_recovery"),
        t("faults", "repro.faults.injector", "FaultInjector.preempt"),
        t("faults", "repro.faults.adversarial",
          "AdversarialInjector.next_strike"),
        t("faults", "repro.faults.adversarial",
          "AdversarialInjector.on_recovery"),
        t("faults", "repro.faults.adversarial", "AdversarialInjector.preempt"),
        t("checkpoint", "repro.schemes.base", "ResilienceScheme.snapshot"),
        t("checkpoint", "repro.schemes.base", "ResilienceScheme.restore",
          span="restore", count=_restored_from),
        t("checkpoint", "repro.checkpoint.store",
          "CheckpointStore.capture_payload", count=_snapshot_bytes),
        t("campaign", "repro.campaign.snapshot", "PrefixSnapshotCache.run",
          span="trial", ident=_trial_key, tag=_trial_scheme),
        t("campaign", "repro.harness.runner", "run_scheme",
          span="trial", tag=_scheme_arg),
        t("campaign", "repro.campaign.snapshot", "PrefixSnapshotCache.prefix"),
        t("campaign", "repro.campaign.snapshot", "PrefixSnapshotCache._build",
          span="prefix.build", ident=_prefix_key),
        t("campaign", "repro.campaign.engine", "execute_trials",
          span="wave", ident=_wave_size),
        t("campaign", "repro.service.workers", "execute_trials",
          span="wave", ident=_wave_size),
        t("campaign", "repro.campaign.engine", "run_campaign",
          span="campaign"),
        t("campaign", "repro.campaign", "run_campaign", span="campaign"),
        t("campaign", "repro.service.scheduler", "run_campaign",
          span="campaign"),
        t("campaign", "repro.campaign.store", "ResultStore.append_trial",
          span="store.append", ident=_record_key),
        t("campaign", "repro.campaign.aggregate", "Aggregator.add"),
        t("campaign", "concurrent.futures.process",
          "ProcessPoolExecutor.__init__"),
        t("service", "repro.service.scheduler", "JobScheduler.submit",
          span="job.submit", ident=_job_result),
        t("service", "repro.service.scheduler", "JobScheduler._execute",
          span="job.run", ident=_job_arg),
        t("service", "repro.service.journal", "JobJournal.record",
          span="journal.write"),
        t("service", "repro.service.workers", "LeaseBroker.offer",
          span="lease.offer", ident=_offered),
        t("service", "repro.service.workers", "LeaseBroker.claim",
          span="lease.claim", ident=_claimed),
        t("service", "repro.service.workers", "LeaseBroker.complete",
          span="lease.complete", ident=_completed),
        t("service", "repro.service.workers", "WaveDispatcher.__call__",
          span="wave", ident=_dispatcher_job),
        t("service", "repro.service.server", "CampaignService._route",
          span="http.server", ident=_request),
        # time a thread spends waiting on another process: kept out of
        # every layer's self time
        t("blocked", "concurrent.futures._base", "Future.result"),
        t("blocked", "repro.service.workers", "LeaseBroker.wait"),
        t("blocked", "repro.service.workers", "WorkerClient._once",
          span="http", ident=_request),
        t("workloads", "repro.workloads", "load_workload"),
    ]
    for module, cls, layer, hooks in gates:
        out += [t(layer, module, f"{cls}.{hook}") for hook in hooks]
    for module, cls in systems:
        out.append(t("faults", module, f"{cls}._process_strikes"))
    for module, cls in (("repro.schemes.builtin", "UnSyncScheme"),
                        ("repro.schemes.builtin", "ReunionScheme"),
                        ("repro.schemes.builtin", "RepTFDScheme"),
                        ("repro.schemes.builtin", "MEEKScheme")):
        out.append(t("schemes", module, f"{cls}.build_system"))
    return out


#: every entry point the traced run wraps
TARGETS: Tuple[Target, ...] = tuple(_targets())


class Recorder:
    """Per-process store of call aggregates, spans and counters."""

    def __init__(self) -> None:
        #: stats key -> [layer, calls, total_ns, child_ns], mutated in place
        #: by the wrappers that captured it
        self.stats: Dict[str, List[Any]] = {}
        self.counters: Dict[str, float] = {}
        #: (name, layer, t0_ns, t1_ns, span id, parent id, thread, ident)
        self.spans: List[Tuple] = []
        #: trial-time attribution: tag -> {layer: self ns}, plus "trials"
        self.by_tag: Dict[str, Dict[str, float]] = {}
        self.missing: List[str] = []
        self.role = "process"
        self._tls = threading.local()
        #: guards rows that span wrappers update from several threads
        self._lock = threading.Lock()
        self._sids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self._wrappers: Dict[int, Callable] = {}
        self._written_by: Optional[int] = None

    # -- lifecycle ----------------------------------------------------------
    def reset_after_fork(self) -> None:
        """Forget what the parent recorded; the child reports only its own
        calls (the parent's open frames never return in the child)."""
        for row in self.stats.values():
            row[1] = row[2] = row[3] = 0
        self.counters.clear()
        self.spans.clear()
        self.by_tag.clear()
        self._tls.__dict__.clear()
        self._lock = threading.Lock()  # another thread may have held it
        self._written_by = None
        self.role = self.role.split(" ")[0] + " pool-worker"

    def dump(self, path: str) -> None:
        data = {
            "pid": os.getpid(), "ppid": os.getppid(), "role": self.role,
            "stats": self.stats, "counters": self.counters,
            "spans": self.spans, "by_tag": self.by_tag,
            "missing": self.missing,
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(data, fh)
        os.replace(tmp, path)

    def write_once(self, trace_dir: str) -> None:
        """Write this process's data once (atexit or a pool finalizer)."""
        pid = os.getpid()
        if self._written_by == pid:
            return
        self._written_by = pid
        self.dump(os.path.join(trace_dir, f"proc-{pid}.json"))

    # -- manual spans (the benchmark's own client calls) --------------------
    def span(self, name: str, layer: str, t0: int, t1: int,
             ident: Any = None) -> None:
        self.spans.append((name, layer, t0, t1, next(self._sids), 0,
                           threading.get_ident(), ident))

    # -- wrapping -----------------------------------------------------------
    def _row(self, key: str, layer: str) -> List[Any]:
        row = self.stats.get(key)
        if row is None:
            row = self.stats[key] = [layer, 0, 0, 0]
        return row

    def wrap(self, fn: Callable, target: Target,
             key: Optional[str] = None) -> Callable:
        """The wrapper for ``fn``. Without an explicit ``key`` a function
        gets one wrapper, so its aliases in several modules share their
        statistics; table entries pass a per-entry key instead."""
        shared = key is None
        if shared:
            existing = self._wrappers.get(id(fn))
            if existing is not None:
                return existing
            key = f"{fn.__module__}.{fn.__qualname__}"
        row = self._row(key, target.layer)
        if target.span is None and target.count is None \
                and target.tag is None:
            wrapper = _aggregate(fn, row, self._tls)
        else:
            wrapper = _full(self, fn, row, target)
        if shared:
            self._wrappers[id(fn)] = wrapper
        return wrapper

    def self_totals(self) -> Dict[str, int]:
        return {key: row[2] - row[3] for key, row in self.stats.items()}

    def attribute(self, tag: str, before: Dict[str, int]) -> None:
        bucket = self.by_tag.setdefault(tag, {"trials": 0})
        bucket["trials"] += 1
        for key, row in self.stats.items():
            delta = row[2] - row[3] - before.get(key, 0)
            if delta:
                layer = row[0]
                bucket[layer] = bucket.get(layer, 0) + delta


def _aggregate(fn: Callable, row: List[Any],
               tls: threading.local) -> Callable:
    # lock-free: aggregate targets run on one thread per process (the
    # simulator and pool paths); targets that several threads of the
    # service reach are span targets, whose wrapper takes the lock
    clock = time.perf_counter_ns

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            stack = tls.stack
        except AttributeError:
            stack = tls.stack = []
        stack.append(0)
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = clock() - t0
            child = stack.pop()
            row[1] += 1
            row[2] += dt
            row[3] += child
            if stack:
                stack[-1] += dt
    return wrapper


def _full(rec: Recorder, fn: Callable, row: List[Any],
          target: Target) -> Callable:
    clock = time.perf_counter_ns
    tls = rec._tls
    spans = rec.spans
    counters = rec.counters
    name, layer = target.span, target.layer
    ident, count, tag = target.ident, target.count, target.tag

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            stack = tls.stack
        except AttributeError:
            stack = tls.stack = []
        try:
            opened = tls.opened
        except AttributeError:
            opened = tls.opened = []
        sid = next(rec._sids)
        parent = opened[-1] if opened else 0
        opened.append(sid)
        before = rec.self_totals() if tag is not None else None
        result = None
        stack.append(0)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = clock()
            dt = t1 - t0
            child = stack.pop()
            opened.pop()
            if stack:
                stack[-1] += dt
            key = _safe(ident, args, kwargs, result)
            counts = _safe(count, args, kwargs, result) or {}
            with rec._lock:
                row[1] += 1
                row[2] += dt
                row[3] += child
                if name is not None:
                    spans.append((name, layer, t0, t1, sid, parent,
                                  threading.get_ident(), key))
                for counter, value in counts.items():
                    counters[counter] = counters.get(counter, 0) + value
            if before is not None:
                rec.attribute(str(_safe(tag, args, kwargs, result)), before)
    return wrapper


def _safe(extract: Optional[Extractor], args: tuple, kwargs: dict,
          result: Any) -> Any:
    if extract is None:
        return None
    try:
        return extract(args, kwargs, result)
    except (AttributeError, IndexError, KeyError, TypeError):
        return None


def resolve(target: Target):
    """``(owner, names)`` to patch, or ``None`` when the target is gone."""
    try:
        module = importlib.import_module(target.module)
    except ImportError:
        return None
    if target.attr.endswith("[*]"):
        table = getattr(module, target.attr[:-3], None)
        return (table, list(table)) if isinstance(table, dict) else None
    if "." in target.attr:
        cls_name, method = target.attr.split(".", 1)
        cls = getattr(module, cls_name, None)
        if cls is None or method not in vars(cls):
            return None  # only methods the class defines itself
        return cls, [method]
    if not hasattr(module, target.attr):
        return None
    return module, [target.attr]


def install(rec: Recorder,
            targets: Tuple[Target, ...] = TARGETS) -> Recorder:
    """Wrap every target; missing ones are listed in ``rec.missing``."""
    if rec._patches:
        raise RuntimeError("tracer already installed")
    for target in targets:
        resolved = resolve(target)
        if resolved is None:
            rec.missing.append(f"{target.module}.{target.attr}")
            continue
        owner, names = resolved
        for name in names:
            if isinstance(owner, dict):
                original = owner[name]
                label = getattr(name, "name", str(name))
                key = f"{target.module}.{target.attr[:-3]}[{label}]"
                owner[name] = rec.wrap(original, target, key)
                rec._patches.append((owner, name, original, True))
            else:
                original = (vars(owner)[name] if isinstance(owner, type)
                            else getattr(owner, name))
                setattr(owner, name, rec.wrap(original, target))
                rec._patches.append((owner, name, original, False))
    return rec


def uninstall(rec: Recorder) -> None:
    """Put every original back, newest patch first."""
    while rec._patches:
        owner, name, original, is_table = rec._patches.pop()
        if is_table:
            owner[name] = original
        else:
            setattr(owner, name, original)
    rec._wrappers.clear()


def arm(rec: Recorder, trace_dir: str, role: str) -> None:
    """Write ``rec`` to ``trace_dir`` when this process or any forked
    pool worker exits.

    The main process writes from ``atexit``. Forked pool workers leave
    through ``os._exit`` and skip ``atexit``; they write from a
    ``multiprocessing.util.Finalize`` registered after each fork.
    """
    import multiprocessing.util as mp_util

    rec.role = role
    flush = functools.partial(rec.write_once, trace_dir)
    atexit.register(flush)
    os.register_at_fork(after_in_child=rec.reset_after_fork)
    mp_util.register_after_fork(
        rec, lambda _rec: mp_util.Finalize(None, flush, exitpriority=100))
