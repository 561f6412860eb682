"""Differential-replay trial execution: the fault-free prefix cache.

Every trial of a campaign cell simulates the *same* fault-free prefix
from cycle 0 up to its first strike — for paper-scale SER (1e-7..1e-17)
that prefix is most (often all) of the trial. Because every simulator in
this repository is deterministic by construction, that work can be done
once: run the fault-free prefix a single time, snapshot it at
coarse cycle epochs (:mod:`repro.checkpoint.snapshot`), and start each
trial from the newest epoch at or before its first injection cycle.

Correctness argument, scheme-agnostic:

* the prefix system is built with a **rate-zero injector** — its mere
  presence makes construction identical to an injected run (the
  scheme adopts the injector's inventory and arms its first strike),
  while drawing *nothing* from the RNG (a zero rate short-circuits
  before the stream is touched);
* a trial's first strike cycle is peeked with a **throwaway** injector
  clone, and the restored replica is re-armed with a *fresh* injector
  through :meth:`~repro.schemes.base.ResilienceScheme.attach_injector`
  — the same ``next_strike(0)`` call an injected construction makes, so
  the replica's RNG stream state equals the full run's exactly;
* strikes are processed only at cycles the system actually steps, so a
  first strike at or past the fault-free completion cycle (or the
  watchdog budget) can never be observed: the trial's result *is* the
  cached fault-free result (or the cached watchdog hang) — the dominant
  fast path of low-SER grids.

:func:`run_trial_differential` is the trial runner of every campaign,
pool worker and ``repro worker``; :func:`~repro.campaign.trial.run_trial`
(full replay from cycle 0) is the reference tests and CI compare its
stores against. :data:`CACHE` is process-wide, like
:data:`repro.campaign.trial.CONTEXT`. Before each wave of a local pooled
campaign the coordinator builds the prefixes the wave lacks
(:meth:`PrefixSnapshotCache.warm`), and the wave's forked trial pool
inherits them. Everywhere else a process builds a prefix on first use
and keeps it, so a long-running ``repro worker`` builds each prefix once
across every job it serves. A prefix is a pure function of its key, so
where it was built cannot change a byte of any store.
"""

from __future__ import annotations

from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.campaign.spec import TrialSpec
from repro.campaign.trial import (
    CONTEXT,
    TrialResult,
    build_injector,
    finish_trial,
    hang_result,
)

#: default cycles between prefix snapshots (doubles under ring pressure)
DEFAULT_INTERVAL = 1024
#: snapshot-ring slots per prefix (a full ring thins to every other)
RING_CAPACITY = 32
#: prefixes kept per process before LRU eviction
MAX_PREFIXES = 8

#: cache key: one fault-free prefix per (scheme, workload, budget) — the
#: SER axis and the fault model share it (neither can influence a run
#: before its first strike)
PrefixKey = Tuple[str, str, Optional[int]]


def prefix_key(trial: TrialSpec) -> PrefixKey:
    return (trial.scheme, trial.workload, trial.watchdog_cycles)


def peek_first_strike(trial: TrialSpec) -> Optional[int]:
    """The cycle of the trial's first strike, or ``None`` for never.

    Uses a throwaway injector built exactly like the trial's own and
    asks it the same question an injected construction asks
    (``next_strike(0)``); the clone is then discarded so the trial's
    real injector replays the identical RNG stream from scratch.
    """
    strike = build_injector(trial).next_strike(0)
    return None if strike is None else int(strike.cycle)


@dataclass
class _Prefix:
    """One cached fault-free prefix: snapshot ring + final verdict."""

    program: Any
    #: snapshot ring (the checkpoint package's bounded store, reused for
    #: its capacity/byte accounting); payloads are ``SystemSnapshot``
    ring: Any
    #: fault-free ``RunResult`` (``None`` when the prefix hung)
    result: Any
    #: ``(message, cycles, committed)`` of the watchdog trip, if any
    hang: Optional[Tuple[str, int, int]]
    #: ``system.now`` when the prefix run ended — strikes at or past
    #: this cycle are unobservable (no further cycle is ever stepped)
    final_cycle: int
    #: capture interval after ring-pressure doubling
    interval: int


class PrefixSnapshotCache:
    """Per-process cache of fault-free prefixes with epoch snapshots."""

    def __init__(self, interval: int = DEFAULT_INTERVAL,
                 ring_capacity: int = RING_CAPACITY,
                 max_prefixes: int = MAX_PREFIXES) -> None:
        if interval < 1:
            raise ValueError("snapshot interval must be positive")
        self.interval = interval
        self.ring_capacity = ring_capacity
        self.max_prefixes = max_prefixes
        self._prefixes: "OrderedDict[PrefixKey, _Prefix]" = OrderedDict()
        #: page-interning pools, one per workload (schemes of one
        #: workload share most of their memory image content)
        self._pools: "OrderedDict[str, Dict[bytes, bytes]]" = OrderedDict()
        self._ins_index: "OrderedDict[str, Dict[int, int]]" = OrderedDict()

    # -- bookkeeping --------------------------------------------------------
    def clear(self) -> None:
        self._prefixes.clear()
        self._pools.clear()
        self._ins_index.clear()

    def _lru(self, memo: "OrderedDict[Any, Any]", key: Any,
             build: Callable[[], Any]) -> Any:
        value = memo.get(key)
        if value is None:
            value = build()
        memo[key] = value
        memo.move_to_end(key)
        while len(memo) > self.max_prefixes:
            memo.popitem(last=False)
        return value

    # -- prefix construction ------------------------------------------------
    def prefix(self, trial: TrialSpec) -> _Prefix:
        """The (lazily built) fault-free prefix for ``trial``'s cell."""
        return self._lru(self._prefixes, prefix_key(trial),
                         partial(self._build, trial))

    def warm(self, wave: Sequence[TrialSpec], workers: int) -> None:
        """Build every prefix ``wave`` needs that the cache lacks.

        Each missing key (at most ``max_prefixes``) is built once, in a
        short-lived pool of up to ``workers`` processes, or in-process
        when only one is missing; a trial pool forked afterwards
        inherits them all. A build that raises leaves its key cold.
        """
        missing = {prefix_key(t): t for t in wave
                   if prefix_key(t) not in self._prefixes}
        todo = list(missing.values())[:self.max_prefixes]
        if len(todo) <= 1:  # a pool gains nothing for one key
            for trial in todo:
                self._adopt(trial, partial(self._build, trial))
            return
        pool = ProcessPoolExecutor(max_workers=min(workers, len(todo)))
        done = False
        try:
            futures = [pool.submit(build_prefix, trial, self.interval,
                                   self.ring_capacity) for trial in todo]
            for trial, future in zip(todo, futures):
                self._adopt(trial, future.result)
            done = True
        finally:
            # an interrupt cancels the builds not yet started
            pool.shutdown(wait=done, cancel_futures=not done)

    def _adopt(self, trial: TrialSpec, build: Callable[[], _Prefix]
               ) -> None:
        """Cache what ``build`` returns, bound to this process's program
        and its pages interned into this process's page pool."""
        try:
            built = build()
        except Exception:
            # left cold: the trial worker builds it on first use, where
            # the executor's retry/CRASH policy classifies any failure
            return
        built.program = CONTEXT.program(trial.workload)
        pool = self._lru(self._pools, trial.workload, dict)
        for checkpoint in built.ring:
            for mem in checkpoint.state.mems:
                mem.update({pno: pool.setdefault(page, page)
                            for pno, page in mem.items()})
        self._lru(self._prefixes, prefix_key(trial), lambda: built)

    def _build(self, trial: TrialSpec) -> _Prefix:
        from repro.checkpoint.snapshot import instruction_index
        from repro.checkpoint.store import CheckpointStore
        from repro.faults.injector import FaultInjector
        from repro.harness.runner import MAX_CYCLES
        from repro.redundancy.pair import SimulationHang
        from repro.schemes import get as get_scheme

        program = CONTEXT.program(trial.workload)
        pool = self._lru(self._pools, trial.workload, dict)
        ins_index = self._lru(self._ins_index, trial.workload,
                              partial(instruction_index, program))
        desc = get_scheme(trial.scheme)
        # rate zero: construction behaves injected, RNG stays untouched
        system = desc.build_system(program, injector=FaultInjector(0.0))
        budget = trial.watchdog_cycles if trial.watchdog_cycles is not None \
            else MAX_CYCLES
        ring = CheckpointStore(capacity=self.ring_capacity)
        interval = self.interval

        def capture() -> None:
            nonlocal interval
            if ring.full:
                ring.thin_every_other()
                interval *= 2
            snap = desc.snapshot(system, pool=pool, ins_index=ins_index)
            ring.capture_payload(seq=0, cycle=system.now, payload=snap,
                                 delta_bytes=snap.delta_bytes)

        capture()  # epoch 0: the freshly built system
        target = interval
        while not system.finished() and system.now < budget:
            if system.now >= target:
                capture()
                target = system.now + interval
            system.step()
        # delegate the verdict to run(): on a finished system it returns
        # the result immediately; at the budget it raises the exact
        # watchdog hang a full-replay trial would see
        result = None
        hang = None
        try:
            result = system.run(budget)
        except SimulationHang as exc:
            hang = (str(exc), int(exc.cycles), int(exc.committed))
        return _Prefix(program=program, ring=ring, result=result,
                       hang=hang, final_cycle=int(system.now),
                       interval=interval)

    # -- trial execution ----------------------------------------------------
    def run(self, trial: TrialSpec) -> TrialResult:
        """Run one trial differentially; byte-identical to full replay."""
        from repro.redundancy.pair import SimulationHang
        from repro.schemes import get as get_scheme

        prefix = self.prefix(trial)
        first = peek_first_strike(trial)
        if first is None or first >= prefix.final_cycle:
            # the strike stream starts after the last cycle any full-replay
            # run would step: the trial IS the cached fault-free run
            if prefix.hang is not None:
                message, cycles, committed = prefix.hang
                return hang_result(trial, SimulationHang(
                    message, cycles=cycles, committed=committed))
            return finish_trial(trial, prefix.result)
        checkpoint = prefix.ring.at_or_before(first)
        desc = get_scheme(trial.scheme)
        system = desc.restore(checkpoint.state, prefix.program,
                              injector=build_injector(trial))
        budget = trial.watchdog_cycles if trial.watchdog_cycles is not None \
            else _max_cycles()
        try:
            res = system.run(budget)
        except SimulationHang as exc:
            return hang_result(trial, exc)
        return finish_trial(trial, res)


def _max_cycles() -> int:
    from repro.harness.runner import MAX_CYCLES
    return int(MAX_CYCLES)


def build_prefix(trial: TrialSpec, interval: int,
                 ring_capacity: int) -> _Prefix:
    """Build-pool entry point of :meth:`PrefixSnapshotCache.warm`; the
    prefix travels without its program (the receiver binds its own)."""
    built = PrefixSnapshotCache(interval, ring_capacity)._build(trial)
    built.program = None
    return built


#: the process-wide cache ``run_trial_differential`` pulls from
CACHE = PrefixSnapshotCache()


def run_trial_differential(trial: TrialSpec) -> TrialResult:
    """The trial runner: :meth:`PrefixSnapshotCache.run` on :data:`CACHE`
    (top-level so it pickles into pool workers)."""
    return CACHE.run(trial)
