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
  fast path of low-SER grids. Only a prefix built to the end of its run
  holds that verdict.

:func:`run_trial_differential` is the trial runner of every campaign,
pool worker and ``repro worker``; :func:`~repro.campaign.trial.run_trial`
(full replay from cycle 0) is the reference tests and CI compare its
stores against. :data:`CACHE` is process-wide, like the program memo
of :func:`repro.workloads.load_workload`. Before each wave of a local pooled
campaign the coordinator builds each prefix as far as its wave's trials
share it (:meth:`PrefixSnapshotCache.warm`), and the wave's forked trial
pool inherits them. An epoch only one trial restores from saves no
simulation — that trial would step the same cycles itself — so it is
left to the trial rather than built ahead of the whole wave. A prefix
stopped short of the end of its run holds no verdict; a trial that
strikes past its newest epoch restores from that epoch, and a later
wave that shares more extends the prefix from its newest epoch, so no
prefix cycle is simulated twice. Everywhere else a process builds a
prefix to its end on first use and keeps it, so a long-running ``repro
worker`` builds each prefix once across every job it serves. Which
epoch a trial restores from cannot change its result, so how far a
prefix was built, and where, cannot change a byte of any store.
"""

from __future__ import annotations

from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.campaign.spec import TrialSpec
from repro.campaign.trial import (
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


def shared_reach(firsts: Sequence[Optional[int]]) -> Optional[int]:
    """How far a prefix serving trials with first strikes ``firsts`` is
    worth building before they run: the latest first strike at least two
    of them reach (``None``, never striking, is the whole run).

    Past that point at most one trial restores from each epoch, and it
    would step the same cycles itself; a lone trial shares nothing, so
    its prefix gets epoch 0 alone.
    """
    if len(firsts) < 2:
        return 0
    # latest last: every strike by cycle, then the trials that never do
    return sorted(firsts, key=lambda f: (f is None, f or 0))[-2]


@dataclass
class _Prefix:
    """One cached fault-free prefix: snapshot ring + final verdict.

    A *complete* prefix was built to the end of its run and holds the
    verdict. A *partial* one stopped at the epoch before the next
    capture would pass its reach: it holds every epoch up to there and
    no verdict.
    """

    program: Any
    #: snapshot ring (the checkpoint package's bounded store, reused for
    #: its capacity/byte accounting); payloads are ``SystemSnapshot``
    ring: Any
    #: fault-free ``RunResult`` (``None`` when the prefix hung or is
    #: partial)
    result: Any
    #: ``(message, cycles, committed)`` of the watchdog trip, if any
    hang: Optional[Tuple[str, int, int]]
    #: ``system.now`` when the prefix run stopped: for a complete prefix
    #: the end of the run — strikes at or past this cycle are
    #: unobservable (no further cycle is ever stepped) — and for a
    #: partial one its newest epoch
    final_cycle: int
    #: capture interval after ring-pressure doubling
    interval: int

    @property
    def complete(self) -> bool:
        return self.result is not None or self.hang is not None

    def covers(self, reach: Optional[int]) -> bool:
        """Whether the ring holds every epoch at or before ``reach``
        (``None``: the whole run, verdict included)."""
        if self.complete:
            return True
        # a partial prefix stopped where its next capture was due
        return reach is not None and reach < self.final_cycle + self.interval


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

    # -- bookkeeping --------------------------------------------------------
    def clear(self) -> None:
        self._prefixes.clear()
        self._pools.clear()

    def _lru(self, memo: "OrderedDict[Any, Any]", key: Any,
             build: Callable[[], Any]) -> Any:
        value = memo.get(key)
        return self._keep(memo, key, build() if value is None else value)

    def _keep(self, memo: "OrderedDict[Any, Any]", key: Any,
              value: Any) -> Any:
        memo[key] = value
        memo.move_to_end(key)
        while len(memo) > self.max_prefixes:
            memo.popitem(last=False)
        return value

    # -- prefix construction ------------------------------------------------
    def prefix(self, trial: TrialSpec) -> _Prefix:
        """The cached fault-free prefix for ``trial``'s cell, complete or
        partial; a cell with none gets one built to the end of its run."""
        return self._lru(self._prefixes, prefix_key(trial),
                         partial(self._build, trial, None, None))

    def warm(self, wave: Sequence[TrialSpec], workers: int) -> None:
        """Build every prefix ``wave`` needs as far as its trials share it.

        A key's reach is the :func:`shared_reach` of its trials' first
        strikes in the wave. A key whose cached prefix is complete is
        skipped without a peek; a missing prefix is built up to its
        reach, and a partial one that falls short is extended from its
        newest epoch. Each such key (at most ``max_prefixes``) is built
        once, in a short-lived pool of up to ``workers`` processes, or
        in-process when only one needs it; a trial pool forked afterwards
        inherits them all. A build that raises leaves its key cold.
        """
        firsts: Dict[PrefixKey, List[Optional[int]]] = {}
        heads: Dict[PrefixKey, TrialSpec] = {}
        for trial in wave:
            key = prefix_key(trial)
            cached = self._prefixes.get(key)
            if cached is not None and cached.complete:
                continue
            heads.setdefault(key, trial)
            firsts.setdefault(key, []).append(peek_first_strike(trial))
        todo: List[Tuple[TrialSpec, Optional[int], Optional[_Prefix]]] = []
        for key, strikes in firsts.items():
            until = shared_reach(strikes)
            cached = self._prefixes.get(key)
            if cached is None or not cached.covers(until):
                todo.append((heads[key], until, cached))
        todo = todo[:self.max_prefixes]
        if len(todo) <= 1:  # a pool gains nothing for one key
            for trial, until, base in todo:
                self._adopt(trial, partial(self._build, trial, until, base))
            return
        pool = ProcessPoolExecutor(max_workers=min(workers, len(todo)))
        done = False
        try:
            # a partial base travels without its program, like a result
            futures = [pool.submit(build_prefix, trial, self.interval,
                                   self.ring_capacity, until,
                                   None if base is None
                                   else replace(base, program=None))
                       for trial, until, base in todo]
            for (trial, _, _), future in zip(todo, futures):
                self._adopt(trial, future.result)
            done = True
        finally:
            # an interrupt cancels the builds not yet started
            pool.shutdown(wait=done, cancel_futures=not done)

    def _adopt(self, trial: TrialSpec, build: Callable[[], _Prefix]
               ) -> None:
        """Cache what ``build`` returns, bound to this process's program
        and its pages interned into this process's page pool."""
        from repro.workloads import load_workload

        key = prefix_key(trial)
        try:
            built = build()
        except Exception:
            # left cold, a partial prefix that was being extended too:
            # the trial worker builds it on first use, where the
            # executor's retry/CRASH policy classifies any failure
            self._prefixes.pop(key, None)
            return
        built.program = load_workload(trial.workload)
        pool = self._lru(self._pools, trial.workload, dict)
        for checkpoint in built.ring:
            for mem in checkpoint.state.mems:
                mem.update({pno: pool.setdefault(page, page)
                            for pno, page in mem.items()})
        self._keep(self._prefixes, key, built)

    def _build(self, trial: TrialSpec, reach: Optional[int],
               base: Optional[_Prefix]) -> _Prefix:
        """Run ``trial``'s fault-free prefix, capturing an epoch every
        ``interval`` cycles, until the run ends or the next capture
        would land past ``reach`` (``None``: never). A partial ``base``
        resumes from its newest epoch, and its ring carries on."""
        from repro.checkpoint.snapshot import instruction_index
        from repro.checkpoint.store import CheckpointStore
        from repro.faults.injector import FaultInjector
        from repro.harness.runner import MAX_CYCLES
        from repro.redundancy.pair import SimulationHang
        from repro.schemes import get as get_scheme
        from repro.workloads import load_workload

        program = load_workload(trial.workload)
        pool = self._lru(self._pools, trial.workload, dict)
        ins_index = instruction_index(program)
        desc = get_scheme(trial.scheme)
        budget = trial.watchdog_cycles if trial.watchdog_cycles is not None \
            else MAX_CYCLES

        if base is None:
            # rate zero: construction behaves injected, RNG stays untouched
            system = desc.build_system(program,
                                       injector=FaultInjector(0.0))
            ring = CheckpointStore(capacity=self.ring_capacity)
            interval = self.interval
        else:
            # the newest epoch carries the prefix's rate-zero injector
            newest = base.ring.at_or_before(base.final_cycle)
            system = desc.restore(newest.state, program)
            ring, interval = base.ring, base.interval

        def capture() -> None:
            nonlocal interval
            if ring.full:
                ring.thin_every_other()
                interval *= 2
            snap = desc.snapshot(system, pool=pool, ins_index=ins_index)
            ring.capture_payload(seq=0, cycle=system.now, payload=snap,
                                 delta_bytes=snap.delta_bytes)

        if base is None:
            capture()  # epoch 0: the freshly built system
        target = system.now + interval
        while not system.finished() and system.now < budget:
            if system.now >= target:
                capture()
                target = system.now + interval
            if reach is not None and target > reach:
                # every epoch at or before the reach is in the ring
                return _Prefix(program=program, ring=ring, result=None,
                               hang=None, final_cycle=int(system.now),
                               interval=interval)
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
            if prefix.complete:
                # the strike stream starts after the last cycle any
                # full-replay run would step: the trial IS the cached
                # fault-free run
                if prefix.hang is not None:
                    message, cycles, committed = prefix.hang
                    return hang_result(trial, SimulationHang(
                        message, cycles=cycles, committed=committed))
                return finish_trial(trial, prefix.result)
            # past a partial prefix: its newest epoch, the rest stepped here
            first = prefix.final_cycle
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


def build_prefix(trial: TrialSpec, interval: int, ring_capacity: int,
                 reach: Optional[int], base: Optional[_Prefix]) -> _Prefix:
    """Build-pool entry point of :meth:`PrefixSnapshotCache.warm`; the
    prefix travels without its program (the receiver binds its own)."""
    built = PrefixSnapshotCache(interval, ring_capacity)._build(
        trial, reach, base)
    built.program = None
    return built


#: the process-wide cache ``run_trial_differential`` pulls from
CACHE = PrefixSnapshotCache()


def run_trial_differential(trial: TrialSpec) -> TrialResult:
    """The trial runner: :meth:`PrefixSnapshotCache.run` on :data:`CACHE`
    (top-level so it pickles into pool workers)."""
    return CACHE.run(trial)
