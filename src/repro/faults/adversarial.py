"""Adversarial fault model: the strikes the paper's recovery story fears.

The standard injector (:class:`repro.faults.injector.FaultInjector`)
exercises only the benign case — isolated single-bit upsets landing in
steady-state execution, where detection always succeeds and recovery
always completes. This module generates the strikes that actually stress
an always-forward recovery scheme:

* **multi-bit clusters** — an upset flipping several bits of one
  protected word. Even-weight clusters defeat 1-bit parity outright
  (true SDC); 2-bit clusters saturate SECDED into detect-only (a DUE on
  any structure without a second clean copy). Cho et al. ("Understanding
  Soft Errors in Uncore Components") motivate the rates.
* **spatially correlated pair strikes** — both cores of a redundant pair
  struck within one detection-latency window. This is the paper's
  unrecoverable case: when the pair stalls to recover there is no clean
  core left to copy from.
* **recovery chasing** — a strike scheduled *inside* an ongoing
  recovery/rollback episode (Zeng et al. show the recovery window is
  where lightweight resilience schemes actually break). The simulators
  notify the injector via :meth:`AdversarialInjector.on_recovery`.
* **uncore targets** — structures the standard inventory never models:
  each scheme's private buffers and queues, which its registry
  descriptor declares (``uncore_blocks``).

Everything is driven by one seeded RNG, so an adversarial trial remains
a pure function of its :class:`~repro.campaign.spec.TrialSpec` — the
campaign's resume and serial-vs-parallel determinism guarantees hold
unchanged.
"""

from __future__ import annotations

import bisect
import math
from typing import List, Optional, Sequence, Tuple

from repro.faults.injector import (
    BLOCKS, Block, BlockInventory, FaultInjector, Strike,
)

#: fault-model names accepted by campaign specs and the CLI
STANDARD_MODEL = "standard"
ADVERSARIAL_MODEL = "adversarial"
FAULT_MODELS: Tuple[str, ...] = (STANDARD_MODEL, ADVERSARIAL_MODEL)

#: fraction of strikes that flip a multi-bit cluster (vs a single bit)
MULTI_BIT_FRACTION = 0.35
#: cluster sizes drawn for a multi-bit strike, even-biased so that
#: parity-defeating upsets dominate (2, 2, 3, 4 -> half the clusters are
#: 2-bit)
CLUSTER_SIZES: Tuple[int, ...] = (2, 2, 3, 4)
#: fraction of strikes that are mirrored onto the *other* core within
#: ``PAIR_WINDOW_CYCLES`` — the paper's unrecoverable paired case
PAIRED_FRACTION = 0.2
#: companion strikes land within this many cycles of the primary
PAIR_WINDOW_CYCLES = 4
#: probability that an ongoing recovery/rollback episode attracts a
#: chase strike inside its window
RECOVERY_CHASE_FRACTION = 0.5
#: fraction of strikes redirected at the scheme's uncore blocks
UNCORE_FRACTION = 0.25


class AdversarialInjector(FaultInjector):
    """Seeded generator of correlated, multi-bit, recovery-chasing strikes.

    Drop-in replacement for :class:`FaultInjector`: the simulators pull
    strikes through :meth:`next_strike` and report recovery episodes
    through :meth:`on_recovery`; correlated companions are queued and
    returned before the next Poisson draw.
    """

    def __init__(self, per_cycle_rate: float,
                 inventory: Optional[BlockInventory] = None,
                 seed: int = 0,
                 uncore_blocks: Sequence[Block] = ()) -> None:
        uncore = tuple(uncore_blocks)
        if inventory is None:
            inventory = BlockInventory(tuple(BLOCKS) + uncore)
        super().__init__(per_cycle_rate, inventory=inventory, seed=seed)
        self._uncore_names = [b.name for b in uncore]
        self._uncore_weights = [b.bits for b in uncore]
        self._base_names = [b.name for b in self.inventory
                            if b.name not in set(self._uncore_names)]
        self._base_weights = [self.inventory.get(n).bits
                              for n in self._base_names]
        #: queued correlated strikes, kept sorted by cycle
        self._queue: List[Strike] = []
        self._queue_cycles: List[int] = []
        # generation counters (telemetry-adjacent, handy in tests)
        self.multi_bit_strikes = 0
        self.paired_strikes = 0
        self.chase_strikes = 0
        self.uncore_strikes = 0

    # -- queue ---------------------------------------------------------------
    def _enqueue(self, strike: Strike) -> None:
        at = bisect.bisect_right(self._queue_cycles, strike.cycle)
        self._queue_cycles.insert(at, strike.cycle)
        self._queue.insert(at, strike)

    # -- sampling ------------------------------------------------------------
    def _sample_strike(self, cycle: int, core: int,
                       allow_uncore: bool = True) -> Strike:
        if (allow_uncore and self._uncore_names
                and self._rng.random() < UNCORE_FRACTION):
            names, weights = self._uncore_names, self._uncore_weights
            self.uncore_strikes += 1
        else:
            names, weights = self._base_names, self._base_weights
        name = self._rng.choices(names, weights=weights, k=1)[0]
        bit = self._rng.randrange(self.inventory.get(name).bits)
        flipped = 1
        if self._rng.random() < MULTI_BIT_FRACTION:
            flipped = self._rng.choice(CLUSTER_SIZES)
            self.multi_bit_strikes += 1
        return Strike(cycle=cycle, block=name, bit=bit,
                      flipped_bits=flipped, core=core)

    def next_strike(self, now: int) -> Optional[Strike]:
        if self._queue:
            self._queue_cycles.pop(0)
            return self._queue.pop(0)
        interval = self.next_interval()
        if interval == math.inf:
            return None
        cycle = now + max(1, int(interval))
        core = self._rng.randrange(2)
        strike = self._sample_strike(cycle, core)
        if self._rng.random() < PAIRED_FRACTION:
            # mirror onto the other core inside the detection window: no
            # clean core is left to recover from
            delta = self._rng.randrange(PAIR_WINDOW_CYCLES)
            self._enqueue(self._sample_strike(cycle + delta, 1 - core,
                                              allow_uncore=False))
            self.paired_strikes += 1
        return strike

    def preempt(self, armed: Optional[Strike]) -> Optional[Strike]:
        if self._queue and (armed is None
                            or self._queue_cycles[0] <= armed.cycle):
            self._queue_cycles.pop(0)
            strike = self._queue.pop(0)
            if armed is not None:
                self._enqueue(armed)
            return strike
        return armed

    def on_recovery(self, now: int, duration_cycles: int) -> None:
        if self._rng.random() >= RECOVERY_CHASE_FRACTION:
            return
        # land inside the recovery window (capped so short rollbacks and
        # long L1 copies are both chaseable)
        span = max(1, min(duration_cycles, 64))
        delta = 1 + self._rng.randrange(span)
        core = self._rng.randrange(2)
        self._enqueue(self._sample_strike(now + delta, core))
        self.chase_strikes += 1


def adversarial_injector(scheme: str, per_cycle_rate: float,
                         seed: int = 0) -> AdversarialInjector:
    """The adversarial injector for one scheme's structure inventory.

    The scheme registry declares each scheme's uncore strike targets
    (its descriptor's ``uncore_blocks``); a scheme outside the registry
    simply exposes no uncore surface.
    """
    from repro.schemes import UnknownSchemeError, get
    try:
        uncore: Sequence[Block] = get(scheme).uncore_blocks()
    except UnknownSchemeError:
        uncore = ()
    return AdversarialInjector(per_cycle_rate, seed=seed,
                               uncore_blocks=uncore)
