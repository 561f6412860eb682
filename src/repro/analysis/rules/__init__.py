"""The simlint rule battery.

Families:

* **SIM1xx determinism** — wall-clock reads, unseeded RNGs, unordered
  set iteration, ``id()`` keys, dict-mutation-during-view-iteration,
  blocking calls inside ``async def`` (event-loop stalls), unbounded
  network retry loops / untimed sockets in the service tier.
* **SIM2xx hot path** — ``__slots__`` on per-cycle records, no eager
  string formatting / logging inside ``step``/``tick`` loops.
* **SIM3xx multiprocessing hygiene** — executor callables must be
  module-level; no module-global writes from worker-reachable code.
* **SIM4xx exception discipline** — no bare ``except:``, no swallowed
  broad handlers (the outcome taxonomy depends on classification).
* **SIM5xx inter-procedural taint** (whole-program) — nondeterministic
  values (wall-clock, unseeded RNG, hash order, ``id()``, environment)
  tracked through the call graph into trial records, result stores,
  journals, RNG seeds, telemetry payloads, and mapping keys.
* **SIM6xx shared-state races** (whole-program) — service-tier
  instance attributes written from more than one concurrency domain
  (event loop / worker thread / signal handler) without a common lock.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.framework import Rule
from repro.analysis.rules.asyncblocking import BlockingCallInAsync
from repro.analysis.rules.determinism import (
    DeepcopyOnHotState,
    DictMutatedDuringIteration,
    IdAsKey,
    UnorderedSetIteration,
    UnseededRandom,
    WallClock,
)
from repro.analysis.rules.exceptions import BareExcept, SwallowedException
from repro.analysis.rules.hotpath import FormatInStepLoop, SlotsOnHotRecords
from repro.analysis.rules.interproc import (
    AllocIdTaint,
    EnvTaint,
    RNGTaint,
    SetOrderTaint,
    WallClockTaint,
)
from repro.analysis.rules.netretry import UnboundedNetRetry
from repro.analysis.rules.procpool import (
    ModuleGlobalWrite,
    NonModuleLevelWorker,
)
from repro.analysis.rules.races import SharedStateRace

#: every rule, instantiated once, in code order
ALL_RULES: Tuple[Rule, ...] = (
    WallClock(),
    UnseededRandom(),
    UnorderedSetIteration(),
    IdAsKey(),
    DictMutatedDuringIteration(),
    DeepcopyOnHotState(),
    BlockingCallInAsync(),
    UnboundedNetRetry(),
    SlotsOnHotRecords(),
    FormatInStepLoop(),
    NonModuleLevelWorker(),
    ModuleGlobalWrite(),
    BareExcept(),
    SwallowedException(),
    WallClockTaint(),
    RNGTaint(),
    SetOrderTaint(),
    AllocIdTaint(),
    EnvTaint(),
    SharedStateRace(),
)


def rule_catalogue() -> List[Dict[str, str]]:
    """Stable (code, summary, example) listing for docs and ``--help``."""
    return [{"code": r.code, "summary": r.summary, "example": r.example}
            for r in ALL_RULES]
