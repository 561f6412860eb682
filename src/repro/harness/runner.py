"""Scheme runners with baseline caching.

Every figure normalises against the unprotected baseline, so baseline
runs are cached per (benchmark, config) — a Figure 5 sweep re-uses one
baseline run across its whole grid.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Dict, Optional, Tuple

from repro.core.config import SystemConfig
from repro.isa.program import Program
from repro.redundancy.stats import RunResult
from repro.reunion.check_stage import ReunionParams
from repro.schemes import get as get_scheme
from repro.unsync.system import UnSyncConfig

_baseline_cache: Dict[Tuple, RunResult] = {}

#: generous global budget; kernels are ~6k instructions
MAX_CYCLES = 4_000_000


def run_scheme(scheme: str, program: Program,
               config: Optional[SystemConfig] = None,
               max_cycles: Optional[int] = None,
               **kwargs) -> RunResult:
    """Run one scheme on one program.

    ``scheme`` is any :func:`repro.schemes.available` name (an unknown
    one raises :class:`~repro.schemes.UnknownSchemeError`, a
    ``ValueError``). Extra kwargs are forwarded to the system constructor
    (``unsync=`` for UnSync, ``params=`` for Reunion, RepTFD and MEEK,
    ``injector=``, ``telemetry=``, ``name=``). ``max_cycles`` tightens
    the cycle-budget watchdog (the campaign trial runner uses it to
    classify wedged simulations as ``HANG`` instead of waiting out the
    generous default).
    """
    budget = max_cycles if max_cycles is not None else MAX_CYCLES
    system = get_scheme(scheme).build_system(program, config=config, **kwargs)
    return system.run(budget)


def _config_key(config: Optional[SystemConfig]) -> Tuple:
    """Value-based cache key for a configuration.

    Keying on ``id(config)`` is unsound: once a config is garbage
    collected its id can be reissued to a *different* config, which would
    then silently hit the stale baseline. ``astuple`` flattens the frozen
    dataclass (recursively, nested cache/TLB configs included) into a
    hashable tuple of field values.
    """
    return astuple(config) if config is not None else ()


def baseline_run(program: Program,
                 config: Optional[SystemConfig] = None) -> RunResult:
    """Cached unprotected-baseline run of ``program``."""
    key = (program.name, _config_key(config))
    if key not in _baseline_cache:
        _baseline_cache[key] = run_scheme("baseline", program, config=config)
    return _baseline_cache[key]


@dataclass
class SchemeComparison:
    """Baseline/Reunion/UnSync on the same workload."""

    name: str
    baseline: RunResult
    reunion: RunResult
    unsync: RunResult

    @property
    def reunion_overhead(self) -> float:
        return self.reunion.overhead_vs(self.baseline)

    @property
    def unsync_overhead(self) -> float:
        return self.unsync.overhead_vs(self.baseline)

    @property
    def unsync_speedup_over_reunion(self) -> float:
        """The paper's headline metric ('up to 20% improved performance')."""
        return self.reunion.cycles / self.unsync.cycles - 1.0


def compare_schemes(program: Program,
                    config: Optional[SystemConfig] = None,
                    reunion_params: Optional[ReunionParams] = None,
                    unsync_config: Optional[UnSyncConfig] = None) -> SchemeComparison:
    """All three schemes on one workload."""
    return SchemeComparison(
        name=program.name,
        baseline=baseline_run(program, config),
        reunion=run_scheme("reunion", program, config=config,
                           params=reunion_params),
        unsync=run_scheme("unsync", program, config=config,
                          unsync=unsync_config),
    )
