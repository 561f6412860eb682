"""SystemConfig <-> JSON.

Lets experiment configurations live in version-controlled files::

    python -m repro config-dump > table1.json
    python -m repro run bzip2 --config my_machine.json

Unknown keys are rejected loudly (a typo'd field silently falling back
to a default is the classic way a simulation study goes wrong).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, Union

from repro.core.config import CoreConfig, SystemConfig
from repro.mem.cache import CacheConfig, WritePolicy
from repro.mem.tlb import TLBConfig


def _cache_to_dict(c: CacheConfig) -> Dict[str, Any]:
    d = dataclasses.asdict(c)
    d["policy"] = c.policy.value
    return d


def _cache_from_dict(d: Dict[str, Any]) -> CacheConfig:
    d = dict(d)
    if "policy" in d:
        d["policy"] = WritePolicy(d["policy"])
    _check_fields(CacheConfig, d)
    return CacheConfig(**d)


def _check_fields(cls, d: Dict[str, Any]) -> None:
    valid = {f.name for f in dataclasses.fields(cls)}
    unknown = set(d) - valid
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} field(s): {', '.join(sorted(unknown))} "
            f"(valid: {', '.join(sorted(valid))})")


def to_dict(config: SystemConfig) -> Dict[str, Any]:
    """Serialize to plain JSON-able structures."""
    return {
        "core": dataclasses.asdict(config.core),
        "n_cores": config.n_cores,
        "icache": _cache_to_dict(config.icache),
        "dcache": _cache_to_dict(config.dcache),
        "l2": _cache_to_dict(config.l2),
        "itlb": dataclasses.asdict(config.itlb),
        "dtlb": dataclasses.asdict(config.dtlb),
        "l1_mshrs": config.l1_mshrs,
        "l2_mshrs": config.l2_mshrs,
        "dram_latency": config.dram_latency,
        "bus_width_bytes": config.bus_width_bytes,
    }


def from_dict(data: Dict[str, Any]) -> SystemConfig:
    """Build a SystemConfig; missing sections fall back to Table I,
    unknown keys raise."""
    _check_fields(SystemConfig, data)
    kwargs: Dict[str, Any] = {}
    if "core" in data:
        _check_fields(CoreConfig, data["core"])
        kwargs["core"] = CoreConfig(**data["core"])
    for cache_key in ("icache", "dcache", "l2"):
        if cache_key in data:
            kwargs[cache_key] = _cache_from_dict(data[cache_key])
    for tlb_key in ("itlb", "dtlb"):
        if tlb_key in data:
            _check_fields(TLBConfig, data[tlb_key])
            kwargs[tlb_key] = TLBConfig(**data[tlb_key])
    for scalar in ("n_cores", "l1_mshrs", "l2_mshrs", "dram_latency",
                   "bus_width_bytes"):
        if scalar in data:
            kwargs[scalar] = data[scalar]
    return SystemConfig(**kwargs)


def load(path: Union[str, Path]) -> SystemConfig:
    return from_dict(json.loads(Path(path).read_text()))
