"""Benchmark suite registries."""

from __future__ import annotations

from typing import Dict, List

from repro.workloads.profiles import PROFILES, WorkloadProfile

SPEC2000: Dict[str, WorkloadProfile] = {
    name: p for name, p in PROFILES.items() if p.suite == "spec2000"}
MIBENCH: Dict[str, WorkloadProfile] = {
    name: p for name, p in PROFILES.items() if p.suite == "mibench"}
ALL_BENCHMARKS: Dict[str, WorkloadProfile] = dict(PROFILES)


def benchmark_names(suite: str = "all") -> List[str]:
    """Names in a suite ('spec2000', 'mibench', or 'all')."""
    if suite == "spec2000":
        return sorted(SPEC2000)
    if suite == "mibench":
        return sorted(MIBENCH)
    if suite == "all":
        return sorted(ALL_BENCHMARKS)
    raise ValueError(f"unknown suite {suite!r}")

