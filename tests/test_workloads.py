"""Tests for the workload generator, profiles and kernels."""

import pytest

from repro.isa import golden
from repro.workloads import KERNELS, PROFILES, load_benchmark, load_workload
from repro.workloads.generator import generate, generated_program
from repro.workloads.profiles import ILP, WorkloadProfile


# ---------------------------------------------------------------------------
# registries
# ---------------------------------------------------------------------------
def test_every_profile_names_its_suite():
    assert {p.suite for p in PROFILES.values()} == {"spec2000", "mibench"}


def test_paper_benchmarks_present():
    for name in ("bzip2", "ammp", "galgel"):
        assert PROFILES[name].suite == "spec2000"


def test_unknown_benchmark_raises():
    with pytest.raises(KeyError):
        load_benchmark("doom")
    with pytest.raises(KeyError):
        load_benchmark("fibonacci")  # a kernel, not a benchmark


def test_unknown_workload_raises():
    with pytest.raises(KeyError):
        load_workload("doom")


def test_load_benchmark_cached():
    assert load_benchmark("sha") is load_benchmark("sha")


# ---------------------------------------------------------------------------
# paper-calibrated serializing fractions
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name,expected", [
    ("bzip2", 0.020), ("ammp", 0.017), ("galgel", 0.010),
])
def test_paper_serializing_fractions(name, expected):
    """Sec VI-B-1's stated fractions must hold dynamically within 50%."""
    prog = load_benchmark(name)
    res = golden.run(prog, max_instructions=200_000)
    actual = res.class_counts.get("serializing", 0) / res.instructions
    assert actual == pytest.approx(expected, rel=0.5)


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_all_mixes_near_profile(name):
    prog = load_benchmark(name)
    res = golden.run(prog, max_instructions=200_000)
    p = PROFILES[name]
    total = res.instructions
    ser = res.class_counts.get("serializing", 0) / total
    store = res.class_counts.get("store", 0) / total
    load = res.class_counts.get("load", 0) / total
    assert abs(ser - p.serializing_pct) <= max(0.004, p.serializing_pct * 0.5)
    assert abs(store - p.store_pct) <= max(0.03, p.store_pct * 0.4)
    assert abs(load - p.load_pct) <= max(0.03, p.load_pct * 0.4)


def test_rob_hungry_benchmarks_are_high_ilp():
    # Sec VI-B-2: ammp and galgel saturate the ROB
    assert PROFILES["ammp"].ilp is ILP.HIGH
    assert PROFILES["galgel"].ilp is ILP.HIGH


# ---------------------------------------------------------------------------
# generator mechanics
# ---------------------------------------------------------------------------
def test_generation_deterministic():
    p = PROFILES["gzip"]
    assert generate(p) == generate(p)


def test_different_seeds_differ():
    a = PROFILES["gzip"]
    b = WorkloadProfile(**{**a.__dict__, "seed": a.seed + 1})
    assert generate(a) != generate(b)


def test_generated_program_halts_and_is_bounded():
    for name in ("mcf", "bitcount"):
        prog = load_benchmark(name)
        res = golden.run(prog, max_instructions=200_000)
        assert res.halted
        p = PROFILES[name]
        assert res.instructions <= p.iterations * p.body_size * 3


def test_generated_program_deterministic_output():
    a = golden.run(generated_program(PROFILES["susan"]))
    b = golden.run(generated_program(PROFILES["susan"]))
    assert a.state.snapshot() == b.state.snapshot()


def test_generated_stores_stay_in_data_segment():
    prog = load_benchmark("qsort")
    res = golden.run(prog, collect_stores=True, max_instructions=200_000)
    lo, hi = prog.data_base, prog.data_end
    for addr, _, width in res.store_log:
        assert lo <= addr < hi + 4, hex(addr)


def test_profile_validation_rejects_overfull_mix():
    with pytest.raises(ValueError):
        WorkloadProfile(name="x", suite="s", serializing_pct=0.5,
                        store_pct=0.3, load_pct=0.2, branch_pct=0.1,
                        ilp=ILP.LOW, working_set_kb=4)


def test_store_burst_knob_changes_program():
    a = PROFILES["bzip2"]
    b = WorkloadProfile(**{**a.__dict__, "store_burst_frac": 0.0})
    assert generate(a) != generate(b)


def test_ilp_knob_low_means_one_chain():
    text = generate(PROFILES["mcf"])  # ILP.LOW
    # only accumulator r8 is initialised
    assert "li r8," in text and "li r9," not in text


def test_all_kernels_assemble_and_halt():
    for name in KERNELS:
        prog = load_workload(name)
        assert golden.run(prog).halted
