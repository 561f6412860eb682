"""Ground-truth and equivalence tests for the extended kernel set.

Every expected value below is computed independently in Python inside
the test, so these pin the kernels' *algorithms*, not just determinism.
"""

import pytest

from repro.isa import golden
from repro.redundancy import BaselineSystem
from repro.workloads import load_workload


def result_of(name, max_instructions=500_000):
    prog = load_workload(name)
    res = golden.run(prog, max_instructions=max_instructions)
    return res.state.read_mem(prog.labels["result"], 4)


def test_sieve_counts_primes():
    n = 256
    flags = [True] * n
    flags[0] = flags[1] = False
    for i in range(2, int(n ** 0.5) + 1):
        if flags[i]:
            for j in range(i * i, n, i):
                flags[j] = False
    assert result_of("sieve") == sum(flags)


def test_binary_search_hit_count():
    table = [3 * i for i in range(64)]
    keys = range(0, 48 * 4, 4)
    expected = sum(1 for k in keys if k in set(table))
    assert result_of("binary_search") == expected


def test_string_search_matches():
    hay = (b"abcab" * 13)[:64]
    expected = sum(1 for i in range(62) if hay[i:i + 3] == b"abc")
    assert result_of("string_search") == expected


def test_gcd_chain():
    import math
    total, a, b = 0, 1071, 462
    for _ in range(20):
        total += math.gcd(a, b)
        a += 13
        b += 7
    assert result_of("gcd_chain") == total


def test_crc8_table_driven():
    def crc8(data):
        crc = 0
        for byte in data:
            crc ^= byte
            for _ in range(8):
                crc = ((crc << 1) ^ 0x07) & 0xFF if crc & 0x80 \
                    else (crc << 1) & 0xFF
        return crc
    msg = bytes((7 * i + 3) & 0xFF for i in range(64))
    assert result_of("crc8_table") == crc8(msg)


@pytest.mark.parametrize("name", ["sieve", "binary_search", "string_search",
                                  "gcd_chain", "crc8_table"])
def test_extended_kernels_pipeline_equivalence(name):
    prog = load_workload(name)
    gold = golden.run(prog, max_instructions=500_000)
    res = BaselineSystem(prog).run(max_cycles=2_000_000)
    assert res.state.regs == gold.state.regs
    assert res.state.mem == gold.state.mem
    assert res.instructions == gold.instructions
