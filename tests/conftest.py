"""Shared fixtures."""

from __future__ import annotations

import pytest

from repro.isa.assembler import assemble
from repro.workloads import load_workload


SUM_LOOP = """
main:
    li r1, 50
    li r2, 0
    la r6, buf
loop:
    add r2, r2, r1
    mul r3, r1, r1
    sw r3, 0(r6)
    lw r4, 0(r6)
    add r2, r2, r4
    addi r6, r6, 4
    addi r1, r1, -1
    bne r1, r0, loop
    la r5, result
    sw r2, 0(r5)
    halt
.data
result: .word 0
buf: .space 256
"""

TRAP_LOOP = """
main:
    li r1, 30
    li r2, 0
loop:
    add r2, r2, r1
    slli r3, r2, 1
    xor r2, r2, r3
    trap
    addi r1, r1, -1
    bne r1, r0, loop
    la r5, result
    sw r2, 0(r5)
    halt
.data
result: .word 0
"""

STORE_BURST = """
main:
    li r1, 40
    la r6, buf
loop:
    sw r1, 0(r6)
    sw r1, 4(r6)
    sw r1, 8(r6)
    sw r1, 12(r6)
    sw r1, 16(r6)
    sw r1, 20(r6)
    addi r6, r6, 24
    andi r6, r6, 0x3ff
    la r7, buf
    add r6, r6, r0
    addi r1, r1, -1
    bne r1, r0, loop
    halt
.data
buf: .space 2048
"""


@pytest.fixture
def restored_registry():
    """The scheme registry, restored in place when the test ends."""
    from repro.schemes import base
    saved = dict(base._REGISTRY)
    yield base._REGISTRY
    base._REGISTRY.clear()
    base._REGISTRY.update(saved)


@pytest.fixture(scope="session")
def sum_loop():
    """Small mixed kernel with a verifiable result."""
    return assemble(SUM_LOOP, name="sum_loop")


@pytest.fixture(scope="session")
def trap_loop():
    """Kernel with one serializing trap per iteration."""
    return assemble(TRAP_LOOP, name="trap_loop")


@pytest.fixture(scope="session")
def store_burst():
    """Store-dense kernel (CB pressure)."""
    return assemble(STORE_BURST, name="store_burst")


@pytest.fixture(scope="session")
def dot_product():
    return load_workload("dot_product")


@pytest.fixture(scope="session")
def bubble_sort():
    return load_workload("bubble_sort")
