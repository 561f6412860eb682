"""Hand-written algorithmic kernels.

Real programs (not statistical clones) for tests and examples: each one
computes a verifiable result and stores it to a labelled location, so
correctness checks are one memory read. They also serve as ground truth
that the ISA + assembler + simulators execute actual algorithms, not just
generated instruction soup.
"""

from __future__ import annotations

from typing import Dict

DOT_PRODUCT = """
# dot product of two 64-element vectors (a[i] = i+1, b[i] = 2i+1)
main:
    li r1, 64
    la r2, va
    la r3, vb
    li r4, 1
    li r5, 1
init:
    sw r4, 0(r2)
    sw r5, 0(r3)
    addi r2, r2, 4
    addi r3, r3, 4
    addi r4, r4, 1
    addi r5, r5, 2
    addi r1, r1, -1
    bne r1, r0, init
    li r1, 64
    la r2, va
    la r3, vb
    li r10, 0
dot:
    lw r6, 0(r2)
    lw r7, 0(r3)
    mul r8, r6, r7
    add r10, r10, r8
    addi r2, r2, 4
    addi r3, r3, 4
    addi r1, r1, -1
    bne r1, r0, dot
    la r9, result
    sw r10, 0(r9)
    halt
.data
result: .word 0
va: .space 256
vb: .space 256
"""

BUBBLE_SORT = """
# bubble-sort 32 pseudo-random words, then store the min and max
main:
    li r1, 32
    la r2, arr
    li r3, 12345
fill:                      # LCG fill: x = (x*1103515245 + 12345) & 0x7fff
    li r4, 1103515245
    mul r3, r3, r4
    addi r3, r3, 12345
    li r5, 0x7fff
    and r6, r3, r5
    sw r6, 0(r2)
    addi r2, r2, 4
    addi r1, r1, -1
    bne r1, r0, fill
    li r10, 31             # outer counter
outer:
    la r2, arr
    li r11, 31             # inner counter
inner:
    lw r6, 0(r2)
    lw r7, 4(r2)
    bge r7, r6, noswap
    sw r7, 0(r2)
    sw r6, 4(r2)
noswap:
    addi r2, r2, 4
    addi r11, r11, -1
    bne r11, r0, inner
    addi r10, r10, -1
    bne r10, r0, outer
    la r2, arr
    lw r8, 0(r2)           # min
    lw r9, 124(r2)         # max
    la r3, result
    sw r8, 0(r3)
    sw r9, 4(r3)
    halt
.data
result: .space 8
arr: .space 128
"""

CHECKSUM = """
# additive + rotating checksum over a 256-byte buffer
main:
    li r1, 64
    la r2, buf
    li r3, 7
fill:
    mul r3, r3, r3
    addi r3, r3, 13
    sw r3, 0(r2)
    addi r2, r2, 4
    addi r1, r1, -1
    bne r1, r0, fill
    li r1, 64
    la r2, buf
    li r10, 0
sum:
    lw r4, 0(r2)
    add r10, r10, r4
    slli r11, r10, 1
    srli r12, r10, 31
    or r10, r11, r12       # rotate left 1
    xor r10, r10, r4
    addi r2, r2, 4
    addi r1, r1, -1
    bne r1, r0, sum
    la r9, result
    sw r10, 0(r9)
    halt
.data
result: .word 0
buf: .space 256
"""

FIBONACCI = """
# fib(30) mod 2^32, iteratively
main:
    li r1, 30
    li r2, 0
    li r3, 1
fib:
    add r4, r2, r3
    mv r2, r3
    mv r3, r4
    addi r1, r1, -1
    bne r1, r0, fib
    la r9, result
    sw r2, 0(r9)
    halt
.data
result: .word 0
"""

ATOMIC_COUNTER = """
# exercise the non-idempotent SWAP: rotate a token through 3 mailboxes
main:
    li r1, 40
    la r2, boxes
    li r5, 1
spin:
    swap r5, 0(r2)
    swap r5, 4(r2)
    swap r5, 8(r2)
    membar
    addi r1, r1, -1
    bne r1, r0, spin
    la r9, result
    sw r5, 0(r9)
    lw r6, 0(r2)
    sw r6, 4(r9)
    halt
.data
result: .space 8
boxes: .word 10, 20, 30
"""

MATMUL = """
# 8x8 integer matrix multiply C = A * B, then checksum C
main:
    li r1, 64
    la r2, ma
    la r3, mb
    li r4, 1
fill:
    sw r4, 0(r2)
    slli r5, r4, 1
    sw r5, 0(r3)
    addi r2, r2, 4
    addi r3, r3, 4
    addi r4, r4, 1
    addi r1, r1, -1
    bne r1, r0, fill
    li r10, 0              # i
iloop:
    li r11, 0              # j
jloop:
    li r12, 0              # k
    li r13, 0              # acc
kloop:
    slli r14, r10, 5       # i*8*4
    slli r15, r12, 2
    add r14, r14, r15      # &A[i][k] offset
    la r2, ma
    add r2, r2, r14
    lw r6, 0(r2)
    slli r14, r12, 5
    slli r15, r11, 2
    add r14, r14, r15
    la r3, mb
    add r3, r3, r14
    lw r7, 0(r3)
    mul r8, r6, r7
    add r13, r13, r8
    addi r12, r12, 1
    slti r9, r12, 8
    bne r9, r0, kloop
    slli r14, r10, 5
    slli r15, r11, 2
    add r14, r14, r15
    la r4, mc
    add r4, r4, r14
    sw r13, 0(r4)
    addi r11, r11, 1
    slti r9, r11, 8
    bne r9, r0, jloop
    addi r10, r10, 1
    slti r9, r10, 8
    bne r9, r0, iloop
    li r1, 64
    la r2, mc
    li r10, 0
sum:
    lw r4, 0(r2)
    add r10, r10, r4
    addi r2, r2, 4
    addi r1, r1, -1
    bne r1, r0, sum
    la r9, result
    sw r10, 0(r9)
    halt
.data
result: .word 0
ma: .space 256
mb: .space 256
mc: .space 256
"""

SIEVE = """
# sieve of Eratosthenes up to 255; result = count of primes (= 54)
main:
    la r2, flags
    li r1, 256
    li r3, 0
clear:
    sb r3, 0(r2)
    addi r2, r2, 1
    addi r1, r1, -1
    bne r1, r0, clear
    li r4, 2              # candidate
outer:
    la r2, flags
    add r5, r2, r4
    lb r6, 0(r5)
    bne r6, r0, next      # already composite
    add r7, r4, r4        # first multiple
mark:
    slti r8, r7, 256
    beq r8, r0, next
    la r2, flags
    add r5, r2, r7
    li r9, 1
    sb r9, 0(r5)
    add r7, r7, r4
    j mark
next:
    addi r4, r4, 1
    slti r8, r4, 256
    bne r8, r0, outer
    # count zeros in flags[2..255]
    li r4, 2
    li r10, 0
count:
    la r2, flags
    add r5, r2, r4
    lb r6, 0(r5)
    bne r6, r0, notp
    addi r10, r10, 1
notp:
    addi r4, r4, 1
    slti r8, r4, 256
    bne r8, r0, count
    la r9, result
    sw r10, 0(r9)
    halt
.data
result: .word 0
flags: .space 256
"""

BINARY_SEARCH = """
# binary-search 48 keys in a sorted 64-word table; result = found count
main:
    li r1, 64
    la r2, table
    li r3, 0
fill:                      # table[i] = 3*i
    sw r3, 0(r2)
    addi r2, r2, 4
    addi r3, r3, 3
    addi r1, r1, -1
    bne r1, r0, fill
    li r10, 0              # found counter
    li r11, 48             # probes
    li r12, 0              # probe key seed
probe:
    li r4, 0               # lo
    li r5, 63              # hi
bs_loop:
    blt r5, r4, missed
    add r6, r4, r5
    srli r6, r6, 1         # mid
    la r2, table
    slli r7, r6, 2
    add r7, r2, r7
    lw r8, 0(r7)           # table[mid]
    beq r8, r12, found
    blt r8, r12, go_right
    addi r5, r6, -1
    j bs_loop
go_right:
    addi r4, r6, 1
    j bs_loop
found:
    addi r10, r10, 1
missed:
    addi r12, r12, 4       # next key (hits every 3rd multiple pattern)
    addi r11, r11, -1
    bne r11, r0, probe
    la r9, result
    sw r10, 0(r9)
    halt
.data
result: .word 0
table: .space 256
"""

STRING_SEARCH = """
# naive substring search: count occurrences of a 3-byte needle in a
# 64-byte haystack; result = match count
main:
    # haystack = repeating pattern 'a' 'b' 'c' 'a' 'b' (5-periodic)
    la r2, hay
    li r1, 64
    li r3, 0               # index
hfill:
    li r4, 5
    div r5, r3, r4
    mul r5, r5, r4
    sub r5, r3, r5         # i mod 5
    la r6, pat5
    add r6, r6, r5
    lb r7, 0(r6)
    sb r7, 0(r2)
    addi r2, r2, 1
    addi r3, r3, 1
    addi r1, r1, -1
    bne r1, r0, hfill
    li r10, 0              # matches
    li r3, 0               # position
search:
    slti r8, r3, 62        # positions 0..61
    beq r8, r0, done
    la r2, hay
    add r2, r2, r3
    lb r4, 0(r2)
    lb r5, 1(r2)
    lb r6, 2(r2)
    la r7, needle
    lb r11, 0(r7)
    lb r12, 1(r7)
    lb r13, 2(r7)
    bne r4, r11, nomatch
    bne r5, r12, nomatch
    bne r6, r13, nomatch
    addi r10, r10, 1
nomatch:
    addi r3, r3, 1
    j search
done:
    la r9, result
    sw r10, 0(r9)
    halt
.data
result: .word 0
pat5: .byte 97, 98, 99, 97, 98
needle: .byte 97, 98, 99
hay: .space 68
"""

GCD_CHAIN = """
# Euclid's gcd over a chain of pairs; result = sum of gcds
main:
    li r10, 0
    li r11, 20             # pairs
    li r2, 1071
    li r3, 462
pair:
    mv r4, r2
    mv r5, r3
gcd:
    beq r5, r0, gcd_done
    rem r6, r4, r5
    mv r4, r5
    mv r5, r6
    j gcd
gcd_done:
    add r10, r10, r4
    addi r2, r2, 13
    addi r3, r3, 7
    addi r11, r11, -1
    bne r11, r0, pair
    la r9, result
    sw r10, 0(r9)
    halt
.data
result: .word 0
"""

CRC32_TABLE = """
# table-driven CRC-8 (polynomial 0x07) over a 64-byte message
main:
    # build the 256-entry table
    li r1, 0               # byte value
tbl:
    mv r2, r1              # crc = byte
    li r3, 8
tbl_bit:
    andi r4, r2, 0x80
    slli r2, r2, 1
    andi r2, r2, 0xff
    beq r4, r0, no_poly
    xori r2, r2, 0x07
no_poly:
    addi r3, r3, -1
    bne r3, r0, tbl_bit
    la r5, table
    add r5, r5, r1
    sb r2, 0(r5)
    addi r1, r1, 1
    slti r6, r1, 256
    bne r6, r0, tbl
    # message[i] = (7i+3) & 0xff
    la r2, msg
    li r1, 64
    li r3, 3
mfill:
    sb r3, 0(r2)
    addi r2, r2, 1
    addi r3, r3, 7
    andi r3, r3, 0xff
    addi r1, r1, -1
    bne r1, r0, mfill
    # crc loop
    li r10, 0              # crc
    la r2, msg
    li r1, 64
crc:
    lb r4, 0(r2)
    andi r4, r4, 0xff
    xor r5, r10, r4
    andi r5, r5, 0xff
    la r6, table
    add r6, r6, r5
    lb r10, 0(r6)
    andi r10, r10, 0xff
    addi r2, r2, 1
    addi r1, r1, -1
    bne r1, r0, crc
    la r9, result
    sw r10, 0(r9)
    halt
.data
result: .word 0
table: .space 256
msg: .space 64
"""

KERNELS: Dict[str, str] = {
    "dot_product": DOT_PRODUCT,
    "bubble_sort": BUBBLE_SORT,
    "checksum": CHECKSUM,
    "fibonacci": FIBONACCI,
    "atomic_counter": ATOMIC_COUNTER,
    "matmul": MATMUL,
    "sieve": SIEVE,
    "binary_search": BINARY_SEARCH,
    "string_search": STRING_SEARCH,
    "gcd_chain": GCD_CHAIN,
    "crc8_table": CRC32_TABLE,
}

