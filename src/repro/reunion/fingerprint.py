"""16-bit CRC fingerprints.

The Reunion fingerprint summarises architectural updates of a window of
retired instructions; both papers use a 16-bit CRC (the hardware form is
the 2-stage *parallel* CRC of Albertengo & Sisto — 238 gates, which is the
number the hardware cost model charges). This module implements the same
code serially (table-driven), which is bit-identical to the parallel
circuit by construction.

Aliasing: a 16-bit CRC maps a corrupted stream to the same fingerprint
with probability 2^-16 ≈ 1.5e-5 — real, measurable, and covered by tests;
it is one reliability argument the paper makes for UnSync's direct
detection.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

#: CRC-16-CCITT polynomial, the standard choice for the cited parallel
#: CRC construction.
CRC16_POLY = 0x1021
CRC16_INIT = 0xFFFF


def _build_table() -> List[int]:
    table = []
    for byte in range(256):
        crc = byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ CRC16_POLY) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
        table.append(crc)
    return table


_TABLE = _build_table()


def crc16_update(crc: int, data: bytes) -> int:
    """Fold ``data`` into a running CRC-16."""
    for b in data:
        crc = ((crc << 8) & 0xFFFF) ^ _TABLE[((crc >> 8) ^ b) & 0xFF]
    return crc


class FingerprintGenerator:
    """Accumulates one fingerprint over a window of retired instructions.

    Each instruction contributes its PC and its architectural update
    (destination value, or store address+data) — the same information the
    Reunion hardware hashes out of the retirement stream.
    """

    def __init__(self) -> None:
        self._crc = CRC16_INIT
        self.length = 0

    def add(self, pc: int, result: Optional[int] = None,
            store_addr: Optional[int] = None,
            store_value: Optional[int] = None) -> None:
        payload = pc.to_bytes(4, "little")
        if result is not None:
            payload += (result & 0xFFFFFFFF).to_bytes(4, "little")
        if store_addr is not None:
            payload += (store_addr & 0xFFFFFFFF).to_bytes(4, "little")
        if store_value is not None:
            payload += (store_value & 0xFFFFFFFF).to_bytes(4, "little")
        self._crc = crc16_update(self._crc, payload)
        self.length += 1

    @property
    def value(self) -> int:
        return self._crc
