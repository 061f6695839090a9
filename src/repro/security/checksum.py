"""The ST's software checksum.

Section 2.5: "the optimal checksumming mechanism can be used based on
RMS parameters" -- a network interface may checksum in hardware, the
network may be clean enough to skip checksumming, or the ST must do it
in software.  The software checksum is a real CRC-32 over real bytes so
corruption experiments actually detect (or miss) bit errors.

It is implemented from scratch (no zlib/binascii) because the
reproduction builds its substrates rather than importing them.
"""

from __future__ import annotations

__all__ = ["crc32"]


def _build_crc32_table() -> tuple:
    polynomial = 0xEDB88320
    table = []
    for index in range(256):
        value = index
        for _ in range(8):
            if value & 1:
                value = (value >> 1) ^ polynomial
            else:
                value >>= 1
        table.append(value)
    return tuple(table)


_CRC32_TABLE = _build_crc32_table()


def crc32(data: bytes) -> int:
    """IEEE CRC-32 (the Ethernet polynomial), table-driven."""
    crc = 0xFFFFFFFF
    table = _CRC32_TABLE
    for byte in data:
        crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF
