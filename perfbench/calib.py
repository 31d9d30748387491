"""Fixed pure-Python reference loop used to calibrate op timings.

The host this benchmark runs on drifts in speed between runs.  The loop
below does a fixed amount of interpreter work of the same kind the
simulator does (byte indexing, 32-bit rotate arithmetic, struct decoding,
dict and list traffic, ``bytes.find``), so its time tracks the host's
current speed.  Op times are reported as multiples of its median.

This module must not import duqusim: a change to the program must never
change the yardstick it is measured with.
"""

from __future__ import annotations

import struct
import time

_M32 = 0xFFFFFFFF
_BUF = bytes((i * 131 + 7) & 0xFF for i in range(3072))
_NEEDLE = bytes([0x68, 0x04, 0x01, 0x00, 0x00])


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def reference_loop() -> int:
    """One unit of reference work; returns a checksum so nothing is elided."""
    acc = 0
    for b in _BUF:
        acc = ((acc >> 13) | (acc << 19)) & _M32
        acc = (acc + b) & _M32
    table: dict[int, _Cell] = {}
    unpack = struct.unpack_from
    for off in range(0, len(_BUF) - 4, 3):
        word = unpack("<I", _BUF, off)[0]
        key = word & 0x1FF
        cell = table.get(key)
        if cell is None:
            table[key] = _Cell(key, word)
        else:
            cell.value ^= word
    cells = sorted(table.values(), key=lambda c: c.value)
    pos = 0
    hits = 0
    while True:
        pos = _BUF.find(b"\x07", pos)
        if pos == -1:
            break
        hits += 1
        pos += 1
    return (acc ^ hits ^ cells[0].value ^ _BUF.find(_NEEDLE)) & _M32


def time_reference() -> float:
    """Milliseconds one reference loop takes right now."""
    t0 = time.perf_counter()
    reference_loop()
    return (time.perf_counter() - t0) * 1e3


# Set-up is mostly importing modules, i.e. building classes and functions,
# a kind of work whose speed moves with the host differently from the loop
# above: over eight runs on a shared 2-core host, replay's set-up time over
# the loop's time wandered by 18%, and over the time of executing this
# module body by 6%.
_SETUP_SOURCE = "from dataclasses import dataclass, field\n" + "".join(
    f"""
@dataclass(frozen=True)
class Record{i}:
    offset: int = 0
    data: bytes = b""
    names: list = field(default_factory=list)

    def end(self, base: int) -> int:
        return (base + self.offset + len(self.data)) & 0xFFFFFFFF
""" for i in range(12))
_SETUP_CODE = compile(_SETUP_SOURCE, "<setup reference>", "exec", dont_inherit=True)


def time_setup_reference() -> float:
    """Milliseconds executing a fixed module body of 12 dataclasses takes now."""
    t0 = time.perf_counter()
    exec(_SETUP_CODE, {"__name__": "perfbench_setup_reference"})
    return (time.perf_counter() - t0) * 1e3
