"""Independent signature finder for the ``scan`` workload's check.

It re-derives, from the file bytes alone, the findings the scanner must
report, so the benchmark can confirm the generator's planted set without
trusting the code under test.  It reads PE32 headers with its own few
``struct`` calls and never imports duqusim.
"""

from __future__ import annotations

import struct

_EXECUTE = 0x20000000
_M32 = 0xFFFFFFFF
_PUSH_104H = bytes([0x68, 0x04, 0x01, 0x00, 0x00])
_CALL = b"\xE8"
# Bytes after the first call in which the push and second call must start;
# the scanner's default window.
_WINDOW = 64


def _u16(data: bytes, off: int) -> int:
    return struct.unpack_from("<H", data, off)[0]


def _u32(data: bytes, off: int) -> int:
    return struct.unpack_from("<I", data, off)[0]


def _sections(data: bytes):
    nt = _u32(data, 0x3C)
    count = _u16(data, nt + 6)
    table = nt + 24 + _u16(data, nt + 20)
    for i in range(count):
        vsize, va, raw_size, raw_ptr = struct.unpack_from("<IIII", data, table + 40 * i + 8)
        yield va, max(vsize, raw_size), raw_ptr, raw_size, _u32(data, table + 40 * i + 36)


def _offset(data: bytes, rva: int) -> int:
    for va, span, raw_ptr, _, _ in _sections(data):
        if va <= rva < va + span:
            return raw_ptr + rva - va
    raise ValueError(f"rva {rva:#x} in no section")


def _export_rva(data: bytes, name: bytes) -> int | None:
    opt = _u32(data, 0x3C) + 24
    dir_rva = _u32(data, opt + 96)
    if dir_rva == 0:
        return None
    d = _offset(data, dir_rva)
    count, funcs, names, ords = struct.unpack_from("<IIII", data, d + 24)
    for i in range(count):
        at = _offset(data, _u32(data, _offset(data, names) + 4 * i))
        if data[at:data.index(b"\x00", at)] == name:
            ordinal = _u16(data, _offset(data, ords) + 2 * i)
            return _u32(data, _offset(data, funcs) + 4 * ordinal)
    return None


def _call_target(site: int, code: bytes, at: int) -> int:
    return (site + 5 + struct.unpack_from("<i", code, at + 1)[0]) & _M32


def _train(code: bytes, section_va: int, anchor_va: int) -> int | None:
    """VA of the second call of the first call/push 104h/call train."""
    at = code.find(_CALL)
    while at != -1 and at + 5 <= len(code):
        if _call_target(section_va + at, code, at) == anchor_va:
            hi = min(at + 5 + _WINDOW, len(code))
            push = code.find(_PUSH_104H, at + 5, hi)
            if push != -1:
                second = code.find(_CALL, push + 5, hi)
                while second != -1 and second + 5 > len(code):
                    second = code.find(_CALL, second + 1, hi)
                if second != -1:
                    return section_va + second
        at = code.find(_CALL, at + 1)
    return None


def expected_findings(data: bytes, anchor: str | None) -> list[tuple[str, int]]:
    """(kind, address) pairs the scanner documents for these file bytes."""
    opt = _u32(data, 0x3C) + 24
    entry_rva = _u32(data, opt + 16)
    image_base = _u32(data, opt + 28)
    found = []
    head = data[_offset(data, entry_rva):][:7]
    if len(head) == 7 and head[0] == 0xB8 and head[5:] == b"\xFF\xD0":
        found.append(("ENTRY_HOOK", image_base + entry_rva))
    anchor_rva = _export_rva(data, anchor.encode("ascii")) if anchor else None
    code_sections = [(va, data[ptr:ptr + size])
                     for va, _, ptr, size, flags in _sections(data) if flags & _EXECUTE]
    if anchor_rva is not None:
        for va, code in code_sections:
            site = _train(code, image_base + va, image_base + anchor_rva)
            if site is not None:
                found.append(("ZWPROTECT_PATTERN", site))
                break
    for va, code in code_sections:
        at = code.find(b"PE\x00\x00")
        while at != -1:
            found.append(("OBFUSCATED_PE_CONST", image_base + va + at))
            at = code.find(b"PE\x00\x00", at + 1)
    return sorted(found)
