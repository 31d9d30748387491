"""The byte-pattern searches agree with the per-byte loops they replaced.

``scan_pe``'s OBFUSCATED_PE_CONST search and ``scan_call_push_call`` hop
with ``bytes.find``; ``decrypt_blob`` XORs whole integers.  The reference
functions below are the straightforward per-byte loops, kept here only to
pin that the fast forms report the same offsets, in the same order.
"""

import random
import struct

import pytest

from duqusim.duqu import PatternNotFound, decrypt_blob, scan_call_push_call
from duqusim.pebuild import CODE_SECTION, DATA_SECTION, PeSpec, SectionDef, build_pe32
from duqusim.peformat import (
    SIG_XOR_EXPECT,
    SIG_XOR_KEY,
    encode_near_call,
    find_export_by_name,
    parse_pe,
    resolve_near_call,
    section_data,
)
from duqusim.scan import OBFUSCATED_PE_CONST, scan_pe

from oracles import xor_stream_oracle

IMAGE_BASE = 0x00400000
TEXT_VA, DATA_VA, PAGE_VA, EXPORT_VA = 0x1000, 0x3000, 0x5000, 0x8000
ANCHOR = "ZwAllocateVirtualMemory"
ANCHOR_RVA = 0x1DDC
PUSH_104H = bytes([0x68, 0x04, 0x01, 0x00, 0x00])
PE_DWORD = b"PE\x00\x00"
WINDOWS = (0, 16, 64)


def pe_const_reference(data: bytes) -> list[int]:
    """Every executable-section offset whose dword passes the XOR check."""
    image = parse_pe(data)
    found = []
    for section in image.sections:
        if not section.executable:
            continue
        blob = section_data(image, section)
        for i in range(len(blob) - 3):
            dword = struct.unpack_from("<I", blob, i)[0]
            if (dword ^ SIG_XOR_KEY) == SIG_XOR_EXPECT:
                found.append(image.nt.image_base + section.virtual_address + i)
    return found


def call_push_call_reference(image, anchor_name, window=64, base=None):
    """The call / push 104h / call search, one byte at a time."""
    if base is None:
        base = image.nt.image_base
    anchor_va = base + (find_export_by_name(image, anchor_name) - image.nt.image_base)
    for section in image.sections:
        if not section.executable:
            continue
        data = section_data(image, section)
        section_va = base + section.virtual_address
        for off in range(len(data) - 4):
            if data[off] != 0xE8:
                continue
            site = section_va + off
            if resolve_near_call(site, data[off:off + 5]) != anchor_va:
                continue
            lo = off + 5
            hi = min(lo + window, len(data))
            push_at = data.find(PUSH_104H, lo, hi)
            if push_at == -1:
                continue
            cursor = push_at + len(PUSH_104H)
            while cursor < hi:
                if data[cursor] == 0xE8 and cursor + 5 <= len(data):
                    call_site = section_va + cursor
                    return call_site, resolve_near_call(call_site, data[cursor:cursor + 5])
                cursor += 1
    raise PatternNotFound(anchor_name)


def build(text: bytes, page: bytes = b"\x90", data: bytes = b"\x90") -> bytes:
    """Two code sections around one data section; exports the anchor."""
    return build_pe32(PeSpec(
        image_base=IMAGE_BASE, entry_rva=TEXT_VA,
        sections=[SectionDef(".text", TEXT_VA, text, CODE_SECTION),
                  SectionDef(".data", DATA_VA, data, DATA_SECTION),
                  SectionDef("PAGE", PAGE_VA, page, CODE_SECTION)],
        exports=[(ANCHOR, ANCHOR_RVA)], export_va=EXPORT_VA))


def pe_const_found(data: bytes) -> list[int]:
    return [f.address for f in scan_pe(data).findings if f.kind == OBFUSCATED_PE_CONST]


def outcome(finder, image, window, base=None):
    try:
        return finder(image, ANCHOR, window=window, base=base)
    except PatternNotFound:
        return None


def assert_pattern_agrees(data: bytes, window: int, base=None):
    image = parse_pe(data)
    fast = outcome(scan_call_push_call, image, window, base)
    assert fast == outcome(call_push_call_reference, image, window, base)
    return fast


def put(buf: bytearray, at: int, piece: bytes) -> None:
    """Write ``piece`` at ``at``, cut off at the end of ``buf``."""
    n = max(0, min(len(piece), len(buf) - at))
    buf[at:at + n] = piece[:n]


def anchor_call(section_va: int, off: int, base: int = IMAGE_BASE) -> bytes:
    return encode_near_call(base + section_va + off, base + ANCHOR_RVA)


def random_code(rng: random.Random, size: int, section_va: int, base: int) -> bytes:
    """Opcode-heavy random bytes with planted, possibly truncated, trains."""
    hot = bytes([0xE8, 0x68, 0x04, 0x01, 0x00, 0x50, 0x45, 0x90])
    buf = bytearray(rng.choice(hot) if rng.random() < 0.6 else rng.randrange(256)
                    for _ in range(size))
    for _ in range(rng.randrange(4)):
        at = rng.randrange(size)
        put(buf, at, anchor_call(section_va, at, base))
        push_at = at + 5 + rng.randrange(0, 80)
        put(buf, push_at, PUSH_104H)
        call_at = push_at + 5 + rng.randrange(0, 40)
        put(buf, call_at, encode_near_call(base + section_va + call_at,
                                           rng.randrange(1 << 32)))
    for _ in range(rng.randrange(4)):
        put(buf, rng.randrange(size), PE_DWORD * rng.randrange(1, 3))
    return bytes(buf)


class TestPeConstEquivalence:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_sections(self, seed):
        rng = random.Random(f"pe-const:{seed}")
        data = build(random_code(rng, rng.randrange(1, 0x600), TEXT_VA, IMAGE_BASE),
                     random_code(rng, rng.randrange(1, 0x600), PAGE_VA, IMAGE_BASE),
                     random_code(rng, rng.randrange(1, 0x200), DATA_VA, IMAGE_BASE))
        assert pe_const_found(data) == pe_const_reference(data)

    def test_at_offset_zero(self):
        data = build(PE_DWORD + b"\x90" * 60)
        assert pe_const_found(data) == pe_const_reference(data) == [IMAGE_BASE + TEXT_VA]

    def test_in_last_four_bytes(self):
        data = build(b"\x90" * 60 + PE_DWORD)
        assert pe_const_found(data) == pe_const_reference(data) == [IMAGE_BASE + TEXT_VA + 60]

    def test_back_to_back(self):
        data = build(b"\x90" * 8 + PE_DWORD * 2 + b"\x90" * 8)
        expected = [IMAGE_BASE + TEXT_VA + 8, IMAGE_BASE + TEXT_VA + 12]
        assert pe_const_found(data) == pe_const_reference(data) == expected

    @pytest.mark.parametrize("tail", [b"P", b"PE", b"PE\x00"])
    def test_cut_off_by_section_end(self, tail):
        # The file's zero padding after the section would complete the
        # dword; the section ends first, so it is not reported.
        data = build(b"\x90" * 61 + tail)
        assert pe_const_found(data) == pe_const_reference(data) == []

    def test_not_reported_in_data_section(self):
        data = build(b"\x90" * 64, data=b"\x90" * 8 + PE_DWORD + b"\x90" * 8)
        assert pe_const_found(data) == pe_const_reference(data) == []

    def test_reported_in_every_code_section_in_order(self):
        data = build(b"\x90" * 4 + PE_DWORD, page=PE_DWORD + b"\x90" * 4)
        expected = [IMAGE_BASE + TEXT_VA + 4, IMAGE_BASE + PAGE_VA]
        assert pe_const_found(data) == pe_const_reference(data) == expected


class TestCallPushCallEquivalence:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_sections(self, seed):
        rng = random.Random(f"call-push-call:{seed}")
        base = rng.choice([IMAGE_BASE, 0x00800000])
        data = build(random_code(rng, rng.randrange(1, 0x300), TEXT_VA, base),
                     random_code(rng, rng.randrange(1, 0x300), PAGE_VA, base))
        for window in WINDOWS + (rng.randrange(0, 200),):
            assert_pattern_agrees(data, window, base)

    @pytest.mark.parametrize("size", range(1, 9))
    def test_tiny_sections(self, size):
        text = b"\xE8" * size
        for window in WINDOWS:
            assert assert_pattern_agrees(build(text, page=text), window) is None

    @pytest.mark.parametrize("window", WINDOWS)
    def test_call_opcode_in_last_four_bytes(self, window):
        # E8 bytes that cannot start a whole 5-byte call are never decoded.
        for tail in range(1, 5):
            text = b"\x90" * 32 + b"\xE8" * tail
            assert assert_pattern_agrees(build(text), window) is None

    def train(self, push_gap: int, call_gap: int, size: int = 0x100) -> bytes:
        text = bytearray(b"\x90" * size)
        put(text, 0, anchor_call(TEXT_VA, 0))
        push_at = 5 + push_gap
        put(text, push_at, PUSH_104H)
        call_at = push_at + 5 + call_gap
        put(text, call_at, encode_near_call(IMAGE_BASE + TEXT_VA + call_at, 0x00406882))
        return bytes(text)

    @pytest.mark.parametrize("window", [5, 16, 64])
    def test_push_ending_at_window_edge(self, window):
        # push 104h fits the window but leaves no room for the trailing call.
        text = self.train(push_gap=window - len(PUSH_104H), call_gap=0)
        assert assert_pattern_agrees(build(text), window) is None
        # One byte more window reaches the trailing call's opcode.
        site = IMAGE_BASE + TEXT_VA + 5 + window
        assert assert_pattern_agrees(build(text), window + 1) == (site, 0x00406882)

    @pytest.mark.parametrize("window", [5, 16, 64])
    def test_push_crossing_window_edge(self, window):
        text = self.train(push_gap=window - len(PUSH_104H) + 1, call_gap=0)
        assert assert_pattern_agrees(build(text), window) is None

    def test_trailing_call_past_section_end(self):
        # The trailing call's opcode is 4 bytes from the end: not a call.
        text = self.train(push_gap=2, call_gap=3, size=5 + 2 + 5 + 3 + 4)
        assert assert_pattern_agrees(build(text), 64) is None
        # Five bytes from the end it is complete and resolves.
        text = self.train(push_gap=2, call_gap=3, size=5 + 2 + 5 + 3 + 5)
        site = IMAGE_BASE + TEXT_VA + 5 + 2 + 5 + 3
        assert assert_pattern_agrees(build(text), 64) == (site, 0x00406882)


class TestDecryptBlob:
    @pytest.mark.parametrize("length", [0, 1, 255, 256, 257, 12 * 1024])
    def test_matches_oracle_for_every_key(self, length):
        blob = random.Random(f"decrypt:{length}").randbytes(length)
        for key in range(256):
            assert decrypt_blob(blob, key) == xor_stream_oracle(blob, key)

    def test_round_trip(self):
        blob = random.Random("decrypt:round-trip").randbytes(3000)
        assert decrypt_blob(decrypt_blob(blob, 0xA5), 0xA5) == blob
