"""The byte-pattern searches agree with the per-byte loops they replaced.

``scan_pe``'s OBFUSCATED_PE_CONST search is one compiled literal search
per code section.  ``scan_call_push_call`` hops between ``E8`` bytes with
``bytes.find`` and decodes a call only when the first push 104h after it
is in reach.  ``decrypt_blob`` XORs whole integers.  The reference
functions below are the straightforward per-byte loops, kept here only to
pin that the fast forms report the same offsets, in the same order, on
random code and on sections of one fill byte.  A counter on
``resolve_near_call`` pins how many calls the search decodes, without
timing it.
"""

import random
import re
import struct
import tracemalloc
from bisect import bisect_left

import pytest

from duqusim import peformat, scan
from duqusim.duqu import PatternNotFound, decrypt_blob, scan_call_push_call
from duqusim.pebuild import CODE_SECTION, DATA_SECTION, PeSpec, SectionDef, build_pe32
from duqusim.peformat import (
    HOOK_LEN,
    SIG_XOR_EXPECT,
    SIG_XOR_KEY,
    find_export_by_name,
    parse_pe,
    resolve_near_call,
    section_data,
)
from duqusim.scan import ENTRY_HOOK, OBFUSCATED_PE_CONST, ZWPROTECT_PATTERN, scan_pe

from conftest import encode_near_call
from oracles import xor_stream_oracle

IMAGE_BASE = 0x00400000
TEXT_VA, DATA_VA, PAGE_VA, EXPORT_VA = 0x1000, 0x3000, 0x5000, 0x8000
ANCHOR = "ZwAllocateVirtualMemory"
ANCHOR_RVA = 0x1DDC
PUSH_104H = bytes([0x68, 0x04, 0x01, 0x00, 0x00])
PE_DWORD = b"PE\x00\x00"
WINDOWS = (0, 16, 64)
# Shorter than a push, just long enough, and far wider than the trains.
FILL_WINDOWS = (*range(7), 16, 64, 200, -1, -64)
FILLS = {"zeros": b"\x00", "nop": b"\x90", "int3": b"\xCC", "push_eax": b"\x50",
         "call": b"\xE8", "pushes": PUSH_104H}


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
            hi = min(lo + max(window, 0), len(data))  # a negative window holds no push
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
    for _ in range(rng.randrange(3)):  # doubled pushes, back to back or apart
        at = rng.randrange(size)
        put(buf, at, PUSH_104H + bytes(rng.choice(hot) for _ in range(rng.randrange(8)))
            + PUSH_104H)
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


class TestPeConstInATrain:
    """A near call whose displacement is ``0x00004550`` carries the file
    bytes ``50 45 00 00`` at its site + 1: the scanner reports that dword
    as an OBFUSCATED_PE_CONST beside the train, since every occurrence is
    reported.  A corpus that plants such a call and expects the train
    alone expects too little; the scanner is right."""

    DISPLACEMENT = 0x00004550

    @pytest.mark.parametrize("carrier", ["first", "second"])
    def test_displacement_reported_beside_the_train(self, carrier):
        size, anchor_off = 0x6000, 0x5000
        code = IMAGE_BASE + TEXT_VA
        first = anchor_off - 5 - self.DISPLACEMENT if carrier == "first" else 0x100
        push = first + 5 + 3
        second = push + len(PUSH_104H) + 2
        target = second + 5 + self.DISPLACEMENT if carrier == "second" else 0x40
        text = bytearray(b"\x90" * size)
        text[first:first + 5] = encode_near_call(code + first, code + anchor_off)
        text[push:push + 5] = PUSH_104H
        text[second:second + 5] = encode_near_call(code + second, code + target)
        site = first if carrier == "first" else second
        assert text[site:site + 5] == b"\xE8" + PE_DWORD
        data = build_pe32(PeSpec(
            image_base=IMAGE_BASE, entry_rva=TEXT_VA,
            sections=[SectionDef(".text", TEXT_VA, bytes(text), CODE_SECTION),
                      SectionDef(".data", TEXT_VA + size, b"\x90", DATA_SECTION)],
            exports=[(ANCHOR, TEXT_VA + anchor_off)], export_va=TEXT_VA + size + 0x1000))
        findings = scan_pe(data, anchor_export=ANCHOR).findings
        assert [(f.kind, f.address) for f in findings] == [
            (ZWPROTECT_PATTERN, code + second), (OBFUSCATED_PE_CONST, code + site + 1)]
        assert findings[0].detail.startswith(f"near call resolves to unexported {code + target:#010x}")
        assert pe_const_reference(data) == [code + site + 1]


class TestOneReadPerCodeSection:
    """``scan_pe`` reads the entrypoint bytes, then runs both code searches
    over each executable section's file bytes where they lie in the file,
    with an anchor or without.  Only a span that reaches its zero tail is
    laid out, once, at most 4 bytes past its raw data."""

    def reads(self, monkeypatch, data: bytes, anchor):
        reads = []
        monkeypatch.setattr(scan, "mapped_bytes", lambda image, rva, n: (
            reads.append((rva, n)), peformat.mapped_bytes(image, rva, n))[1])
        report = scan.scan_pe(data, anchor_export=anchor)
        return reads, report, parse_pe(data)

    @pytest.mark.parametrize("anchor, trains", [(None, 0), (ANCHOR, 1)])
    def test_ntoskrnl(self, fixture_bytes, monkeypatch, anchor, trains):
        # Both code sections are all file bytes: no copy of either.
        reads, report, image = self.reads(monkeypatch, fixture_bytes("ntoskrnl.exe"), anchor)
        assert reads == [(image.nt.entry_point_rva, HOOK_LEN)]
        assert [f.kind for f in report.findings].count(ZWPROTECT_PATTERN) == trains

    @pytest.mark.parametrize("anchor", [None, ANCHOR])
    def test_services(self, fixture_bytes, monkeypatch, anchor):
        # .text maps 0x12000 bytes over 0x11600 raw: its span reaches the tail.
        reads, _, image = self.reads(monkeypatch, fixture_bytes("services.exe"), anchor)
        text, = [s for s in image.sections if s.executable]
        assert (text.virtual_size, text.raw_size) == (0x12000, 0x11600)
        assert reads == [(image.nt.entry_point_rva, HOOK_LEN), (text.virtual_address, 0x11604)]


def tailed(text: bytes, tail: int, page: bytes = b"\x90", page_tail: int = 0) -> bytes:
    """:func:`build`, with ``tail`` zero bytes mapped past ``.text``'s file
    bytes and ``page_tail`` past ``PAGE``'s."""
    return build_pe32(PeSpec(
        image_base=IMAGE_BASE, entry_rva=TEXT_VA,
        sections=[SectionDef(".text", TEXT_VA, text, CODE_SECTION,
                             virtual_size=len(text) + tail),
                  SectionDef(".data", DATA_VA, b"\x90", DATA_SECTION),
                  SectionDef("PAGE", PAGE_VA, page, CODE_SECTION,
                             virtual_size=len(page) + page_tail)],
        exports=[(ANCHOR, ANCHOR_RVA)], export_va=EXPORT_VA))


def code_findings(data: bytes) -> list[tuple[str, int, str]]:
    """``scan_pe``'s code-section findings with the anchor."""
    return [(f.kind, f.address, f.detail)
            for f in scan_pe(data, anchor_export=ANCHOR).findings if f.kind != ENTRY_HOOK]


def full_span_findings(data: bytes) -> list[tuple[str, int, str]]:
    """The same findings, searched over each code section's whole mapped
    span, zero tail and all, as ``section_data`` builds it."""
    image = parse_pe(data)
    found = []
    try:
        site, target = scan_call_push_call(image, ANCHOR)
        found.append((ZWPROTECT_PATTERN, site, f"near call resolves to unexported "
                                               f"{target:#010x} (anchor {ANCHOR})"))
    except PatternNotFound:
        pass
    for section in image.sections:
        if section.executable:
            found += [(OBFUSCATED_PE_CONST, IMAGE_BASE + section.virtual_address + m.start(),
                       "code carries the de-obfuscated signature dword")
                      for m in re.finditer(re.escape(PE_DWORD), section_data(image, section))]
    return found


def assert_full_span_agrees(monkeypatch, data: bytes) -> list[tuple[str, int, str]]:
    """``code_findings`` equal ``full_span_findings``, and the scan decodes
    the calls the full-span search decodes, in the same order."""
    sites, real = [], peformat.resolve_near_call
    monkeypatch.setattr(peformat, "resolve_near_call", lambda site, data: (
        sites.append(site), real(site, data))[1])
    found = code_findings(data)
    decoded = sites[:]
    del sites[:]
    assert found == full_span_findings(data)
    assert decoded == sites
    return found


# The bytes that would complete each match begun in a section's last bytes:
# a PE dword, a push 104h after an anchor call, a second call after both.
COMPLETED = {"pe_const": PE_DWORD, "push": PUSH_104H,
             "second_call": b"\xE8" + struct.pack("<I", 0x10)}


class TestZeroTailReads:
    """``scan_pe`` reads a code section's file bytes and at most 4 bytes of
    its zero tail: no match starts at a zero byte, and each ends at most 4
    bytes past its start.  It reports what a search of the whole mapped
    span reports, and decodes the same calls.  ``test_reader.py`` checks a
    ``PE`` in the last two raw bytes against the mapped module."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_tails(self, monkeypatch, seed):
        rng = random.Random(f"zero-tail:{seed}")
        text = bytearray(random_code(rng, rng.randrange(24, 0x400), TEXT_VA, IMAGE_BASE))
        if rng.random() < 0.5:  # a train whose last call may run into the tail
            trains_at_end(text)
            del text[len(text) - rng.randrange(5):]
        elif rng.random() < 0.5:  # a dword the tail may complete
            text[-2:] = b"PE"
        page = random_code(rng, rng.randrange(1, 0x200), PAGE_VA, IMAGE_BASE)
        data = tailed(bytes(text), rng.randrange(257), page, rng.randrange(257))
        found = assert_full_span_agrees(monkeypatch, data)
        assert [f[1] for f in found if f[0] == OBFUSCATED_PE_CONST] == pe_const_reference(data)

    @pytest.mark.parametrize("cut", [1, 2, 3, 4])
    @pytest.mark.parametrize("piece", COMPLETED)
    @pytest.mark.parametrize("body", ["random", "nop"])
    @pytest.mark.parametrize("kib", [4, 64, 256])
    def test_next_section_after_a_span_without_tail(self, monkeypatch, kib, body, piece, cut):
        # A code section of the scan workload's sizes and fills maps its
        # raw data and nothing more, so the next section's raw data follows
        # its span in the file.  .text ends with the first ``cut`` bytes of
        # a match and .data starts with the rest: no search may read on.
        size = kib << 10
        rng = random.Random(f"no-tail:{kib}:{body}:{piece}:{cut}")
        text = bytearray(rng.randbytes(size) if body == "random" else b"\x90" * size)
        whole = COMPLETED[piece]
        at = size - cut
        if piece != "pe_const":  # an anchor call, then a push, in reach
            push_at = at - 10 if piece == "second_call" else at
            text[push_at - 20:at] = anchor_call(TEXT_VA, push_at - 20) + b"\x90" * 15 + (
                PUSH_104H + b"\x90" * 5 if piece == "second_call" else b"")
        text[at:] = whole[:cut]
        data_va = TEXT_VA + size
        data = build_pe32(PeSpec(
            image_base=IMAGE_BASE, entry_rva=TEXT_VA,
            sections=[SectionDef(".text", TEXT_VA, bytes(text), CODE_SECTION),
                      SectionDef(".data", data_va, whole[cut:] + b"\x90" * 8, DATA_SECTION)],
            exports=[(ANCHOR, ANCHOR_RVA)], export_va=data_va + 0x1000))
        section = parse_pe(data).sections[0]
        assert section.virtual_span == section.raw_size == size
        assert data[section.raw_offset + at:].startswith(whole)
        assert_full_span_agrees(monkeypatch, data)

    @pytest.mark.parametrize("tail", [0, 1, 2, 0x100])
    def test_push_completed_by_the_tail(self, monkeypatch, tail):
        # The push's 00 00 are zero-tail bytes: once both are mapped it is a
        # push, so the anchor call before it is decoded, but no call can
        # follow it there.
        text = bytearray(b"\x90" * 0x100)
        put(text, 0xC0, anchor_call(TEXT_VA, 0xC0))
        text[-3:] = PUSH_104H[:3]
        data = tailed(bytes(text), tail)
        assert code_findings(data) == full_span_findings(data) == []
        sites, real = [], peformat.resolve_near_call
        monkeypatch.setattr(peformat, "resolve_near_call", lambda site, data: (
            sites.append(site), real(site, data))[1])
        code_findings(data)
        assert sites == ([IMAGE_BASE + TEXT_VA + 0xC0] if tail >= 2 else [])

    @pytest.mark.parametrize("tail", [0, 1, 2, 3, 4, 0x100])
    @pytest.mark.parametrize("cut", [1, 2, 3, 4, 5])
    def test_second_call_displacement_runs_into_the_tail(self, cut, tail):
        # The second call's last 5 - cut bytes are zero-tail bytes; its
        # displacement, 0x10, reads the same from them once its low byte
        # is a file byte.
        text = bytearray(b"\x90" * 0x100)
        put(text, 0xC0, anchor_call(TEXT_VA, 0xC0))
        put(text, 0xD0, PUSH_104H)
        site = 0x100 - cut
        text[site:] = (b"\xE8" + struct.pack("<I", 0x10))[:cut]
        data = tailed(bytes(text), tail)
        found = code_findings(data)
        assert found == full_span_findings(data)
        target = IMAGE_BASE + TEXT_VA + site + 5 + (0x10 if cut > 1 else 0)
        assert found == ([(ZWPROTECT_PATTERN, IMAGE_BASE + TEXT_VA + site,
                           f"near call resolves to unexported {target:#010x} (anchor {ANCHOR})")]
                         if tail >= 5 - cut else [])

    def test_huge_tail_is_not_built(self):
        # .text maps 0x1FE file bytes and a 16 MiB zero tail; its last call
        # is two bytes short of the raw end.
        text = bytearray(b"\x90" * 0x200)
        put(text, 0x40, PE_DWORD)
        trains_at_end(text)
        data = build_pe32(PeSpec(
            image_base=IMAGE_BASE, entry_rva=TEXT_VA,
            sections=[SectionDef(".text", TEXT_VA, bytes(text[:-2]), CODE_SECTION,
                                 virtual_size=16 << 20)],
            exports=[(ANCHOR, ANCHOR_RVA)], export_va=0x800))
        tracemalloc.start()
        try:
            found = code_findings(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10, peak
        assert found == full_span_findings(data)
        assert [f[:2] for f in found] == [(ZWPROTECT_PATTERN, IMAGE_BASE + TEXT_VA + 0x1FB),
                                          (OBFUSCATED_PE_CONST, IMAGE_BASE + TEXT_VA + 0x40)]


class TestCallPushCallEquivalence:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_sections(self, seed):
        rng = random.Random(f"call-push-call:{seed}")
        base = rng.choice([IMAGE_BASE, 0x00800000])
        data = build(random_code(rng, rng.randrange(1, 0x300), TEXT_VA, base),
                     random_code(rng, rng.randrange(1, 0x300), PAGE_VA, base))
        for window in FILL_WINDOWS + (rng.randrange(0, 200),):
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


def filled(fill: bytes, size: int) -> bytearray:
    return bytearray((fill * (size // len(fill) + 1))[:size])


def trains_at_start(text: bytearray) -> None:
    put(text, 0, anchor_call(TEXT_VA, 0))
    put(text, 7, PUSH_104H)
    put(text, 14, encode_near_call(IMAGE_BASE + TEXT_VA + 14, 0x00406882))


def trains_at_end(text: bytearray) -> None:
    end = len(text)
    put(text, end - 20, anchor_call(TEXT_VA, end - 20))
    put(text, end - 12, PUSH_104H)
    put(text, end - 5, encode_near_call(IMAGE_BASE + TEXT_VA + end - 5, 0x00406882))


def anchors_before_one_push(text: bytearray) -> None:
    for off in (0x40, 0x47, 0x4E, 0x60, 0x90):
        put(text, off, anchor_call(TEXT_VA, off))
    put(text, 0xA0, PUSH_104H)
    put(text, 0xB0, encode_near_call(IMAGE_BASE + TEXT_VA + 0xB0, 0x00406882))


def two_pushes_in_one_window(text: bytearray) -> None:
    put(text, 0x100, anchor_call(TEXT_VA, 0x100))
    put(text, 0x108, PUSH_104H)
    put(text, 0x110, PUSH_104H)
    put(text, 0x118, encode_near_call(IMAGE_BASE + TEXT_VA + 0x118, 0x00406882))


LAYOUTS = [None, trains_at_start, trains_at_end, anchors_before_one_push,
           two_pushes_in_one_window]


@pytest.mark.parametrize("fill", FILLS.values(), ids=FILLS.keys())
class TestOnEachFill:
    """Sections of one repeated byte, or of back-to-back pushes, with trains
    planted at their start, at their end, after several anchor calls that
    share one push, and around two pushes in one window."""

    @pytest.mark.parametrize("layout", LAYOUTS, ids=lambda f: getattr(f, "__name__", "bare"))
    def test_call_push_call(self, fill, layout):
        text = filled(fill, 0x200)
        if layout is not None:
            layout(text)
        data = build(bytes(text), page=bytes(filled(fill, 0x80)))
        for window in FILL_WINDOWS:
            assert_pattern_agrees(data, window)

    def test_pe_const(self, fill):
        text = filled(fill, 0x200)
        for at in (0, 0x20, 0x24, 0x1FC):
            put(text, at, PE_DWORD)
        for data in (build(bytes(filled(fill, 0x200))), build(bytes(text), page=bytes(text))):
            assert pe_const_found(data) == pe_const_reference(data)


class TestDecodeBound:
    """Which calls the search decodes, counted on ``resolve_near_call``."""

    SIZE = 64 * 1024

    def decoded(self, monkeypatch, text: bytes, window: int) -> list[int]:
        sites = []
        real = peformat.resolve_near_call

        def counting(site, data):
            sites.append(site)
            return real(site, data)

        image = parse_pe(build_pe32(PeSpec(
            image_base=IMAGE_BASE, entry_rva=TEXT_VA,
            sections=[SectionDef(".text", TEXT_VA, text, CODE_SECTION)],
            exports=[(ANCHOR, ANCHOR_RVA)], export_va=TEXT_VA + len(text))))
        monkeypatch.setattr(peformat, "resolve_near_call", counting)
        assert outcome(scan_call_push_call, image, window) is None
        return sites

    def test_no_push_decodes_no_call(self, monkeypatch):
        assert self.decoded(monkeypatch, b"\xE8" * self.SIZE, 64) == []

    @pytest.mark.parametrize("window", [0, 5, 6, 16, 64, 200])
    def test_only_calls_reaching_the_push_are_decoded(self, monkeypatch, window):
        push = self.SIZE // 2
        text = bytearray(b"\xE8" * self.SIZE)
        text[push:push + len(PUSH_104H)] = PUSH_104H
        # A call at off reaches a push at P when P + 5 <= off + 5 + window.
        expected = [IMAGE_BASE + TEXT_VA + off for off in range(push - window, push - 4)]
        assert self.decoded(monkeypatch, bytes(text), window) == expected

    @pytest.mark.parametrize("every", [5, 22, 64, 71])
    @pytest.mark.parametrize("window", [0, 5, 6, 16, 64, 200])
    def test_calls_between_pushes(self, monkeypatch, every, window):
        text = bytearray(b"\xE8" * 0x1000)
        for at in range(0, len(text) - 4, every):
            text[at:at + len(PUSH_104H)] = PUSH_104H
        pushes = [at for at in range(len(text) - 4) if text[at:at + 5] == PUSH_104H]
        expected = []
        for off in range(len(text) - 4):
            i = bisect_left(pushes, off + 5)
            if text[off] == 0xE8 and i < len(pushes) and pushes[i] - off <= window:
                expected.append(IMAGE_BASE + TEXT_VA + off)
        assert self.decoded(monkeypatch, bytes(text), window) == expected


class TestDecryptBlob:
    @pytest.mark.parametrize("length", [0, 1, 255, 256, 257, 12 * 1024])
    def test_matches_oracle_for_every_key(self, length):
        blob = random.Random(f"decrypt:{length}").randbytes(length)
        for key in range(256):
            assert decrypt_blob(blob, key) == xor_stream_oracle(blob, key)

    def test_round_trip(self):
        blob = random.Random("decrypt:round-trip").randbytes(3000)
        assert decrypt_blob(decrypt_blob(blob, 0xA5), 0xA5) == blob
