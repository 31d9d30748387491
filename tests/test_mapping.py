"""The loader's layout: spans mapped straight from the file bytes.

Every mapping, at the preferred base and rebased, is checked region by
region against :func:`oracles.loader_regions_oracle`, which cuts the
regions from the reference layout the way the loader did when it built a
size_of_image buffer for every load.
"""

import hashlib
import operator
import random
import struct
import tracemalloc

import pytest

from duqusim import duqu, peformat, simkernel
from duqusim.pebuild import (
    CODE_SECTION,
    DATA_SECTION,
    RODATA_SECTION,
    PeSpec,
    SectionDef,
    build_pe32,
    reloc_block,
)
from duqusim.peformat import (
    DIR_BASERELOC,
    DIR_EXPORT,
    EXPORT_DIRECTORY_SIZE,
    RELOC_ABS,
    FixupOutOfRange,
    MapSpan,
    NotPe,
    Section,
    Truncated,
    apply_relocations,
    assemble_mapped,
    encode_export_table,
    encode_relocations,
    mapped_spans,
    parse_headers,
    parse_pe,
    strip_headers,
)
from duqusim.scan import scan_pe
from duqusim.scenario import run_scenario
from duqusim.simkernel import (
    PERM_R,
    PERM_RW,
    AccessViolation,
    AddressSpaceExhausted,
    CannotRelocate,
    MemoryRegion,
    SimKernel,
    SimProcess,
)

from conftest import boot_kernel, displaced_headers_image, random_pe32, small_image
from invariants import check_export_memo, check_image_cache, check_kernel
from oracles import apply_relocations_oracle, assemble_mapped_oracle, loader_regions_oracle

PE_FIXTURES = ("services.exe", "ntoskrnl.exe", "kernel32.dll", "hal.dll", "ntdll.dll",
               "shell32.dll", "stub1.bin", "stub2.bin", "system.bin")
REBASE_TO = 0x20000000


def image_regions(proc, name: str) -> list[tuple[int, bytes, str]]:
    return sorted((r.base, bytes(r.data), r.perms.describe())
                  for r in proc.regions if r.tag == f"image:{name}")


def check_mapping(proc, name: str, data: bytes) -> None:
    """The regions of module ``name`` are the oracle's for ``data`` at its base."""
    base = dict(proc.modules)[name]
    assert image_regions(proc, name) == loader_regions_oracle(parse_pe(data), base)


def map_both_ways(data: bytes, rebase_to: int = REBASE_TO) -> SimProcess:
    """``data`` as a process at its preferred base, then, when it can
    rebase, as a module at its preferred base (occupied) and at
    ``rebase_to``; each mapping is checked against the oracle."""
    image = parse_pe(data)
    kernel = SimKernel()
    proc = kernel.create_process("main.exe", data)
    assert proc.image_base == image.nt.image_base
    check_mapping(proc, "main.exe", data)
    if image.relocations:
        occupied = kernel.load_module(proc.pid, "again.dll", data)
        assert occupied != image.nt.image_base
        check_mapping(proc, "again.dll", data)
        assert kernel.load_module(proc.pid, "moved.dll", data, base=rebase_to) == rebase_to
        check_mapping(proc, "moved.dll", data)
    return proc


def edge_images() -> dict[str, bytes]:
    """Layouts the shipped fixtures do not have."""
    text = bytes(range(256)) * 3
    return {
        # 0x300 raw bytes, of which only 0x100 fall inside the virtual size
        "raw_past_virtual_size": build_pe32(PeSpec(
            image_base=0x01000000, entry_rva=0x1000,
            sections=[SectionDef(".text", 0x1000, text, CODE_SECTION, virtual_size=0x100),
                      SectionDef(".data", 0x2000, b"\x11" * 0x40, DATA_SECTION)],
            relocations=[reloc_block(0x1000, [0x10])], reloc_va=0x3000)),
        # virtual_size 0: the raw size is the span
        "zero_virtual_size": build_pe32(PeSpec(
            image_base=0x01000000, entry_rva=0x1000,
            sections=[SectionDef(".text", 0x1000, text, CODE_SECTION, virtual_size=0),
                      SectionDef(".data", 0x2000, b"\x22" * 0x80, DATA_SECTION,
                                 virtual_size=0x1000)],
            relocations=[reloc_block(0x1000, [0x20, 0x2FC])], reloc_va=0x3000)),
        # .data runs 0x800 bytes past size_of_image, .late starts past it
        "past_size_of_image": build_pe32(PeSpec(
            image_base=0x01000000, entry_rva=0x1000,
            sections=[SectionDef(".text", 0x1000, text, CODE_SECTION),
                      SectionDef(".data", 0x2000, b"\x33" * 0x1000, DATA_SECTION),
                      SectionDef(".late", 0x4000, b"\x44" * 0x100, DATA_SECTION)],
            relocations=[reloc_block(0x2000, [0x7F0, 0x7FC])], reloc_va=0x1800,
            size_of_image=0x2800)),
        # the fixup at 0x10FE has two bytes in .text and two in the gap after it
        "fixup_straddles_gap": build_pe32(PeSpec(
            image_base=0x01000000, entry_rva=0x1000,
            sections=[SectionDef(".text", 0x1000, b"\xAA" * 0x100, CODE_SECTION),
                      SectionDef(".data", 0x2000, b"\x55" * 0x100, DATA_SECTION)],
            relocations=[reloc_block(0x1000, [0x8, 0xFE])], reloc_va=0x3000)),
        # .b and .c are RVA-adjacent to the section before them, but start
        # at the next file boundary: the export directory runs from .a into
        # .b, the relocation directory from .b into .c
        "directories_straddle_sections": straddling_directories_image(),
        # an export name in .text's zero tail, where the file holds .data's bytes
        "export_name_in_tail": export_name_in_tail_image(),
        # the relocation directory runs 0x10 bytes past .reloc's raw data,
        # where the file holds a well-formed block
        "relocations_run_into_tail": relocations_into_tail_image(),
    }


def straddling_directories_image() -> bytes:
    edata = encode_export_table([(b"Hello", 0x1010)], 0x1150)
    relocs = encode_relocations([reloc_block(0x1000, [0x10, 0x20, 0x100, 0x140])])
    cut = 0x1180 - 0x1150
    pe = bytearray(build_pe32(PeSpec(
        image_base=0x01000000, entry_rva=0x1000,
        sections=[SectionDef(".a", 0x1000, b"A" * 0x150 + edata[:cut], CODE_SECTION),
                  SectionDef(".b", 0x1180, edata[cut:].ljust(0x178, b"B") + relocs[:8],
                             DATA_SECTION),
                  SectionDef(".c", 0x1300, relocs[8:].ljust(0x80, b"C"), DATA_SECTION)])))
    directories = 0x80 + 24 + 96
    struct.pack_into("<II", pe, directories + 8 * DIR_EXPORT, 0x1150, len(edata))
    struct.pack_into("<II", pe, directories + 8 * DIR_BASERELOC, 0x12F8, len(relocs))
    return bytes(pe)


def export_name_in_tail_image() -> bytes:
    """.text maps 0x200 raw bytes in a 0x800-byte span, and the one export
    name's RVA is 0x1201, in its zero tail; the file bytes from there on
    are .data's 0x200 bytes of ``w``, then .edata's."""
    pe = bytearray(build_pe32(PeSpec(
        image_base=0x01000000, entry_rva=0x1000,
        sections=[SectionDef(".text", 0x1000, b"\x90" * 0x200, CODE_SECTION,
                             virtual_size=0x800),
                  SectionDef(".data", 0x2000, b"w" * 0x200, DATA_SECTION)],
        exports=[("Tail", 0x1010)], export_va=0x3000,
        relocations=[reloc_block(0x1000, [0x10])], reloc_va=0x4000)))
    edata = next(s for s in parse_pe(bytes(pe)).sections if s.name == ".edata")
    struct.pack_into("<I", pe, edata.raw_offset + EXPORT_DIRECTORY_SIZE + 4, 0x1201)
    return bytes(pe)


def relocations_into_tail_image() -> bytes:
    """.reloc's 0x200 raw bytes are one block, in a 0x400-byte span; the
    directory is 0x210 bytes long, and .data's raw bytes, next in the file,
    start with a block of their own."""
    block = reloc_block(0x1000, [0x10, 0x20])
    block.fixups += [(RELOC_ABS, 0)] * 250
    pe = bytearray(build_pe32(PeSpec(
        image_base=0x01000000, entry_rva=0x1000,
        sections=[SectionDef(".text", 0x1000, b"\xAA" * 0x100, CODE_SECTION),
                  SectionDef(".reloc", 0x2000, encode_relocations([block]), RODATA_SECTION,
                             virtual_size=0x400),
                  SectionDef(".data", 0x3000, encode_relocations([reloc_block(0x1000, [0x40])])
                             + b"\x55" * 0x100, DATA_SECTION)])))
    struct.pack_into("<II", pe, 0x80 + 24 + 96 + 8 * DIR_BASERELOC, 0x2000, 0x210)
    return bytes(pe)


def fixup_image(rng: random.Random) -> bytes:
    """A small image with random HIGHLOW fixups: inside sections, straddling
    a section's end or start (into a gap or the adjacent section), wholly in
    a gap, and overlapping earlier ones, so that fixups share gap bytes."""
    sections, va = [], 0x400
    for i in range(rng.randint(2, 4)):
        raw = bytes(rng.randrange(256) for _ in range(rng.randrange(0x10, 0x60)))
        vsize = rng.choice([len(raw), len(raw) + rng.randrange(1, 0x30),
                            len(raw) - rng.randrange(0, 8)])
        sections.append(SectionDef(f".s{i}", va, raw,
                                   rng.choice([CODE_SECTION, DATA_SECTION]), vsize))
        va += vsize + rng.choice([0, 0, rng.randrange(1, 0x20)])
    reloc_va = va + rng.randrange(4, 0x20)
    ends = [s.va + s.vsize for s in sections]
    gaps = [(end, nxt.va) for end, nxt in zip(ends, sections[1:]) if nxt.va > end]
    gaps.append((ends[-1], reloc_va))
    spots = []
    for _ in range(rng.randint(4, 16)):
        kind = rng.choice(["inside", "end", "start", "gap", "overlap", "overlap"])
        s = rng.choice(sections)
        if kind == "inside":
            pos = s.va + rng.randrange(0, s.vsize - 3)
        elif kind == "end":
            pos = s.va + s.vsize - rng.randrange(1, 4)
        elif kind == "start":
            pos = s.va - rng.randrange(1, 4)
        elif kind == "gap":
            lo, hi = rng.choice(gaps)
            pos = rng.randrange(lo, hi)
        else:
            pos = (spots[-1] if spots else s.va) + rng.randrange(-3, 4)
        if pos + 4 <= reloc_va:
            spots.append(pos)
    return build_pe32(PeSpec(image_base=0x01000000, entry_rva=sections[0].va,
                             sections=sections, relocations=[reloc_block(0, spots)],
                             reloc_va=reloc_va, section_align=0x100))


def recorded_rebases(monkeypatch) -> tuple[list, list]:
    """From an empty image cache, the images the loader lays out (its
    ``assemble_mapped`` calls) and the delta of each relocation it makes
    (its ``apply_relocations`` calls)."""
    layouts, deltas = [], []
    monkeypatch.setattr(simkernel, "image_cache", simkernel.ImageCache())

    def lay_out(image):
        layouts.append(image)
        return assemble_mapped(image)

    def relocate(buf, mapped, preferred, blocks):
        deltas.append(mapped - preferred)
        apply_relocations(buf, mapped, preferred, blocks)

    monkeypatch.setattr(simkernel, "assemble_mapped", lay_out)
    monkeypatch.setattr(simkernel, "apply_relocations", relocate)
    return layouts, deltas


def tail_fixup_image() -> bytes:
    """Fixups in raw bytes, in zero tails, across a region's end into a gap
    and out of a gap into the next region, and wholly in a gap."""
    text = bytes(range(256))
    return build_pe32(PeSpec(
        image_base=0x01000000, entry_rva=0x1000,
        sections=[SectionDef(".text", 0x1000, text, CODE_SECTION, virtual_size=0x200),
                  SectionDef(".data", 0x2000, b"\x77" * 0x40, DATA_SECTION, virtual_size=0x100)],
        relocations=[reloc_block(0x1000, [0x10, 0x180, 0x1FE, 0x400, 0x402, 0xFFE]),
                     reloc_block(0x2000, [0x3C, 0xF0])],
        reloc_va=0x3000))


def fixup_past_image() -> bytes:
    """An image whose one fixup runs two bytes past size_of_image."""
    return build_pe32(PeSpec(
        image_base=0x01000000, entry_rva=0x1000,
        sections=[SectionDef(".text", 0x1000, b"\x90" * 0x100, CODE_SECTION)],
        relocations=[reloc_block(0x2000, [0xFFE])], reloc_va=0x2000))


class TestAssembleMapped:
    @pytest.mark.parametrize("name", PE_FIXTURES)
    def test_fixtures_match_reference_layout(self, fixture_bytes, name):
        image = parse_pe(fixture_bytes(name))
        assert assemble_mapped(image) == assemble_mapped_oracle(image)

    @pytest.mark.parametrize("name", sorted(edge_images()))
    def test_edge_layouts_match_reference(self, name):
        image = parse_pe(edge_images()[name])
        assert assemble_mapped(image) == assemble_mapped_oracle(image)

    def test_random_images_match_reference(self):
        rng = random.Random(0x5A5)
        for _ in range(60):
            image = parse_pe(random_pe32(rng))
            assert assemble_mapped(image) == assemble_mapped_oracle(image)

    def test_each_call_returns_a_fresh_buffer(self, fixture_bytes):
        image = parse_pe(fixture_bytes("kernel32.dll"))
        first = assemble_mapped(image)
        first[0x1000:0x1010] = b"\xCC" * 0x10
        assert assemble_mapped(image) == assemble_mapped_oracle(image)


class TestMappedSpans:
    def test_built_once_and_holds_no_bytes(self, fixture_bytes):
        image = parse_pe(fixture_bytes("ntoskrnl.exe"))
        spans = mapped_spans(image)
        assert mapped_spans(image) is spans is image.spans
        for span in spans:
            assert all(type(v) is int for v in span[:4])
            assert span.section is None or isinstance(span.section, Section)

    def test_sparse_kernel_image(self, fixture_bytes):
        image = parse_pe(fixture_bytes("ntoskrnl.exe"))
        assert [(s.rva, s.span, s.copy) for s in mapped_spans(image)] == [
            (0, 0x1000, 0x1000), (0x1000, 0x6000, 0x6000), (0x7000, 0x5C, 0x5C),
            (0xED000, 0x1000, 0x1000)]

    def test_clipped_to_virtual_size_and_image(self):
        raw_long = parse_pe(edge_images()["raw_past_virtual_size"])
        assert mapped_spans(raw_long)[1][:4] == (0x1000, 0x100,
                                                 raw_long.sections[0].raw_offset, 0x100)
        late = parse_pe(edge_images()["past_size_of_image"])
        assert [(s.rva, s.span, s.copy) for s in mapped_spans(late)] == [
            (0, 0x1000, 0x1000), (0x1000, 0x300, 0x300), (0x1800, 0xC, 0xC),
            (0x2000, 0x800, 0x800)]


class TestMappedBytes:
    """``mapped_bytes`` reads the reference layout: zero in gaps, virtual
    tails and past the image."""

    @staticmethod
    def check(image) -> None:
        layout = bytes(assemble_mapped_oracle(image)) + bytes(64)
        edges = {0, image.nt.size_of_image}
        for span in mapped_spans(image):
            edges |= {span.rva, span.rva + span.copy, span.rva + span.span}
        rvas = {max(edge + d, 0) for edge in edges for d in range(-17, 17)}
        for rva in sorted(rvas):
            for n in (1, 7, 16):
                assert peformat.mapped_bytes(image, rva, n) == layout[rva:rva + n], (rva, n)

    @pytest.mark.parametrize("name", PE_FIXTURES)
    def test_fixtures(self, fixture_bytes, name):
        self.check(parse_pe(fixture_bytes(name)))

    @pytest.mark.parametrize("name", sorted(edge_images()))
    def test_edge_layouts(self, name):
        self.check(parse_pe(edge_images()[name]))

    def test_random_images(self):
        rng = random.Random("mapped-bytes")
        for _ in range(40):
            self.check(parse_pe(random_pe32(rng)))

    def test_zero_tail_read_in_one_allocation(self):
        data = huge_tail_image()
        assert len(data) == 0x400
        image = parse_pe(data)
        text = image.sections[0]
        tracemalloc.start()
        try:
            got = peformat.section_data(image, text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == text_bytes(data) + bytes(HUGE_TAIL - 0x200)
        assert peak <= 1.25 * HUGE_TAIL, peak


HUGE_TAIL = 16 << 20


def huge_tail_image() -> bytes:
    """A 1,024-byte file whose ``.text`` holds 0x200 file bytes and claims
    a 16 MiB mapped span."""
    return build_pe32(PeSpec(
        image_base=0x01000000, entry_rva=0x1000,
        sections=[SectionDef(".text", 0x1000, b"\x90" * 0x1F0 + b"\xC3" * 0x10, CODE_SECTION,
                             virtual_size=HUGE_TAIL)]))


def huge_tail_dll() -> bytes:
    """:func:`huge_tail_image` with one fixup, in ``.text``'s file bytes."""
    return build_pe32(PeSpec(
        image_base=0x01000000, entry_rva=0x1000,
        sections=[SectionDef(".text", 0x1000, b"\x90" * 0x1F0 + b"\xC3" * 0x10, CODE_SECTION,
                             virtual_size=HUGE_TAIL)],
        relocations=[reloc_block(0x1000, [0x10])], reloc_va=0x1000 + HUGE_TAIL))


def text_bytes(data: bytes) -> bytes:
    text = parse_pe(data).sections[0]
    return data[text.raw_offset:text.raw_offset + text.raw_size]


class TestLoaderRegions:
    @pytest.mark.parametrize("name", PE_FIXTURES)
    def test_fixtures_at_preferred_and_rebased(self, fixture_bytes, name):
        map_both_ways(fixture_bytes(name))

    @pytest.mark.parametrize("name", sorted(edge_images()))
    def test_edge_layouts_at_preferred_and_rebased(self, name):
        map_both_ways(edge_images()[name])

    def test_straddling_fixup_is_relocated_across_the_gap(self):
        data = edge_images()["fixup_straddles_gap"]
        base = REBASE_TO + 0x3456  # a delta whose low half is not zero
        proc = map_both_ways(data, base)
        text = proc.region_at(base + 0x1000)
        assert len(text.data) == 0x100 and proc.region_at(base + 0x1100) is None
        # the dword 0x0000AAAA plus the delta; its high half fell in the gap
        assert text.data[0xFE:] == (0xAAAA + 0x3456).to_bytes(2, "little")

    def test_random_fixups_match_reference(self):
        rng = random.Random(0xF1C5)
        for _ in range(80):
            map_both_ways(fixup_image(rng), REBASE_TO + rng.randrange(1, 1 << 24))

    def test_section_table_out_of_rva_order(self):
        data = bytearray(edge_images()["fixup_straddles_gap"])
        table = parse_pe(bytes(data)).headers_end - 3 * 40
        data[table:table + 80] = data[table + 40:table + 80] + data[table:table + 40]
        image = parse_pe(bytes(data))
        assert [s.name for s in image.sections] == [".data", ".text", ".reloc"]
        assert [span.rva for span in mapped_spans(image)] == [0, 0x1000, 0x2000, 0x3000]
        map_both_ways(bytes(data), REBASE_TO + 0x3456)

    def test_fixup_past_the_image_maps_nothing(self):
        kernel = SimKernel()
        proc = kernel.create_process("host.exe", fixup_past_image())
        before = list(proc.regions)
        with pytest.raises(FixupOutOfRange, match=r"fixup at rva 0x2ffe past end"):
            kernel.load_module(proc.pid, "again.dll", fixup_past_image())
        assert proc.regions == before
        assert proc.modules == [("host.exe", 0x01000000)]

    def test_bad_fixup_raises_on_every_rebase_and_is_never_kept(self, monkeypatch):
        layouts, deltas = recorded_rebases(monkeypatch)
        data = fixup_past_image()
        for _ in range(2):
            kernel = SimKernel()
            proc = kernel.create_process("host.exe", data)  # the preferred base: no fixup read
            check_mapping(proc, "host.exe", data)
            before, modules = list(proc.regions), list(proc.modules)
            for base in (None, REBASE_TO, None):
                with pytest.raises(FixupOutOfRange, match=r"^fixup at rva 0x2ffe past end "
                                                          r"of buffer$"):
                    kernel.load_module(proc.pid, "again.dll", data, base=base)
                assert proc.regions == before and proc.modules == modules
        assert len(layouts) == len(deltas) == 6
        assert simkernel.image_cache.plans[data].layouts == {}

    def test_each_delta_relocated_once_across_kernels(self, monkeypatch):
        layouts, deltas = recorded_rebases(monkeypatch)
        data = edge_images()["fixup_straddles_gap"]
        for _ in range(2):
            kernel = SimKernel()
            proc = kernel.create_process("host.exe", data)
            kernel.load_module(proc.pid, "again.dll", data)
            kernel.load_module(proc.pid, "moved.dll", data, base=REBASE_TO)
            check_mapping(proc, "again.dll", data)
            check_mapping(proc, "moved.dll", data)
        # laid out and relocated once per delta: the second kernel's
        # rebases, by the same two deltas, relocate nothing
        assert len(layouts) == len(deltas) == 2
        assert sorted(deltas) == sorted(simkernel.image_cache.plans[data].layouts)

    @pytest.mark.parametrize("name", ["fixups_in_tails", *sorted(edge_images())])
    def test_rebase_through_the_plan_matches_relocating_the_layout(self, name):
        data = tail_fixup_image() if name == "fixups_in_tails" else edge_images()[name]
        image = parse_pe(data)
        preferred = image.nt.image_base
        kernel = SimKernel()
        proc = kernel.create_process("host.exe", data)
        for i, base in enumerate((None, REBASE_TO + 0x3456, REBASE_TO + 0x7FFF0000)):
            mapped = kernel.load_module(proc.pid, f"m{i}.dll", data, base=base)
            layout = apply_relocations_oracle(bytes(assemble_mapped_oracle(image)), mapped,
                                              preferred, image.relocations)
            for span in mapped_spans(image):
                region = proc.region_at(mapped + span.rva)
                assert region.base == mapped + span.rva
                assert region.data == layout[span.rva:span.rva + span.span], (name, i)

    def test_tail_image_relocates_each_kind_of_fixup(self):
        data = tail_fixup_image()
        image = parse_pe(data)
        base = REBASE_TO + 0x3456  # a delta whose low half is not zero
        delta = base - image.nt.image_base
        kernel = SimKernel()
        proc = kernel.create_process("host.exe", data)
        assert kernel.load_module(proc.pid, "moved.dll", data, base=base) == base
        layout = apply_relocations_oracle(bytes(assemble_mapped_oracle(image)), base,
                                          image.nt.image_base, image.relocations)

        def mapped(rva: int, n: int) -> bytes:
            got = kernel.read_memory(proc.pid, base + rva, n)
            assert got == layout[rva:rva + n], hex(rva)
            return got

        def plus_delta(value: int) -> bytes:
            return ((value + delta) & 0xFFFFFFFF).to_bytes(4, "little")

        # .text: 0x100 raw bytes, then a zero tail to 0x1200; .data: 0x40
        # raw bytes at 0x2000, then a zero tail to 0x2100
        assert mapped(0x1010, 4) == plus_delta(0x13121110)           # raw bytes
        assert mapped(0x1180, 4) == plus_delta(0)                    # zero tail
        assert mapped(0x11FE, 2) == plus_delta(0)[:2]                # crosses .text's end
        for rva in (0x1200, 0x1400, 0x1FFF):                         # in the gap, and shared
            assert proc.region_at(base + rva) is None
        assert mapped(0x2000, 2) == plus_delta(0x77770000)[2:]       # crosses into .data
        assert mapped(0x203C, 4) == plus_delta(0x77777777)           # raw end
        assert mapped(0x20F0, 4) == plus_delta(0)                    # .data's zero tail
        check_mapping(proc, "moved.dll", data)

    def test_boot_modules_match_reference(self, fixture_dir, fixture_bytes):
        kernel, _ = boot_kernel(fixture_dir, with_duqu=False)
        proc = kernel.processes[simkernel.PID_START]
        for name, fixture in (("System", "system.bin"), ("ntoskrnl.exe", "ntoskrnl.exe"),
                              ("hal.dll", "hal.dll")):
            check_mapping(proc, name, fixture_bytes(fixture))

    def test_preferred_base_builds_no_image_buffer(self, fixture_bytes, monkeypatch):
        layouts, deltas = recorded_rebases(monkeypatch)
        data = fixture_bytes("kernel32.dll")
        preferred = parse_pe(data).nt.image_base
        for first in (True, False):
            kernel = SimKernel()
            proc = kernel.create_process("a.exe", fixture_bytes("services.exe"))
            kernel.load_module(proc.pid, "k.dll", data)
            assert layouts == deltas == []
            k2 = kernel.load_module(proc.pid, "k2.dll", data)
            kernel.load_module(proc.pid, "k3.dll", data, base=REBASE_TO)
            # laid out and relocated once per new delta: the second
            # kernel's rebases, by the same deltas, relocate nothing
            rebased = [k2 - preferred, REBASE_TO - preferred] if first else []
            assert [image.raw for image in layouts] == [data] * len(rebased)
            assert deltas == rebased
            check_mapping(proc, "k2.dll", data)
            check_mapping(proc, "k3.dll", data)
            del layouts[:], deltas[:]


class TestSplice:
    @staticmethod
    def region(base: int, size: int) -> MemoryRegion:
        return MemoryRegion(base, bytearray(size), PERM_R, "r")

    def test_one_splice_between_neighbours(self):
        proc = SimProcess(simkernel.PID_START, "a.exe", simkernel.PEB_START)
        low, high = self.region(0x1000, 0x100), self.region(0x3000, 0x100)
        for region in (high, low):
            base, i = proc.free_base(region.base, 0x100, 1)
            proc.splice(i, base, 0x100, [region])
        middle = [self.region(0x2000, 0x10), self.region(0x2010, 0x20),
                  self.region(0x2800, 0x8)]
        assert proc.free_base(0x2000, 0x1000, 1) == (0x2000, 1)
        proc.splice(1, 0x2000, 0x1000, middle)
        assert proc.regions == [low, *middle, high]

    def test_span_not_free_refused_and_nothing_inserted(self):
        proc = SimProcess(simkernel.PID_START, "a.exe", simkernel.PEB_START)
        proc.splice(0, 0x1000, 0x100, [self.region(0x1000, 0x100)])
        before = list(proc.regions)
        with pytest.raises(AssertionError, match="region overlap"):
            proc.splice(0, 0x0F00, 0x1200, [self.region(0x2000, 0x10)])
        assert proc.regions == before

    @pytest.mark.parametrize("spans, error", [
        ([(0x200, 0x100)], None),                    # the header span, then the rest
        ([(0x280, 0x10), (0x200, 0x10)], "unsorted or overlapping"),
        ([(0x1F8, 0x10)], "unsorted or overlapping"),
        ([(0x200, 0x101)], "past the image"),
    ])
    def test_plan_checks_its_spans_once(self, monkeypatch, spans, error):
        """Spans out of order, overlapping or past ``size_of_image`` are
        refused when the plan is built, not at each map."""
        image = parse_pe(small_image())  # 0x300 bytes, a 0x200-byte header span
        spans = [MapSpan(0, 0x200, 0, 0x200, None)] + [
            MapSpan(rva, span, 0, 0, None) for rva, span in spans]
        monkeypatch.setattr(simkernel, "mapped_spans", lambda _: spans)
        if error is None:
            assert [rva for rva, _ in simkernel.LoadPlan(image).spans] == [0, 0x200]
        else:
            with pytest.raises(AssertionError, match=error):
                simkernel.LoadPlan(image)


class TestMappingsShareNoBytes:
    def test_write_in_one_mapping_shows_in_no_other(self, fixture_bytes):
        data = fixture_bytes("kernel32.dll")
        image = parse_pe(data)
        kernel = SimKernel()
        a = kernel.create_process("a.exe", fixture_bytes("services.exe"))
        b = kernel.create_process("b.exe", fixture_bytes("services.exe"))
        bases = [kernel.load_module(a.pid, "k.dll", data),
                 kernel.load_module(b.pid, "k.dll", data),
                 kernel.load_module(a.pid, "k2.dll", data),
                 kernel.load_module(b.pid, "k2.dll", data)]
        assert bases[0] == bases[1] == image.nt.image_base != bases[2] == bases[3]
        for base in (bases[0], bases[2]):
            for span in mapped_spans(image):
                kernel.protect_memory(a.pid, base + span.rva, span.span, PERM_RW)
                kernel.write_memory(a.pid, base + span.rva, b"\xCC" * span.span)
        check_mapping(b, "k.dll", data)
        check_mapping(b, "k2.dll", data)
        c = kernel.create_process("c.exe", fixture_bytes("services.exe"))
        kernel.load_module(c.pid, "k.dll", data)
        kernel.load_module(c.pid, "k2.dll", data)
        check_mapping(c, "k.dll", data)
        check_mapping(c, "k2.dll", data)


def fleet_dll() -> bytes:
    """A relocatable DLL shaped like the benchmark's fleet DLLs: fixups in
    ``.text`` only, beside an export table and its relocations."""
    text = bytearray(random.Random("fleet-dll").randbytes(0x1800))
    slots = [0x10, 0x200, 0x7F0, 0xFFC]
    for off in slots:
        text[off:off + 4] = (0x10001000 + off).to_bytes(4, "little")
    return build_pe32(PeSpec(
        image_base=0x10000000, entry_rva=0x1000,
        sections=[SectionDef(".text", 0x1000, bytes(text), CODE_SECTION)],
        exports=[(f"FleetFn{i}", 0x1000 + 0x40 * i) for i in range(4)], export_va=0x3000,
        relocations=[reloc_block(0x1000, slots)], reloc_va=0x4000, dll=True))


def crossing_fixup_image() -> bytes:
    """A fixup whose last two bytes are the only ones it patches in
    ``.data``: it crosses ``.text``'s zero tail into the next region."""
    return build_pe32(PeSpec(
        image_base=0x01000000, entry_rva=0x1000,
        sections=[SectionDef(".text", 0x1000, b"\x90" * 0x100, CODE_SECTION,
                             virtual_size=0x1000),
                  SectionDef(".data", 0x2000, b"\x77" * 0x40, DATA_SECTION)],
        relocations=[reloc_block(0x1000, [0x10, 0xFFE])], reloc_va=0x3000))


def region_sources(proc, base: int, image) -> list[tuple[str, str]]:
    """Per mapped span of the module at ``base``, its section (``headers``
    for the header span) and where its region's bytes are: ``own`` for a
    bytearray of its own, ``plan`` for its cached plan's view of the file,
    ``relocated`` for a read-only copy the plan keeps relocated."""
    plan = simkernel.image_cache.plans[image.raw]
    relocated = {id(view) for views in plan.layouts.values() for view in views}
    out = []
    for span, view in zip(mapped_spans(image), plan.views):
        data = proc.region_at(base + span.rva).data
        source = ("own" if type(data) is bytearray else "plan" if data is view
                  else "relocated" if id(data) in relocated and data.readonly else "?")
        out.append((span.section.name if span.section else "headers", source))
    return out


def region_names(proc, base: int, image, source: str) -> list[str]:
    """The sections of the module at ``base`` whose bytes are at ``source``."""
    return [name for name, at in region_sources(proc, base, image) if at == source]


def fixup_sections(image) -> set[str]:
    """The sections a rebase patches, worked out from the fixups alone."""
    cells = {block.page_rva + off + k for block in image.relocations
             for ftype, off in block.fixups if ftype for k in range(4)}
    return {span.section.name if span.section else "headers" for span in mapped_spans(image)
            if any(span.rva <= cell < span.rva + span.span for cell in cells)}


class TestCopyOnWrite:
    """A mapped span reads its cached image's bytes in place until its
    first write gives it bytes of its own."""

    def test_two_mappings_share_their_untouched_spans(self, fixture_bytes):
        data = fixture_bytes("services.exe")
        image = parse_pe(data)
        kernel = SimKernel()
        a = kernel.create_process("a.exe", data)
        b = kernel.create_process("b.exe", data)
        views = simkernel.image_cache.plans[data].views
        for span, view in zip(mapped_spans(image), views):
            ra, rb = a.region_at(a.image_base + span.rva), b.region_at(b.image_base + span.rva)
            assert ra.data is rb.data is view and view.readonly
        check_mapping(a, "a.exe", data)
        check_mapping(b, "b.exe", data)

    def test_write_makes_exactly_the_written_region_private(self, fixture_bytes):
        data = fixture_bytes("kernel32.dll")
        image = parse_pe(data)
        kernel = SimKernel()
        a = kernel.create_process("a.exe", fixture_bytes("services.exe"))
        b = kernel.create_process("b.exe", fixture_bytes("services.exe"))
        base = kernel.load_module(a.pid, "k.dll", data)
        assert kernel.load_module(b.pid, "k.dll", data) == base == image.nt.image_base
        plan = simkernel.image_cache.plans[data]

        def digests():
            return [hashlib.sha256(b).hexdigest() for b in (data, *plan.views)]

        before = digests()
        text = next(s for s in mapped_spans(image) if s.section and s.section.name == ".text")
        kernel.protect_memory(a.pid, base + text.rva, text.span, PERM_RW)
        with pytest.raises(AccessViolation):  # runs on into read-only .edata: refused whole
            kernel.write_memory(a.pid, base + text.rva + text.span - 4, b"\xCC" * 8)
        assert region_names(a, base, image, "own") == []
        kernel.write_memory(a.pid, base + text.rva + 8, b"\xCC" * 4)
        assert region_names(a, base, image, "own") == [".text"]
        written = bytearray(data[text.offset:text.offset + 16])
        written[8:12] = b"\xCC" * 4
        assert kernel.read_memory(a.pid, base + text.rva, 16) == written
        assert region_names(b, base, image, "own") == []
        assert digests() == before
        check_mapping(b, "k.dll", data)

    @pytest.mark.parametrize("make", [fleet_dll, crossing_fixup_image, tail_fixup_image])
    def test_rebase_relocates_only_its_fixup_regions(self, make):
        data = make()
        image = parse_pe(data)
        kernel = SimKernel()
        proc = kernel.create_process("host.exe", data)
        rebased = kernel.load_module(proc.pid, "again.dll", data)
        assert rebased != image.nt.image_base
        relocated = region_names(proc, rebased, image, "relocated")
        assert set(relocated) == fixup_sections(image) and relocated
        assert region_names(proc, rebased, image, "plan")
        assert region_names(proc, rebased, image, "own") == []
        assert {at for _, at in region_sources(proc, proc.image_base, image)} == {"plan"}
        check_mapping(proc, "again.dll", data)
        check_mapping(proc, "host.exe", data)

    def test_fleet_dll_rebase_shares_headers_exports_and_relocations(self):
        data = fleet_dll()
        kernel = SimKernel()
        proc = kernel.create_process("host.exe", data)
        rebased = kernel.load_module(proc.pid, "again.dll", data)
        assert region_sources(proc, rebased, parse_pe(data)) == [
            ("headers", "plan"), (".text", "relocated"), (".edata", "plan"), (".reloc", "plan")]

    def test_direct_write_into_a_fresh_mapping_raises(self, fixture_bytes):
        data, dll = fixture_bytes("services.exe"), fixture_bytes("kernel32.dll")
        kernel = SimKernel()
        proc = kernel.create_process("a.exe", data)
        kernel.load_module(proc.pid, "k.dll", dll)
        rebased = kernel.load_module(proc.pid, "k2.dll", dll)
        assert region_names(proc, rebased, parse_pe(dll), "relocated")
        for region in proc.regions:
            with pytest.raises(TypeError):
                region.data[0] = 0xCC
            with pytest.raises(TypeError):
                region.data[:] = b"\xCC" * len(region.data)
        check_mapping(proc, "a.exe", data)
        check_mapping(proc, "k.dll", dll)
        check_mapping(proc, "k2.dll", dll)

    def test_zero_tail_span_copied_in_one_allocation(self, monkeypatch):
        monkeypatch.setattr(simkernel, "image_cache", simkernel.ImageCache())
        data = huge_tail_image()
        kernel = SimKernel()
        tracemalloc.start()
        try:
            proc = kernel.create_process("big.exe", data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * HUGE_TAIL, peak
        assert kernel.read_memory(proc.pid, proc.image_base + 0x1000, 0x210) == \
            text_bytes(data) + bytes(0x10)

    def test_twenty_mappings_cost_less_than_two_copies(self, fixture_bytes, monkeypatch):
        monkeypatch.setattr(simkernel, "image_cache", simkernel.ImageCache())
        data = fixture_bytes("services.exe")
        mapped = sum(span.span for span in mapped_spans(parse_pe(data)))
        kernel = SimKernel()
        tracemalloc.start()
        try:
            for i in range(20):
                kernel.create_process(f"p{i}.exe", data)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(kernel.processes) == 20
        assert held < 2 * mapped, (held, mapped)


class TestRelocatedLayouts:
    """Each (image, delta) is relocated once per process; every mapping
    rebased by that delta, in any kernel, shares its read-only copies."""

    @staticmethod
    def views(proc, base: int, image) -> list:
        return [proc.region_at(base + span.rva).data for span in mapped_spans(image)]

    def test_same_delta_shares_every_view_across_kernels(self, monkeypatch):
        monkeypatch.setattr(simkernel, "image_cache", simkernel.ImageCache())
        data = fleet_dll()
        image = parse_pe(data)
        mapped = []
        for _ in range(2):
            kernel = SimKernel()
            proc = kernel.create_process("host.exe", data)
            for name, base in (("a.dll", None), ("b.dll", REBASE_TO)):
                at = kernel.load_module(proc.pid, name, data, base=base)
                mapped.append(self.views(proc, at, image))
                check_mapping(proc, name, data)
        first_a, first_b, second_a, second_b = mapped
        assert all(map(operator.is_, first_a, second_a))
        assert all(map(operator.is_, first_b, second_b))
        plan = simkernel.image_cache.plans[data]
        assert len(plan.layouts) == 2
        for a, b, own in zip(first_a, first_b, plan.views):
            assert (a is b) == (a is own) == (b is own) and a.readonly and b.readonly
        # a different delta: different relocated bytes, in .text alone
        assert [bytes(a) != bytes(b) for a, b, own in zip(first_a, first_b, plan.views)
                if a is not own] == [True]
        check_image_cache()
        check_export_memo()

    def test_write_into_a_rebased_mapping_reaches_no_other(self, monkeypatch):
        monkeypatch.setattr(simkernel, "image_cache", simkernel.ImageCache())
        data = fleet_dll()
        image = parse_pe(data)
        kernel = SimKernel()
        a = kernel.create_process("a.exe", data)
        b = kernel.create_process("b.exe", data)
        base = kernel.load_module(a.pid, "k.dll", data)
        assert kernel.load_module(b.pid, "k.dll", data) == base != image.nt.image_base
        plan = simkernel.image_cache.plans[data]
        [layout] = plan.layouts.values()
        before = [bytes(view) for view in layout]
        text = next(s for s in mapped_spans(image) if s.section and s.section.name == ".text")
        kernel.protect_memory(a.pid, base + text.rva, text.span, PERM_RW)
        kernel.write_memory(a.pid, base + text.rva + 0x10, b"\xCC" * 4)
        assert region_names(a, base, image, "own") == [".text"]
        assert kernel.read_memory(a.pid, base + text.rva + 0x10, 4) == b"\xCC" * 4
        assert region_names(b, base, image, "own") == []
        assert [bytes(view) for view in layout] == before
        check_mapping(b, "k.dll", data)
        check_image_cache()
        check_export_memo()

    def test_second_fleet_run_relocates_and_copies_nothing(self, fixture_dir, monkeypatch):
        layouts, deltas = recorded_rebases(monkeypatch)
        copies = []
        writable = simkernel.MemoryRegion.writable

        def counted_writable(region):
            if type(region.data) is not bytearray:
                copies.append(region.tag)
            return writable(region)

        monkeypatch.setattr(simkernel.MemoryRegion, "writable", counted_writable)
        path = fixture_dir / "fleet_shaped.scenario"
        first = run_scenario(path)
        # each (image, delta) is laid out and relocated once
        rebases = [(image.raw, delta) for image, delta in zip(layouts, deltas, strict=True)]
        assert rebases and len(set(rebases)) == len(rebases)
        del layouts[:], deltas[:]
        second = run_scenario(path)
        assert second.render("plain") == first.render("plain")
        # nothing in the scenario writes: every copy would be the loader's
        assert layouts == deltas == copies == []
        check_kernel(second.kernel)

    def test_first_rebase_lays_out_one_image_buffer(self, monkeypatch):
        """A plan over the cache bound is built again by each load, so two
        maps of this image hold two copies of ``.text``'s span; the rebase
        adds one size_of_image layout and one relocated span, and no more."""
        monkeypatch.setattr(simkernel, "image_cache", simkernel.ImageCache())
        data = huge_tail_dll()
        size = parse_pe(data).nt.size_of_image
        kernel = SimKernel()
        tracemalloc.start()
        try:
            proc = kernel.create_process("big.exe", data)
            rebased = kernel.load_module(proc.pid, "big.dll", data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * HUGE_TAIL + size + (64 << 10), peak
        assert rebased != proc.image_base
        moved = (0x90909090 + rebased - proc.image_base) & 0xFFFFFFFF
        assert kernel.read_memory(proc.pid, rebased + 0x1010, 4) == moved.to_bytes(4, "little")
        assert simkernel.image_cache.plans == {}

    def test_layouts_stay_within_the_cache_bound(self, monkeypatch):
        monkeypatch.setattr(simkernel, "image_cache", simkernel.ImageCache())
        data = fleet_dll()
        image = parse_pe(data)
        assert simkernel.LoadPlan(image).nbytes == 0  # only layouts copy
        bound = len(data) + 3 * 0x1800
        monkeypatch.setattr(simkernel, "IMAGE_CACHE_BYTES", bound)
        kernel = SimKernel()
        proc = kernel.create_process("host.exe", data)
        for i in range(8):
            name = f"m{i}.dll"
            kernel.load_module(proc.pid, name, data, base=REBASE_TO + i * simkernel.REBASE_STEP)
            assert simkernel.image_cache.nbytes <= bound
            check_mapping(proc, name, data)
            check_image_cache()
            check_export_memo()
        plan = simkernel.image_cache.plans[data]
        assert len(plan.layouts) == 3 and plan.nbytes == 3 * 0x1800


class TestImageCacheCheck:
    """The cache invariant checks a plan's content once per state: a plan
    whose views, spans, layouts, copy count or image facts change is
    checked again."""

    @pytest.mark.parametrize("change, error", [
        ("view", "cached view is not the mapped span"),
        ("spans", "cached plan drifted"),
        ("span bytes", "cached plan spans hold bytes"),
        ("nbytes", "span copies miscounted"),
        ("layout", "layout view is not the relocated span"),
        ("relocated shared", "layout view is not the relocated span"),
        ("unchanged copied", "unchanged layout view is not the plan's own"),
        ("relocatable", "cached plan facts are not its image's"),
        ("headers_past", "cached plan facts are not its image's"),
    ])
    def test_a_changed_plan_fails_the_next_check(self, monkeypatch, change, error):
        monkeypatch.setattr(simkernel, "image_cache", simkernel.ImageCache())
        data = fleet_dll()
        kernel = SimKernel()
        proc = kernel.create_process("host.exe", data)
        kernel.load_module(proc.pid, "again.dll", data)
        plan = simkernel.image_cache.plans[data]
        [views] = plan.layouts.values()
        [j] = [j for j, (view, own) in enumerate(zip(views, plan.views)) if view is not own]
        check_image_cache()
        check_image_cache()
        if change == "view":  # a read-only view of the key, of the right length
            plan.views[1] = memoryview(data)[:len(plan.views[1])]
        elif change == "spans":
            plan.spans[1] = (plan.spans[1][0], PERM_RW)
        elif change == "span bytes":  # in place: the same list holds bytes now
            plan.spans.append(b"\x00")
        elif change == "layout":  # a read-only copy of the right length, one byte off
            tampered = bytearray(views[j])
            tampered[0] ^= 1
            views[j] = memoryview(tampered).toreadonly()
        elif change == "relocated shared":  # the plan's own view, where relocation changed it
            views[j] = plan.views[j]
        elif change == "unchanged copied":  # an equal copy, where relocation changed nothing
            views[0] = memoryview(bytearray(views[0])).toreadonly()
        elif change in ("relocatable", "headers_past"):
            setattr(plan, change, not getattr(plan, change))
        else:  # the cache's own count agrees
            plan.nbytes += 1
            simkernel.image_cache.nbytes += 1
        with pytest.raises(AssertionError, match=error):
            check_image_cache()


    @pytest.mark.parametrize("change", ["dropped", "evicted", "misfiled", "reordered", "empty"])
    def test_a_length_index_out_of_step_fails_the_check(self, monkeypatch, change):
        monkeypatch.setattr(simkernel, "image_cache", simkernel.ImageCache())
        cache = simkernel.image_cache
        first = small_image()
        second = bytearray(first)
        second[-1] ^= 1
        longer = first + b"\x00"  # a trailing overlay
        for image in (first, bytes(second), longer):
            cache.plan(image)
        check_image_cache()
        same = cache.by_length[len(first)]
        if change == "dropped":  # a stored plan the index cannot find
            same.pop()
        elif change == "evicted":  # a plan no longer stored, still in the index
            old = cache.plans.pop(first)
            cache.nbytes -= len(first) + old.nbytes
        elif change == "misfiled":  # a plan under another image's length
            same.append(cache.by_length.pop(len(longer))[0])
        elif change == "reordered":
            same.reverse()
        else:  # a length with no plans left
            cache.by_length[1] = []
        with pytest.raises(AssertionError, match="length index"):
            check_image_cache()


class TestHeaderSpan:
    @pytest.mark.parametrize("name", PE_FIXTURES)
    def test_fixture_tables_end_inside_the_header_span(self, fixture_bytes, name):
        image = parse_pe(fixture_bytes(name))
        assert 0x1A0 <= image.headers_end <= 0x1F0
        assert image.headers_end <= mapped_spans(image)[0].span

    def test_displaced_headers_refused(self):
        kernel = SimKernel()
        with pytest.raises(NotPe, match=r"headers end at 0x520, past the 0x200-byte"):
            kernel.create_process("tiny.exe", displaced_headers_image())
        assert kernel.processes == {}
        proc = kernel.create_process("host.exe", small_image())
        with pytest.raises(NotPe):
            kernel.load_module(proc.pid, "tiny.dll", displaced_headers_image())
        assert proc.modules == [("host.exe", 0x01000000)]
        assert [r.tag for r in proc.regions] == ["image:host.exe"] * 2

    def test_displaced_headers_still_parse_and_scan(self):
        image = parse_pe(displaced_headers_image())
        assert image.headers_end == 0x520 > mapped_spans(image)[0].span == 0x200
        assert scan_pe(displaced_headers_image()).clean

    @pytest.mark.parametrize("first_va, maps", [(0x1A0, True), (0x19F, False)])
    def test_table_ending_exactly_at_the_first_section(self, first_va, maps):
        data = build_pe32(PeSpec(
            image_base=0x01000000, entry_rva=first_va,
            sections=[SectionDef(".text", first_va, b"\x90" * 0x60, CODE_SECTION)],
            size_of_image=0x300, section_align=0x100))
        assert parse_pe(data).headers_end == 0x1A0
        kernel = SimKernel()
        if maps:
            proc = kernel.create_process("a.exe", data)
            check_mapping(proc, "a.exe", data)
        else:
            with pytest.raises(NotPe):
                kernel.create_process("a.exe", data)

    def test_table_past_size_of_image_refused(self):
        data = bytearray(small_image())
        image = parse_pe(bytes(data))
        lf = image.dos.e_lfanew
        struct.pack_into("<I", data, lf + 24 + 56, 0x190)  # size_of_image
        struct.pack_into("<I", data, lf + 24 + 16, 0x10)   # entry point inside it
        assert mapped_spans(parse_pe(bytes(data)))[0].span == 0x190
        with pytest.raises(NotPe):
            SimKernel().create_process("a.exe", bytes(data))


class TestFailedMappingLeavesNoProcess:
    @pytest.mark.parametrize("image, base, error", [
        (small_image, 0xFFFFFF00, AddressSpaceExhausted),
        (small_image, 0x02000000, CannotRelocate),
        (displaced_headers_image, None, NotPe),
        (fixup_past_image, REBASE_TO, FixupOutOfRange),
    ])
    def test_no_process_and_no_pid_taken(self, image, base, error):
        kernel = SimKernel()
        with pytest.raises(error):
            kernel.create_process("a.exe", image(), base=base)
        assert kernel.processes == {} and kernel.log == []
        proc = kernel.create_process("b.exe", small_image())
        assert proc.pid == simkernel.PID_START
        assert proc.peb_address == simkernel.PEB_START
        assert list(kernel.processes) == [simkernel.PID_START]


class TestCachedPlanErrors:
    """The plan keeps an image's facts, yet every map refuses what it must,
    with the message naming that load's module, and leaves nothing behind:
    twice in one kernel, then in a second one."""

    @pytest.mark.parametrize("image, base, error, message", [
        (displaced_headers_image, None, NotPe,
         "{}: headers end at 0x520, past the 0x200-byte mapped header span"),
        (small_image, 0x02000000, CannotRelocate, "{} must rebase but has no relocations"),
        (small_image, 0xFFFFFF00, AddressSpaceExhausted,
         "{} (0x300 bytes) at 0xffffff00 leaves the address space"),
    ])
    def test_each_map_refuses_in_its_own_name(self, image, base, error, message):
        data, plans = image(), []
        for kernel, tries in ((SimKernel(), 2), (SimKernel(), 1)):
            host = kernel.create_process("host.exe", small_image())
            regions, log = list(host.regions), list(kernel.log)
            for n in range(tries):
                for name, load in ((f"a{n}.exe", lambda name: kernel.create_process(
                                        name, data, base=base)),
                                   (f"m{n}.dll", lambda name: kernel.load_module(
                                        host.pid, name, data, base=base))):
                    with pytest.raises(error) as caught:
                        load(name)
                    assert str(caught.value) == message.format(name)
                    plans.append(simkernel.image_cache.plans[data])
                    assert list(kernel.processes) == [host.pid]
                    assert host.regions == regions and kernel.log == log
                    assert host.modules == [("host.exe", 0x01000000)]
            check_kernel(kernel)
        assert all(plan is plans[0] for plan in plans)  # one cached plan refused all six


class TestDirectoryArray:
    def test_one_unpack_reads_every_directory(self, fixture_bytes):
        data = fixture_bytes("kernel32.dll")
        oh = struct.unpack_from("<I", data, 60)[0] + 24
        image = parse_pe(data)
        assert image.nt.data_directories == tuple(
            struct.unpack_from("<II", data, oh + 96 + 8 * i) for i in range(16))

    def test_short_buffer_names_the_first_missing_dword(self, fixture_bytes):
        data = fixture_bytes("kernel32.dll")
        oh = struct.unpack_from("<I", data, 60)[0] + 24
        table = oh + 96
        for cut in range(table, table + 8 * 16):
            missing = next(off for off in range(table, table + 8 * 16, 4) if off + 4 > cut)
            with pytest.raises(Truncated, match=f"^dword at {missing:#x} past end of buffer$"):
                parse_headers(data[:cut])


class TestStubParses:
    def test_strip_headers_takes_the_parsed_image(self, fixture_bytes):
        data = fixture_bytes("stub1.bin")
        lf = struct.unpack_from("<I", data, 60)[0]
        expected = bytearray(data)
        for at, width in ((0, 2), (lf, 4), (lf + 4, 2), (lf + 24, 2)):
            expected[at:at + width] = bytes(width)
        assert strip_headers(parse_pe(data)) == expected

    def test_each_stub_is_parsed_once_per_process(self, fixture_dir, monkeypatch):
        """The stubs are file bytes, so the injector takes their parsed
        images from the image cache: from an empty cache, two injections in
        two kernels parse each stub once."""
        monkeypatch.setattr(simkernel, "image_cache", simkernel.ImageCache())
        parsed = []
        original = peformat.parse_pe
        for module in (duqu, peformat, simkernel):
            monkeypatch.setattr(module, "parse_pe",
                                lambda data: parsed.append(bytes(data)) or original(data))
        stubs = [(fixture_dir / name).read_bytes() for name in ("stub1.bin", "stub2.bin")]
        images = []
        for _ in range(2):
            kernel, drivers = boot_kernel(fixture_dir, with_sentinel=False)
            proc = kernel.create_process("services.exe",
                                         (fixture_dir / "services.exe").read_bytes(),
                                         base=0x01000000)
            state = drivers["duqu"].state
            assert state.target_pid == proc.pid
            images.append(kernel.read_memory(proc.pid, state.stub2_base, len(stubs[1])))
        assert sorted(data for data in parsed if data in stubs) == sorted(stubs)
        # Each injection still writes its own stripped copy.
        assert images == [strip_headers(parse_pe(stubs[1]))] * 2

    @pytest.mark.parametrize("bad, allocated", [("stub2", 1), ("stub1", 2)])
    def test_bad_stub_faults_after_the_same_allocations(self, fixture_dir, bad, allocated):
        kernel, _ = boot_kernel(fixture_dir, with_sentinel=False,
                                duqu_kwargs={bad: b"not a PE32" * 64})
        proc = kernel.create_process("services.exe",
                                     (fixture_dir / "services.exe").read_bytes(),
                                     base=0x01000000)
        faults = [t for _, t in kernel.log if t.startswith("! fault:")]
        assert faults == ["! fault: duqu: NotMz: no 'MZ' at offset 0"]
        assert len([r for r in proc.regions if r.tag == "injected"]) == allocated
