"""The loader's layout: spans mapped straight from the file bytes.

Every mapping, at the preferred base and rebased, is checked region by
region against :func:`oracles.loader_regions_oracle`, which cuts the
regions from the reference layout the way the loader did when it built a
size_of_image buffer for every load.
"""

import random
import struct

import pytest

from duqusim import duqu, peformat, simkernel
from duqusim.pebuild import (
    CODE_SECTION,
    DATA_SECTION,
    PeSpec,
    SectionDef,
    build_pe32,
    random_pe32,
    reloc_block,
)
from duqusim.peformat import (
    FixupOutOfRange,
    NotPe,
    Section,
    Truncated,
    assemble_mapped,
    mapped_spans,
    parse_headers,
    parse_pe,
    relocate_pieces,
    strip_headers,
)
from duqusim.scan import scan_pe
from duqusim.simkernel import (
    PERM_R,
    AddressSpaceExhausted,
    CannotRelocate,
    MemoryRegion,
    SimKernel,
    SimProcess,
)

from conftest import boot_kernel, displaced_headers_image, small_image
from oracles import assemble_mapped_oracle, loader_regions_oracle

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
    }


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

    def test_boot_modules_match_reference(self, fixture_dir, fixture_bytes):
        kernel, _ = boot_kernel(fixture_dir, with_duqu=False)
        proc = kernel.processes[simkernel.PID_START]
        for name, fixture in (("System", "system.bin"), ("ntoskrnl.exe", "ntoskrnl.exe"),
                              ("hal.dll", "hal.dll")):
            check_mapping(proc, name, fixture_bytes(fixture))

    def test_preferred_base_builds_no_image_buffer(self, fixture_bytes, monkeypatch):
        relocations, layouts = [], []
        monkeypatch.setattr(simkernel, "relocate_pieces",
                            lambda *args: relocations.append(args) or relocate_pieces(*args))
        monkeypatch.setattr(peformat, "assemble_mapped", layouts.append)
        kernel = SimKernel()
        proc = kernel.create_process("a.exe", fixture_bytes("services.exe"))
        kernel.load_module(proc.pid, "k.dll", fixture_bytes("kernel32.dll"))
        assert relocations == []
        kernel.load_module(proc.pid, "k2.dll", fixture_bytes("kernel32.dll"))
        kernel.load_module(proc.pid, "k3.dll", fixture_bytes("kernel32.dll"), base=REBASE_TO)
        assert len(relocations) == 2
        assert layouts == [] and not hasattr(simkernel, "assemble_mapped")
        check_mapping(proc, "k2.dll", fixture_bytes("kernel32.dll"))


class TestInsertRegions:
    @staticmethod
    def region(base: int, size: int) -> MemoryRegion:
        return MemoryRegion(base, bytearray(size), PERM_R, "r")

    def test_one_splice_between_neighbours(self):
        proc = SimProcess(simkernel.PID_START, "a.exe", simkernel.PEB_START)
        low, high = self.region(0x1000, 0x100), self.region(0x3000, 0x100)
        proc.insert_regions(0x1000, 0x100, [low])
        proc.insert_regions(0x3000, 0x100, [high])
        middle = [self.region(0x2000, 0x10), self.region(0x2010, 0x20),
                  self.region(0x2800, 0x8)]
        proc.insert_regions(0x2000, 0x1000, middle)
        assert proc.regions == [low, *middle, high]

    @pytest.mark.parametrize("bases, span", [
        ([0x2010, 0x2000], (0x2000, 0x1000)),   # unsorted
        ([0x2000, 0x2008], (0x2000, 0x1000)),   # overlapping
        ([0x2000, 0x2F00], (0x2000, 0xF00)),    # past the span's end
        ([0x1F00, 0x2000], (0x2000, 0x1000)),   # before the span
        ([0x2000], (0x0F00, 0x1200)),           # the span is not free
    ])
    def test_bad_regions_refused_and_nothing_inserted(self, bases, span):
        proc = SimProcess(simkernel.PID_START, "a.exe", simkernel.PEB_START)
        proc.add_region(self.region(0x1000, 0x100))
        before = list(proc.regions)
        with pytest.raises(AssertionError):
            proc.insert_regions(*span, [self.region(b, 0x10) for b in bases])
        assert proc.regions == before


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
                region = a.region_at(base + span.rva)
                region.data[:] = b"\xCC" * len(region.data)
        check_mapping(b, "k.dll", data)
        check_mapping(b, "k2.dll", data)
        c = kernel.create_process("c.exe", fixture_bytes("services.exe"))
        kernel.load_module(c.pid, "k.dll", data)
        kernel.load_module(c.pid, "k2.dll", data)
        check_mapping(c, "k.dll", data)
        check_mapping(c, "k2.dll", data)


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


class TestDirectoryArray:
    def test_one_unpack_reads_every_directory(self, fixture_bytes):
        data = fixture_bytes("kernel32.dll")
        oh = struct.unpack_from("<I", data, 60)[0] + 24
        image = parse_pe(data)
        assert image.nt.data_directories == [
            struct.unpack_from("<II", data, oh + 96 + 8 * i) for i in range(16)]

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
        assert strip_headers(parse_pe(data)) == strip_headers(data)

    def test_each_injection_parses_each_stub_once(self, fixture_dir, monkeypatch):
        kernel, drivers = boot_kernel(fixture_dir, with_sentinel=False)
        parsed = []
        original = duqu.parse_pe
        monkeypatch.setattr(duqu, "parse_pe",
                            lambda data: parsed.append(bytes(data)) or original(data))
        monkeypatch.setattr(peformat, "parse_pe",
                            lambda data: parsed.append(bytes(data)) or original(data))
        kernel.create_process("services.exe", (fixture_dir / "services.exe").read_bytes(),
                              base=0x01000000)
        assert drivers["duqu"].state.target_pid is not None
        stub1, stub2 = drivers["duqu"].stub1, drivers["duqu"].stub2
        assert sorted(parsed) == sorted([stub1, stub2])

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
