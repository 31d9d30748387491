"""The reader of modules mapped in simulated memory (``read_headers`` and
``read_module``) against ``parse_pe`` of the same file bytes, and the
injector's use of it on modules whose directories cannot be read."""

import itertools
import re
import struct

import pytest

from duqusim import peformat
from duqusim.duqu import DuquDriver, default_mask
from duqusim.fixtures import FIXTURE_BUILDERS
from duqusim.pebuild import CODE_SECTION, RODATA_SECTION, PeSpec, SectionDef, build_pe32
from duqusim.peformat import (
    DIR_EXPORT,
    EXPORT_DIRECTORY_SIZE,
    HOOK_LEN,
    PUSH_104H,
    AmbiguousHash,
    HashNotFound,
    NotPe,
    PatternNotFound,
    assemble_mapped,
    decode_entry_hook,
    encode_entry_hook,
    find_export_by_hash,
    find_export_by_name,
    parse_pe,
    read_headers,
    read_module,
    ror13_hash,
    scan_call_push_call,
    section_data,
)
from duqusim.scan import ENTRY_HOOK, OBFUSCATED_PE_CONST, PE_CONST, ZWPROTECT_PATTERN, scan_pe
from duqusim.simkernel import PERM_RW, Driver, EventKind, SimKernel

from conftest import encode_near_call
from invariants import check_export_memo, recorded_export_decodes
from oracles import read_module_oracle
from test_decoder import suffix_names_pe
from test_mapping import edge_images

PE_FIXTURES = sorted(name for name, build in FIXTURE_BUILDERS.items()
                     if build()[:2] == b"MZ")
EDGE_IMAGES = edge_images()


def cases(images: dict[str, bytes]) -> list[tuple[str, bool]]:
    """Each image at its preferred base, then each relocatable one rebased."""
    return [(name, False) for name in images] + [
        (name, True) for name, data in images.items() if parse_pe(data).relocations]


CASES = cases({name: FIXTURE_BUILDERS[name]() for name in PE_FIXTURES}) + cases(EDGE_IMAGES)
REBASE_BY = 0x00100000


def mapped(data: bytes, base: int | None = None):
    """A kernel with ``data`` mapped as a process; (kernel, pid, base, read)."""
    kernel = SimKernel()
    proc = kernel.create_process("image.exe", data, base=base)
    pid, at = proc.pid, proc.image_base
    return kernel, pid, at, lambda rva, n: kernel.read_memory(pid, at + rva, n)


def export_dir_rva(data: bytes) -> int:
    return parse_pe(data).nt.directory(DIR_EXPORT)[0]


def patch(kernel, pid, addr: int, value: bytes) -> None:
    """Overwrite mapped bytes whatever their protection."""
    old = kernel.protect_memory(pid, addr, len(value), PERM_RW)
    kernel.write_memory(pid, addr, value)
    kernel.protect_memory(pid, addr, len(value), old)


@pytest.mark.parametrize("name, rebase", CASES)
class TestReaderMatchesFileParse:
    def load(self, fixture_bytes, name, rebase):
        expected = parse_pe(EDGE_IMAGES.get(name) or fixture_bytes(name))
        base = expected.nt.image_base + REBASE_BY if rebase else None
        kernel, pid, at, read = mapped(expected.raw, base)
        assert at == expected.nt.image_base + (REBASE_BY if rebase else 0)
        return expected, kernel, pid, at, read

    def test_headers_directories_and_sections(self, fixture_bytes, name, rebase):
        expected, _, _, _, read = self.load(fixture_bytes, name, rebase)
        image = read_module(read)
        assert image.dos == expected.dos
        assert image.nt == expected.nt
        assert image.sections == expected.sections
        assert image.exports == expected.exports
        assert image.relocations == []  # only file bytes are relocated
        assert image.layout == "mapped"
        table_end = (expected.dos.e_lfanew + 24 + 0xE0
                     + 40 * expected.nt.number_of_sections)
        assert image.raw == expected.raw[:table_end]

    def test_header_reader_decodes_no_directory(self, fixture_bytes, name, rebase):
        expected, _, _, _, read = self.load(fixture_bytes, name, rebase)
        image = read_headers(read)
        assert (image.nt, image.sections) == (expected.nt, expected.sections)
        assert image.exports is None and image.relocations == []

    def test_executable_sections_read_as_mapped(self, fixture_bytes, name, rebase):
        expected, kernel, pid, at, read = self.load(fixture_bytes, name, rebase)
        image = read_module(read)
        loaded = kernel.read_image(pid, at)
        # The file image reads as mapped at its preferred base, unrelocated.
        file_mapped = assemble_mapped(expected) if rebase else loaded
        size = expected.nt.size_of_image
        for section in image.sections:
            if section.executable:
                lo = section.virtual_address
                span = min(section.virtual_span, size - lo)
                assert section_data(image, section) == loaded[lo:lo + span]
                assert section_data(expected, section) == file_mapped[lo:lo + span]


class TestFileScanReadsTheMapping:
    """``scan_pe`` of file bytes finds what the same signatures find in the
    module the loader maps from them, where a section's raw data runs past
    its virtual size or stops short of it."""

    ANCHOR = "ZwAllocateVirtualMemory"
    BASE = 0x00400000

    def image(self, text: bytes, virtual_size: int) -> bytes:
        return build_pe32(PeSpec(
            image_base=self.BASE, entry_rva=0x1000,
            sections=[SectionDef(".text", 0x1000, text, CODE_SECTION,
                                 virtual_size=virtual_size)],
            exports=[(self.ANCHOR, 0x1010)], export_va=0x2000))

    def train(self, text: bytearray, at: int) -> None:
        """Anchor call at ``at``, push 104h 8 bytes on, second call 16 on."""
        text[at:at + 5] = encode_near_call(self.BASE + 0x1000 + at, self.BASE + 0x1010)
        text[at + 8:at + 13] = PUSH_104H
        text[at + 16:at + 21] = encode_near_call(self.BASE + 0x1000 + at + 16, 0x00406882)

    def memory_scan(self, data: bytes) -> list[tuple[str, int]]:
        _, _, at, read = mapped(data)
        image = read_module(read)
        found = []
        if decode_entry_hook(read(image.nt.entry_point_rva, HOOK_LEN)) is not None:
            found.append((ENTRY_HOOK, at + image.nt.entry_point_rva))
        try:
            found.append((ZWPROTECT_PATTERN, scan_call_push_call(image, self.ANCHOR)[0]))
        except PatternNotFound:
            pass
        for section in image.sections:
            if section.executable:
                blob = section_data(image, section)
                found += [(OBFUSCATED_PE_CONST, at + section.virtual_address + i)
                          for i in range(len(blob) - 3) if blob[i:i + 4] == PE_CONST]
        return found

    def assert_scans_agree(self, data: bytes, expected: list[tuple[str, int]]) -> None:
        from_file = [(f.kind, f.address)
                     for f in scan_pe(data, anchor_export=self.ANCHOR).findings]
        assert from_file == self.memory_scan(data) == expected

    def test_raw_past_virtual_size_is_not_scanned(self):
        text = bytearray(b"\x90" * 0x200)
        text[0x180:0x184] = PE_CONST
        self.train(text, 0x1A0)
        self.assert_scans_agree(self.image(bytes(text), 0x100), [])

    def test_raw_past_virtual_size_scanned_up_to_it(self):
        text = bytearray(b"\x90" * 0x200)
        text[0:HOOK_LEN] = encode_entry_hook(0x00406882)
        text[0x40:0x44] = text[0x17C:0x180] = text[0x180:0x184] = PE_CONST
        self.train(text, 0x60)
        self.assert_scans_agree(self.image(bytes(text), 0x180), [
            (ENTRY_HOOK, 0x00401000), (ZWPROTECT_PATTERN, 0x00401070),
            (OBFUSCATED_PE_CONST, 0x00401040), (OBFUSCATED_PE_CONST, 0x0040117C)])

    def test_zero_tail_completes_a_dword(self):
        # The raw data ends in "PE"; the loader maps zeros after it.
        text = b"\x90" * 0xFE + b"PE"
        self.assert_scans_agree(self.image(text, 0x200),
                                [(OBFUSCATED_PE_CONST, 0x004010FE)])


class TestExportNames:
    ENTRIES = [("Alpha", 0x1000), ("Beta", 0x1004), ("Gamma", 0x1008)]

    def image(self) -> bytes:
        return build_pe32(PeSpec(
            image_base=0x10000000, entry_rva=0x1000,
            sections=[SectionDef(".text", 0x1000, b"\x90" * 0x100, CODE_SECTION)],
            exports=self.ENTRIES, export_va=0x2000, dll=True))

    @pytest.mark.parametrize("span", [40, 40 + 10 * 3 + 3])
    def test_names_outside_the_span_resolve(self, span):
        # The directory's size field covers only the directory itself, or
        # ends three bytes into the first name.
        data = bytearray(self.image())
        size_field = 0x80 + 24 + 96 + 8 * DIR_EXPORT + 4
        data[size_field:size_field + 4] = struct.pack("<I", span)
        data = bytes(data)
        from_file = parse_pe(data)
        _, _, _, read = mapped(data)
        from_memory = read_module(read)
        wanted = [(n.encode(), rva) for n, rva in self.ENTRIES]
        assert from_file.exports.entries == from_memory.exports.entries == wanted
        for image in (from_file, from_memory):
            assert find_export_by_name(image, "Gamma") == 0x10001008

    def test_duplicate_name_in_memory_rejected(self):
        data = self.image()
        kernel, pid, at, read = mapped(data)
        # Rename "Gamma" to "Alpha" in the mapped strings.
        strings = at + export_dir_rva(data) + 40 + 10 * 3
        patch(kernel, pid, strings + len("Alpha\0Beta\0"), b"Alpha")
        with pytest.raises(NotPe, match="duplicate export name b'Alpha'"):
            read_module(read)

    def test_duplicate_name_in_file_rejected(self):
        data = build_pe32(PeSpec(
            image_base=0x10000000, entry_rva=0x1000,
            sections=[SectionDef(".text", 0x1000, b"\x90" * 0x100, CODE_SECTION)],
            exports=[("Alpha", 0x1000), ("Beta", 0x1004), ("Alpha", 0x1008)],
            export_va=0x2000, dll=True))
        with pytest.raises(NotPe, match="duplicate export name b'Alpha'"):
            parse_pe(data)


class TestHashIndex:
    def test_each_name_hashed_once_per_image(self, fixture_bytes, monkeypatch):
        from duqusim import peformat
        image = parse_pe(fixture_bytes("kernel32.dll"))
        hashed = []
        monkeypatch.setattr(peformat, "ror13_hash",
                            lambda name: (hashed.append(name), ror13_hash(name))[1])
        for name, _ in image.exports.entries:
            find_export_by_hash(image, ror13_hash(name))
        assert sorted(hashed) == sorted(n for n, _ in image.exports.entries)

    def test_every_match_kept_per_hash(self):
        seen = {}
        for a, c in itertools.product(range(0x21, 0x7F), repeat=2):
            name = bytes([a, 0x41, c])
            if ror13_hash(name) in seen:
                first, second = seen[ror13_hash(name)], name
                break
            seen[ror13_hash(name)] = name
        data = build_pe32(PeSpec(
            image_base=0x10000000, entry_rva=0x1000,
            sections=[SectionDef(".text", 0x1000, b"\x90" * 0x100, CODE_SECTION)],
            exports=[("Other", 0x1000), (first, 0x1004), (second, 0x1008)],
            export_va=0x2000, dll=True))
        image = read_module(mapped(data)[3])
        # The first lookup builds the index; the collision is still seen after it.
        assert find_export_by_hash(image, ror13_hash(b"Other")) == (b"Other", 0x10001000)
        h = ror13_hash(first)
        names = f"{first.decode()}, {second.decode()}"
        with pytest.raises(AmbiguousHash, match=f"^{h:#010x} matches multiple exports: "
                                                f"{re.escape(names)}$"):
            find_export_by_hash(image, h)



ENTRY_FIELD = 0x28  # AddressOfEntryPoint, from the NT signature


class TestHeaderMemo:
    """``parse_headers`` keeps decodes by header bytes, and no more."""

    @pytest.fixture
    def decodes(self, monkeypatch):
        """A fresh memo; the header blocks decoded in the mapped layout."""
        decoded = []

        def decode(data, layout):
            if layout == "mapped":
                decoded.append(bytes(data))
            return real(data, layout)

        real = peformat._decode_headers
        monkeypatch.setattr(peformat, "_header_memo", {})
        monkeypatch.setattr(peformat, "_decode_headers", decode)
        return decoded

    def test_equal_header_bytes_decode_once(self, fixture_bytes, decodes):
        data = fixture_bytes("kernel32.dll")
        kernel = SimKernel()
        a = kernel.create_process("a.exe", data)
        b = kernel.create_process("b.exe", data, base=a.image_base + REBASE_BY)
        images = [read_headers(kernel.image_reader(p.pid, p.image_base))
                  for p in (a, b, a, b)]
        assert decodes == [images[0].raw]
        expected = parse_pe(data)
        assert all((i.dos, i.nt, i.sections, i.headers_end, i.layout, i.exports)
                   == (expected.dos, expected.nt, expected.sections, expected.headers_end,
                       "mapped", None) for i in images)

    def test_results_are_independent(self, fixture_bytes, decodes):
        read = mapped(fixture_bytes("kernel32.dll"))[3]
        first, second = read_headers(read), read_headers(read)
        assert first is not second and len(decodes) == 1
        first.read = None
        first.exports = read_module(read).exports
        assert second.read is read and second.exports is None
        assert second.relocations == [] and first.relocations is not second.relocations

    def test_shared_decode_cannot_be_changed(self, fixture_bytes, decodes):
        data = fixture_bytes("kernel32.dll")
        read = mapped(data)[3]
        first = read_headers(read)
        for record, name in ((first.dos, "e_lfanew"), (first.nt, "entry_point_rva"),
                             (first.nt, "data_directories"), (first.sections[0], "raw_size")):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
        with pytest.raises(TypeError):
            first.nt.data_directories[0] = (0, 0)
        with pytest.raises(TypeError):
            first.sections[0] = first.sections[-1]
        first.sections = ()  # the image's own field, not the shared decode
        second = read_headers(read)
        expected = parse_pe(data)
        assert len(decodes) == 1 and second.nt is first.nt
        assert (second.dos, second.nt, second.sections) == (expected.dos, expected.nt,
                                                            expected.sections)

    def test_header_write_is_read_back(self, fixture_bytes, decodes):
        kernel, pid, at, read = mapped(fixture_bytes("services.exe"))
        before = read_headers(read)
        entry = before.nt.entry_point_rva + 0x10
        patch(kernel, pid, at + before.dos.e_lfanew + ENTRY_FIELD, struct.pack("<I", entry))
        after = read_headers(read)
        assert after.nt.entry_point_rva == entry != before.nt.entry_point_rva
        assert read_headers(read).nt.entry_point_rva == entry
        assert len(decodes) == 2 and before.nt.entry_point_rva == entry - 0x10

    def test_malformed_header_raises_every_time_and_is_never_kept(self, fixture_bytes,
                                                                   decodes):
        head = bytearray(mapped(fixture_bytes("services.exe"))[3](0, 0x400))
        head[struct.unpack_from("<I", head, 0x3C)[0]] ^= 0xFF  # the signature
        errors = []
        for _ in range(3):
            with pytest.raises(NotPe) as caught:
                peformat.parse_headers(bytes(head))
            errors.append(str(caught.value))
        assert len(set(errors)) == 1 and len(decodes) == 3
        assert peformat._header_memo == {}

    def test_long_block_not_kept_and_memo_bounded(self, fixture_bytes, decodes):
        head = read_headers(mapped(fixture_bytes("services.exe"))[3]).raw
        long = head + bytes(peformat.HEADER_MEMO_BLOCK + 1 - len(head))
        peformat._header_memo.clear()
        del decodes[:]
        assert peformat.parse_headers(long) == peformat.parse_headers(long)
        assert decodes == [long, long] and peformat._header_memo == {}
        at_limit = head + bytes(peformat.HEADER_MEMO_BLOCK - len(head))
        peformat.parse_headers(at_limit)
        assert list(peformat._header_memo) == [at_limit]
        image_base = struct.unpack_from("<I", head, 0x3C)[0] + 0x34
        blocks = []
        for i in range(peformat.HEADER_MEMO_ENTRIES + 6):
            block = bytearray(head)
            struct.pack_into("<I", block, image_base, 0x01000000 + i * 0x10000)
            blocks.append(bytes(block))
            assert peformat.parse_headers(block).nt.image_base == 0x01000000 + i * 0x10000
            assert len(peformat._header_memo) <= peformat.HEADER_MEMO_ENTRIES
        # The oldest go first: the block at the limit, then the first six.
        assert list(peformat._header_memo) == blocks[6:]
        del decodes[:]
        peformat.parse_headers(blocks[-1])
        peformat.parse_headers(blocks[0])
        assert decodes == [blocks[0]]


EXPORT_SIZE_FIELD = 0x80 + 24 + 96 + 8 * DIR_EXPORT + 4  # for build_pe32's e_lfanew


def edata_pe(edata: bytes, size: int | None = None, virtual_size: int | None = None) -> bytes:
    """A DLL whose export directory is ``edata`` at RVA 0x2000, ``size``
    bytes long by its data directory (all of ``edata`` by default)."""
    pe = bytearray(build_pe32(PeSpec(
        image_base=0x10000000, entry_rva=0x1000,
        sections=[SectionDef(".text", 0x1000, b"\x90" * 0x100, CODE_SECTION),
                  SectionDef(".edata", 0x2000, edata, RODATA_SECTION,
                             virtual_size=virtual_size)],
        dll=True)))
    struct.pack_into("<II", pe, EXPORT_SIZE_FIELD - 4, 0x2000,
                     len(edata) if size is None else size)
    return bytes(pe)


def inline_suffix_names_pe(n: int) -> bytes:
    """A DLL whose ``n`` export names are the suffixes of one n-byte
    ``A...A`` run inside its export directory: they total n(n+1)/2 bytes."""
    funcs_va = 0x2000 + 40
    names_va = funcs_va + 4
    ords_va = names_va + 4 * n
    run_va = ords_va + 2 * n
    return edata_pe(struct.pack("<IIHHIIIIIII", 0, 0, 0, 0, 0, 1, 1, n,
                                funcs_va, names_va, ords_va)
                    + struct.pack("<I", 0x1000)
                    + struct.pack(f"<{n}I", *range(run_va, run_va + n))
                    + bytes(2 * n) + b"A" * n + b"\x00")


class TestExportMemo:
    """``read_module`` keeps an export table by its directory's RVA,
    ``size_of_image`` and directory bytes, and only one those decide."""

    @pytest.fixture
    def decodes(self, monkeypatch):
        """A fresh memo; the keys of the export directories decoded."""
        monkeypatch.setattr(peformat, "_export_memo", {})
        return recorded_export_decodes(monkeypatch)

    def test_equal_directories_share_one_table_hashed_once(self, fixture_bytes, decodes,
                                                            monkeypatch):
        data = fixture_bytes("kernel32.dll")
        reads = [mapped(data)[3], mapped(data, parse_pe(data).nt.image_base + REBASE_BY)[3]]
        images = [read_module(read) for read in reads + reads]
        assert len(decodes) == 1 and list(peformat._export_memo) == decodes
        assert all(image.exports is images[0].exports for image in images)
        assert images[0].exports == parse_pe(data).exports
        hashed = []
        monkeypatch.setattr(peformat, "ror13_hash",
                            lambda name: (hashed.append(name), ror13_hash(name))[1])
        for image in images:
            for name, _ in image.exports.entries:
                assert find_export_by_hash(image, ror13_hash(name))[0] == name
        assert sorted(hashed) == sorted(name for name, _ in images[0].exports.entries)
        check_export_memo()

    def test_name_write_is_read_back(self, fixture_bytes, decodes):
        data = fixture_bytes("kernel32.dll")
        kernel, pid, at, read = mapped(data)
        before = read_module(read)
        assert find_export_by_hash(before, ror13_hash(b"LoadLibraryA"))[0] == b"LoadLibraryA"
        rva = export_dir_rva(data)
        span = read(rva, before.nt.directory(DIR_EXPORT)[1])
        patch(kernel, pid, at + rva + span.index(b"LoadLibraryA\x00"), b"LoadLibraryW")
        after = read_module(read)
        assert len(decodes) == 2 and after.exports is not before.exports
        assert after.exports.entries[0] == (b"LoadLibraryW", before.exports.entries[0][1])
        assert after.exports.entries[1:] == before.exports.entries[1:]
        assert find_export_by_hash(after, ror13_hash(b"LoadLibraryW")) == (
            b"LoadLibraryW", at + before.exports.entries[0][1])
        with pytest.raises(HashNotFound):
            find_export_by_hash(after, ror13_hash(b"LoadLibraryA"))
        assert read_module(read).exports is after.exports and len(decodes) == 2
        check_export_memo()

    @pytest.mark.parametrize("span", [EXPORT_DIRECTORY_SIZE, EXPORT_DIRECTORY_SIZE + 10 * 13])
    def test_table_read_outside_its_span_is_never_kept(self, fixture_bytes, decodes, span):
        # The directory's size covers only the directory, or the directory
        # and its three arrays: the arrays or the names are read apart.
        data = bytearray(fixture_bytes("kernel32.dll"))
        struct.pack_into("<I", data, EXPORT_SIZE_FIELD, span)
        read = mapped(bytes(data))[3]
        for _ in range(3):
            assert read_module(read) == read_module_oracle(read)
        assert len(decodes) == 3 and peformat._export_memo == {}

    def test_size_of_image_is_part_of_the_key(self, decodes):
        # Equal directory bytes: an export at 0x1800 is inside an image of
        # 0x3000 bytes, and outside one of 0x1800.
        edata = peformat.encode_export_table([(b"Alpha", 0x1800)], 0x2000)
        buf = bytearray(assemble_mapped(parse_pe(edata_pe(edata))))
        size_field = 0x80 + 80
        reads = []
        for size in (0x3000, 0x1800):
            struct.pack_into("<I", buf, size_field, size)
            reads.append(lambda rva, n, image=bytes(buf): image[rva:rva + n])
        assert read_module(reads[0]).exports.entries == [(b"Alpha", 0x1800)]
        with pytest.raises(NotPe, match="rva 0x1800 outside the image"):
            read_module(reads[1])
        assert len(decodes) == 2 and len(peformat._export_memo) == 1

    def test_decode_that_raises_is_never_kept(self, fixture_bytes, decodes):
        data = fixture_bytes("kernel32.dll")
        kernel, pid, at, read = mapped(data)
        rva = export_dir_rva(data)
        names_rva = struct.unpack("<I", read(rva + 32, 4))[0]
        patch(kernel, pid, at + names_rva + 4, read(names_rva, 4))  # a second LoadLibraryA
        errors = []
        for _ in range(3):
            with pytest.raises(NotPe) as caught:
                read_module(read)
            errors.append(str(caught.value))
        assert errors == ["duplicate export name b'LoadLibraryA'"] * 3
        assert len(decodes) == 3 and peformat._export_memo == {}

    @pytest.mark.parametrize("build", [suffix_names_pe, inline_suffix_names_pe])
    def test_names_longer_than_their_span_are_never_kept(self, decodes, build):
        # suffix_names_pe's run lies outside the directory; the inline
        # run inside it, so only the names' total keeps that table out.
        data = build(300)
        read = mapped(data)[3]
        for _ in range(2):
            assert read_module(read).exports == parse_pe(data).exports
        assert sum(len(name) for name, _ in parse_pe(data).exports.entries) == 300 * 301 // 2
        assert len(decodes) == 2 and peformat._export_memo == {}

    def test_directory_over_the_block_is_never_kept(self, decodes):
        edata = peformat.encode_export_table([(b"Alpha", 0x1000)], 0x2000)
        block = peformat.HEADER_MEMO_BLOCK
        for size, kept in ((block, 1), (block + 1, 0)):
            peformat._export_memo.clear()
            del decodes[:]
            read = mapped(edata_pe(edata, size, virtual_size=0x2000))[3]
            assert read_module(read).exports.entries == [(b"Alpha", 0x1000)]
            read_module(read)
            assert len(decodes) == 2 - kept and len(peformat._export_memo) == kept

    def test_memo_bounded_oldest_evicted_first(self, fixture_bytes, decodes):
        data = fixture_bytes("kernel32.dll")
        kernel, pid, at, read = mapped(data)
        stamp = at + export_dir_rva(data) + 4  # TimeDateStamp: no decoded field
        first = read_module(read).exports
        for i in range(1, peformat.HEADER_MEMO_ENTRIES + 6):
            patch(kernel, pid, stamp, struct.pack("<I", i))
            assert read_module(read).exports == first
            assert len(peformat._export_memo) <= peformat.HEADER_MEMO_ENTRIES
        assert list(peformat._export_memo) == decodes[6:]
        check_export_memo()
        del decodes[:]
        read_module(read)
        patch(kernel, pid, stamp, struct.pack("<I", 0))
        read_module(read)
        assert len(decodes) == 1

    def test_check_fails_on_a_changed_table(self, fixture_bytes, decodes):
        image = read_module(mapped(fixture_bytes("kernel32.dll"))[3])
        find_export_by_hash(image, ror13_hash(b"Sleep"))
        check_export_memo()
        check_export_memo()
        image.exports.entries.pop()
        with pytest.raises(AssertionError, match="kept export table is not its key's"):
            check_export_memo()



def boot(fixture_bytes, ntoskrnl: bytes, tamper: Driver | None = None):
    """The injector booted over ``ntoskrnl``, hal.dll not yet loaded.

    ``tamper``, if given, is registered first and sees every event first.
    """
    kernel = SimKernel()
    if tamper is not None:
        kernel.register_driver(tamper)
    duqu = DuquDriver(kernel, config_blob=fixture_bytes("duqu_config.bin"),
                      stub1=fixture_bytes("stub1.bin"), stub2=fixture_bytes("stub2.bin"),
                      mask=default_mask(), kernel_base=0x00400000)
    duqu.boot_init()
    system = kernel.create_process("System", fixture_bytes("system.bin"))
    kernel.load_module(system.pid, "ntoskrnl.exe", ntoskrnl, base=0x00400000)
    return kernel, duqu, system.pid


def lines(kernel, prefix: str) -> list[str]:
    return [t for _, t in kernel.log if t.startswith(prefix)]


class TestUnreadableDirectories:
    """A directory that runs into unmapped memory is one log line, never a traceback."""

    @pytest.mark.parametrize("what", ["directory size", "name count"])
    def test_kernel_export_directory(self, fixture_bytes, what):
        data = fixture_bytes("ntoskrnl.exe")
        kernel, duqu, pid = boot(fixture_bytes, data)
        if what == "directory size":
            addr = 0x00400000 + 0x80 + 24 + 96 + 8 * DIR_EXPORT + 4
        else:
            addr = 0x00400000 + export_dir_rva(data) + 24
        patch(kernel, pid, addr, struct.pack("<I", 0x00100000))
        kernel.load_module(pid, "hal.dll", fixture_bytes("hal.dll"))
        failed = lines(kernel, "DuquDriver: kernel function discovery failed: ")
        assert len(failed) == 1 and failed[0].endswith(" is not mapped")
        assert lines(kernel, "! fault:") == []
        assert EventKind.IMAGE_LOAD in duqu.handlers and not duqu.functions_valid

    def test_kernel32_name_array(self, fixture_bytes):
        data = fixture_bytes("kernel32.dll")
        tamper = Driver("tamper")

        def grow_name_count(_, event):
            if event.module_name == "kernel32.dll":
                patch(kernel, event.pid, event.base + export_dir_rva(data) + 24,
                      struct.pack("<I", 0x00100000))

        tamper.handlers[EventKind.IMAGE_LOAD] = grow_name_count
        kernel, duqu, pid = boot(fixture_bytes, fixture_bytes("ntoskrnl.exe"), tamper)
        kernel.load_module(pid, "hal.dll", fixture_bytes("hal.dll"))
        services = kernel.create_process("services.exe", fixture_bytes("services.exe"),
                                         base=0x01000000)
        kernel.load_module(services.pid, "kernel32.dll", data, base=0x7C800000)
        assert lines(kernel, "! fault:") == [
            "! fault: duqu: UnmappedAddress: address 0x7c802146 is not mapped"]
        assert not duqu.state.hooked


def test_unmapped_prologue_is_a_short_read(fixture_bytes):
    # The unexported target 0x00406882 lies past the 0x5c-byte .edata
    # section, in the gap the loader leaves unmapped.
    from test_duqu import kernel_image_with_train
    kernel, duqu, pid = boot(fixture_bytes, kernel_image_with_train())
    kernel.load_module(pid, "hal.dll", fixture_bytes("hal.dll"))
    assert lines(kernel, "DuquDriver: function check") == [
        "DuquDriver: function check 0x00405ddc: rejected (mask byte 0)",
        "DuquDriver: function check 0x00406882: rejected (short read)"]
    assert lines(kernel, "! fault:") == []
    assert not duqu.functions_valid
