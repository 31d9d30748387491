"""The reader of modules mapped in simulated memory (``read_headers`` and
``read_module``) against ``parse_pe`` of the same file bytes, and the
injector's use of it on modules whose directories cannot be read."""

import itertools
import re
import struct

import pytest

from duqusim.duqu import DuquDriver, default_mask
from duqusim.fixtures import FIXTURE_BUILDERS
from duqusim.pebuild import CODE_SECTION, PeSpec, SectionDef, build_pe32
from duqusim.peformat import (
    DIR_EXPORT,
    AmbiguousHash,
    NotPe,
    find_export_by_hash,
    find_export_by_name,
    parse_pe,
    read_headers,
    read_module,
    ror13_hash,
    section_data,
)
from duqusim.simkernel import PERM_RW, Driver, EventKind, SimKernel

PE_FIXTURES = sorted(name for name, build in FIXTURE_BUILDERS.items()
                     if build()[:2] == b"MZ")
# Each PE fixture at its preferred base, and each relocatable one rebased.
CASES = [(name, False) for name in PE_FIXTURES] + [
    (name, True) for name in PE_FIXTURES
    if parse_pe(FIXTURE_BUILDERS[name]()).relocations]
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
        data = fixture_bytes(name)
        expected = parse_pe(data)
        base = expected.nt.image_base + REBASE_BY if rebase else None
        kernel, pid, at, read = mapped(data, base)
        assert at == expected.nt.image_base + (REBASE_BY if rebase else 0)
        return expected, kernel, pid, at, read

    def test_headers_directories_and_sections(self, fixture_bytes, name, rebase):
        expected, _, _, _, read = self.load(fixture_bytes, name, rebase)
        image = read_module(read)
        assert image.dos == expected.dos
        assert image.nt == expected.nt
        assert image.sections == expected.sections
        assert image.exports == expected.exports
        assert image.relocations == expected.relocations
        assert image.layout == "mapped"
        table_end = (expected.dos.e_lfanew + 24 + 0xE0
                     + 40 * expected.nt.number_of_sections)
        assert image.raw == fixture_bytes(name)[:table_end]

    def test_header_reader_decodes_no_directory(self, fixture_bytes, name, rebase):
        expected, _, _, _, read = self.load(fixture_bytes, name, rebase)
        image = read_headers(read)
        assert (image.nt, image.sections) == (expected.nt, expected.sections)
        assert image.exports is None and image.relocations == []

    def test_executable_sections_read_as_mapped(self, fixture_bytes, name, rebase):
        expected, kernel, pid, at, read = self.load(fixture_bytes, name, rebase)
        image = read_module(read)
        loaded = kernel.read_image(pid, at)
        size = expected.nt.size_of_image
        for section in image.sections:
            if section.executable:
                lo = section.virtual_address
                span = min(section.virtual_span, size - lo)
                assert section_data(image, section) == loaded[lo:lo + span]


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
        assert duqu.initialized and not duqu.functions_valid

    def test_kernel32_name_array(self, fixture_bytes):
        data = fixture_bytes("kernel32.dll")
        tamper = Driver("tamper")

        def grow_name_count(event):
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
