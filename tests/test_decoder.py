"""The PE32 decoder against the step-by-step oracle it replaced.

``parse_pe``, ``parse_headers``, ``read_headers`` and ``read_module`` must
give the oracle's ``PeImage``, or raise the same exception type with the
same message, on the shipped fixtures, on every cut of their header
region, on seeded header mutants and on scan-corpus-shaped images.  A file
image is read by RVA with the result, or the error, of the oracle's
byte-at-a-time file reader.  Export names that do not end inside the
export directory are read in chunks, from a file or from memory, with the
result, or the error, of reading them byte by byte; a crafted table of N
suffix names costs time linear in its size.
"""

import random
import struct
import time
from functools import partial

import pytest

from duqusim.cli import main
from duqusim.fixtures import FIXTURE_BUILDERS, KERNEL32_BASE, KERNEL32_EXPORTS
from duqusim.pebuild import (
    CODE_SECTION,
    DATA_SECTION,
    RODATA_SECTION,
    PeSpec,
    SectionDef,
    build_pe32,
)
from duqusim.peformat import (
    DIR_BASERELOC,
    OutOfImage,
    _read_cstring,
    _read_file,
    assemble_mapped,
    find_export_by_hash,
    mapped_spans,
    parse_headers,
    parse_pe,
    read_headers,
    read_module,
    ror13_hash,
)
from duqusim.scan import scan_pe

from oracles import (
    cstring_oracle,
    dump_pe_oracle,
    file_reader_oracle,
    parse_headers_oracle,
    parse_pe_oracle,
    read_headers_oracle,
    read_module_oracle,
)
from test_fuzz import mutate_header

PE_FIXTURES = sorted(name for name, build in FIXTURE_BUILDERS.items()
                     if build()[:2] == b"MZ")
MUTANTS = 1500


class OutOfBuffer(Exception):
    pass


def buffer_reader(buf: bytes, readable=None):
    """``read(rva, n)`` over ``buf``; a byte outside it, or outside every
    ``readable`` range, raises naming the first such byte."""
    ranges = [(lo, min(hi, len(buf))) for lo, hi in readable or [(0, len(buf))]]

    def read(rva: int, n: int) -> bytes:
        p = rva
        while p < rva + n:
            end = next((hi for lo, hi in ranges if lo <= p < hi), None)
            if end is None:
                raise OutOfBuffer(f"byte {p:#x} is not readable")
            p = end
        return buf[rva:rva + n]

    return read


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def assert_decoders_agree(data: bytes, read=None) -> None:
    assert outcome(parse_pe, data) == outcome(parse_pe_oracle, data)
    assert outcome(parse_headers, data) == outcome(parse_headers_oracle, data)
    read = read or buffer_reader(data)
    assert outcome(read_headers, read) == outcome(read_headers_oracle, read)
    assert outcome(read_module, read) == outcome(read_module_oracle, read)


def scan_shaped(rng: random.Random, kib: int) -> bytes:
    """A PE32 shaped like a file of the benchmark's scan corpus."""
    size = kib * 1024
    code_va = 0x1000
    data_va = code_va + ((size + 0xFFF) & ~0xFFF)
    entry = rng.randrange(size // 4)
    return build_pe32(PeSpec(
        image_base=rng.choice((0x00400000, 0x01000000, 0x10000000)),
        entry_rva=code_va + entry,
        sections=[SectionDef(".text", code_va, rng.randbytes(size), CODE_SECTION),
                  SectionDef(".data", data_va, rng.randbytes(0x200), DATA_SECTION)],
        exports=[("ZwAllocateVirtualMemory", code_va + 0x10), ("ZwClose", code_va + 0x18)],
        export_va=data_va + 0x1000,
    ))


class TestAgainstOracle:
    @pytest.mark.parametrize("name", PE_FIXTURES)
    def test_shipped_fixture(self, fixture_bytes, name):
        data = fixture_bytes(name)
        image = parse_pe(data)
        assert image == parse_pe_oracle(data)
        assert_decoders_agree(data)
        # The module as it lies in memory: names are read through chunks.
        assert_decoders_agree(data, buffer_reader(bytes(assemble_mapped(image))))

    @pytest.mark.parametrize("fill", ["read", "spans", "by_hash"])
    def test_equality_leaves_out_what_use_fills_in(self, fixture_bytes, fill):
        # A reader, the loader layout and the hash index are set after the
        # decode, on one side only; the image still equals its oracle.
        data = fixture_bytes("kernel32.dll")
        image, oracle = parse_pe(data), parse_pe_oracle(data)
        if fill == "read":
            image.read = file_reader_oracle(image)
        elif fill == "spans":
            assert mapped_spans(image) and image.spans
        else:
            find_export_by_hash(image, ror13_hash(image.exports.entries[0][0]))
            assert image.exports.by_hash
        assert oracle.read is None and oracle.spans is None and oracle.exports.by_hash is None
        assert image == oracle and oracle == image

    @pytest.mark.parametrize("name", PE_FIXTURES)
    def test_every_cut_of_the_headers(self, fixture_bytes, name):
        data = fixture_bytes(name)
        for cut in range(parse_pe(data).headers_end + 9):
            assert_decoders_agree(data[:cut])

    def test_header_mutants(self, fixture_bytes):
        rng = random.Random("scan-header-fuzz")
        for _ in range(MUTANTS):
            assert_decoders_agree(mutate_header(rng, fixture_bytes(rng.choice(PE_FIXTURES))))

    @pytest.mark.parametrize("kib", [4, 16, 64, 256])
    def test_scan_shaped_images(self, kib):
        rng = random.Random(f"scan-shaped:{kib}")
        for _ in range(3):
            assert_decoders_agree(scan_shaped(rng, kib))

    @pytest.mark.parametrize("field, value", [
        (0x80, b"PE\x00\x01"), (0x84, b"\x64\x86"), (0x86, b"\x00\x00"),
        (0x94, b"\x4e\x00"), (0x94, b"\x80\x00"),  # optional header too short
        (0x98, b"\x0b\x02"), (0xA8, b"\xff\xff\xff\xff"), (0xD0, b"\x00\x00\x00\x7f"),
        (0xF4, b"\xff\xff\x00\x00")])
    def test_every_cut_of_headers_with_a_bad_field(self, fixture_bytes, field, value):
        # Which error wins depends on where the cut falls against the bad field.
        data = bytearray(fixture_bytes("services.exe"))
        data[field:field + len(value)] = value
        for cut in range(0x80 + 0x78 + 0x88):
            assert_decoders_agree(bytes(data[:cut]))

    def test_cut_fixed_fields_name_first_missing_field(self, fixture_bytes):
        data = fixture_bytes("services.exe")
        # The optional header ends inside the entrypoint RVA at 0x80 + 0x28.
        with pytest.raises(Exception, match=r"^dword at 0xa8 past end of buffer$"):
            parse_pe(data[:0xAA])
        # A check on a field before the cut still wins: a bad machine word.
        bad = bytearray(data[:0xAA])
        bad[0x84] = 0x64
        with pytest.raises(Exception, match=r"^machine 0x0164 is not 0x014c$"):
            parse_pe(bytes(bad))


def sparse_bytes(rng: random.Random, n: int, zero_every: int) -> bytes:
    """``n`` random bytes where about one in ``zero_every`` is NUL."""
    return bytes(0 if rng.randrange(zero_every) == 0 else rng.randrange(1, 256)
                 for _ in range(n))


def names_section_pe(names: list[bytes]) -> bytes:
    """A DLL whose export names lie one after another in a section of their
    own, outside the export directory's span."""
    names_va, edata_va = 0x2000, 0x3000
    blob = b"".join(name + b"\x00" for name in names)
    rvas = [names_va + sum(len(n) + 1 for n in names[:i]) for i in range(len(names))]
    count = len(names)
    edata = (struct.pack("<IIHHIIIIIII", 0, 0, 0, 0, 0, 1, 1, count, edata_va + 40,
                         edata_va + 44, edata_va + 44 + 4 * count)
             + struct.pack("<I", 0x1000) + struct.pack(f"<{count}I", *rvas)
             + bytes(2 * count))
    pe = bytearray(build_pe32(PeSpec(
        image_base=0x10000000, entry_rva=0x1000,
        sections=[SectionDef(".text", 0x1000, b"\x90" * 0x100, CODE_SECTION),
                  SectionDef(".names", names_va, blob, RODATA_SECTION),
                  SectionDef(".edata", edata_va, edata, RODATA_SECTION)],
        dll=True)))
    struct.pack_into("<II", pe, 0x80 + 24 + 96, edata_va, 40)  # the directory alone
    return bytes(pe)


class TestNameReads:
    def test_names_laid_end_to_end_outside_the_directory(self):
        data = names_section_pe([b"Alpha", b"Beta", b"", b"Gamma", b"mma", b"Delta"])
        image = parse_pe(data)
        assert image == parse_pe_oracle(data)
        assert [n for n, _ in image.exports.entries] == [
            b"Alpha", b"Beta", b"", b"Gamma", b"mma", b"Delta"]
        read = buffer_reader(bytes(assemble_mapped(image)))
        assert read_module(read) == read_module_oracle(read)

    @staticmethod
    def runs_image(first_va: int):
        # .a's virtual tail reads as zeros, though the file holds .b's raw
        # data there; .b is RVA-adjacent to .a; a gap lies before .c, whose
        # virtual span runs past the end of the file.  With .a at 0x600 the
        # headers region maps file bytes that are .a's and .b's raw data, and
        # runs on into .a itself.
        rng = random.Random("file-cstring")
        return parse_pe(build_pe32(PeSpec(
            image_base=0x00400000, entry_rva=first_va,
            sections=[SectionDef(".a", first_va, sparse_bytes(rng, 0x200, 40),
                                 DATA_SECTION, virtual_size=0x280),
                      SectionDef(".b", first_va + 0x280, sparse_bytes(rng, 0x200, 40),
                                 DATA_SECTION),
                      SectionDef(".c", 0x2000, sparse_bytes(rng, 0x100, 40), DATA_SECTION,
                                 virtual_size=0x200)])))

    @pytest.mark.parametrize("first_va", [0x1000, 0x600])
    def test_file_runs_match_byte_walk(self, first_va):
        image = self.runs_image(first_va)
        read = partial(_read_file, image)
        for rva in range(0x2300):
            assert outcome(_read_cstring, read, rva) == outcome(cstring_oracle, read, rva), rva

    @pytest.mark.parametrize("first_va", [0x1000, 0x600])
    def test_file_reads_match_byte_walk(self, first_va):
        # Reads cross span ends into the next section, into a zero tail,
        # into a gap and past the image; their bytes, or errors, are the
        # oracle's.
        image = self.runs_image(first_va)
        oracle = file_reader_oracle(image)
        for rva in range(0, 0x2300, 7):
            for n in (0, 1, 0x11, 0x100, 0x600):
                assert (outcome(_read_file, image, rva, n) == outcome(oracle, rva, n)), (rva, n)

    def test_sections_sharing_file_bytes_read_no_more_than_the_image(self):
        # 64 RVA-adjacent sections each map the same 64 KiB of the file, and
        # the relocation directory claims all 4 MiB of them: the read stops
        # at size_of_image instead of returning the file's bytes 64 times.
        span, count = 0x10000, 64
        pe = bytearray(build_pe32(PeSpec(
            image_base=0x01000000, entry_rva=0x1000,
            sections=[SectionDef(f".s{i}", 0x1000 + span * i, bytes(span if i == 0 else 1),
                                 DATA_SECTION, virtual_size=span) for i in range(count)],
            size_of_image=0x2000)))
        table = 0x80 + 24 + 0xE0
        shared = struct.unpack_from("<I", pe, table + 20)[0]
        for i in range(1, count):
            struct.pack_into("<II", pe, table + 40 * i + 16, span, shared)
        struct.pack_into("<II", pe, 0x80 + 24 + 96 + 8 * DIR_BASERELOC, 0x1000, span * count)
        data = bytes(pe)
        with pytest.raises(OutOfImage, match=r"^rva 0x2000 past size_of_image 0x2000$"):
            parse_pe(data)
        assert outcome(parse_pe, data) == outcome(parse_pe_oracle, data)

    def test_memory_chunks_match_byte_walk(self):
        rng = random.Random("read-cstring")
        # Names cross readable ranges, end at a hole, and run long enough for
        # the largest chunk.
        buf = sparse_bytes(rng, 0x1800, 100) + b"A" * 0x1400 + bytes(4)
        read = buffer_reader(buf, [(0x100, 0x900), (0x900, 0x1400), (0x1500, 0x1700),
                                   (0x1800, 0x2C00)])
        for rva in list(range(0, 0x1800, 5)) + list(range(0x1800, 0x2C08, 37)):
            assert outcome(_read_cstring, read, rva) == outcome(cstring_oracle, read, rva), rva


def suffix_names_pe(n: int, real: tuple[str, ...] = (), base: int = 0x10000000,
                    reverse: bool = False) -> bytes:
    """A DLL whose first ``n`` export names are the suffixes of one n-byte
    ``A...A`` run, NUL-ended in a section of its own (names array
    ``run_va + i``, ordinals 0; with ``reverse``, shortest first); then
    ``real``, in the export section."""
    run_va = 0x2000
    edata_va = run_va + ((n + 1 + 0xFFF) & ~0xFFF)
    count = n + len(real)
    funcs = [0x1000] + [0x1000 + 0x40 * (k + 1) for k in range(len(real))]
    funcs_va = edata_va + 40
    names_va = funcs_va + 4 * len(funcs)
    ords_va = names_va + 4 * count
    strings_va = ords_va + 2 * count
    names = [run_va + i for i in range(n)][::-1 if reverse else 1]
    strings = bytearray()
    for name in real:
        names.append(strings_va + len(strings))
        strings += name.encode("ascii") + b"\x00"
    edata = (struct.pack("<IIHHIIIIIII", 0, 0, 0, 0, 0, 1, len(funcs), count,
                         funcs_va, names_va, ords_va)
             + struct.pack(f"<{len(funcs)}I", *funcs) + struct.pack(f"<{count}I", *names)
             + struct.pack(f"<{count}H", *([0] * n + list(range(1, len(real) + 1))))
             + bytes(strings))
    pe = bytearray(build_pe32(PeSpec(
        image_base=base, entry_rva=0x1000,
        sections=[SectionDef(".text", 0x1000, b"\x90" * 0x400, CODE_SECTION,
                             virtual_size=0x1000),
                  SectionDef(".names", run_va, b"A" * n + b"\x00", RODATA_SECTION),
                  SectionDef(".edata", edata_va, edata, RODATA_SECTION)],
        dll=True)))
    struct.pack_into("<II", pe, 0x80 + 24 + 96, edata_va, len(edata))  # export directory
    return bytes(pe)


class TestSuffixNameTables:
    @pytest.mark.parametrize("reverse", [False, True])
    def test_small_table_matches_byte_walk(self, reverse):
        data = suffix_names_pe(300, reverse=reverse)
        image = parse_pe(data)
        assert image == parse_pe_oracle(data)
        assert [name for name, _ in image.exports.entries] == [
            b"A" * (300 - i) for i in range(300)][::-1 if reverse else 1]
        read = buffer_reader(bytes(assemble_mapped(image)),
                             [(0, 0x2000 + 301), (0x3000, image.nt.size_of_image)])
        assert read_module(read) == read_module_oracle(read)

    def test_scan_of_8000_names_is_fast(self, tmp_path, capsys):
        data = suffix_names_pe(8000)
        (tmp_path / "names.dll").write_bytes(data)
        started = time.perf_counter()
        assert main(["scan", str(tmp_path / "names.dll")]) == 0
        assert time.perf_counter() - started < 1.0
        assert capsys.readouterr().out.endswith("names.dll: clean\n")
        assert parse_pe(data).exports.entries == dump_pe_oracle(data)["exports"]
        assert scan_pe(data).clean

    def test_2000_name_kernel32_runs_fast(self, tmp_path, capsys, monkeypatch):
        from duqusim.fixtures import write_fixture_set
        from invariants import recording_runs

        write_fixture_set(tmp_path)
        data = suffix_names_pe(2000, KERNEL32_EXPORTS, base=KERNEL32_BASE)
        (tmp_path / "kernel32.dll").write_bytes(data)
        runs = recording_runs(monkeypatch)
        started = time.perf_counter()
        assert main(["run", str(tmp_path / "duqu_unopposed.scenario")]) == 0
        assert time.perf_counter() - started < 1.0
        assert "resolved 10 kernel32 imports by hash" in capsys.readouterr().out
        # The injector read the mapped module's exports; they are the file's.
        [result] = runs
        kernel = result.kernel
        pid, _, at = kernel.find_module(("kernel32.dll",))
        image = read_module(kernel.image_reader(pid, at))
        assert image.exports.entries == dump_pe_oracle(data)["exports"]
        assert image.exports.entries == parse_pe(data).exports.entries
