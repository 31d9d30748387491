"""PE32 parser/emitter for the injection pipeline.

Implements the 32-bit subset the pipeline actually touches: machine 0x014C,
optional-header magic 0x010B, export directory (index 0) and base-relocation
directory (index 5), HIGHLOW fixups only.  Everything is plain ``struct``
over byte buffers; there is no global state, so every function here is safe
to call concurrently.  The injector, the kernel and the scanner share its
entrypoint-hook and call / push 104h / call codecs.

An image comes from one of two places:

* file bytes - :func:`parse_pe` decodes a whole on-disk image; RVAs
  translate to file offsets through the section table.
* a module mapped in memory - :func:`read_headers` and :func:`read_module`
  decode it through a ``read(rva, n)`` callable, reading only the
  headers, the directories and, on demand, the executable sections.

Both decode the export and relocation directories with the same code,
through a ``read(rva, n)`` that returns exactly ``n`` bytes or raises.

A file image's loader layout is a list of :class:`MapSpan`, built once per
image by :func:`mapped_spans`: the headers and each mapped section, with
its RVA, mapped span, file offset and the number of file bytes it holds.
It holds ints and sections only, never bytes; :func:`assemble_mapped`
and the kernel's loader copy from the file through it.  A rebase is
relocated by :func:`relocate_pieces`, in place, over the loader's
regions; :func:`apply_relocations` is the same relocator over one buffer.

The signature test is intentionally computed through the XOR pair
(0xF750F284, 0xF750B7D4) rather than against 'PE\\0\\0' directly; the two
constants combine to 0x00004550 and the parser must preserve that shape.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Callable, NamedTuple

MZ_MAGIC = 0x5A4D
PE_SIGNATURE = 0x00004550
MACHINE_I386 = 0x014C
PE32_MAGIC = 0x010B

# Obfuscated signature compare: (sig ^ SIG_XOR_KEY) == SIG_XOR_EXPECT
SIG_XOR_KEY = 0xF750F284
SIG_XOR_EXPECT = 0xF750B7D4

E_LFANEW_OFFSET = 60
FILE_HEADER_SIZE = 20
OPTIONAL_HEADER_SIZE = 0xE0
SECTION_HEADER_SIZE = 40
EXPORT_DIRECTORY_SIZE = 40

DIR_EXPORT = 0
DIR_BASERELOC = 5

RELOC_ABS = 0      # padding entry, skipped
RELOC_HIGHLOW = 3  # 32-bit absolute fixup

SCN_CNT_CODE = 0x00000020
SCN_CNT_INITIALIZED_DATA = 0x00000040
SCN_MEM_READ = 0x40000000
SCN_MEM_WRITE = 0x80000000
SCN_MEM_EXECUTE = 0x20000000

CALL_OPCODE = 0xE8
PUSH_104H = bytes([0x68, 0x04, 0x01, 0x00, 0x00])
DEFAULT_SCAN_WINDOW = 64
HOOK_LEN = 7  # mov eax, imm32 / call eax
# Largest size_of_image parsed: mapping an image allocates that many bytes.
MAX_IMAGE_SIZE = 0x04000000

_M32 = 0xFFFFFFFF
_U32 = struct.Struct("<I")

# read(rva, n): exactly n bytes of an image starting at rva, or an exception.
Reader = Callable[[int, int], bytes]


class PeError(Exception):
    """Base class for every PE32 parse/emit failure."""


class NotMz(PeError):
    """Buffer does not start with 'MZ'."""


class NotPe(PeError):
    """Signature check failed or the image is outside the accepted subset."""


class Truncated(PeError):
    """A header or table extends past the end of the buffer."""


class Unencodable(PeError):
    """A field does not fit its on-disk width (or the image is malformed)."""


class OutOfImage(PeError):
    """RVA falls in no section and not in the headers region."""


class BadShape(PeError):
    """Buffer is not shaped like a stripped PE32 (e_lfanew out of range)."""


class FixupOutOfRange(PeError):
    """A relocation fixup points outside the buffer."""


class NoExportTable(PeError):
    """Image has no export directory."""


class NameNotFound(PeError):
    """No export with the requested name."""


class HashNotFound(PeError):
    """No export whose hashed name matches."""


class AmbiguousHash(PeError):
    """Two exports hash to the same value; the fixture is unusable."""


class NotNearCall(PeError):
    """Byte sequence is not a 5-byte near call."""


class PatternNotFound(Exception):
    """No call / push 104h / call train is anchored at the export."""


@dataclass
class DosHeader:
    e_magic: int
    e_lfanew: int


@dataclass
class NtHeaders:
    signature: int
    machine: int
    number_of_sections: int
    optional_magic: int
    entry_point_rva: int
    image_base: int
    size_of_image: int
    data_directories: list[tuple[int, int]] = field(default_factory=list)

    def directory(self, index: int) -> tuple[int, int]:
        if index < len(self.data_directories):
            return self.data_directories[index]
        return (0, 0)


@dataclass
class Section:
    name: str
    virtual_address: int
    virtual_size: int
    raw_offset: int
    raw_size: int
    characteristics: int

    @property
    def virtual_span(self) -> int:
        return self.virtual_size or self.raw_size

    @property
    def executable(self) -> bool:
        return bool(self.characteristics & SCN_MEM_EXECUTE)


@dataclass
class ExportTable:
    entries: list[tuple[bytes, int]] = field(default_factory=list)
    # ror13 hash -> the entries with that hash; built by the first hash lookup.
    by_hash: dict[int, list[tuple[bytes, int]]] | None = field(
        default=None, init=False, repr=False, compare=False)


@dataclass
class RelocationBlock:
    page_rva: int
    fixups: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class PeImage:
    dos: DosHeader
    nt: NtHeaders
    sections: list[Section]
    exports: ExportTable | None
    relocations: list[RelocationBlock]
    raw: bytes  # the whole file, or only the headers of a mapped module
    layout: str = "file"
    # A mapped module's read(rva, n); section bytes are read through it.
    read: Reader | None = field(default=None, repr=False, compare=False)
    # Offset just past the section table: where the headers end.
    headers_end: int = 0
    # A file image's loader layout; built by the first mapped_spans call.
    spans: list[MapSpan] | None = field(default=None, init=False, repr=False,
                                        compare=False)


class MapSpan(NamedTuple):
    """Where a loader puts one part of a file image.

    ``span`` bytes are mapped at ``rva``: the first ``copy`` come from the
    file at ``offset``, the rest are zero.  ``section`` is None for the
    headers.
    """
    rva: int
    span: int
    offset: int
    copy: int
    section: Section | None


def _u16(data: bytes, off: int) -> int:
    if off + 2 > len(data):
        raise Truncated(f"word at {off:#x} past end of buffer")
    return struct.unpack_from("<H", data, off)[0]


def _u32(data: bytes, off: int) -> int:
    if off + 4 > len(data):
        raise Truncated(f"dword at {off:#x} past end of buffer")
    return struct.unpack_from("<I", data, off)[0]


def ror13_hash(data: bytes) -> int:
    """Rotate-right-13 additive hash over a byte sequence.

    Starts at zero; per byte the accumulator is rotated right 13 bits and
    the byte value added modulo 2^32.  This is the name-hashing scheme the
    export resolver and the integrity monitor share.
    """
    acc = 0
    for b in data:
        acc = ((acc >> 13) | (acc << 19)) & _M32
        acc = (acc + b) & _M32
    return acc


def resolve_near_call(call_site: int, data: bytes) -> int:
    """Target of an E8 rel32 near call located at ``call_site``."""
    if len(data) != 5 or data[0] != 0xE8:
        raise NotNearCall(f"not a near call at {call_site:#010x}")
    rel = struct.unpack("<i", data[1:5])[0]
    return (call_site + 5 + rel) & _M32


def encode_near_call(call_site: int, target: int) -> bytes:
    """Inverse of :func:`resolve_near_call`; used by fixture builders."""
    rel = (target - call_site - 5) & _M32
    return b"\xE8" + struct.pack("<I", rel)


def encode_entry_hook(target: int) -> bytes:
    """The ``mov eax, target / call eax`` bytes written over an entrypoint."""
    return b"\xB8" + struct.pack("<I", target) + b"\xFF\xD0"


def decode_entry_hook(head: bytes) -> int | None:
    """Target of the entrypoint hook in ``head``, or None if it is not one."""
    if len(head) != HOOK_LEN or head[0] != 0xB8 or head[5:] != b"\xFF\xD0":
        return None
    return struct.unpack_from("<I", head, 1)[0]


def _parse_dos(data: bytes) -> DosHeader:
    if len(data) < 2 or _u16(data, 0) != MZ_MAGIC:
        raise NotMz("no 'MZ' at offset 0")
    e_lfanew = _u32(data, E_LFANEW_OFFSET)
    if e_lfanew < 64:
        raise NotPe(f"e_lfanew {e_lfanew:#x} overlaps the DOS header")
    return DosHeader(e_magic=MZ_MAGIC, e_lfanew=e_lfanew)


def _parse_nt(data: bytes, e_lfanew: int) -> tuple[NtHeaders, int]:
    """Returns the parsed headers and the file offset of the section table."""
    signature = _u32(data, e_lfanew)
    if (signature ^ SIG_XOR_KEY) != SIG_XOR_EXPECT:
        raise NotPe(f"signature {signature:#010x} fails the obfuscated check")
    fh = e_lfanew + 4
    machine = _u16(data, fh)
    number_of_sections = _u16(data, fh + 2)
    size_of_optional = _u16(data, fh + 16)
    if machine != MACHINE_I386:
        raise NotPe(f"machine {machine:#06x} is not 0x014c")
    if number_of_sections < 1:
        raise NotPe("image has no sections")
    oh = fh + FILE_HEADER_SIZE
    optional_magic = _u16(data, oh)
    if optional_magic != PE32_MAGIC:
        raise NotPe(f"optional magic {optional_magic:#06x} is not PE32")
    entry_point_rva = _u32(data, oh + 16)
    image_base = _u32(data, oh + 28)
    size_of_image = _u32(data, oh + 56)
    if entry_point_rva >= size_of_image:
        raise NotPe("entry point RVA outside the image")
    if size_of_image > MAX_IMAGE_SIZE:
        raise NotPe(f"size_of_image {size_of_image:#x} above {MAX_IMAGE_SIZE:#x}")
    dir_count = min(_u32(data, oh + 92), 16)
    table = oh + 96
    if table + 8 * dir_count > len(data):
        first_short = table + 4 * ((len(data) - table) // 4)
        raise Truncated(f"dword at {first_short:#x} past end of buffer")
    flat = struct.unpack_from(f"<{2 * dir_count}I", data, table)
    dirs = list(zip(flat[::2], flat[1::2]))
    nt = NtHeaders(
        signature=signature,
        machine=machine,
        number_of_sections=number_of_sections,
        optional_magic=optional_magic,
        entry_point_rva=entry_point_rva,
        image_base=image_base,
        size_of_image=size_of_image,
        data_directories=dirs,
    )
    return nt, oh + size_of_optional


def _parse_sections(data: bytes, table_off: int, count: int) -> list[Section]:
    sections = []
    for i in range(count):
        off = table_off + i * SECTION_HEADER_SIZE
        if off + SECTION_HEADER_SIZE > len(data):
            raise Truncated("section table past end of buffer")
        raw_name = data[off:off + 8]
        (vsize, va, rsize, roff) = struct.unpack_from("<IIII", data, off + 8)
        characteristics = struct.unpack_from("<I", data, off + 36)[0]
        sections.append(Section(
            name=raw_name.rstrip(b"\x00").decode("latin-1"),
            virtual_address=va,
            virtual_size=vsize,
            raw_offset=roff,
            raw_size=rsize,
            characteristics=characteristics,
        ))
    spans = sorted((s.virtual_address, s.virtual_address + s.virtual_span) for s in sections)
    for (lo1, hi1), (lo2, _) in zip(spans, spans[1:]):
        if lo2 < hi1:
            raise NotPe("section RVA ranges overlap")
    return sections


def rva_to_offset(image: PeImage, rva: int) -> int:
    """Map an RVA to an offset in a file image's bytes.

    The headers region (below the first section RVA) maps identically.
    """
    first_va = min(s.virtual_address for s in image.sections)
    if rva < first_va:
        return rva
    for s in image.sections:
        if s.virtual_address <= rva < s.virtual_address + s.virtual_span:
            return s.raw_offset + (rva - s.virtual_address)
    raise OutOfImage(f"rva {rva:#x} in no section")


def _read_file(image: PeImage, rva: int, n: int) -> bytes:
    """The :data:`Reader` of a file image: ``n`` bytes from ``rva``'s offset on."""
    off = rva_to_offset(image, rva)
    if off + n > len(image.raw):
        raise Truncated(f"{n:#x} bytes at rva {rva:#x} past end of buffer")
    return image.raw[off:off + n]


def _parse_exports(read: Reader, nt: NtHeaders) -> ExportTable | None:
    rva, size = nt.directory(DIR_EXPORT)
    if rva == 0 or size == 0:
        return None
    # One read of the directory's span; in the canonical layout it also
    # holds the three arrays and every name.
    span = read(rva, max(size, EXPORT_DIRECTORY_SIZE))

    def at(field_rva: int, n: int) -> bytes:
        lo = field_rva - rva
        if 0 <= lo <= len(span) - n:
            return span[lo:lo + n]
        return read(field_rva, n) if n else b""

    def cstring(name_rva: int) -> bytes:
        lo = name_rva - rva
        end = span.find(b"\x00", lo) if 0 <= lo < len(span) else -1
        if end != -1:
            return span[lo:end]
        name = bytearray()
        while (byte := read(name_rva + len(name), 1)) != b"\x00":
            name += byte
        return bytes(name)

    n_names, functions_rva, names_rva, ordinals_rva = struct.unpack_from("<4I", span, 24)
    name_rvas = struct.unpack(f"<{n_names}I", at(names_rva, 4 * n_names))
    ordinals = struct.unpack(f"<{n_names}H", at(ordinals_rva, 2 * n_names))
    entries: list[tuple[bytes, int]] = []
    seen: set[bytes] = set()
    for name_rva, ordinal in zip(name_rvas, ordinals):
        func_rva = struct.unpack("<I", at(functions_rva + 4 * ordinal, 4))[0]
        name = cstring(name_rva)
        if name in seen:
            raise NotPe(f"duplicate export name {name!r}")
        if func_rva >= nt.size_of_image:
            raise NotPe(f"export {name!r} rva {func_rva:#x} outside the image")
        seen.add(name)
        entries.append((name, func_rva))
    return ExportTable(entries=entries)


def _parse_relocations(read: Reader, nt: NtHeaders) -> list[RelocationBlock]:
    rva, size = nt.directory(DIR_BASERELOC)
    if rva == 0 or size == 0:
        return []
    data = read(rva, size)
    blocks = []
    off = 0
    # A tail too short for a block header ends the directory.
    while off + 8 <= size:
        page_rva, block_size = struct.unpack_from("<II", data, off)
        if block_size == 0:
            break
        if block_size < 8 or block_size % 2 or off + block_size > size:
            raise NotPe(f"malformed relocation block at rva {rva + off:#x}")
        if page_rva & 0xFFF:
            raise NotPe(f"relocation page {page_rva:#x} not 4KiB-aligned")
        fixups = []
        for word in struct.unpack_from(f"<{(block_size - 8) // 2}H", data, off + 8):
            ftype, foffset = word >> 12, word & 0xFFF
            if ftype not in (RELOC_ABS, RELOC_HIGHLOW):
                raise NotPe(f"unsupported relocation type {ftype}")
            fixups.append((ftype, foffset))
        blocks.append(RelocationBlock(page_rva=page_rva, fixups=fixups))
        off += block_size
    return blocks


def _decode_headers(data: bytes, layout: str) -> PeImage:
    dos = _parse_dos(data)
    nt, table_off = _parse_nt(data, dos.e_lfanew)
    sections = _parse_sections(data, table_off, nt.number_of_sections)
    return PeImage(dos=dos, nt=nt, sections=sections, exports=None,
                   relocations=[], raw=bytes(data), layout=layout,
                   headers_end=table_off + SECTION_HEADER_SIZE * len(sections))


def parse_pe(data: bytes) -> PeImage:
    """Parse PE32 file bytes into a :class:`PeImage`.

    Section raw data is validated against the buffer; the directories are
    read through the section table.
    """
    image = _decode_headers(data, "file")
    for s in image.sections:
        if s.raw_offset + s.raw_size > len(data):
            raise Truncated(f"section {s.name!r} raw data past end of buffer")
    read = partial(_read_file, image)
    image.exports = _parse_exports(read, image.nt)
    image.relocations = _parse_relocations(read, image.nt)
    return image


def parse_headers(data: bytes) -> PeImage:
    """Parse only DOS/NT headers and the section table.

    Intended for header bytes read out of a mapped module where the rest
    of the image is not at hand.  Directories are left undecoded and the
    result uses the mapped layout.
    """
    return _decode_headers(data, "mapped")


def read_headers(read: Reader) -> PeImage:
    """Headers and section table of a module mapped in memory.

    Reads the DOS header, then exactly the NT headers and the section
    table, each through ``read(rva, n)``, and decodes them with
    :func:`parse_headers`.  The image keeps ``read`` for
    :func:`section_data`; its ``raw`` is the header bytes.
    """
    head = read(0, E_LFANEW_OFFSET + 4)
    fh = _parse_dos(head).e_lfanew + 4
    head += read(len(head), fh + FILE_HEADER_SIZE - len(head))
    head += read(len(head), _u16(head, fh + 16)
                 + SECTION_HEADER_SIZE * _u16(head, fh + 2))
    image = parse_headers(head)
    image.read = read
    return image


def read_module(read: Reader) -> PeImage:
    """:func:`read_headers` plus the export and relocation directories.

    Each directory is read where it lives, with the same checks
    :func:`parse_pe` makes on file bytes.
    """
    image = read_headers(read)
    image.exports = _parse_exports(read, image.nt)
    image.relocations = _parse_relocations(read, image.nt)
    return image


def encode_export_table(entries: list[tuple[bytes, int]], table_rva: int) -> bytes:
    """Serialize an export directory in the canonical layout.

    Directory, then function RVAs, name-pointer RVAs, ordinals, then the
    NUL-terminated name strings.  Shared by the emitter and the fixture
    builder so round trips stay byte-exact.
    """
    n = len(entries)
    funcs_rva = table_rva + EXPORT_DIRECTORY_SIZE
    names_rva = funcs_rva + 4 * n
    ords_rva = names_rva + 4 * n
    strings_rva = ords_rva + 2 * n
    header = struct.pack("<IIHHIIIIIII", 0, 0, 0, 0, 0, 1, n, n,
                         funcs_rva, names_rva, ords_rva)
    funcs = b"".join(struct.pack("<I", rva) for _, rva in entries)
    str_rvas = []
    strings = bytearray()
    for name, _ in entries:
        str_rvas.append(strings_rva + len(strings))
        strings += bytes(name) + b"\x00"
    names = b"".join(struct.pack("<I", r) for r in str_rvas)
    ords = b"".join(struct.pack("<H", i) for i in range(n))
    return header + funcs + names + ords + bytes(strings)


def encode_relocations(blocks: list[RelocationBlock]) -> bytes:
    out = bytearray()
    for block in blocks:
        for ftype, foffset in block.fixups:
            if ftype not in (RELOC_ABS, RELOC_HIGHLOW):
                raise Unencodable(f"relocation type {ftype} unsupported")
            if foffset >= 4096:
                raise Unencodable(f"fixup offset {foffset:#x} exceeds 12 bits")
        out += struct.pack("<II", block.page_rva, 8 + 2 * len(block.fixups))
        for ftype, foffset in block.fixups:
            out += struct.pack("<H", (ftype << 12) | foffset)
    return bytes(out)


def _check_width(value: int, bits: int, what: str) -> int:
    if not 0 <= value < (1 << bits):
        raise Unencodable(f"{what} {value:#x} exceeds {bits} bits")
    return value


def emit_pe(image: PeImage) -> bytes:
    """Re-serialize a (possibly field-edited) image over its backing buffer.

    Re-emitting an unmodified image reproduces the original bytes exactly.
    """
    if image.layout != "file":
        raise Unencodable("only file-layout images can be emitted")
    if not image.sections:
        raise Unencodable("image must carry at least one section")
    if len(image.sections) != image.nt.number_of_sections:
        raise Unencodable("section list does not match number_of_sections")
    buf = bytearray(image.raw)
    e_lfanew = _check_width(image.dos.e_lfanew, 32, "e_lfanew")
    if e_lfanew < 64 or e_lfanew + 24 + OPTIONAL_HEADER_SIZE > len(buf):
        raise Unencodable("e_lfanew out of range for the backing buffer")
    struct.pack_into("<H", buf, 0, _check_width(image.dos.e_magic, 16, "e_magic"))
    struct.pack_into("<I", buf, E_LFANEW_OFFSET, e_lfanew)
    struct.pack_into("<I", buf, e_lfanew, _check_width(image.nt.signature, 32, "signature"))
    fh = e_lfanew + 4
    struct.pack_into("<H", buf, fh, _check_width(image.nt.machine, 16, "machine"))
    struct.pack_into("<H", buf, fh + 2, _check_width(image.nt.number_of_sections, 16, "section count"))
    size_of_optional = _u16(image.raw, fh + 16)
    oh = fh + FILE_HEADER_SIZE
    struct.pack_into("<H", buf, oh, _check_width(image.nt.optional_magic, 16, "optional magic"))
    struct.pack_into("<I", buf, oh + 16, _check_width(image.nt.entry_point_rva, 32, "entry point"))
    struct.pack_into("<I", buf, oh + 28, _check_width(image.nt.image_base, 32, "image base"))
    struct.pack_into("<I", buf, oh + 56, _check_width(image.nt.size_of_image, 32, "size_of_image"))
    for i, (rva, size) in enumerate(image.nt.data_directories[:16]):
        struct.pack_into("<II", buf, oh + 96 + 8 * i,
                         _check_width(rva, 32, "directory rva"),
                         _check_width(size, 32, "directory size"))
    table_off = oh + size_of_optional
    if table_off + SECTION_HEADER_SIZE * len(image.sections) > len(buf):
        raise Unencodable("section table does not fit the backing buffer")
    for i, s in enumerate(image.sections):
        off = table_off + i * SECTION_HEADER_SIZE
        raw_name = s.name.encode("latin-1")
        if len(raw_name) > 8:
            raise Unencodable(f"section name {s.name!r} longer than 8 bytes")
        buf[off:off + 8] = raw_name.ljust(8, b"\x00")
        struct.pack_into("<IIII", buf, off + 8,
                         _check_width(s.virtual_size, 32, "virtual size"),
                         _check_width(s.virtual_address, 32, "virtual address"),
                         _check_width(s.raw_size, 32, "raw size"),
                         _check_width(s.raw_offset, 32, "raw offset"))
        struct.pack_into("<I", buf, off + 36, _check_width(s.characteristics, 32, "characteristics"))
    if image.exports is not None:
        rva, size = image.nt.directory(DIR_EXPORT)
        if rva:
            encoded = encode_export_table(image.exports.entries, rva)
            if len(encoded) > size:
                raise Unencodable("export table exceeds its directory span")
            off = rva_to_offset(image, rva)
            buf[off:off + size] = encoded.ljust(size, b"\x00")
    if image.relocations:
        rva, size = image.nt.directory(DIR_BASERELOC)
        if not rva:
            raise Unencodable("relocation blocks present but no directory entry")
        encoded = encode_relocations(image.relocations)
        if len(encoded) > size:
            raise Unencodable("relocation blocks exceed their directory span")
        off = rva_to_offset(image, rva)
        buf[off:off + size] = encoded.ljust(size, b"\x00")
    return bytes(buf)


def strip_headers(image: PeImage | bytes) -> bytes:
    """Zero the four identifying constants of a valid PE32 file image.

    Takes the image :func:`parse_pe` returned, or file bytes to parse.
    Returns a copy of the file with 'MZ', the NT signature, the machine
    word and the optional-header magic all zeroed; it no longer parses.
    """
    if not isinstance(image, PeImage):
        image = parse_pe(image)
    lf = image.dos.e_lfanew
    buf = bytearray(image.raw)
    buf[0:2] = b"\x00\x00"
    buf[lf:lf + 4] = b"\x00\x00\x00\x00"
    buf[lf + 4:lf + 6] = b"\x00\x00"
    buf[lf + 24:lf + 26] = b"\x00\x00"
    return bytes(buf)


def restore_headers(data: bytes) -> bytes:
    """Rewrite the four constants zeroed by :func:`strip_headers`."""
    if len(data) < 64:
        raise BadShape("buffer shorter than a DOS header")
    lf = struct.unpack_from("<I", data, E_LFANEW_OFFSET)[0]
    if lf < 64 or lf + 26 > len(data):
        raise BadShape(f"e_lfanew {lf:#x} out of range")
    buf = bytearray(data)
    struct.pack_into("<H", buf, 0, MZ_MAGIC)
    struct.pack_into("<I", buf, lf, PE_SIGNATURE)
    struct.pack_into("<H", buf, lf + 4, MACHINE_I386)
    struct.pack_into("<H", buf, lf + 24, PE32_MAGIC)
    return bytes(buf)


def relocate_pieces(pieces: list[tuple[int, bytearray]], size: int, mapped_base: int,
                    preferred_base: int, blocks: list[RelocationBlock]) -> None:
    """Apply HIGHLOW fixups, in place, to a mapped layout held in pieces.

    ``pieces`` are ``(rva, bytearray)`` pairs sorted by RVA and disjoint,
    inside a ``size``-byte layout whose other bytes read as zero.  Each
    fixup's 32-bit little-endian target is incremented by
    ``mapped_base - preferred_base`` modulo 2^32; padding fixups are
    skipped.  A fixup inside one piece is patched there.  One that crosses
    a piece's end or lies in a gap goes byte by byte; the bytes it writes
    into gaps are kept until the last fixup and then dropped, so every
    piece ends bit-exact with relocating one ``size`` buffer.  A fixup past
    ``size`` raises :class:`FixupOutOfRange`, possibly after earlier fixups
    were applied.
    """
    delta = (mapped_base - preferred_base) & _M32
    if delta == 0:
        return
    starts = [rva for rva, _ in pieces]
    gaps: defaultdict[int, int] = defaultdict(int)  # gap bytes, zero until written
    for block in blocks:
        for ftype, foffset in block.fixups:
            if ftype == RELOC_ABS:
                continue
            if ftype != RELOC_HIGHLOW:
                raise FixupOutOfRange(f"unsupported fixup type {ftype}")
            pos = block.page_rva + foffset
            if pos + 4 > size:
                raise FixupOutOfRange(f"fixup at rva {pos:#x} past end of buffer")
            i = bisect_right(starts, pos) - 1
            if i >= 0:
                rva, buf = pieces[i]
                at = pos - rva
                if at + 4 <= len(buf):
                    _U32.pack_into(buf, at, (_U32.unpack_from(buf, at)[0] + delta) & _M32)
                    continue
            # It crosses a piece's end or lies in a gap: byte by byte.
            cells = []
            for p in range(pos, pos + 4):
                i = bisect_right(starts, p) - 1
                inside = i >= 0 and p - starts[i] < len(pieces[i][1])
                cells.append((pieces[i][1], p - starts[i]) if inside else (gaps, p))
            value = sum(store[key] << 8 * k for k, (store, key) in enumerate(cells))
            value = (value + delta) & _M32
            for k, (store, key) in enumerate(cells):
                store[key] = (value >> 8 * k) & 0xFF


def apply_relocations(data: bytes, mapped_base: int, preferred_base: int,
                      blocks: list[RelocationBlock]) -> bytes:
    """Apply HIGHLOW fixups to a mapped-layout buffer.

    :func:`relocate_pieces` over one piece, the whole buffer.  Returns the
    relocated copy; ``data`` is not changed.
    """
    buf = bytearray(data)
    relocate_pieces([(0, buf)], len(buf), mapped_base, preferred_base, blocks)
    return bytes(buf)


def find_export_by_name(image: PeImage, name: bytes | str) -> int:
    """Virtual address (image_base + rva) of a named export."""
    if image.exports is None:
        raise NoExportTable("image has no export directory")
    wanted = name.encode("ascii") if isinstance(name, str) else bytes(name)
    for ename, rva in image.exports.entries:
        if ename == wanted:
            return image.nt.image_base + rva
    raise NameNotFound(f"export {wanted!r} not found")


def find_export_by_hash(image: PeImage, name_hash: int) -> tuple[bytes, int]:
    """Unique export whose ror13-hashed name equals ``name_hash``.

    Returns ``(name, virtual address)``.  A collision between two exports
    signals a bad fixture and is reported rather than silently resolved.
    Each name is hashed once per image, on the first lookup.
    """
    exports = image.exports
    if exports is None:
        raise NoExportTable("image has no export directory")
    if exports.by_hash is None:
        exports.by_hash = {}
        for entry in exports.entries:
            exports.by_hash.setdefault(ror13_hash(entry[0]), []).append(entry)
    matches = exports.by_hash.get(name_hash, [])
    if not matches:
        raise HashNotFound(f"no export hashes to {name_hash:#010x}")
    if len(matches) > 1:
        names = b", ".join(m[0] for m in matches).decode("latin-1")
        raise AmbiguousHash(f"{name_hash:#010x} matches multiple exports: {names}")
    ename, rva = matches[0]
    return ename, image.nt.image_base + rva


def section_data(image: PeImage, section: Section) -> bytes:
    """A section's raw data in a file, or its mapped span read from memory."""
    if image.read is not None:
        lo = section.virtual_address
        return image.read(lo, max(0, min(section.virtual_span,
                                         image.nt.size_of_image - lo)))
    return image.raw[section.raw_offset:section.raw_offset + section.raw_size]


def mapped_spans(image: PeImage) -> list[MapSpan]:
    """Where a loader puts each part of a file image; built once per image.

    First the headers: file offset 0 mapped at RVA 0 up to the first
    section's RVA.  Then, in RVA order, each section with a mapped span:
    its virtual span cut at ``size_of_image``, holding at most that many
    of its raw bytes.  Every span is clipped to the image, so the spans
    are sorted, disjoint and inside ``size_of_image``.  The list holds no
    bytes.
    """
    if image.spans is None:
        size = image.nt.size_of_image
        head = min(min(s.virtual_address for s in image.sections), size)
        spans = [MapSpan(0, head, 0, min(head, len(image.raw)), None)]
        for s in image.sections:
            span = min(s.virtual_span, size - s.virtual_address)
            if span > 0:
                spans.append(MapSpan(s.virtual_address, span, s.raw_offset,
                                     min(s.raw_size, span), s))
        spans.sort(key=attrgetter("rva"))
        image.spans = spans
    return image.spans


def assemble_mapped(image: PeImage) -> bytearray:
    """Lay a file-layout image out the way a loader would.

    Each of :func:`mapped_spans` lands at its RVA; gaps and virtual tails
    are zero.  The result is size_of_image long.
    """
    buf = bytearray(image.nt.size_of_image)
    raw = memoryview(image.raw)
    for rva, _, offset, copy, _ in mapped_spans(image):
        buf[rva:rva + copy] = raw[offset:offset + copy]
    return buf


def scan_call_push_call(image: PeImage, anchor_name: bytes | str,
                        window: int = DEFAULT_SCAN_WINDOW,
                        base: int | None = None) -> tuple[int, int]:
    """Find the call / push 104h / call pattern in an image's code.

    Scans executable sections for a near call resolving to the anchor
    export, looks forward up to ``window`` bytes for push 104h, and
    resolves the next near call after it.  Returns (call site, target).
    """
    if base is None:
        base = image.nt.image_base
    anchor_va = base + (find_export_by_name(image, anchor_name) - image.nt.image_base)
    for section in image.sections:
        if not section.executable:
            continue
        data = section_data(image, section)
        section_va = base + section.virtual_address
        # A near call is 5 bytes, so it can only start before len - 4.
        call_end = max(len(data) - 4, 0)
        off = -1
        while (off := data.find(CALL_OPCODE, off + 1, call_end)) != -1:
            site = section_va + off
            if resolve_near_call(site, data[off:off + 5]) != anchor_va:
                continue
            lo = off + 5
            hi = min(lo + window, len(data))
            push_at = data.find(PUSH_104H, lo, hi)
            if push_at == -1:
                continue
            cursor = data.find(CALL_OPCODE, push_at + len(PUSH_104H), min(hi, call_end))
            if cursor != -1:
                call_site = section_va + cursor
                return call_site, resolve_near_call(call_site, data[cursor:cursor + 5])
    raise PatternNotFound(f"no call/push 104h/call pattern anchored at {anchor_name!r}")
