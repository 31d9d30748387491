"""PE32 parser for the injection pipeline.

Implements the 32-bit subset the pipeline actually touches: machine 0x014C,
optional-header magic 0x010B, export directory (index 0) and base-relocation
directory (index 5), HIGHLOW fixups only.  Everything is plain ``struct``
over byte buffers.  The module state is two memos of decodes kept by
content: :func:`parse_headers`' header blocks and :func:`read_module`'s
export directories.  They hold bytes and decodes, never a reader or a
kernel; the header records are named tuples, so no caller can change a
decode that other images share, and no caller changes a shared
:class:`ExportTable`.  The injector, the kernel and the scanner share
its entrypoint-hook and call / push 104h / call codecs.

An image comes from one of two places:

* file bytes - :func:`parse_pe` decodes a whole on-disk image, reading
  its directories where a loader maps them.
* a module mapped in memory - :func:`read_headers` and :func:`read_module`
  decode it through a ``read(rva, n)`` callable, reading only the
  headers, the export directory and, on demand, the executable sections.

Both decode the export directory with the same code, through a
``read(rva, n)`` that returns exactly ``n`` bytes or raises.  Only file
bytes are relocated, so only :func:`parse_pe` decodes relocations.
A file image's reader (:func:`_read_file`) returns what the loader maps:
file bytes, then zeros in a section's virtual tail, and
:class:`OutOfImage` at a byte in a gap or past the image.  The headers
are decoded with precompiled structs: one unpack for the DOS header's
two fields, one for the nine fixed NT fields, ``iter_unpack`` for the
data directories and the section table.  A buffer too short for the
fixed NT fields goes to :func:`_nt_cut_short`, which raises what a
field-by-field decode raises.  An optional header too short for its
fixed fields and directories is refused.  An export name outside the
directory's span is read in growing chunks (:func:`_read_cstring`),
with the result, or the error, of a byte-by-byte read.

A file image's loader layout is a list of :class:`MapSpan`, built once per
image by :func:`mapped_spans`: the headers and each mapped section, with
its RVA, mapped span, file offset and the number of file bytes it holds.
It holds ints and sections only, never bytes; one routine,
:func:`_laid_out`, copies every file byte laid out through it.  Relocation is
one routine: :func:`apply_relocations` patches a buffer that
:func:`assemble_mapped` laid out, in place.  The kernel's loader, the
injector's first stub and the payload it maps all relocate through it.

Input files are read by :func:`read_regular_file`, one non-blocking open,
so a FIFO or a device given as a path is refused instead of waited on.

The signature test is intentionally computed through the XOR pair
(0xF750F284, 0xF750B7D4) rather than against 'PE\\0\\0' directly; the two
constants combine to 0x00004550 and the parser must preserve that shape.
"""

from __future__ import annotations

import errno
import os
import re
import stat
import struct
from functools import partial
from operator import attrgetter
from typing import Callable, NamedTuple, NoReturn

MZ_MAGIC = 0x5A4D
PE_SIGNATURE = 0x00004550
MACHINE_I386 = 0x014C
PE32_MAGIC = 0x010B

# Obfuscated signature compare: (sig ^ SIG_XOR_KEY) == SIG_XOR_EXPECT
SIG_XOR_KEY = 0xF750F284
SIG_XOR_EXPECT = 0xF750B7D4

E_LFANEW_OFFSET = 60
FILE_HEADER_SIZE = 20
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
# A compiled literal search: bytes.find of this needle tests every byte
# of a zero or E8 fill.
_search_push_104h = re.compile(re.escape(PUSH_104H)).search
DEFAULT_SCAN_WINDOW = 64
HOOK_LEN = 7  # mov eax, imm32 / call eax
# Largest size_of_image parsed: mapping an image allocates that many bytes.
MAX_IMAGE_SIZE = 0x04000000

_M32 = 0xFFFFFFFF
_U32 = struct.Struct("<I")
_DOS = struct.Struct("<H58xI")  # e_magic, e_lfanew
# The fixed NT fields: signature; machine, section count and optional-header
# size from the file header; optional magic, entrypoint RVA, image base,
# size_of_image and the directory count from the optional header.
_NT = struct.Struct("<IHH12xH2xH14xI8xI24xI32xI")
# Each _NT field's (offset from e_lfanew, width), in the order it is read.
_NT_FIELDS = ((0, 4), (4, 2), (6, 2), (20, 2), (24, 2), (40, 4), (52, 4), (80, 4), (116, 4))
_DIRECTORY = struct.Struct("<II")  # rva, size
# name, virtual size, virtual address, raw size, raw offset, characteristics
_SECTION = struct.Struct("<8sIIII12xI")

# The first chunk of an export name read outside the directory's span.
_CSTRING_CHUNK = 64
HEADER_MEMO_ENTRIES = 64   # header blocks, and export directories, each memo keeps
HEADER_MEMO_BLOCK = 4096   # a longer block or directory is decoded on every call

# Non-blocking, so opening a FIFO returns at once and it is refused.
_OPEN_FLAGS = os.O_RDONLY | getattr(os, "O_NONBLOCK", 0) | getattr(os, "O_BINARY", 0)
# An open failing with one of these means there is no file to read.
_NO_FILE = frozenset((errno.ENOENT, errno.ENOTDIR, errno.ELOOP, errno.EISDIR,
                      errno.ENXIO, errno.EBADF))

# read(rva, n): exactly n bytes of an image starting at rva, or an exception.
Reader = Callable[[int, int], bytes]


class PeError(Exception):
    """Base class for every PE32 parse or encode failure."""


class NotMz(PeError):
    """Buffer does not start with 'MZ'."""


class NotPe(PeError):
    """Signature check failed or the image is outside the accepted subset."""


class Truncated(PeError):
    """A header or table extends past the end of the buffer."""


class Unencodable(PeError):
    """A fixup or fixture recipe the PE32 subset cannot encode."""


class OutOfImage(PeError):
    """RVA falls in no section and not in the headers region, or past the image."""


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


class DosHeader(NamedTuple):
    e_magic: int
    e_lfanew: int


class NtHeaders(NamedTuple):
    signature: int
    machine: int
    number_of_sections: int
    optional_magic: int
    entry_point_rva: int
    image_base: int
    size_of_image: int
    data_directories: tuple[tuple[int, int], ...] = ()

    def directory(self, index: int) -> tuple[int, int]:
        if index < len(self.data_directories):
            return self.data_directories[index]
        return (0, 0)


class Section(NamedTuple):
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


class Record:
    """A plain record class: ``==`` compares, and repr shows, the fields
    its ``_compared`` names, in order; a record of another class is never
    equal.  Records are mutable, so they are unhashable."""
    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        get = attrgetter(*self._compared)
        return get(self) == get(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__name__}({fields})"


class ExportTable(Record):
    """An export directory's (name, rva) entries.  A table that
    :func:`read_module` keeps is shared by every image of equal directory
    bytes, so no caller changes it.  ``by_hash`` maps a ror13 hash to the
    entries with that hash; the first hash lookup builds it."""
    _compared = ("entries",)

    def __init__(self, entries: list[tuple[bytes, int]] | None = None):
        self.entries = [] if entries is None else entries
        self.by_hash: dict[int, list[tuple[bytes, int]]] | None = None


class RelocationBlock(Record):
    __slots__ = _compared = ("page_rva", "fixups")

    def __init__(self, page_rva: int, fixups: list[tuple[int, int]] | None = None):
        self.page_rva = page_rva
        self.fixups = [] if fixups is None else fixups


class PeImage(Record):
    """A decoded image.  ``raw`` is the whole file, or only the headers of
    a mapped module; ``headers_end`` is the offset just past the section
    table, where the headers end.  ``read`` is a mapped module's
    read(rva, n), through which its section bytes are read, and ``spans``
    a file image's loader layout, built by the first :func:`mapped_spans`
    call; ``==`` and repr leave both out."""
    _compared = ("dos", "nt", "sections", "exports", "relocations", "raw", "layout",
                 "headers_end")

    def __init__(self, dos: DosHeader, nt: NtHeaders, sections: tuple[Section, ...],
                 exports: ExportTable | None, relocations: list[RelocationBlock],
                 raw: bytes, layout: str = "file", read: Reader | None = None,
                 headers_end: int = 0):
        self.dos, self.nt, self.sections, self.exports = dos, nt, sections, exports
        self.relocations, self.raw, self.layout, self.read = relocations, raw, layout, read
        self.headers_end = headers_end
        self.spans: list[MapSpan] | None = None


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


def ror13_hash(data: bytes) -> int:
    """Rotate-right-13 additive hash over a byte sequence.

    Starts at zero; per byte the accumulator is rotated right 13 bits and
    the byte value added modulo 2^32.  This is the name-hashing scheme the
    export resolver and the integrity monitor share.
    """
    acc = 0
    m32 = _M32
    for b in data:
        acc = (((acc >> 13) | (acc << 19)) + b) & m32
    return acc


def resolve_near_call(call_site: int, data: bytes) -> int:
    """Target of an E8 rel32 near call located at ``call_site``."""
    if len(data) != 5 or data[0] != 0xE8:
        raise NotNearCall(f"not a near call at {call_site:#010x}")
    rel = struct.unpack("<i", data[1:5])[0]
    return (call_site + 5 + rel) & _M32


def encode_entry_hook(target: int) -> bytes:
    """The ``mov eax, target / call eax`` bytes written over an entrypoint."""
    return b"\xB8" + struct.pack("<I", target) + b"\xFF\xD0"


def decode_entry_hook(head: bytes) -> int | None:
    """Target of the entrypoint hook in ``head``, or None if it is not one."""
    if len(head) != HOOK_LEN or head[0] != 0xB8 or head[5:] != b"\xFF\xD0":
        return None
    return struct.unpack_from("<I", head, 1)[0]


def _parse_dos(data: bytes) -> DosHeader:
    if len(data) < _DOS.size:
        if data[:2] != b"MZ":
            raise NotMz("no 'MZ' at offset 0")
        raise Truncated(f"dword at {E_LFANEW_OFFSET:#x} past end of buffer")
    e_magic, e_lfanew = _DOS.unpack_from(data)
    if e_magic != MZ_MAGIC:
        raise NotMz("no 'MZ' at offset 0")
    if e_lfanew < 64:
        raise NotPe(f"e_lfanew {e_lfanew:#x} overlaps the DOS header")
    return DosHeader(MZ_MAGIC, e_lfanew)


def _check_nt(fields: tuple[int, ...], known: int = len(_NT_FIELDS)) -> None:
    """The checks on the fixed NT fields, in the order decoding makes them.

    Only the checks whose fields are among the first ``known`` in read
    order are made: a buffer cut short stops the decode at its first
    missing field.
    """
    signature, machine, number_of_sections, _, optional_magic, entry, _, size, _ = fields
    if known < 1:
        return
    if (signature ^ SIG_XOR_KEY) != SIG_XOR_EXPECT:
        raise NotPe(f"signature {signature:#010x} fails the obfuscated check")
    if known < 4:
        return
    if machine != MACHINE_I386:
        raise NotPe(f"machine {machine:#06x} is not 0x014c")
    if number_of_sections < 1:
        raise NotPe("image has no sections")
    if known < 5:
        return
    if optional_magic != PE32_MAGIC:
        raise NotPe(f"optional magic {optional_magic:#06x} is not PE32")
    if known < 8:
        return
    if entry >= size:
        raise NotPe("entry point RVA outside the image")
    if size > MAX_IMAGE_SIZE:
        raise NotPe(f"size_of_image {size:#x} above {MAX_IMAGE_SIZE:#x}")


def _nt_cut_short(data: bytes, e_lfanew: int) -> NoReturn:
    """Raise for NT headers that end before their fixed fields do.

    The error is a check's on a field before the cut, or else
    :class:`Truncated` naming the first missing field in read order.
    """
    present = bytes(data[e_lfanew:e_lfanew + _NT.size])
    known = next(i for i, (off, width) in enumerate(_NT_FIELDS)
                 if off + width > len(present))
    _check_nt(_NT.unpack(present.ljust(_NT.size, b"\x00")), known)
    off, width = _NT_FIELDS[known]
    raise Truncated(f"{'dword' if width == 4 else 'word'} at {e_lfanew + off:#x} "
                    f"past end of buffer")


def _parse_nt(data: bytes, e_lfanew: int) -> tuple[NtHeaders, int]:
    """Returns the parsed headers and the file offset of the section table."""
    if len(data) < e_lfanew + _NT.size:
        _nt_cut_short(data, e_lfanew)
    fields = _NT.unpack_from(data, e_lfanew)
    _check_nt(fields)
    (signature, machine, number_of_sections, size_of_optional, optional_magic,
     entry_point_rva, image_base, size_of_image, dir_count) = fields
    table = e_lfanew + _NT.size
    end = table + 8 * min(dir_count, 16)
    optional_end = e_lfanew + 4 + FILE_HEADER_SIZE + size_of_optional
    if end > optional_end:
        raise NotPe(f"optional header fields run to {end:#x}, past its end at {optional_end:#x}")
    if end > len(data):
        first_short = table + 4 * ((len(data) - table) // 4)
        raise Truncated(f"dword at {first_short:#x} past end of buffer")
    nt = NtHeaders(signature, machine, number_of_sections, optional_magic,
                   entry_point_rva, image_base, size_of_image,
                   tuple(_DIRECTORY.iter_unpack(data[table:end])))
    return nt, optional_end


def _parse_sections(data: bytes, table_off: int, count: int) -> tuple[Section, ...]:
    end = table_off + SECTION_HEADER_SIZE * count
    if end > len(data):
        raise Truncated("section table past end of buffer")
    sections = [Section(name.rstrip(b"\x00").decode("latin-1"), va, vsize, roff, rsize, flags)
                for name, vsize, va, rsize, roff, flags
                in _SECTION.iter_unpack(data[table_off:end])]
    spans = sorted((s.virtual_address, s.virtual_address + s.virtual_span) for s in sections)
    for (_, hi1), (lo2, _) in zip(spans, spans[1:]):
        if lo2 < hi1:
            raise NotPe("section RVA ranges overlap")
    return tuple(sections)


def _read_file(image: PeImage, rva: int, n: int) -> bytes:
    """The :data:`Reader` of a file image: ``n`` bytes from ``rva`` on.

    What :func:`mapped_bytes` returns, but a read reaching a byte that no
    :func:`mapped_spans` span covers, in a gap or at or past
    ``size_of_image``, raises :class:`OutOfImage` naming that byte.
    """
    data = _section_bytes(image, rva, n)
    if data is not None:
        return data
    at = rva
    for span in mapped_spans(image):  # sorted and disjoint: the run covered from rva
        if span.rva <= at < span.rva + span.span:
            at = span.rva + span.span
    if at < rva + n:
        size = image.nt.size_of_image
        if at >= size:
            raise OutOfImage(f"rva {at:#x} past size_of_image {size:#x}")
        raise OutOfImage(f"rva {at:#x} in no section")
    return bytes(_laid_out(image, rva, n))


def _read_cstring(read: Reader, rva: int) -> bytes:
    """The NUL-terminated string at ``rva``, read through ``read`` in chunks.

    Each chunk that reads doubles the next, so a long name costs a few
    reads.  Once one raises, the chunks halve the span that raised until
    the single byte whose read raises is read alone, so the result, or the
    error, is the same as reading the string a byte at a time.
    """
    parts = []
    size = _CSTRING_CHUNK
    bound = None  # a read reaching this RVA raised
    while True:
        try:
            chunk = read(rva, size)
        except Exception:  # whatever it is, the one-byte read raises it again
            if size == 1:
                raise
            bound = rva + size
            size //= 2
            continue
        nul = chunk.find(b"\x00")
        if nul != -1:
            parts.append(chunk[:nul])
            return b"".join(parts)
        parts.append(chunk)
        rva += size
        size = 2 * size if bound is None else max((bound - rva) // 2, 1)


def _parse_exports(read: Reader, nt: NtHeaders,
                   memo: dict | None = None) -> ExportTable | None:
    """The export directory, read through ``read``; with a ``memo``, a
    table its key alone decides is kept in it (see :func:`read_module`)."""
    rva, size = nt.directory(DIR_EXPORT)
    if rva == 0 or size == 0:
        return None
    # One read of the directory's span; in the canonical layout it also
    # holds the three arrays and every name.
    span = read(rva, max(size, EXPORT_DIRECTORY_SIZE))
    key = (rva, nt.size_of_image, span)
    if memo is not None and (table := memo.get(key)) is not None:
        return table
    table, whole = _decode_exports(read, *key)
    if (memo is not None and whole and len(span) <= HEADER_MEMO_BLOCK
            and sum(len(name) for name, _ in table.entries) <= len(span)):
        _remember(memo, key, table)
    return table


def _decode_exports(read: Reader, rva: int, size_of_image: int,
                    span: bytes) -> tuple[ExportTable, bool]:
    """The table whose directory read at ``rva`` returned ``span``, and
    whether it was decoded from ``span`` alone."""
    whole = True

    def at(field_rva: int, n: int) -> bytes:
        nonlocal whole
        lo = field_rva - rva
        if 0 <= lo <= len(span) - n:
            return span[lo:lo + n]
        if not n:
            return b""
        whole = False
        return read(field_rva, n)

    last: tuple[int, bytes] | None = None  # the last name read outside the span

    def name_at(name_rva: int) -> bytes:
        nonlocal last, whole
        lo = name_rva - rva
        end = span.find(b"\x00", lo) if 0 <= lo < len(span) else -1
        if end != -1:
            return span[lo:end]
        whole = False
        # A tail of the last name (tail-merged strings) ends at the same NUL.
        if last is not None and 0 <= name_rva - last[0] <= len(last[1]):
            return last[1][name_rva - last[0]:]
        last = (name_rva, _read_cstring(read, name_rva))
        return last[1]

    n_names, functions_rva, names_rva, ordinals_rva = struct.unpack_from("<4I", span, 24)
    name_rvas = struct.unpack(f"<{n_names}I", at(names_rva, 4 * n_names))
    ordinals = struct.unpack(f"<{n_names}H", at(ordinals_rva, 2 * n_names))
    entries: list[tuple[bytes, int]] = []
    seen: set[bytes] = set()
    for name_rva, ordinal in zip(name_rvas, ordinals):
        func_rva = _U32.unpack(at(functions_rva + 4 * ordinal, 4))[0]
        name = name_at(name_rva)
        if name in seen:
            raise NotPe(f"duplicate export name {name!r}")
        if func_rva >= size_of_image:
            raise NotPe(f"export {name!r} rva {func_rva:#x} outside the image")
        seen.add(name)
        entries.append((name, func_rva))
    return ExportTable(entries=entries), whole


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
    read by :func:`_read_file`, as the loader maps them, so the exports
    decode as :func:`read_module` decodes them from the mapping.
    """
    image = _decode_headers(data, "file")
    for s in image.sections:
        if s.raw_offset + s.raw_size > len(data):
            raise Truncated(f"section {s.name!r} raw data past end of buffer")
    read = partial(_read_file, image)
    image.exports = _parse_exports(read, image.nt)
    image.relocations = _parse_relocations(read, image.nt)
    return image


# Header bytes -> the DOS header, NT headers, sections and headers_end
# parse_headers decoded from them, oldest first.
_header_memo: dict[bytes, tuple[DosHeader, NtHeaders, tuple[Section, ...], int]] = {}
# (directory RVA, size_of_image, directory bytes) -> the export table
# read_module decoded from them, oldest first.
_export_memo: dict[tuple[int, int, bytes], ExportTable] = {}


def _remember(memo: dict, key, value) -> None:
    """Keep ``value`` under ``key`` in ``memo``, evicting the oldest entry
    first once it holds ``HEADER_MEMO_ENTRIES``."""
    if len(memo) >= HEADER_MEMO_ENTRIES:
        del memo[next(iter(memo))]
    memo[key] = value


def parse_headers(data: bytes) -> PeImage:
    """Parse only DOS/NT headers and the section table.

    Intended for header bytes read out of a mapped module where the rest
    of the image is not at hand.  Directories are left undecoded and the
    result uses the mapped layout.

    Decodes are kept by content: equal header bytes share one decoded DOS
    header, NT headers and section tuple, all immutable, in a memo of at
    most ``HEADER_MEMO_ENTRIES`` blocks of at most ``HEADER_MEMO_BLOCK`` bytes,
    evicting the oldest first.  Each call still returns a fresh
    :class:`PeImage`, and an error is never kept, so it raises again.
    """
    key = bytes(data)
    decoded = _header_memo.get(key)
    if decoded is None:
        image = _decode_headers(key, "mapped")
        if len(key) <= HEADER_MEMO_BLOCK:
            _remember(_header_memo, key,
                      (image.dos, image.nt, image.sections, image.headers_end))
        return image
    dos, nt, sections, headers_end = decoded
    return PeImage(dos, nt, sections, None, [], key, "mapped", headers_end=headers_end)


def read_headers(read: Reader) -> PeImage:
    """Headers and section table of a module mapped in memory.

    Reads the DOS header, then exactly the NT headers and the section
    table, each through ``read(rva, n)``, on every call, and decodes them
    with :func:`parse_headers`, so header bytes it has decoded before are
    not decoded again and a changed header byte is decoded afresh.  The
    image keeps ``read`` for :func:`section_data`; its ``raw`` is the
    header bytes.
    """
    head = read(0, E_LFANEW_OFFSET + 4)
    fh = _parse_dos(head).e_lfanew + 4
    head += read(len(head), fh + FILE_HEADER_SIZE - len(head))
    count, optional = struct.unpack_from("<2xH12xH", head, fh)
    head += read(len(head), optional + SECTION_HEADER_SIZE * count)
    image = parse_headers(head)
    image.read = read
    return image


def read_module(read: Reader) -> PeImage:
    """:func:`read_headers` plus the export directory; no relocations.

    The directory is read where it lives, on every call, with the same
    checks :func:`parse_pe` makes on file bytes.  As :func:`parse_headers`
    keeps header blocks, an export table decoded from its one directory
    read alone, at most ``HEADER_MEMO_BLOCK`` bytes with names that total
    no more, is kept under that read's RVA and bytes and ``size_of_image``,
    and shared, ``by_hash`` index included; an error is never kept.
    """
    image = read_headers(read)
    image.exports = _parse_exports(read, image.nt, _export_memo)
    return image


def encode_export_table(entries: list[tuple[bytes, int]], table_rva: int) -> bytes:
    """Serialize an export directory in the canonical layout.

    Directory, then function RVAs, name-pointer RVAs, ordinals, then the
    NUL-terminated name strings.  The fixture builder writes every
    export table through it.
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


def strip_headers(image: PeImage) -> bytes:
    """Zero the four identifying constants of a file image :func:`parse_pe`
    returned.

    Returns a copy of the file with 'MZ', the NT signature, the machine
    word and the optional-header magic all zeroed; it no longer parses.
    """
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


def apply_relocations(buf: bytearray, mapped_base: int, preferred_base: int,
                      blocks: list[RelocationBlock]) -> None:
    """Relocate a mapped-layout buffer from ``preferred_base`` to
    ``mapped_base``, in place: add the difference, modulo 2^32, at each
    HIGHLOW fixup.  Padding fixups are skipped.

    An unsupported fixup type or a fixup past the buffer raises
    :class:`FixupOutOfRange`, with the fixups before it applied.  At the
    preferred base nothing is read, so no fixup is checked.
    """
    delta = (mapped_base - preferred_base) & _M32
    if not delta:
        return
    size = len(buf)
    pack, unpack = _U32.pack_into, _U32.unpack_from
    for block in blocks:
        for ftype, foffset in block.fixups:
            if ftype == RELOC_ABS:
                continue
            if ftype != RELOC_HIGHLOW:
                raise FixupOutOfRange(f"unsupported fixup type {ftype}")
            pos = block.page_rva + foffset
            if pos + 4 > size:
                raise FixupOutOfRange(f"fixup at rva {pos:#x} past end of buffer")
            pack(buf, pos, (unpack(buf, pos)[0] + delta) & _M32)


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
    Each name is hashed once per table, on the first lookup: once per
    image parsed from a file, and once per distinct directory that
    :func:`read_module` keeps.
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
    """A section's mapped span: read from memory, or as a loader maps a file."""
    lo = section.virtual_address
    n = max(0, min(section.virtual_span, image.nt.size_of_image - lo))
    if image.read is not None:
        return image.read(lo, n)
    return mapped_bytes(image, lo, n)


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


def _section_bytes(image: PeImage, rva: int, n: int) -> bytes | None:
    """``n`` mapped bytes from ``rva`` if one section's mapped span holds
    them all, else None: its file bytes, then zeros."""
    size = image.nt.size_of_image
    for s in image.sections:
        lo = rva - s.virtual_address
        if 0 <= lo and lo + n <= min(s.virtual_span, size - s.virtual_address):
            end = s.raw_offset + min(lo + n, s.raw_size)
            return image.raw[s.raw_offset + lo:end].ljust(n, b"\x00")  # one allocation
    return None


def mapped_bytes(image: PeImage, rva: int, n: int) -> bytes:
    """``n`` bytes from ``rva`` of a file image, as a loader maps them.

    The bytes each of :func:`mapped_spans` copies from the file; anything
    else, a gap, a virtual tail or a byte past the image, reads as zero.
    Most reads lie in one section's span and build no span list.
    """
    data = _section_bytes(image, rva, n)
    return bytes(_laid_out(image, rva, n)) if data is None else data


def _laid_out(image: PeImage, rva: int, n: int) -> bytearray:
    """``n`` bytes from ``rva`` of a file image in a new buffer: each of
    :func:`mapped_spans`' file bytes at its RVA, every other byte zero."""
    out = bytearray(n)
    raw = memoryview(image.raw)
    for at, _, offset, copy, _ in mapped_spans(image):
        lo, hi = max(rva, at), min(rva + n, at + copy)
        if lo < hi:
            out[lo - rva:hi - rva] = raw[offset + lo - at:offset + hi - at]
    return out


def assemble_mapped(image: PeImage) -> bytearray:
    """Lay a file-layout image out as a loader would: size_of_image bytes."""
    return _laid_out(image, 0, image.nt.size_of_image)


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
        if section.executable:
            found = find_call_push_call(section_data(image, section),
                                        base + section.virtual_address, anchor_va, window)
            if found is not None:
                return found
    raise PatternNotFound(f"no call/push 104h/call pattern anchored at {anchor_name!r}")


def find_call_push_call(data: bytes, section_va: int, anchor_va: int,
                        window: int = DEFAULT_SCAN_WINDOW) -> tuple[int, int] | None:
    """:func:`scan_call_push_call` over one section's bytes, mapped at
    ``section_va``: (call site, target), or None.

    A call is decoded only when the first push 104h after it is in reach,
    so the work is set by the calls and pushes walked, not by the window.
    """
    # A near call is 5 bytes, so it can only start before len - 4.
    call_end = max(len(data) - 4, 0)
    off = -1
    while (off := data.find(CALL_OPCODE, off + 1, call_end)) != -1:
        if (push := _search_push_104h(data, off + 5)) is None:
            return None
        # Every call from off to calls_end has this push first after
        # it; those within window bytes of it reach it.
        push_at = push.start()
        calls_end = push_at - 4
        off = max(off, push_at - window) - 1
        while (off := data.find(CALL_OPCODE, off + 1, calls_end)) != -1:
            site = section_va + off
            if resolve_near_call(site, data[off:off + 5]) != anchor_va:
                continue
            cursor = data.find(CALL_OPCODE, push_at + len(PUSH_104H),
                               min(off + 5 + window, call_end))
            if cursor != -1:
                call_site = section_va + cursor
                return call_site, resolve_near_call(call_site, data[cursor:cursor + 5])
        off = calls_end - 1
    return None


def read_regular_file(path: str | os.PathLike) -> bytes | None:
    """The bytes of the regular file at ``path``, or None if there is none.

    One open, then one ``fstat``: a missing path, a directory, a FIFO or a
    device is None.  Any other error, a denied permission say, is raised.
    """
    try:
        fd = os.open(path, _OPEN_FLAGS)
    except ValueError:  # an embedded NUL names no file
        return None
    except OSError as exc:
        if exc.errno in _NO_FILE:
            return None
        raise
    try:
        st = os.fstat(fd)
        if not stat.S_ISREG(st.st_mode):
            return None
        parts = []
        while part := os.read(fd, st.st_size + 1):
            parts.append(part)
        return b"".join(parts)
    finally:
        os.close(fd)
