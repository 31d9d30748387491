"""Deterministic PE32 fixture builder.

Emits the canonical on-disk shape the parser reads: 64-byte DOS
header with e_lfanew = 0x80, 0x18-byte NT file header, 0xE0-byte optional
header, section table, raw section data at 0x200-aligned offsets.  No
timestamps, no randomness; identical inputs produce identical bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .peformat import (
    DIR_BASERELOC,
    DIR_EXPORT,
    MACHINE_I386,
    MZ_MAGIC,
    PE32_MAGIC,
    PE_SIGNATURE,
    RELOC_ABS,
    RELOC_HIGHLOW,
    SCN_CNT_CODE,
    SCN_CNT_INITIALIZED_DATA,
    SCN_MEM_EXECUTE,
    SCN_MEM_READ,
    SCN_MEM_WRITE,
    RelocationBlock,
    Unencodable,
    encode_export_table,
    encode_relocations,
)

E_LFANEW = 0x80
FILE_ALIGN = 0x200
SECTION_ALIGN = 0x1000

CODE_SECTION = SCN_CNT_CODE | SCN_MEM_READ | SCN_MEM_EXECUTE
DATA_SECTION = SCN_CNT_INITIALIZED_DATA | SCN_MEM_READ | SCN_MEM_WRITE
RODATA_SECTION = SCN_CNT_INITIALIZED_DATA | SCN_MEM_READ


def _align(value: int, boundary: int) -> int:
    return (value + boundary - 1) & ~(boundary - 1)


@dataclass
class SectionDef:
    """One section to place: its name, RVA, content and protection."""
    name: str
    va: int
    data: bytes
    characteristics: int = CODE_SECTION
    virtual_size: int | None = None  # defaults to len(data)

    @property
    def vsize(self) -> int:
        return self.virtual_size if self.virtual_size is not None else len(self.data)


@dataclass
class PeSpec:
    """Recipe for :func:`build_pe32`."""
    image_base: int
    entry_rva: int
    sections: list[SectionDef]
    exports: list[tuple[bytes | str, int]] | None = None
    export_va: int = 0
    relocations: list[RelocationBlock] = field(default_factory=list)
    reloc_va: int = 0
    size_of_image: int | None = None
    dll: bool = False
    section_align: int = SECTION_ALIGN


def build_pe32(spec: PeSpec) -> bytes:
    """Serialize a fixture recipe to PE32 file bytes.

    Export and relocation tables, when requested, are appended as their
    own ``.edata``/``.reloc`` sections at the RVAs named in the recipe.
    """
    sections = list(spec.sections)
    if spec.exports is not None:
        if not spec.export_va:
            raise Unencodable("exports requested without an export_va")
        entries = [(n.encode("ascii") if isinstance(n, str) else bytes(n), rva)
                   for n, rva in spec.exports]
        sections.append(SectionDef(".edata", spec.export_va,
                                   encode_export_table(entries, spec.export_va),
                                   characteristics=RODATA_SECTION))
    if spec.relocations:
        if not spec.reloc_va:
            raise Unencodable("relocations requested without a reloc_va")
        sections.append(SectionDef(".reloc", spec.reloc_va,
                                   encode_relocations(spec.relocations),
                                   characteristics=RODATA_SECTION))
    if not sections:
        raise Unencodable("a PE32 image needs at least one section")
    sections.sort(key=lambda s: s.va)

    headers_end = E_LFANEW + 0x18 + 0xE0 + 40 * len(sections)
    first_raw = _align(headers_end, FILE_ALIGN)
    placed = []  # (SectionDef, raw_offset)
    raw_cursor = first_raw
    for s in sections:
        placed.append((s, raw_cursor))
        raw_cursor = _align(raw_cursor + len(s.data), FILE_ALIGN)
    file_size = placed[-1][1] + len(placed[-1][0].data)

    top = max(s.va + s.vsize for s in sections)
    size_of_image = spec.size_of_image or _align(top, spec.section_align)
    if spec.entry_rva >= size_of_image:
        raise Unencodable("entry point RVA outside size_of_image")

    buf = bytearray(file_size)
    struct.pack_into("<H", buf, 0, MZ_MAGIC)
    struct.pack_into("<I", buf, 60, E_LFANEW)
    struct.pack_into("<I", buf, E_LFANEW, PE_SIGNATURE)
    fh = E_LFANEW + 4
    characteristics = 0x0102 | (0x2000 if spec.dll else 0)  # executable, 32-bit
    struct.pack_into("<HHIIIHH", buf, fh,
                     MACHINE_I386, len(sections), 0, 0, 0, 0xE0, characteristics)
    oh = fh + 20
    code_size = sum(len(s.data) for s in sections if s.characteristics & SCN_MEM_EXECUTE)
    data_size = sum(len(s.data) for s in sections if not s.characteristics & SCN_MEM_EXECUTE)
    struct.pack_into("<HBBIIIIII", buf, oh,
                     PE32_MAGIC, 9, 0, code_size, data_size, 0,
                     spec.entry_rva, sections[0].va, 0)
    struct.pack_into("<IIIHHHHHHIIIIHH", buf, oh + 28,
                     spec.image_base, spec.section_align, FILE_ALIGN,
                     4, 0, 0, 0, 5, 1, 0,
                     size_of_image, first_raw, 0,
                     2, 0)
    struct.pack_into("<IIIIII", buf, oh + 72,
                     0x100000, 0x1000, 0x100000, 0x1000, 0, 16)
    if spec.exports is not None:
        edata = next(s for s, _ in placed if s.name == ".edata")
        struct.pack_into("<II", buf, oh + 96 + 8 * DIR_EXPORT, edata.va, len(edata.data))
    if spec.relocations:
        reloc = next(s for s, _ in placed if s.name == ".reloc")
        struct.pack_into("<II", buf, oh + 96 + 8 * DIR_BASERELOC, reloc.va, len(reloc.data))

    table = oh + 0xE0
    for i, (s, roff) in enumerate(placed):
        off = table + i * 40
        buf[off:off + 8] = s.name.encode("ascii").ljust(8, b"\x00")
        struct.pack_into("<IIIIIIHHI", buf, off + 8,
                         s.vsize, s.va, len(s.data), roff, 0, 0, 0, 0,
                         s.characteristics)
        buf[roff:roff + len(s.data)] = s.data
    return bytes(buf)


def reloc_block(page_rva: int, highlow_offsets: list[int]) -> RelocationBlock:
    """HIGHLOW block over one 4KiB page, padded to a dword boundary."""
    fixups = [(RELOC_HIGHLOW, off) for off in highlow_offsets]
    if len(fixups) % 2:
        fixups.append((RELOC_ABS, 0))
    return RelocationBlock(page_rva=page_rva, fixups=fixups)
