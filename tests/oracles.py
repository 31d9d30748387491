"""Independent reference implementations used to check the package.

Everything here is written against the raw formats, not against the
package's own code paths, so a bug in the implementation cannot hide in
its tests.  The one exception is the step-by-step decoder at the end: the
package's decoder must match it exactly, so it builds the package's own
record classes, raises its exception classes with the same messages, checks
the same ``MAX_IMAGE_SIZE`` and shares its relocation decoder,
``_parse_relocations``.  It reads a file image through its own reader, a
byte at a time, and export names through its own byte walk.  The scenario
parser's reference, :func:`parse_scenario_oracle`, is a plainer loop over
the package's grammar tables: it splits every word on ``=`` and runs
every check on every line.
"""

import struct

from duqusim.peformat import (
    MAX_IMAGE_SIZE,
    DosHeader,
    ExportTable,
    NotMz,
    NotPe,
    NtHeaders,
    OutOfImage,
    PeImage,
    Section,
    Truncated,
    _parse_relocations,
)
from duqusim.scenario import COMMANDS, DRIVERS, MODES, Command, ScenarioError

MASK32 = 0xFFFFFFFF


def ror13_oracle(data: bytes) -> int:
    # Different rotation formulation than the library: mask-and-assemble.
    h = 0
    for b in data:
        h = ((h & 0x1FFF) << 19) | (h >> 13)
        h = (h + b) & MASK32
    return h


def near_call_target_oracle(site: int, blob: bytes) -> int:
    assert blob[0] == 0xE8 and len(blob) == 5
    rel = int.from_bytes(blob[1:5], "little", signed=True)
    return (site + 5 + rel) % (1 << 32)


def apply_relocations_oracle(data: bytes, mapped: int, preferred: int,
                             blocks) -> bytes:
    # Scalar loop, one fixup at a time, int.from_bytes/to_bytes round trip.
    out = bytearray(data)
    delta = (mapped - preferred) % (1 << 32)
    if delta == 0:
        return bytes(out)
    for block in blocks:
        for ftype, off in block.fixups:
            if ftype == 0:
                continue
            assert ftype == 3
            pos = block.page_rva + off
            old = int.from_bytes(out[pos:pos + 4], "little")
            out[pos:pos + 4] = ((old + delta) % (1 << 32)).to_bytes(4, "little")
    return bytes(out)


def xor_stream_oracle(blob: bytes, key: int) -> bytes:
    return bytes((b ^ key ^ (i % 256)) & 0xFF for i, b in enumerate(blob))


def dump_pe_oracle(data: bytes) -> dict:
    """Flat struct-level dump of a PE32 file, written independently.

    Returns headers, section rows, export rows and relocation rows as
    plain dicts/tuples for field-by-field comparison.
    """
    assert data[:2] == b"MZ", "oracle: no MZ"
    lfanew = struct.unpack_from("<I", data, 60)[0]
    signature = struct.unpack_from("<I", data, lfanew)[0]
    assert signature == 0x00004550, "oracle: bad signature"
    machine, nsections = struct.unpack_from("<HH", data, lfanew + 4)
    opt_size = struct.unpack_from("<H", data, lfanew + 20)[0]
    opt = lfanew + 24
    magic = struct.unpack_from("<H", data, opt)[0]
    entry = struct.unpack_from("<I", data, opt + 16)[0]
    image_base = struct.unpack_from("<I", data, opt + 28)[0]
    size_of_image = struct.unpack_from("<I", data, opt + 56)[0]
    ndirs = struct.unpack_from("<I", data, opt + 92)[0]
    dirs = [struct.unpack_from("<II", data, opt + 96 + 8 * i) for i in range(min(ndirs, 16))]

    sections = []
    table = opt + opt_size
    for i in range(nsections):
        off = table + 40 * i
        name = data[off:off + 8].rstrip(b"\x00").decode()
        vsize, va, rsize, roff = struct.unpack_from("<IIII", data, off + 8)
        flags = struct.unpack_from("<I", data, off + 36)[0]
        sections.append({"name": name, "va": va, "vsize": vsize,
                         "roff": roff, "rsize": rsize, "flags": flags})

    def rva_off(rva):
        for s in sections:
            span = s["vsize"] or s["rsize"]
            if s["va"] <= rva < s["va"] + span:
                return s["roff"] + rva - s["va"]
        return rva  # headers

    exports = []
    if len(dirs) > 0 and dirs[0][0]:
        d = rva_off(dirs[0][0])
        nnames = struct.unpack_from("<I", data, d + 24)[0]
        funcs = rva_off(struct.unpack_from("<I", data, d + 28)[0])
        names = rva_off(struct.unpack_from("<I", data, d + 32)[0])
        ords = rva_off(struct.unpack_from("<I", data, d + 36)[0])
        for i in range(nnames):
            name_rva = struct.unpack_from("<I", data, names + 4 * i)[0]
            ordinal = struct.unpack_from("<H", data, ords + 2 * i)[0]
            rva = struct.unpack_from("<I", data, funcs + 4 * ordinal)[0]
            so = rva_off(name_rva)
            name = data[so:data.index(b"\x00", so)]
            exports.append((name, rva))

    relocs = []
    if len(dirs) > 5 and dirs[5][0]:
        off = rva_off(dirs[5][0])
        end = off + dirs[5][1]
        while off < end:
            page, bsize = struct.unpack_from("<II", data, off)
            if bsize == 0:
                break
            fixups = []
            for w in range(off + 8, off + bsize, 2):
                word = struct.unpack_from("<H", data, w)[0]
                fixups.append((word >> 12, word & 0xFFF))
            relocs.append((page, fixups))
            off += bsize

    return {"machine": machine, "nsections": nsections, "magic": magic,
            "entry": entry, "image_base": image_base,
            "size_of_image": size_of_image, "sections": sections,
            "exports": exports, "relocs": relocs}


def assemble_mapped_oracle(image) -> bytearray:
    """Reference loader layout: a size_of_image buffer, headers at 0, each
    section's raw data at its RVA, gaps and virtual tails zero.  This is the
    layout the loader built for every mapping before it mapped spans
    straight from the file bytes."""
    size = image.nt.size_of_image
    buf = bytearray(size)
    first_va = min(s.virtual_address for s in image.sections)
    header_len = min(first_va, len(image.raw), size)
    buf[:header_len] = image.raw[:header_len]
    for s in image.sections:
        data = image.raw[s.raw_offset:s.raw_offset + s.raw_size]
        room = max(0, min(s.virtual_span, size - s.virtual_address))
        n = min(len(data), room)
        buf[s.virtual_address:s.virtual_address + n] = data[:n]
    return buf


def loader_regions_oracle(image, base: int) -> list[tuple[int, bytes, str]]:
    """(address, bytes, perms) of every region mapping ``image`` at ``base``
    lays down: the headers up to the first section RVA (read-only), then
    each section's virtual span cut at size_of_image, all cut from the
    reference layout, relocated by the scalar oracle when ``base`` is not
    the preferred one."""
    mapped = bytes(assemble_mapped_oracle(image))
    if base != image.nt.image_base:
        mapped = apply_relocations_oracle(mapped, base, image.nt.image_base,
                                          image.relocations)
    size = image.nt.size_of_image
    first_va = min(s.virtual_address for s in image.sections)
    regions = [(base, mapped[:first_va], "R")]
    for s in image.sections:
        span = min(s.virtual_span, size - s.virtual_address)
        if span <= 0:
            continue
        if s.characteristics & 0x20000000:
            perms = "RX"
        elif s.characteristics & 0x80000000:
            perms = "RW"
        else:
            perms = "R"
        regions.append((base + s.virtual_address,
                        mapped[s.virtual_address:s.virtual_address + span], perms))
    return sorted(regions)


# The step-by-step PE32 decoder the package used before it decoded the
# fixed header fields with precompiled structs: one bounds-checked read per
# field, in header order, and export names read one byte at a time.  The
# package must give the same PeImage, or raise the same exception type
# with the same message.

def _u16(data: bytes, off: int) -> int:
    if off + 2 > len(data):
        raise Truncated(f"word at {off:#x} past end of buffer")
    return struct.unpack_from("<H", data, off)[0]


def _u32(data: bytes, off: int) -> int:
    if off + 4 > len(data):
        raise Truncated(f"dword at {off:#x} past end of buffer")
    return struct.unpack_from("<I", data, off)[0]


def _parse_dos_oracle(data: bytes):
    if len(data) < 2 or _u16(data, 0) != 0x5A4D:
        raise NotMz("no 'MZ' at offset 0")
    e_lfanew = _u32(data, 60)
    if e_lfanew < 64:
        raise NotPe(f"e_lfanew {e_lfanew:#x} overlaps the DOS header")
    return DosHeader(e_magic=0x5A4D, e_lfanew=e_lfanew)


def _parse_nt_oracle(data: bytes, e_lfanew: int):
    signature = _u32(data, e_lfanew)
    if (signature ^ 0xF750F284) != 0xF750B7D4:
        raise NotPe(f"signature {signature:#010x} fails the obfuscated check")
    fh = e_lfanew + 4
    machine = _u16(data, fh)
    number_of_sections = _u16(data, fh + 2)
    size_of_optional = _u16(data, fh + 16)
    if machine != 0x014C:
        raise NotPe(f"machine {machine:#06x} is not 0x014c")
    if number_of_sections < 1:
        raise NotPe("image has no sections")
    oh = fh + 20
    optional_magic = _u16(data, oh)
    if optional_magic != 0x010B:
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
    if table + 8 * dir_count > oh + size_of_optional:
        raise NotPe(f"optional header fields run to {table + 8 * dir_count:#x}, "
                    f"past its end at {oh + size_of_optional:#x}")
    if table + 8 * dir_count > len(data):
        first_short = table + 4 * ((len(data) - table) // 4)
        raise Truncated(f"dword at {first_short:#x} past end of buffer")
    flat = struct.unpack_from(f"<{2 * dir_count}I", data, table)
    nt = NtHeaders(signature=signature, machine=machine,
                   number_of_sections=number_of_sections,
                   optional_magic=optional_magic, entry_point_rva=entry_point_rva,
                   image_base=image_base, size_of_image=size_of_image,
                   data_directories=tuple(zip(flat[::2], flat[1::2])))
    return nt, oh + size_of_optional


def _parse_sections_oracle(data: bytes, table_off: int, count: int):
    sections = []
    for i in range(count):
        off = table_off + i * 40
        if off + 40 > len(data):
            raise Truncated("section table past end of buffer")
        vsize, va, rsize, roff = struct.unpack_from("<IIII", data, off + 8)
        sections.append(Section(
            name=data[off:off + 8].rstrip(b"\x00").decode("latin-1"),
            virtual_address=va, virtual_size=vsize, raw_offset=roff, raw_size=rsize,
            characteristics=struct.unpack_from("<I", data, off + 36)[0]))
    spans = sorted((s.virtual_address, s.virtual_address + s.virtual_span) for s in sections)
    for (_, hi1), (lo2, _) in zip(spans, spans[1:]):
        if lo2 < hi1:
            raise NotPe("section RVA ranges overlap")
    return tuple(sections)


def file_reader_oracle(image):
    """``read(rva, n)`` over a file image, a byte at a time, as it is mapped.

    Each RVA goes through the section table on its own; the headers region
    below the first section maps identically.  A byte past a section's raw
    data, or past the file in the headers region, reads as zero.  The first
    byte whose RVA is past size_of_image or in no section raises."""
    data = image.raw
    first_va = min(s.virtual_address for s in image.sections)
    size = image.nt.size_of_image

    def byte(p):
        if p >= size:
            raise OutOfImage(f"rva {p:#x} past size_of_image {size:#x}")
        if p < first_va:
            return data[p] if p < len(data) else 0
        for s in image.sections:
            k = p - s.virtual_address
            if 0 <= k < (s.virtual_size or s.raw_size):
                return data[s.raw_offset + k] if k < s.raw_size else 0
        raise OutOfImage(f"rva {p:#x} in no section")

    def read(rva, n):
        return bytes(byte(p) for p in range(rva, rva + n))

    return read


def cstring_oracle(read, rva: int) -> bytes:
    """The NUL-terminated string at ``rva``, read one byte at a time."""
    name = bytearray()
    while (byte := read(rva + len(name), 1)) != b"\x00":
        name += byte
    return bytes(name)


def _parse_exports_oracle(read, nt):
    rva, size = nt.directory(0)
    if rva == 0 or size == 0:
        return None
    span = read(rva, max(size, 40))

    def at(field_rva, n):
        lo = field_rva - rva
        if 0 <= lo <= len(span) - n:
            return span[lo:lo + n]
        return read(field_rva, n) if n else b""

    def cstring(name_rva):
        lo = name_rva - rva
        end = span.find(b"\x00", lo) if 0 <= lo < len(span) else -1
        if end != -1:
            return span[lo:end]
        return cstring_oracle(read, name_rva)

    n_names, functions_rva, names_rva, ordinals_rva = struct.unpack_from("<4I", span, 24)
    name_rvas = struct.unpack(f"<{n_names}I", at(names_rva, 4 * n_names))
    ordinals = struct.unpack(f"<{n_names}H", at(ordinals_rva, 2 * n_names))
    entries, seen = [], set()
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


def _decode_headers_oracle(data: bytes, layout: str):
    dos = _parse_dos_oracle(data)
    nt, table_off = _parse_nt_oracle(data, dos.e_lfanew)
    sections = _parse_sections_oracle(data, table_off, nt.number_of_sections)
    return PeImage(dos=dos, nt=nt, sections=sections, exports=None, relocations=[],
                   raw=bytes(data), layout=layout,
                   headers_end=table_off + 40 * len(sections))


def parse_pe_oracle(data: bytes):
    """What ``parse_pe`` returns, or raises, decoding step by step through
    :func:`file_reader_oracle`.  The relocation directory goes through the
    package's decoder."""
    image = _decode_headers_oracle(data, "file")
    for s in image.sections:
        if s.raw_offset + s.raw_size > len(data):
            raise Truncated(f"section {s.name!r} raw data past end of buffer")
    read = file_reader_oracle(image)
    image.exports = _parse_exports_oracle(read, image.nt)
    image.relocations = _parse_relocations(read, image.nt)
    return image


def parse_headers_oracle(data: bytes):
    return _decode_headers_oracle(data, "mapped")


def read_headers_oracle(read):
    """What ``read_headers`` returned, or raised, through the same reads."""
    head = read(0, 64)
    fh = _parse_dos_oracle(head).e_lfanew + 4
    head += read(len(head), fh + 20 - len(head))
    head += read(len(head), _u16(head, fh + 16) + 40 * _u16(head, fh + 2))
    image = parse_headers_oracle(head)
    image.read = read
    return image


def read_module_oracle(read):
    """What ``read_module`` returns, or raises: the headers and the export
    directory.  A mapped module's relocation directory is never read."""
    image = read_headers_oracle(read)
    image.exports = _parse_exports_oracle(read, image.nt)
    return image


def parse_scenario_oracle(text: str) -> list[Command]:
    """What ``parse_scenario`` must return: every word of every line split
    on its first ``=``, and every check run for every command."""
    commands: list[Command] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        op, _, rest = line.partition(" ")
        op = op.lower()
        if op == "expect":
            if not rest.strip():
                raise ScenarioError("expect needs a pattern", line_no)
            commands.append(Command(op, [rest.strip()], {}, line_no))
            continue
        args: list[str] = []
        options: dict[str, str] = {}
        for part in rest.split():
            key, eq, value = part.partition("=")
            if not eq:
                args.append(part)
            elif key in options:
                raise ScenarioError(f"repeated option {key!r}", line_no)
            else:
                options[key] = value
        syntax = COMMANDS.get(op)
        if syntax is None:
            raise ScenarioError(f"unknown command {op!r}", line_no)
        if len(args) != syntax.nargs or op == "set-mode" and args[0] not in MODES:
            raise ScenarioError(f"{op} takes {syntax.usage}", line_no)
        if op == "driver":
            name = args[0].lower()
            syntax = DRIVERS.get(name)
            if syntax is None:
                raise ScenarioError(f"unknown driver {name!r}", line_no)
        allowed = syntax.optional + syntax.required
        for key in options:
            if key not in allowed:
                raise ScenarioError(f"unknown option {key!r}", line_no)
        if op == "driver" and any(c.op == op and c.args[0].lower() == name for c in commands):
            raise ScenarioError(f"driver {name!r} declared twice", line_no)
        for key in syntax.required:  # only drivers require keys
            if key not in options:
                raise ScenarioError(f"driver {name} needs {key}=<path>", line_no)
        commands.append(Command(op, args, options, line_no))
    return commands
