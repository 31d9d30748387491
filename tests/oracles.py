"""Independent reference implementations used to check the package.

Everything here is written against the raw formats, not against the
package's own code paths, so a bug in the implementation cannot hide in
its tests.
"""

import struct

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
