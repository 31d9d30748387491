import itertools
import random
import struct

import pytest

from duqusim import peformat
from duqusim.peformat import (
    MAX_IMAGE_SIZE,
    AmbiguousHash,
    BadShape,
    HashNotFound,
    NameNotFound,
    NoExportTable,
    NotMz,
    NotNearCall,
    NotPe,
    OutOfImage,
    Truncated,
    Unencodable,
    apply_relocations,
    emit_pe,
    encode_near_call,
    find_export_by_hash,
    find_export_by_name,
    parse_headers,
    parse_pe,
    resolve_near_call,
    restore_headers,
    ror13_hash,
    rva_to_offset,
    strip_headers,
)
from duqusim.pebuild import (
    CODE_SECTION,
    PeSpec,
    SectionDef,
    build_pe32,
    random_pe32,
    reloc_block,
)
from duqusim.scan import scan_pe
from duqusim.scenario import run_scenario

from oracles import (
    apply_relocations_oracle,
    dump_pe_oracle,
    near_call_target_oracle,
    ror13_oracle,
)

# Golden value computed with the independent oracle before the module
# existed; must never drift.
SERVICES_NAME_HASH = 0x983CE711


def minimal_fixture(**overrides) -> bytes:
    spec = dict(
        image_base=0x00400000,
        entry_rva=0x1000,
        sections=[SectionDef(".text", 0x1000, b"\x90" * 0x100, CODE_SECTION)],
    )
    spec.update(overrides)
    return build_pe32(PeSpec(**spec))


class TestRor13Hash:
    def test_empty_is_zero(self):
        assert ror13_hash(b"") == 0

    def test_single_byte(self):
        assert ror13_hash(b"\x41") == 0x41

    def test_services_exe_golden(self):
        assert ror13_hash(b"services.exe") == SERVICES_NAME_HASH
        assert ror13_oracle(b"services.exe") == SERVICES_NAME_HASH

    def test_matches_oracle_on_random_input(self):
        rng = random.Random(7)
        for _ in range(200):
            data = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 40)))
            assert ror13_hash(data) == ror13_oracle(data)

    def test_incremental_property(self):
        rng = random.Random(11)
        for _ in range(100):
            prefix = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 20)))
            b = rng.randrange(256)
            h = ror13_hash(prefix)
            rotated = ((h >> 13) | (h << 19)) & 0xFFFFFFFF
            assert ror13_hash(prefix + bytes([b])) == (rotated + b) & 0xFFFFFFFF


class TestSignatureObfuscation:
    def test_xor_pair_identity(self):
        assert peformat.SIG_XOR_KEY ^ peformat.SIG_XOR_EXPECT == 0x00004550

    def test_check_is_xor_invariant(self):
        rng = random.Random(3)
        dwords = [rng.randrange(1 << 32) for _ in range(500)] + [0x00004550]
        for s in dwords:
            obfuscated_ok = (s ^ peformat.SIG_XOR_KEY) == peformat.SIG_XOR_EXPECT
            assert obfuscated_ok == (s == 0x00004550)


class TestNearCall:
    def test_published_protect_call(self):
        blob = bytes([0xE8, 0x93, 0x96, 0xF1, 0xFF])
        assert resolve_near_call(0x004ED1EA, blob) == 0x00406882
        assert near_call_target_oracle(0x004ED1EA, blob) == 0x00406882

    def test_published_allocate_call(self):
        blob = bytes([0xE8, 0x19, 0x8C, 0xF1, 0xFF])
        assert resolve_near_call(0x004ED1BE, blob) == 0x00405DDC

    def test_zero_displacement(self):
        assert resolve_near_call(0x1000, b"\xE8\x00\x00\x00\x00") == 0x1005

    def test_rejects_other_opcodes(self):
        with pytest.raises(NotNearCall):
            resolve_near_call(0, b"\xE9\x00\x00\x00\x00")
        with pytest.raises(NotNearCall):
            resolve_near_call(0, b"\xE8\x00\x00\x00")

    def test_encode_resolve_round_trip(self):
        rng = random.Random(19)
        for _ in range(2000):
            site = rng.randrange(1 << 32)
            target = rng.randrange(1 << 32)
            assert resolve_near_call(site, encode_near_call(site, target)) == target


class TestParseEmit:
    def test_round_trip_against_dump_oracle(self):
        data = minimal_fixture(
            exports=[("Probe", 0x1010)], export_va=0x2000,
            relocations=[reloc_block(0x1000, [0x10, 0x20])], reloc_va=0x3000)
        image = parse_pe(data)
        dump = dump_pe_oracle(data)
        assert image.nt.machine == dump["machine"] == 0x014C
        assert image.nt.optional_magic == dump["magic"] == 0x010B
        assert image.nt.entry_point_rva == dump["entry"]
        assert image.nt.image_base == dump["image_base"]
        assert image.nt.size_of_image == dump["size_of_image"]
        assert len(image.sections) == dump["nsections"]
        for parsed, oracle in zip(image.sections, dump["sections"]):
            assert parsed.name == oracle["name"]
            assert parsed.virtual_address == oracle["va"]
            assert parsed.raw_offset == oracle["roff"]
            assert parsed.raw_size == oracle["rsize"]
            assert parsed.characteristics == oracle["flags"]
        assert image.exports.entries == dump["exports"]
        assert [(b.page_rva, b.fixups) for b in image.relocations] == dump["relocs"]

    def test_random_fixtures_round_trip(self):
        rng = random.Random(23)
        for _ in range(40):
            data = random_pe32(rng)
            image = parse_pe(data)
            assert emit_pe(image) == data
            dump = dump_pe_oracle(data)
            assert image.nt.entry_point_rva == dump["entry"]
            if image.exports is not None:
                assert image.exports.entries == dump["exports"]

    def test_emit_then_parse_structural_equality(self):
        data = minimal_fixture()
        image = parse_pe(data)
        image.nt.entry_point_rva = 0x1040
        reparsed = parse_pe(emit_pe(image))
        assert reparsed.nt.entry_point_rva == 0x1040
        assert reparsed.sections == image.sections

    def test_emitted_mz_bytes(self):
        assert minimal_fixture()[0:2] == b"\x4D\x5A"

    def test_zero_sections_unencodable(self):
        image = parse_pe(minimal_fixture())
        image.sections = []
        image.nt.number_of_sections = 0
        with pytest.raises(Unencodable):
            emit_pe(image)

    def test_not_mz(self):
        with pytest.raises(NotMz):
            parse_pe(b"XX" + b"\x00" * 200)
        with pytest.raises(NotMz):
            parse_pe(b"")

    def test_bad_signature_dword_is_not_pe(self):
        data = bytearray(minimal_fixture())
        lfanew = struct.unpack_from("<I", data, 60)[0]
        struct.pack_into("<I", data, lfanew, 0x12345678)
        with pytest.raises(NotPe):
            parse_pe(bytes(data))

    def test_wrong_machine_rejected(self):
        data = bytearray(minimal_fixture())
        lfanew = struct.unpack_from("<I", data, 60)[0]
        struct.pack_into("<H", data, lfanew + 4, 0x8664)
        with pytest.raises(NotPe):
            parse_pe(bytes(data))

    def test_pe32plus_magic_rejected(self):
        data = bytearray(minimal_fixture())
        lfanew = struct.unpack_from("<I", data, 60)[0]
        struct.pack_into("<H", data, lfanew + 24, 0x020B)
        with pytest.raises(NotPe):
            parse_pe(bytes(data))

    def test_truncated_buffer(self):
        data = minimal_fixture()
        with pytest.raises(Truncated):
            parse_pe(data[:70])
        with pytest.raises(Truncated):
            parse_pe(data[:-1])


def oversized_image() -> bytes:
    return minimal_fixture(size_of_image=MAX_IMAGE_SIZE + 0x1000)


class TestImageSizeBound:
    """A header may claim up to 4 GiB; nothing past MAX_IMAGE_SIZE is parsed."""

    def test_bound_itself_parses(self):
        data = minimal_fixture(size_of_image=MAX_IMAGE_SIZE)
        assert parse_pe(data).nt.size_of_image == MAX_IMAGE_SIZE

    def test_parsers_reject_oversized(self):
        for parse in (parse_pe, parse_headers):
            with pytest.raises(NotPe, match="size_of_image 0x4001000 above 0x4000000"):
                parse(oversized_image())

    def test_scan_rejects_oversized(self):
        with pytest.raises(NotPe):
            scan_pe(oversized_image())

    def test_process_line_logs_error_and_maps_nothing(self, tmp_path):
        (tmp_path / "big.exe").write_bytes(oversized_image())
        scenario = tmp_path / "big.scenario"
        scenario.write_text("process big.exe big.exe\n"
                            "expect ! error: NotPe: size_of_image 0x4001000\n")
        result = run_scenario(scenario)
        assert result.ok, result.text_lines()
        assert result.kernel.processes == {}


class TestRvaToOffset:
    def test_linear_section_map(self):
        data = build_pe32(PeSpec(
            image_base=0x400000, entry_rva=0x1000,
            sections=[SectionDef(".text", 0x1000, b"\x90" * 0x100, CODE_SECTION)]))
        image = parse_pe(data)
        raw = image.sections[0].raw_offset
        assert rva_to_offset(image, 0x1010) == raw + 0x10

    def test_header_identity(self):
        image = parse_pe(minimal_fixture())
        assert rva_to_offset(image, 0) == 0
        assert rva_to_offset(image, 0x80) == 0x80

    def test_out_of_image(self):
        image = parse_pe(minimal_fixture())
        with pytest.raises(OutOfImage):
            rva_to_offset(image, image.nt.size_of_image + 0x1000)


class TestStripRestore:
    def test_strip_then_parse_fails(self):
        with pytest.raises(NotMz):
            parse_pe(strip_headers(parse_pe(minimal_fixture())))

    def test_restore_is_exact_inverse(self):
        data = minimal_fixture(exports=[("A", 0x1000)], export_va=0x2000)
        assert restore_headers(strip_headers(parse_pe(data))) == data

    def test_random_fixtures_inverse(self):
        rng = random.Random(31)
        for _ in range(30):
            data = random_pe32(rng)
            assert restore_headers(strip_headers(parse_pe(data))) == data

    def test_strip_zeroes_exactly_the_four_constants(self):
        data = minimal_fixture()
        lfanew = struct.unpack_from("<I", data, 60)[0]
        stripped = strip_headers(parse_pe(data))
        zeroed = {0, 1, lfanew, lfanew + 1, lfanew + 2, lfanew + 3,
                  lfanew + 4, lfanew + 5, lfanew + 24, lfanew + 25}
        assert len(zeroed) == 10
        for pos in zeroed:
            assert stripped[pos] == 0
        for pos, (a, b) in enumerate(zip(data, stripped)):
            if pos not in zeroed:
                assert a == b, f"byte {pos:#x} changed outside the strip span"

    def test_restored_constants(self):
        data = restore_headers(strip_headers(parse_pe(minimal_fixture())))
        lfanew = struct.unpack_from("<I", data, 60)[0]
        assert struct.unpack_from("<I", data, lfanew)[0] == 0x00004550
        assert struct.unpack_from("<H", data, lfanew + 4)[0] == 0x014C
        assert struct.unpack_from("<H", data, lfanew + 24)[0] == 0x010B

    def test_bad_shape(self):
        with pytest.raises(BadShape):
            restore_headers(b"\x00" * 32)
        blob = bytearray(0x100)
        struct.pack_into("<I", blob, 60, 0xFFFF)
        with pytest.raises(BadShape):
            restore_headers(bytes(blob))


class TestApplyRelocations:
    def test_zero_delta_is_noop(self):
        data = bytes(range(256))
        blocks = [reloc_block(0, [0x10, 0x40])]
        assert apply_relocations(data, 0x400000, 0x400000, blocks) == data

    def test_additive_arithmetic(self):
        buf = bytearray(0x20)
        struct.pack_into("<I", buf, 0x10, 0x01001000)
        blocks = [reloc_block(0, [0x10])]
        out = apply_relocations(bytes(buf), 0x000A0000, 0x01000000, blocks)
        assert struct.unpack_from("<I", out, 0x10)[0] == 0x000A1000

    def test_matches_scalar_oracle_on_random_input(self):
        rng = random.Random(41)
        for _ in range(40):
            size = rng.randrange(0x100, 0x1000)
            data = bytes(rng.randrange(256) for _ in range(size))
            blocks = [reloc_block(0, sorted(rng.sample(range(0, size - 4), 5)))]
            mapped = rng.randrange(1 << 32)
            preferred = rng.randrange(1 << 32)
            assert apply_relocations(data, mapped, preferred, blocks) == \
                apply_relocations_oracle(data, mapped, preferred, blocks)

    def test_inverse_delta_restores(self):
        rng = random.Random(43)
        data = bytes(rng.randrange(256) for _ in range(0x400))
        blocks = [reloc_block(0, [0x00, 0x80, 0x100])]
        delta = 0x123456
        forward = apply_relocations(data, delta, 0, blocks)
        assert apply_relocations(forward, 0, delta, blocks) == data

    def test_fixup_out_of_range(self):
        blocks = [reloc_block(0, [0xFFC])]
        with pytest.raises(peformat.FixupOutOfRange):
            apply_relocations(b"\x00" * 0x100, 1, 0, blocks)


class TestExports:
    def kernel_like(self) -> bytes:
        text = bytearray(b"\x90" * 0x5000)
        return build_pe32(PeSpec(
            image_base=0x00400000, entry_rva=0x1000,
            sections=[SectionDef(".text", 0x1000, bytes(text), CODE_SECTION)],
            exports=[("ZwAllocateVirtualMemory", 0x5DDC), ("ZwClose", 0x5E2C)],
            export_va=0x6000,
            size_of_image=0x7000))

    def test_find_by_name_matches_call_arithmetic(self):
        image = parse_pe(self.kernel_like())
        va = find_export_by_name(image, b"ZwAllocateVirtualMemory")
        assert va == 0x00405DDC
        # The published anchor call from 0x004ED1BE resolves to the same spot.
        assert near_call_target_oracle(0x004ED1BE,
                                       bytes([0xE8, 0x19, 0x8C, 0xF1, 0xFF])) == va

    def test_name_not_found(self):
        image = parse_pe(self.kernel_like())
        with pytest.raises(NameNotFound):
            find_export_by_name(image, b"ZwOpenKey")

    def test_empty_export_table(self):
        data = minimal_fixture(exports=[], export_va=0x2000)
        image = parse_pe(data)
        with pytest.raises(NameNotFound):
            find_export_by_name(image, b"Anything")
        with pytest.raises(HashNotFound):
            find_export_by_hash(image, 0x1234)

    def test_no_export_table(self):
        image = parse_pe(minimal_fixture())
        assert image.exports is None
        with pytest.raises(NoExportTable):
            find_export_by_name(image, b"Anything")

    def test_find_by_hash(self):
        data = minimal_fixture(
            exports=[("GetProcAddress", 0x1010), ("LoadLibraryA", 0x1020)],
            export_va=0x2000)
        image = parse_pe(data)
        name, va = find_export_by_hash(image, ror13_oracle(b"GetProcAddress"))
        assert name == b"GetProcAddress"
        assert va == image.nt.image_base + 0x1010

    def test_hash_zero_never_matches(self):
        data = minimal_fixture(exports=[("GetProcAddress", 0x1010)], export_va=0x2000)
        with pytest.raises(HashNotFound):
            find_export_by_hash(parse_pe(data), 0)

    def test_ambiguous_hash_from_brute_forced_collision(self):
        # Brute-force a pair of distinct short printable names that collide.
        seen = {}
        pair = None
        for a, c in itertools.product(range(0x21, 0x7F), repeat=2):
            name = bytes([a, 0x41, c])
            h = ror13_oracle(name)
            if h in seen and seen[h] != name:
                pair = (seen[h], name, h)
                break
            seen[h] = name
        assert pair is not None, "no collision found in the search space"
        first, second, h = pair
        data = minimal_fixture(exports=[(first, 0x1010), (second, 0x1020)],
                               export_va=0x2000)
        with pytest.raises(AmbiguousHash):
            find_export_by_hash(parse_pe(data), h)
