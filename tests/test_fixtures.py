import hashlib
from pathlib import Path

from duqusim.duqu import IntegrityMask, decode_config, default_mask
from duqusim.fixtures import (
    FIXTURE_BUILDERS,
    STUB2_FILE_SIZE,
    build_stub1,
    build_stub2,
    poc_scenario_text,
    unopposed_scenario_text,
    write_fixture_set,
)
from duqusim.peformat import parse_pe
from duqusim.scan import scan_pe
from duqusim.scenario import parse_scenario

from oracles import xor_stream_oracle

# sha256sum of every file make-fixtures writes, in LC_ALL=C name order.
GOLDEN_DIGESTS = Path(__file__).parent / "golden" / "fixtures.sha256"


def test_fixture_set_bytes_match_golden_digests(tmp_path):
    write_fixture_set(tmp_path)
    sums = "".join(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n"
                   for path in sorted(tmp_path.iterdir()))
    assert sums == GOLDEN_DIGESTS.read_text(encoding="ascii")


def test_services_fixture_entrypoint(fixture_bytes):
    image = parse_pe(fixture_bytes("services.exe"))
    assert image.nt.image_base + image.nt.entry_point_rva == 0x01012475


def test_every_pe_fixture_parses(fixture_bytes):
    for name in FIXTURE_BUILDERS:
        if name in ("netp191.pnf", "duqu_config.bin"):
            continue
        image = parse_pe(fixture_bytes(name))
        assert image.nt.machine == 0x014C, name


def test_pe_fixtures_scan_clean(fixture_bytes):
    for name in FIXTURE_BUILDERS:
        if name in ("netp191.pnf", "duqu_config.bin", "ntoskrnl.exe"):
            continue
        assert scan_pe(fixture_bytes(name)).clean, name


def test_stub2_size_pins_the_stub1_landing_address():
    assert len(build_stub2()) == STUB2_FILE_SIZE == 0x18BD


def test_stubs_are_flat_layout():
    for data in (build_stub1(), build_stub2()):
        image = parse_pe(data)
        for section in image.sections:
            assert section.virtual_address == section.raw_offset


def test_config_blob_carries_the_encrypted_payload(fixture_bytes):
    config, key = decode_config(fixture_bytes("duqu_config.bin"))
    assert config.target_process == "services.exe"
    assert config.payload == fixture_bytes("netp191.pnf")
    decrypted = xor_stream_oracle(config.payload, key)
    assert parse_pe(decrypted).nt.size_of_image == 0x4000


def test_maskspec_round_trip(fixture_dir):
    text = (fixture_dir / "maskspec.json").read_text()
    mask = IntegrityMask.from_json(text)
    assert mask == default_mask()
    assert IntegrityMask.from_json(mask.to_json()) == mask


def test_scenario_texts_parse():
    for text in (poc_scenario_text(), unopposed_scenario_text()):
        commands = parse_scenario(text)
        assert any(c.op == "expect" for c in commands)
