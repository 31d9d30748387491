"""Acceptance suite: one test per release criterion.

Each test prints a single ``ACCEPTANCE nn <name>: PASS|FAIL`` line (visible
with ``pytest -s``); the whole module is expected to finish in well under a
minute.
"""

import functools
import random
import struct

import pytest

from duqusim.cli import main
from duqusim.duqu import PatternNotFound, scan_call_push_call
from duqusim.fixtures import SERVICES_ENTRY_BYTES
from duqusim.peformat import (
    apply_relocations,
    assemble_mapped,
    parse_pe,
    resolve_near_call,
    restore_headers,
    ror13_hash,
    strip_headers,
)
from duqusim.scan import ENTRY_HOOK, scan_pe
from duqusim.scenario import match_expectations, run_scenario
from duqusim.sentinel import HASH_SPAN, SentinelDriver
from duqusim.simkernel import (
    PERM_RWX,
    PERM_RX,
    AccessViolation,
    EventKind,
    NotificationEvent,
    SimKernel,
)
from duqusim.pebuild import reloc_block

from conftest import boot_kernel, driver_named, encode_near_call, entry_file_offset, random_pe32
from oracles import apply_relocations_oracle, ror13_oracle

HOOK = bytes([0xB8, 0xBD, 0x18, 0x0A, 0x00, 0xFF, 0xD0])


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:02d} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {number:02d} {name}: PASS")
        return wrapper
    return decorate


@criterion(1, "proof-of-concept transcript replication")
def test_poc_replication(fixture_dir, capsys):
    assert main(["run", str(fixture_dir / "poc_duqu_attack.scenario")]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    checksum = ror13_oracle(SERVICES_ENTRY_BYTES)
    assert checksum == ror13_hash(SERVICES_ENTRY_BYTES)
    ordered = [
        "-+* Create process 0x914 *+-",
        f"CreateProcessNotify: ImageBaseAddress=0x01000000 "
        f"EntryPoint=0x01012475 EntrypointChecksum={checksum:#010x}",
        "* Loaded module kernel32.dll *",
        "Entrypoint bytes at 0x01012475: 0x6a 0x70 0x68 0xe0 0x15 0x00 0x01 0xe8",
        "-> OK!",
        "* Loaded module shell32.dll *",
        "Entrypoint bytes at 0x01012475: 0xb8 0xbd 0x18 0x0a 0x00 0xff 0xd0 0xe8",
        "-> Checksum error !!!!",
        "-> Terminating services.exe",
    ]
    assert match_expectations(ordered, lines) == []
    # the create block itself carries the clean bytes before kernel32 loads
    create_at = lines.index(
        "Entrypoint bytes at 0x01012475: 0x6a 0x70 0x68 0xe0 0x15 0x00 0x01 0xe8")
    k32_at = lines.index("* Loaded module kernel32.dll *")
    assert create_at < k32_at


@criterion(2, "opcode pattern discovery")
def test_pattern_discovery(fixture_bytes):
    image = parse_pe(fixture_bytes("ntoskrnl.exe"))
    site, target = scan_call_push_call(image, "ZwAllocateVirtualMemory")
    assert site == 0x004ED1EA
    assert target == 0x00406882
    mutated = bytearray(fixture_bytes("ntoskrnl.exe"))
    push_at = mutated.find(bytes([0x68, 0x04, 0x01, 0x00, 0x00]))
    mutated[push_at:push_at + 5] = b"\x90" * 5
    with pytest.raises(PatternNotFound):
        scan_call_push_call(parse_pe(bytes(mutated)), "ZwAllocateVirtualMemory")


@criterion(3, "near-call arithmetic")
def test_near_call_arithmetic():
    assert resolve_near_call(0x004ED1EA,
                             bytes([0xE8, 0x93, 0x96, 0xF1, 0xFF])) == 0x00406882
    rng = random.Random(0xD0D0)
    for _ in range(10_000):
        site = rng.randrange(1 << 32)
        target = rng.randrange(1 << 32)
        assert resolve_near_call(site, encode_near_call(site, target)) == target


@criterion(4, "header strip/restore inverse on 100 fixtures")
def test_strip_restore_inverse():
    rng = random.Random(0x5741)
    for _ in range(100):
        data = random_pe32(rng)
        lfanew = struct.unpack_from("<I", data, 60)[0]
        stripped = strip_headers(parse_pe(data))
        zeroed = {0, 1, lfanew, lfanew + 1, lfanew + 2, lfanew + 3,
                  lfanew + 4, lfanew + 5, lfanew + 24, lfanew + 25}
        for pos, (before, after) in enumerate(zip(data, stripped)):
            if pos in zeroed:
                assert after == 0
            else:
                assert before == after
        assert restore_headers(stripped) == data


@criterion(5, "relocation application matches the scalar oracle")
def test_relocation_oracle():
    rng = random.Random(0x9E10)
    for _ in range(100):
        image = parse_pe(random_pe32(rng))
        mapped = bytes(assemble_mapped(image))
        section = image.sections[0]
        page = section.virtual_address & ~0xFFF
        offsets = sorted(rng.sample(range(0, 0xFF0), rng.randint(1, 8)))
        blocks = [reloc_block(page, [o for o in offsets
                                     if page + o + 4 <= len(mapped)])]
        delta_base = rng.randrange(1 << 32)
        preferred = image.nt.image_base
        out = bytearray(mapped)
        apply_relocations(out, delta_base, preferred, blocks)
        assert out == apply_relocations_oracle(mapped, delta_base, preferred, blocks)
        out = bytearray(mapped)
        apply_relocations(out, preferred, preferred, blocks)
        assert out == mapped


@criterion(6, "permission enforcement round trip")
def test_permission_round_trip(fixture_dir, fixture_bytes):
    # RX entrypoint refuses the 7-byte hook; RWX accepts it.
    kernel = SimKernel()
    proc = kernel.create_process("services.exe", fixture_bytes("services.exe"),
                                 base=0x01000000)
    entry = 0x01012475
    with pytest.raises(AccessViolation) as info:
        kernel.write_memory(proc.pid, entry, HOOK)
    assert info.value.missing.describe() == "W"
    old = kernel.protect_memory(proc.pid, entry, len(HOOK), PERM_RWX)
    assert old == PERM_RX
    kernel.write_memory(proc.pid, entry, HOOK)

    # Full chain: after the payload's restore request the pre-injection
    # permissions are back and the same write faults again.
    result = run_scenario(fixture_dir / "duqu_unopposed.scenario")
    assert result.ok
    duqu = driver_named(result, "duqu")
    target = duqu.state.target_pid
    region = result.kernel.process(target).region_at(duqu.state.entry_va)
    assert region.perms == PERM_RX == old
    with pytest.raises(AccessViolation):
        result.kernel.write_memory(target, duqu.state.entry_va, HOOK)


@criterion(7, "restore completeness after the stub chain")
def test_restore_completeness(fixture_dir):
    result = run_scenario(fixture_dir / "duqu_unopposed.scenario")
    assert result.ok
    duqu = driver_named(result, "duqu")
    state = duqu.state
    current = result.kernel.read_memory(state.target_pid, state.entry_va, 12)
    assert current == state.saved_entry_bytes == SERVICES_ENTRY_BYTES


@criterion(8, "sentinel sensitivity and false-positive rate")
def test_sentinel_sensitivity(fixture_bytes):
    # Exhaustive: every single-byte change in the hashed span is caught.
    kernel = SimKernel()
    sentinel = SentinelDriver(kernel, report_only=True)
    proc = kernel.create_process("services.exe", fixture_bytes("services.exe"),
                                 base=0x01000000)
    record = sentinel.records[proc.pid]
    entry = record.entrypoint
    kernel.protect_memory(proc.pid, entry, HASH_SPAN, PERM_RWX)
    event = NotificationEvent(EventKind.IMAGE_LOAD, proc.pid,
                              module_name="probe.dll", base=0x7C000000)
    cases = 0
    for position in range(HASH_SPAN):
        original = SERVICES_ENTRY_BYTES[position]
        for value in range(256):
            if value == original:
                continue
            mutated = bytearray(SERVICES_ENTRY_BYTES)
            mutated[position] = value
            kernel.write_memory(proc.pid, entry, bytes(mutated))
            sentinel.records[proc.pid] = record
            sentinel.on_image_load(event)
            assert sentinel.verdicts[-1] == ("probe.dll", "MISMATCH")
            cases += 1
    assert cases == 12 * 255

    # 1000 randomized no-write scenarios never trip a mismatch.
    rng = random.Random(0xFA15E)
    modules = ["kernel32.dll", "shell32.dll", "ntdll.dll", "hal.dll"]
    for _ in range(1000):
        k = SimKernel()
        s = SentinelDriver(k)
        p = k.create_process("services.exe", fixture_bytes("services.exe"),
                             base=0x01000000)
        for _ in range(rng.randint(0, 3)):
            name = rng.choice(modules)
            k.load_module(p.pid, name, fixture_bytes(name))
        assert all(verdict == "OK" for _, verdict in s.verdicts)
        assert p.alive


@criterion(9, "detection is launch-order invariant")
def test_ordering_invariance(fixture_dir, fixture_bytes):
    outcomes = {}
    for sentinel_first in (True, False):
        kernel, drivers = boot_kernel(fixture_dir, sentinel_first=sentinel_first)
        services = kernel.create_process("services.exe",
                                         fixture_bytes("services.exe"),
                                         base=0x01000000)
        kernel.load_module(services.pid, "kernel32.dll",
                           fixture_bytes("kernel32.dll"), base=0x7C800000)
        if services.alive:
            kernel.load_module(services.pid, "shell32.dll",
                               fixture_bytes("shell32.dll"), base=0x7C9D0000)
        assert not services.alive, "infected process must end terminated"
        outcomes[sentinel_first] = dict(drivers["sentinel"].verdicts)
    assert outcomes[True]["kernel32.dll"] == "OK"
    assert outcomes[True]["shell32.dll"] == "MISMATCH"
    assert outcomes[False]["kernel32.dll"] == "MISMATCH"
    assert "shell32.dll" not in outcomes[False]


@criterion(10, "static scanner precision")
def test_scanner_precision(fixture_bytes):
    data = bytearray(fixture_bytes("services.exe"))
    image = parse_pe(bytes(data))
    off = entry_file_offset(image)
    data[off:off + 7] = HOOK
    report = scan_pe(bytes(data))
    assert any(f.kind == ENTRY_HOOK and f.address == 0x01012475
               for f in report.findings)

    rng = random.Random(0x5CA7)
    for _ in range(500):
        clean = random_pe32(rng)
        assert all(f.kind != ENTRY_HOOK for f in scan_pe(clean).findings)
