"""Generated fixture set for the proof-of-concept transcript.

Everything here is synthesized: no real binaries ship with the project,
only the handful of published byte snippets (the call/push 104h/call
train, the target entry bytes, the injected hook shape) planted inside
tiny generated PE32 images.  Generation is fully deterministic so two
runs of ``make-fixtures`` produce byte-identical trees.

Address layout mirrors the transcript this suite replays:

    services.exe   0x01000000, entrypoint 0x01012475
    kernel32.dll   0x7C800000      shell32.dll 0x7C9D0000
    ntdll.dll      0x7C900000      ntoskrnl.exe 0x00400000
    injected stubs 0x000A0000 / 0x000A18BD

The second stub image is sized so the first stub's region lands exactly
at 0x000A18BD when allocations start at the 0x000A0000 floor.
"""

from __future__ import annotations

from pathlib import Path

from .duqu import InjectionConfig, decrypt_blob, default_mask, encode_config
from .pebuild import (
    CODE_SECTION,
    DATA_SECTION,
    PeSpec,
    SectionDef,
    build_pe32,
    reloc_block,
)
from .peformat import ror13_hash
from .simkernel import ALLOC_FLOOR, PID_START, PID_STEP

SERVICES_BASE = 0x01000000
SERVICES_ENTRY_RVA = 0x12475
# push 70h / push 010015E0h / call ... ; the classic target prologue.
SERVICES_ENTRY_BYTES = bytes([0x6A, 0x70, 0x68, 0xE0, 0x15, 0x00, 0x01,
                              0xE8, 0xC4, 0x01, 0x00, 0x00])

KERNEL_IMAGE_BASE = 0x00400000
KERNEL32_BASE = 0x7C800000
SHELL32_BASE = 0x7C9D0000
NTDLL_BASE = 0x7C900000
HAL_BASE = 0x80010000
SYSTEM_STUB_BASE = 0x00300000

ZWALLOCATE_RVA = 0x5DDC
ZWPROTECT_RVA = 0x6882
ZWCLOSE_RVA = 0x5E2C

# Opcode train around the two calls: anchored at VA 0x004ED1BC, the first
# near call resolves to the exported allocator, push 104h follows, and the
# second near call reaches the unexported protect routine at 0x00406882.
CALL_TRAIN_VA = 0x004ED1BC
CALL_TRAIN = bytes([
    0x50, 0x57,
    0xE8, 0x19, 0x8C, 0xF1, 0xFF,        # call -> 0x00405DDC
    0x3B, 0xC3,
    0x8B, 0x4D, 0xFC,
    0x89, 0x4E, 0x0C,
    0x7C, 0x2E,
    0x38, 0x5D, 0x0B,
    0x74, 0x27,
    0x8B, 0x45, 0xD0,
    0x89, 0x45, 0xF8,
    0x8D, 0x45, 0xF4,
    0x50,
    0x68, 0x04, 0x01, 0x00, 0x00,        # push 104h
    0x8D, 0x45, 0xF8,
    0x50,
    0x8D, 0x45, 0xFC,
    0x50, 0x57,
    0xE8, 0x93, 0x96, 0xF1, 0xFF,        # call -> 0x00406882
    0x3B, 0xC3,
])
PROTECT_CALL_SITE = CALL_TRAIN_VA + 46    # 0x004ED1EA

STUB1_IMAGE_BASE = 0x10000000
STUB2_IMAGE_BASE = 0x10100000
PAYLOAD_IMAGE_BASE = 0x10000000
STUB2_FILE_SIZE = 0x18BD
STUB1_EXPECTED_REGION = ALLOC_FLOOR + STUB2_FILE_SIZE  # 0x000A18BD

CONFIG_KEY = 0x5A
REGISTRY_KEY = "SYSTEM\\CurrentControlSet\\Services\\nfrd965\\FILTER"

SERVICES_PID = PID_START + PID_STEP  # second process created in the PoC boot

KERNEL32_EXPORTS = (
    "LoadLibraryA", "GetProcAddress", "VirtualAlloc", "VirtualProtect",
    "VirtualFree", "CreateFileA", "ReadFile", "WriteFile", "CloseHandle",
    "GetModuleHandleA", "GetTickCount", "Sleep", "lstrlenA",
)


def _zw_prologue(service_number: int, ret_bytes: int) -> bytes:
    """mov eax, imm32 / mov edx, 7FFE0300h / call [edx] / ret imm16."""
    return bytes([0xB8, service_number & 0xFF, (service_number >> 8) & 0xFF, 0, 0,
                  0xBA, 0x00, 0x03, 0xFE, 0x7F,
                  0xFF, 0x12,
                  0xC2, ret_bytes & 0xFF, (ret_bytes >> 8) & 0xFF])


def build_services_exe() -> bytes:
    text = bytearray(0x11600)
    text[:4] = bytes([0x55, 0x8B, 0xEC, 0x90])
    entry_off = SERVICES_ENTRY_RVA - 0x1000
    text[entry_off:entry_off + len(SERVICES_ENTRY_BYTES)] = SERVICES_ENTRY_BYTES
    data = bytearray(0x200)
    data[:8] = b"svchostd"
    return build_pe32(PeSpec(
        image_base=SERVICES_BASE,
        entry_rva=SERVICES_ENTRY_RVA,
        sections=[
            SectionDef(".text", 0x1000, bytes(text), CODE_SECTION,
                       virtual_size=0x12000),
            SectionDef(".data", 0x13000, bytes(data), DATA_SECTION,
                       virtual_size=0x1000),
        ],
    ))


def build_ntoskrnl() -> bytes:
    text = bytearray(b"\x90" * 0x6000)
    for rva, (number, ret) in ((ZWALLOCATE_RVA, (0x11, 0x18)),
                               (ZWPROTECT_RVA, (0x89, 0x14)),
                               (ZWCLOSE_RVA, (0x19, 0x04))):
        off = rva - 0x1000
        text[off:off + 15] = _zw_prologue(number, ret)
    page = bytearray(b"\x90" * 0x1000)
    train_off = CALL_TRAIN_VA - KERNEL_IMAGE_BASE - 0xED000
    page[train_off:train_off + len(CALL_TRAIN)] = CALL_TRAIN
    return build_pe32(PeSpec(
        image_base=KERNEL_IMAGE_BASE,
        entry_rva=0x1000,
        sections=[
            SectionDef(".text", 0x1000, bytes(text), CODE_SECTION,
                       virtual_size=0x6000),
            SectionDef("PAGE", 0xED000, bytes(page), CODE_SECTION,
                       virtual_size=0x1000),
        ],
        exports=[("ZwAllocateVirtualMemory", ZWALLOCATE_RVA),
                 ("ZwClose", ZWCLOSE_RVA)],
        export_va=0x7000,
    ))


def _dll_fixture(base: int, exports: tuple[str, ...], marker: bytes) -> bytes:
    """Small DLL shape shared by the loader-visible system libraries."""
    text = bytearray(b"\x90" * 0x400)
    text[:len(marker)] = marker
    entries = []
    for i, name in enumerate(exports):
        rva = 0x1000 + 0x40 * (i + 1)
        body = bytes([0xB8, i + 1, 0x00, 0x00, 0x00, 0xC3])  # mov eax, i+1 / ret
        text[rva - 0x1000:rva - 0x1000 + len(body)] = body
        entries.append((name, rva))
    slots = bytearray(0x10)
    slots[0:4] = (base + 0x1000).to_bytes(4, "little")
    slots[8:12] = (base + 0x1040).to_bytes(4, "little")
    text[0x3F0:0x400] = slots
    return build_pe32(PeSpec(
        image_base=base,
        entry_rva=0x1000,
        sections=[SectionDef(".text", 0x1000, bytes(text), CODE_SECTION,
                             virtual_size=0x1000)],
        exports=entries,
        export_va=0x2000,
        relocations=[reloc_block(0x1000, [0x3F0, 0x3F8])],
        reloc_va=0x3000,
        dll=True,
    ))


def build_kernel32() -> bytes:
    return _dll_fixture(KERNEL32_BASE, KERNEL32_EXPORTS, b"k32!")


def build_shell32() -> bytes:
    return _dll_fixture(SHELL32_BASE, ("SHGetDesktopFolder", "ShellExecuteA"), b"sh32")


def build_ntdll() -> bytes:
    return _dll_fixture(NTDLL_BASE, ("NtClose", "RtlInitUnicodeString", "DbgPrint"),
                        b"ntdl")


def build_hal() -> bytes:
    return _dll_fixture(HAL_BASE, ("HalQuerySystemInformation",), b"hal!")


def build_system_stub() -> bytes:
    return build_pe32(PeSpec(
        image_base=SYSTEM_STUB_BASE,
        entry_rva=0x1000,
        sections=[SectionDef(".text", 0x1000, b"\x90" * 0x100, CODE_SECTION,
                             virtual_size=0x1000)],
    ))


def build_stub1() -> bytes:
    """Bootstrap stub: flat layout (section RVA == raw offset), relocatable."""
    text = bytearray(b"\xCC" * 0x200)
    text[:4] = b"stb1"
    text[0x10:0x14] = (STUB1_IMAGE_BASE + 0x230).to_bytes(4, "little")
    text[0x20:0x24] = (STUB1_IMAGE_BASE + 0x240).to_bytes(4, "little")
    return build_pe32(PeSpec(
        image_base=STUB1_IMAGE_BASE,
        entry_rva=0x200,
        sections=[SectionDef(".text", 0x200, bytes(text), CODE_SECTION)],
        relocations=[reloc_block(0, [0x210, 0x220])],
        reloc_va=0x400,
        section_align=0x200,
    ))


def build_stub2() -> bytes:
    """Mapper stub: flat layout, padded so the file is exactly 0x18BD bytes.

    That length puts the next allocation (the bootstrap stub) at
    0x000A18BD, the address the hook immediate must carry.
    """
    text = bytearray(b"\xCC" * (STUB2_FILE_SIZE - 0x200))
    text[:4] = b"stb2"
    image = build_pe32(PeSpec(
        image_base=STUB2_IMAGE_BASE,
        entry_rva=0x200,
        sections=[SectionDef(".text", 0x200, bytes(text), CODE_SECTION)],
        section_align=0x200,
    ))
    assert len(image) == STUB2_FILE_SIZE, f"stub2 is {len(image):#x} bytes"
    return image


def build_payload_dll() -> bytes:
    """The decrypted main module: a relocatable DLL the stub maps manually."""
    text = bytearray(b"\x90" * 0x200)
    text[:8] = bytes([0x55, 0x8B, 0xEC, 0xB8, 0x01, 0x00, 0x00, 0x00])
    data = bytearray(0x200)
    data[:8] = b"payload!"
    data[0x10:0x14] = (PAYLOAD_IMAGE_BASE + 0x2100).to_bytes(4, "little")
    data[0x18:0x1C] = (PAYLOAD_IMAGE_BASE + 0x1000).to_bytes(4, "little")
    return build_pe32(PeSpec(
        image_base=PAYLOAD_IMAGE_BASE,
        entry_rva=0x1000,
        sections=[
            SectionDef(".text", 0x1000, bytes(text), CODE_SECTION,
                       virtual_size=0x1000),
            SectionDef(".data", 0x2000, bytes(data), DATA_SECTION,
                       virtual_size=0x1000),
        ],
        relocations=[reloc_block(0x2000, [0x10, 0x18])],
        reloc_va=0x3000,
        dll=True,
    ))


def build_encrypted_payload() -> bytes:
    return decrypt_blob(build_payload_dll(), CONFIG_KEY)


def build_config_blob() -> bytes:
    return encode_config(InjectionConfig(
        target_process="services.exe",
        payload=build_encrypted_payload(),
        registry_key=REGISTRY_KEY,
    ), CONFIG_KEY)


_DUQU_DRIVER_LINE = ("driver duqu config=duqu_config.bin stub1=stub1.bin "
                     "stub2=stub2.bin mask=maskspec.json kernel-base=0x00400000")

_BOOT_LINES = """process System system.bin
module System ntoskrnl.exe ntoskrnl.exe base=0x00400000
module System hal.dll hal.dll
"""


def poc_scenario_text() -> str:
    checksum = ror13_hash(SERVICES_ENTRY_BYTES)
    entry_va = SERVICES_BASE + SERVICES_ENTRY_RVA
    return f"""# Launch order: defensive driver, injector, then the renamed target.
# The monitor memorizes the entrypoint checksum at creation, passes the
# kernel32 load, and catches the rewritten entrypoint on the shell32 load.
driver sentinel
{_DUQU_DRIVER_LINE}
{_BOOT_LINES}process services.exe services.exe base=0x01000000
module services.exe kernel32.dll kernel32.dll base=0x7c800000
module services.exe shell32.dll shell32.dll base=0x7c9d0000
expect -+* Create process {SERVICES_PID:#x} *+-
expect ImageBaseAddress={SERVICES_BASE:#010x} EntryPoint={entry_va:#010x} EntrypointChecksum={checksum:#010x}
expect Entrypoint bytes at {entry_va:#010x}: 0x6a 0x70 0x68 0xe0 0x15 0x00 0x01 0xe8
expect * Loaded module kernel32.dll *
expect -> OK!
expect * Loaded module shell32.dll *
expect Entrypoint bytes at {entry_va:#010x}: 0xb8 0xbd 0x18 0x0a 0x00 0xff 0xd0 0xe8
expect -> Checksum error !!!!
expect -> Terminating services.exe
"""


def unopposed_scenario_text() -> str:
    entry_va = SERVICES_BASE + SERVICES_ENTRY_RVA
    return f"""# Injector alone: full chain through stub launch and the two restores.
{_DUQU_DRIVER_LINE}
{_BOOT_LINES}process services.exe services.exe base=0x01000000
module services.exe kernel32.dll kernel32.dll base=0x7c800000
module services.exe ntdll.dll ntdll.dll base=0x7c900000
run services.exe
expect DuquDriver: boot init complete
expect staged injection into pid={SERVICES_PID:#x}
expect entrypoint hook written at {entry_va:#010x} -> {STUB1_EXPECTED_REGION:#010x}
expect * PAYLOAD_STARTED pid={SERVICES_PID:#x} *
expect RESTORE_ENTRYPOINT pid={SERVICES_PID:#x}
expect RESTORE_PROTECTION pid={SERVICES_PID:#x}
expect control returned to original entrypoint
"""


FIXTURE_BUILDERS = {
    "system.bin": build_system_stub,
    "ntoskrnl.exe": build_ntoskrnl,
    "hal.dll": build_hal,
    "kernel32.dll": build_kernel32,
    "shell32.dll": build_shell32,
    "ntdll.dll": build_ntdll,
    "services.exe": build_services_exe,
    "stub1.bin": build_stub1,
    "stub2.bin": build_stub2,
    "netp191.pnf": build_encrypted_payload,
    "duqu_config.bin": build_config_blob,
}


def write_fixture_set(directory: str | Path) -> list[str]:
    """Emit the complete PoC fixture tree; returns the file names written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, builder in FIXTURE_BUILDERS.items():
        (directory / name).write_bytes(builder())
        written.append(name)
    (directory / "maskspec.json").write_text(default_mask().to_json(), encoding="utf-8")
    written.append("maskspec.json")
    for name, text in (("poc_duqu_attack.scenario", poc_scenario_text()),
                       ("duqu_unopposed.scenario", unopposed_scenario_text())):
        (directory / name).write_text(text, encoding="utf-8")
        written.append(name)
    return written
