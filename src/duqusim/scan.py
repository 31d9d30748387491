"""Static PE scanner for the injection artifacts.

Three signatures, all file-level:

* ENTRY_HOOK          - entrypoint bytes decode as mov eax, imm32 / call eax
* ZWPROTECT_PATTERN   - the call / push 104h / call train anchored at a
                        named export resolves (requires --anchor-export)
* OBFUSCATED_PE_CONST - a code dword equals the plain signature constant,
                        i.e. dword XOR 0xF750F284 == 0xF750B7D4; that
                        dword is 0x00004550, the file bytes 50 45 00 00
                        ("PE" and two NULs); every occurrence is reported
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

from .peformat import (
    DEFAULT_SCAN_WINDOW,
    HOOK_LEN,
    SIG_XOR_EXPECT,
    SIG_XOR_KEY,
    PatternNotFound,
    PeError,
    decode_entry_hook,
    parse_pe,
    rva_to_offset,
    scan_call_push_call,
    section_data,
)

ENTRY_HOOK = "ENTRY_HOOK"
ZWPROTECT_PATTERN = "ZWPROTECT_PATTERN"
OBFUSCATED_PE_CONST = "OBFUSCATED_PE_CONST"

# The one dword D with D ^ SIG_XOR_KEY == SIG_XOR_EXPECT, as file bytes.
PE_CONST = struct.pack("<I", SIG_XOR_KEY ^ SIG_XOR_EXPECT)


@dataclass
class Finding:
    kind: str
    address: int
    detail: str


@dataclass
class ScanReport:
    path: str
    findings: list[Finding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    def render(self) -> str:
        if self.clean:
            return f"{self.path}: clean\n"
        lines = [f"{self.path}: {len(self.findings)} finding(s)"]
        for f in self.findings:
            lines.append(f"  {f.kind} {f.address:#010x} {f.detail}")
        return "\n".join(lines) + "\n"


def scan_pe(data: bytes, path: str = "<buffer>",
            anchor_export: str | None = None,
            window: int = DEFAULT_SCAN_WINDOW) -> ScanReport:
    """Scan PE32 file bytes for the three signatures."""
    image = parse_pe(data)
    report = ScanReport(path=path)
    entry_rva = image.nt.entry_point_rva
    entry_va = image.nt.image_base + entry_rva
    try:
        off = rva_to_offset(image, entry_rva)
    except PeError:
        off = None
    target = None if off is None else decode_entry_hook(data[off:off + HOOK_LEN])
    if target is not None:
        report.findings.append(Finding(
            ENTRY_HOOK, entry_va,
            f"mov eax, {target:#010x} / call eax at the entrypoint"))
    if anchor_export:
        try:
            site, target = scan_call_push_call(image, anchor_export, window=window)
            report.findings.append(Finding(
                ZWPROTECT_PATTERN, site,
                f"near call resolves to unexported {target:#010x} "
                f"(anchor {anchor_export})"))
        except (PatternNotFound, PeError):
            pass
    for section in image.sections:
        if not section.executable:
            continue
        blob = section_data(image, section)
        i = -1
        while (i := blob.find(PE_CONST, i + 1)) != -1:
            report.findings.append(Finding(
                OBFUSCATED_PE_CONST,
                image.nt.image_base + section.virtual_address + i,
                "code carries the de-obfuscated signature dword"))
    return report


def scan_file(path: str | Path, anchor_export: str | None = None,
              window: int = DEFAULT_SCAN_WINDOW) -> ScanReport:
    path = Path(path)
    return scan_pe(path.read_bytes(), path=str(path),
                   anchor_export=anchor_export, window=window)
