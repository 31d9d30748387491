"""Static PE scanner for the injection artifacts.

Three signatures over file bytes read as the loader maps them, so a file
scan finds what a scan of the mapped module finds.  No match starts at a
zero byte or ends more than 4 bytes past its start, so a code section is
searched up to 4 bytes into its zero tail.  Both code searches run in C
whatever the fill bytes, over the file bytes where they lie; only a span
that reaches its zero tail is laid out first.  Only a call with a push
104h in reach is decoded in Python:

* ENTRY_HOOK          - entrypoint bytes, as the loader maps them (zero
                        past a section's raw data), decode as
                        mov eax, imm32 / call eax
* ZWPROTECT_PATTERN   - the call / push 104h / call train anchored at a
                        named export resolves (requires --anchor-export)
* OBFUSCATED_PE_CONST - a code dword equals the plain signature constant,
                        i.e. dword XOR 0xF750F284 == 0xF750B7D4; that
                        dword is 0x00004550, the file bytes 50 45 00 00
                        ("PE" and two NULs); every occurrence is reported
"""

from __future__ import annotations

import re
import struct
from pathlib import Path

from .peformat import (
    HOOK_LEN,
    SIG_XOR_EXPECT,
    SIG_XOR_KEY,
    PeError,
    Record,
    decode_entry_hook,
    find_call_push_call,
    find_export_by_name,
    mapped_bytes,
    parse_pe,
    read_regular_file,
)

ENTRY_HOOK = "ENTRY_HOOK"
ZWPROTECT_PATTERN = "ZWPROTECT_PATTERN"
OBFUSCATED_PE_CONST = "OBFUSCATED_PE_CONST"

# The one dword D with D ^ SIG_XOR_KEY == SIG_XOR_EXPECT, as file bytes.
PE_CONST = struct.pack("<I", SIG_XOR_KEY ^ SIG_XOR_EXPECT)
# One compiled literal search; PE\0\0 cannot overlap itself, so the
# matches are every occurrence.
_find_pe_consts = re.compile(re.escape(PE_CONST)).finditer
# PosixPath or WindowsPath: for a path of this class, str(Path(p)) == str(p).
_NATIVE_PATH = type(Path())


class Finding(Record):
    __slots__ = _compared = ("kind", "address", "detail")

    def __init__(self, kind: str, address: int, detail: str):
        self.kind = kind
        self.address = address
        self.detail = detail


class ScanReport(Record):
    _compared = ("path", "findings")

    def __init__(self, path: str):
        self.path = path
        self.findings: list[Finding] = []

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
            anchor_export: str | None = None) -> ScanReport:
    """Scan PE32 file bytes for the three signatures."""
    image = parse_pe(data)
    report = ScanReport(path=path)
    entry_rva = image.nt.entry_point_rva
    entry_va = image.nt.image_base + entry_rva
    # The bytes the loader maps there: past a section's raw data, zeros.
    target = decode_entry_hook(mapped_bytes(image, entry_rva, HOOK_LEN))
    if target is not None:
        report.findings.append(Finding(
            ENTRY_HOOK, entry_va,
            f"mov eax, {target:#010x} / call eax at the entrypoint"))
    try:
        anchor_va = find_export_by_name(image, anchor_export) if anchor_export else None
    except PeError:  # no export to anchor a train
        anchor_va = None
    consts = []
    for section in image.sections:
        if not section.executable:
            continue
        lo = section.virtual_address
        n = max(min(section.virtual_span, image.nt.size_of_image - lo, section.raw_size + 4), 0)
        if n <= section.raw_size:  # all file bytes: searched where they lie
            data, start = image.raw, section.raw_offset
        else:  # up to 4 bytes of zero tail: laid out once for both searches
            data, start = mapped_bytes(image, lo, n), 0
        end = start + n
        section_va = image.nt.image_base + lo
        if anchor_va is not None:
            found = find_call_push_call(data, section_va, anchor_va, start=start, end=end)
            if found is not None:
                site, target = found
                report.findings.append(Finding(
                    ZWPROTECT_PATTERN, site,
                    f"near call resolves to unexported {target:#010x} "
                    f"(anchor {anchor_export})"))
                anchor_va = None
        origin = section_va - start
        consts += [Finding(OBFUSCATED_PE_CONST, origin + match.start(),
                           "code carries the de-obfuscated signature dword")
                   for match in _find_pe_consts(data, start, end)]
    report.findings += consts
    return report


def scan_file(path: str | Path, anchor_export: str | None = None) -> ScanReport:
    """Scan the PE32 file at ``path``.

    A path naming no regular file (missing, a directory, a FIFO) raises
    ``FileNotFoundError`` at once; a FIFO is not waited on.  The report,
    and the error, name the path as ``str(Path(path))`` renders it, and
    that string is the path opened.
    """
    name = str(path) if type(path) is _NATIVE_PATH else str(Path(path))
    data = read_regular_file(name)
    if data is None:
        raise FileNotFoundError(f"file {name!r} not found")
    return scan_pe(data, path=name, anchor_export=anchor_export)
