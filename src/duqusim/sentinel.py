"""Defensive driver: entrypoint memorization and verification.

At process creation the watched target's entrypoint is located through
its PEB and mapped headers (the DOS header, then exactly the NT headers
and the section table), and its first 12 bytes are stored; their checksum
is logged.  Every later module load for that process re-reads those bytes
and compares them with the stored ones, byte for byte, so a rewrite that
keeps the checksum is caught too.  A mismatch means something rewrote
the entrypoint between the two notifications, and the process is
terminated (or merely flagged in report-only mode).
Unreadable headers or entrypoint bytes count as a mismatch: fail closed
rather than let tampering hide behind a fault.
"""

from __future__ import annotations

import weakref

from .peformat import PeError, read_headers, ror13_hash
from .simkernel import (
    Driver,
    EventKind,
    NotificationEvent,
    SimError,
    SimKernel,
)

HASH_SPAN = 12      # bytes hashed, matching the span the injector replaces
DISPLAY_SPAN = 8    # bytes echoed in log lines

DEFAULT_WATCH = ("services.exe",)


class IntegrityRecord:
    """``hashed`` is the HASH_SPAN entrypoint bytes the checksum was taken
    over, and ``line`` their "Entrypoint bytes" log line, logged again
    while they match."""

    def __init__(self, entrypoint: int, hashed: bytes, line: str):
        self.entrypoint = entrypoint
        self.hashed = hashed
        self.line = line


def _hex_bytes(data: bytes) -> str:
    return "0x" + data.hex(" ").replace(" ", " 0x") if data else ""


class SentinelDriver(Driver):
    """Checksum monitor: a :class:`Driver` that registers itself with a
    :class:`SimKernel` as its last step of construction.

    The driver holds its kernel through a weak proxy.  The kernel holds
    the driver, so a strong reference would make a cycle that only the
    cyclic garbage collector could free; with the proxy, a finished run is
    freed as soon as its result is dropped.  A driver whose kernel nobody
    else holds raises ``ReferenceError``: it has no kernel left to act on.
    """

    def __init__(self, kernel: SimKernel, watch: tuple[str, ...] = DEFAULT_WATCH,
                 report_only: bool = False):
        super().__init__("sentinel")
        self.kernel = weakref.proxy(kernel)
        self.watch = tuple(w.lower() for w in watch)
        self.report_only = report_only
        self.records: dict[int, IntegrityRecord] = {}
        self.verdicts: list[tuple[str, str]] = []  # (module name, OK|MISMATCH)
        self.handlers[EventKind.PROCESS_CREATE] = self.on_process_create
        self.handlers[EventKind.IMAGE_LOAD] = self.on_image_load
        self.handlers[EventKind.PROCESS_EXIT] = self._on_process_exit
        kernel.register_driver(self)

    def _log(self, text: str) -> None:
        self.kernel.log_line(self.name, text)

    def on_process_create(self, event: NotificationEvent) -> None:
        """Memorize the entrypoint bytes of a watched process.

        The notification carries only the pid; the image base comes from
        the PEB and the entrypoint from the mapped headers.
        """
        pid = event.pid
        self._log(f"-+* Create process {pid:#x} *+-")
        try:
            proc = self.kernel.process(pid)
        except SimError:  # already gone: nothing left to protect
            self._log(f"ProcessImageInformation: PEB unreadable for {pid:#x}")
            return
        base = proc.peb.image_base_address
        self._log(f"ProcessImageInformation: PEB={proc.peb_address:#010x} "
                  f"ImageBaseAddress={base:#010x} UniqueProcessId={pid:#x}")
        self._log(f"ProcessImageName: {proc.name}")
        if proc.name.lower() not in self.watch:
            return
        try:
            image = read_headers(self.kernel.image_reader(pid, base))
            entry = base + image.nt.entry_point_rva
            first = self.kernel.read_memory(pid, entry, HASH_SPAN)
        except (SimError, PeError) as exc:
            self._log(f"ProcessImageInformation: headers unreadable ({exc})")
            self._mismatch(pid, proc.name, proc.name)
            return
        line = f"Entrypoint bytes at {entry:#010x}: {_hex_bytes(first[:DISPLAY_SPAN])}"
        self._log(line)
        self._log(f"CreateProcessNotify: ImageBaseAddress={base:#010x} "
                  f"EntryPoint={entry:#010x} EntrypointChecksum={ror13_hash(first):#010x}")
        self.records[pid] = IntegrityRecord(entrypoint=entry, hashed=first, line=line)

    def on_image_load(self, event: NotificationEvent) -> None:
        """Re-verify the stored entrypoint bytes on every load for a watched pid.

        Unwatched pids are ignored without touching their memory.
        """
        pid = event.pid
        record = self.records.get(pid)
        if record is None:
            return
        kernel, source = self.kernel, self.name
        log = kernel.log_line
        log(source, f"LoadImageNotifyRoutine: ImageBaseAddress={event.base:#010x} "
                    f"ProcessId={pid:#x}")
        try:
            name = kernel.process(pid).name
        except SimError:  # already gone: nothing left to protect
            return
        log(source, f"-> Verify {name} process:")
        module = event.module_name or "?"
        try:
            current = kernel.read_memory(pid, record.entrypoint, HASH_SPAN)
        except SimError:
            log(source, f"Entrypoint bytes at {record.entrypoint:#010x}: unreadable")
            self._mismatch(pid, name, module)
            return
        if current == record.hashed:
            log(source, record.line)
            log(source, "-> OK!")
            self.verdicts.append((module, "OK"))
        else:
            log(source, f"Entrypoint bytes at {record.entrypoint:#010x}: "
                        f"{_hex_bytes(current[:DISPLAY_SPAN])}")
            self._mismatch(pid, name, module)

    def _mismatch(self, pid: int, name: str, module: str) -> None:
        self._log("-> Checksum error !!!!")
        self.verdicts.append((module, "MISMATCH"))
        self.records.pop(pid, None)
        if self.report_only:
            self._log(f"-> Flagged {name} (report-only)")
            return
        self._log(f"-> Terminating {name}")
        self.kernel.terminate_process(pid)

    def _on_process_exit(self, event: NotificationEvent) -> None:
        self.records.pop(event.pid, None)
