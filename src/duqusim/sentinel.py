"""Defensive driver: entrypoint checksum memorization and verification.

At process creation the watched target's entrypoint is located through
its PEB and mapped headers (the DOS header, then exactly the NT headers
and the section table), the first 12 bytes are hashed and stored with
their checksum.  Every later module load for that process re-reads those
bytes and compares them with the stored ones; only bytes that differ are
re-hashed, so the verdict is the checksum's either way.  A mismatch means
something rewrote the entrypoint between the two notifications, and the
process is terminated (or merely flagged in report-only mode).
Unreadable headers or entrypoint bytes count as a mismatch: fail closed
rather than let tampering hide behind a fault.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass
class IntegrityRecord:
    pid: int
    entrypoint: int
    baseline_hash: int
    hashed: bytes  # the HASH_SPAN entrypoint bytes the baseline was taken over

    @property
    def first8(self) -> bytes:
        return self.hashed[:DISPLAY_SPAN]


_HEX = tuple(f"0x{b:02x}" for b in range(256))


def _hex_bytes(data: bytes) -> str:
    return " ".join(map(_HEX.__getitem__, data))


class SentinelDriver:
    """Checksum monitor wired to a :class:`SimKernel`."""

    def __init__(self, kernel: SimKernel, watch: tuple[str, ...] = DEFAULT_WATCH,
                 report_only: bool = False, name: str = "sentinel"):
        self.kernel = kernel
        self.watch = tuple(w.lower() for w in watch)
        self.report_only = report_only
        self.records: dict[int, IntegrityRecord] = {}
        self.verdicts: list[tuple[str, str]] = []  # (module name, OK|MISMATCH)
        self.driver = Driver(name)
        self.driver.handlers[EventKind.PROCESS_CREATE] = self.on_process_create
        self.driver.handlers[EventKind.IMAGE_LOAD] = self.on_image_load
        self.driver.handlers[EventKind.PROCESS_EXIT] = self._on_process_exit
        self.handle = kernel.register_driver(self.driver)

    def _log(self, text: str) -> None:
        self.kernel.log_line(self.driver.name, text)

    def on_process_create(self, event: NotificationEvent) -> None:
        """Memorize the baseline checksum for a watched process.

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
        checksum = ror13_hash(first)
        self._log(f"Entrypoint bytes at {entry:#010x}: {_hex_bytes(first[:DISPLAY_SPAN])}")
        self._log(f"CreateProcessNotify: ImageBaseAddress={base:#010x} "
                  f"EntryPoint={entry:#010x} EntrypointChecksum={checksum:#010x}")
        self.records[pid] = IntegrityRecord(pid=pid, entrypoint=entry,
                                            baseline_hash=checksum, hashed=first)

    def on_image_load(self, event: NotificationEvent) -> None:
        """Re-verify the stored checksum on every load for a watched pid.

        Unwatched pids are ignored without touching their memory.
        """
        record = self.records.get(event.pid)
        if record is None:
            return
        self._log(f"LoadImageNotifyRoutine: ImageBaseAddress={event.base:#010x} "
                  f"ProcessId={event.pid:#x}")
        try:
            name = self.kernel.process(event.pid).name
        except SimError:
            name = f"pid {event.pid:#x}"
        self._log(f"-> Verify {name} process:")
        module = event.module_name or "?"
        try:
            current = self.kernel.read_memory(event.pid, record.entrypoint, HASH_SPAN)
        except SimError:
            self._log(f"Entrypoint bytes at {record.entrypoint:#010x}: unreadable")
            self._mismatch(event.pid, name, module)
            return
        self._log(f"Entrypoint bytes at {record.entrypoint:#010x}: "
                  f"{_hex_bytes(current[:DISPLAY_SPAN])}")
        # Unchanged bytes hash the same, so only changed ones are rehashed.
        if current == record.hashed or ror13_hash(current) == record.baseline_hash:
            self._log("-> OK!")
            self.verdicts.append((module, "OK"))
        else:
            self._mismatch(event.pid, name, module)

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
