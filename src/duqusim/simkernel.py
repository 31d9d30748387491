"""Deterministic simulated OS substrate.

Processes own disjoint virtual-memory regions with R/W/X permissions, a
loader maps PE32 images (relocating on base collisions), and drivers
receive process-create / image-load / process-exit notifications in
registration order.  Dispatch is synchronous and single-threaded: a
notification emitted while another is being dispatched queues behind it,
so identical inputs always produce identical event sequences and logs.
The log is the one record of a run.  Only dispatch turns a handler's or a
deferred init step's exception into a line,
``! fault: <driver>: <Type>: <message>``, and then goes on to the later
drivers and queued events.  Control flow follows simulated memory:
:meth:`SimKernel.run_entrypoint` decodes the entrypoint, and a hook there
runs the ``code`` of the region it targets.

Writes performed by an earlier-registered driver are visible to every
later-registered driver handling the same event; that asymmetry is the
whole point of the launch-order experiments.

A kernel parses each distinct image once: repeated loads of the same bytes
reuse the parsed headers and directories, and only the mapped layout is
built afresh for every mapping.
"""

from __future__ import annotations

import bisect
import enum
from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Optional

from .peformat import (
    HOOK_LEN,
    SCN_MEM_WRITE,
    PeImage,
    Reader,
    apply_relocations,
    assemble_mapped,
    decode_entry_hook,
    parse_headers,
    parse_pe,
)

ADDRESS_LIMIT = 1 << 32
ALLOC_FLOOR = 0x000A0000     # lowest address handed out for fresh allocations
REBASE_STEP = 0x10000        # granularity when hunting for a free image base
PID_START = 0x910
PID_STEP = 4
PEB_START = 0x7FFD5000
SYSTEM_VERSION = "5.1.2600"


class Perm(enum.Flag):
    READ = 1
    WRITE = 2
    EXECUTE = 4

    def describe(self) -> str:
        out = ""
        if Perm.READ in self:
            out += "R"
        if Perm.WRITE in self:
            out += "W"
        if Perm.EXECUTE in self:
            out += "X"
        return out or "-"


PERM_R = Perm.READ
PERM_RW = Perm.READ | Perm.WRITE
PERM_RX = Perm.READ | Perm.EXECUTE
PERM_RWX = Perm.READ | Perm.WRITE | Perm.EXECUTE


class EventKind(enum.Enum):
    PROCESS_CREATE = "PROCESS_CREATE"
    PROCESS_EXIT = "PROCESS_EXIT"
    IMAGE_LOAD = "IMAGE_LOAD"


@dataclass
class NotificationEvent:
    kind: EventKind
    pid: int
    module_name: Optional[str] = None
    base: int = 0


@dataclass
class DeviceRequest:
    device: str
    code: int
    payload: bytes = b""


class SimError(Exception):
    """Base class for simulator failures."""


class DuplicateName(SimError):
    pass


class DuplicateDevice(SimError):
    pass


class NoSuchProcess(SimError):
    pass


class NoSuchDevice(SimError):
    pass


class UnmappedAddress(SimError):
    def __init__(self, addr: int):
        super().__init__(f"address {addr:#010x} is not mapped")
        self.addr = addr


class AccessViolation(SimError):
    def __init__(self, addr: int, missing: Perm):
        super().__init__(f"access violation at {addr:#010x}, missing {missing.describe()}")
        self.addr = addr
        self.missing = missing


class SpansRegions(SimError):
    pass


class AddressSpaceExhausted(SimError):
    pass


class InvalidAllocation(SimError):
    pass


class CannotRelocate(SimError):
    pass


class ReentrantCall(SimError):
    pass


class NotSimulated(SimError):
    """Control reached a region that has no simulated code."""


@dataclass
class MemoryRegion:
    base: int
    data: bytearray
    perms: Perm
    tag: str
    code: Optional[Callable[[int], None]] = None  # run with the pid on entry

    @property
    def end(self) -> int:
        return self.base + len(self.data)


_region_base = attrgetter("base")


@dataclass
class Peb:
    image_base_address: int


class SimProcess:
    def __init__(self, pid: int, name: str, peb_address: int):
        self.pid = pid
        self.name = name
        self.image_base = 0
        self.entry_point = 0
        self.peb = Peb(image_base_address=0)
        self.peb_address = peb_address
        # Sorted by base and pairwise disjoint, so a lookup only has to
        # look at the region starting last before the probed address.
        self.regions: list[MemoryRegion] = []
        self.modules: list[tuple[str, int]] = []
        self.alive = True

    def region_at(self, addr: int) -> Optional[MemoryRegion]:
        i = bisect.bisect_right(self.regions, addr, key=_region_base)
        if i and addr < self.regions[i - 1].end:
            return self.regions[i - 1]
        return None

    def span_free(self, base: int, size: int) -> bool:
        # Every region starting before the span's end ends no later than the
        # last of them, so that one alone decides whether the span is free.
        i = bisect.bisect_left(self.regions, base + size, key=_region_base)
        return i == 0 or self.regions[i - 1].end <= base

    def add_region(self, region: MemoryRegion) -> MemoryRegion:
        assert self.span_free(region.base, len(region.data)), "region overlap"
        bisect.insort(self.regions, region, key=_region_base)
        return region


class Driver:
    """A registered driver: a name and its notification handlers."""

    def __init__(self, name: str):
        self.name = name
        self.handlers: dict[EventKind, Callable[[NotificationEvent], None]] = {}


class SimKernel:
    def __init__(self, mode: str = "normal", version: str = SYSTEM_VERSION):
        self.mode = mode
        self.version = version
        self.drivers: list[Driver] = []
        self.devices: dict[str, tuple[Driver, Callable[[DeviceRequest], bytes]]] = {}
        self.processes: dict[int, SimProcess] = {}
        self.log: list[tuple[str, str]] = []
        self._queue: deque[NotificationEvent] = deque()
        self._dispatching = False
        self._init_waiters: list[tuple[Driver, Callable[[], bool]]] = []
        self._images: dict[bytes, PeImage] = {}
        self._next_pid = PID_START
        self._next_peb = PEB_START

    # ------------------------------------------------------------------
    # logging
    # ------------------------------------------------------------------

    def log_line(self, source: str, text: str) -> None:
        self.log.append((source, text))

    # ------------------------------------------------------------------
    # drivers and devices
    # ------------------------------------------------------------------

    def register_driver(self, driver: Driver) -> int:
        """Append a driver to the dispatch order; returns its handle."""
        if any(d.name == driver.name for d in self.drivers):
            raise DuplicateName(f"driver {driver.name!r} already registered")
        self.drivers.append(driver)
        return len(self.drivers)

    def create_device(self, driver: Driver, path: str,
                      handler: Callable[[DeviceRequest], bytes]) -> None:
        if path in self.devices:
            raise DuplicateDevice(f"device {path!r} already exists")
        self.devices[path] = (driver, handler)

    def send_device_request(self, request: DeviceRequest) -> bytes:
        if request.device not in self.devices:
            raise NoSuchDevice(f"no device {request.device!r}")
        _, handler = self.devices[request.device]
        return handler(request)

    def defer_init(self, driver: Driver, recheck: Callable[[], bool]) -> None:
        """Queue ``driver``'s init continuation, re-run before each event dispatch.

        ``recheck`` returns True once it is finished (successfully or not)
        and should be dropped from the waiting list.  One that raises is
        logged as the driver's fault and dropped.
        """
        self._init_waiters.append((driver, recheck))

    # ------------------------------------------------------------------
    # processes and modules
    # ------------------------------------------------------------------

    def process(self, pid: int) -> SimProcess:
        proc = self.processes.get(pid)
        if proc is None or not proc.alive:
            raise NoSuchProcess(f"no live process {pid:#x}")
        return proc

    def find_module(self, names: tuple[str, ...]) -> Optional[tuple[int, str, int]]:
        """First (pid, module name, base) whose basename matches any name."""
        wanted = {n.lower() for n in names}
        for proc in self.processes.values():
            for mod_name, base in proc.modules:
                if mod_name.rsplit("\\", 1)[-1].lower() in wanted:
                    return proc.pid, mod_name, base
        return None

    def create_process(self, name: str, image: bytes, base: int | None = None) -> SimProcess:
        """Map a PE32 as a new process's main module and announce it.

        The create notification carries only the pid; receivers wanting the
        image base must read the PEB themselves.
        """
        if self._dispatching:
            raise ReentrantCall("create_process called from a notification handler")
        parsed = self._parse_image(image)
        pid = self._next_pid
        self._next_pid += PID_STEP
        proc = SimProcess(pid, name, self._next_peb)
        self._next_peb += 0x1000
        self.processes[pid] = proc
        mapped_base = self._map_image(proc, parsed, name, base)
        proc.image_base = mapped_base
        proc.entry_point = mapped_base + parsed.nt.entry_point_rva
        proc.peb.image_base_address = mapped_base
        proc.modules.append((name, mapped_base))
        self.log_line("loader", f"* Created process {name} pid={pid:#x} *")
        self._emit(NotificationEvent(EventKind.PROCESS_CREATE, pid))
        if not proc.alive:  # a create handler terminated it: nothing was loaded
            return proc
        self.log_line("loader", f"* Loaded module {name} *")
        self._emit(NotificationEvent(EventKind.IMAGE_LOAD, pid, module_name=name,
                                     base=mapped_base))
        return proc

    def load_module(self, pid: int, name: str, image: bytes,
                    base: int | None = None) -> int:
        if self._dispatching:
            raise ReentrantCall("load_module called from a notification handler")
        proc = self.process(pid)
        parsed = self._parse_image(image)
        mapped_base = self._map_image(proc, parsed, name, base)
        proc.modules.append((name, mapped_base))
        self.log_line("loader", f"* Loaded module {name} *")
        self._emit(NotificationEvent(EventKind.IMAGE_LOAD, pid, module_name=name,
                                     base=mapped_base))
        return mapped_base

    def terminate_process(self, pid: int) -> None:
        proc = self.process(pid)
        proc.alive = False
        self.log_line("loader", f"* Process {proc.name} pid={pid:#x} exited *")
        self._emit(NotificationEvent(EventKind.PROCESS_EXIT, pid))

    def run_entrypoint(self, pid: int) -> None:
        """Run a process's entrypoint; a hook there runs its target region's code."""
        proc = self.process(pid)
        target = decode_entry_hook(self.read_memory(pid, proc.entry_point, HOOK_LEN))
        if target is None:
            self.log_line("loader", f"* Process {proc.name} pid={pid:#x} runs its entrypoint *")
            return
        region = self._walk_span(proc, target, 1, Perm.EXECUTE)[0][0]
        if region.code is None:
            raise NotSimulated(f"no simulated code at {target:#010x}")
        region.code(pid)

    # ------------------------------------------------------------------
    # memory
    # ------------------------------------------------------------------

    def read_memory(self, pid: int, addr: int, length: int) -> bytes:
        proc = self.process(pid)
        pieces = self._walk_span(proc, addr, length, Perm.READ)
        return b"".join(bytes(r.data[lo:hi]) for r, lo, hi in pieces)

    def image_reader(self, pid: int, base: int) -> Reader:
        """``read(rva, n)`` over the module mapped at ``base`` in ``pid``."""
        return lambda rva, n: self.read_memory(pid, base + rva, n)

    def write_memory(self, pid: int, addr: int, data: bytes) -> None:
        proc = self.process(pid)
        pieces = self._walk_span(proc, addr, len(data), Perm.WRITE)
        pos = 0
        for r, lo, hi in pieces:
            r.data[lo:hi] = data[pos:pos + (hi - lo)]
            pos += hi - lo

    def _walk_span(self, proc: SimProcess, addr: int, length: int,
                   needed: Perm) -> list[tuple[MemoryRegion, int, int]]:
        """Resolve a span to region slices, checking permissions first.

        Nothing is returned (and so nothing can be mutated) unless the
        whole span is mapped with the needed permission.
        """
        pieces: list[tuple[MemoryRegion, int, int]] = []
        cursor = addr
        end = addr + length
        while cursor < end:
            region = proc.region_at(cursor)
            if region is None:
                raise UnmappedAddress(cursor)
            if needed not in region.perms:
                raise AccessViolation(cursor, needed & ~region.perms)
            hi = min(end, region.end)
            pieces.append((region, cursor - region.base, hi - region.base))
            cursor = hi
        return pieces

    def allocate_memory(self, pid: int, size: int, perms: Perm,
                        code: Callable[[int], None] | None = None) -> int:
        """Fresh zero-filled region at the lowest free address >= the floor."""
        proc = self.process(pid)
        if size <= 0:
            raise InvalidAllocation(f"allocation size {size} must be positive")
        base = ALLOC_FLOOR
        for region in proc.regions:
            if region.end <= base:
                continue
            if region.base >= base + size:
                break
            base = region.end
        if base + size > ADDRESS_LIMIT:
            raise AddressSpaceExhausted(f"no room for {size:#x} bytes")
        proc.add_region(MemoryRegion(base, bytearray(size), perms, "injected", code))
        return base

    def protect_memory(self, pid: int, addr: int, length: int, perms: Perm) -> Perm:
        """Swap a region's permissions; returns the previous set."""
        proc = self.process(pid)
        region = proc.region_at(addr)
        if region is None:
            raise UnmappedAddress(addr)
        if addr + length > region.end:
            raise SpansRegions(f"span at {addr:#010x} crosses a region boundary")
        old = region.perms
        region.perms = perms
        return old

    def read_image(self, pid: int, base: int) -> bytes:
        """Reassemble a mapped module into one size_of_image buffer.

        Gaps between mapped regions come back zero-filled, matching what
        the loader laid down.  A view for tests and tooling: the drivers
        read modules piecewise through :meth:`read_memory`.
        """
        proc = self.process(pid)
        header_region = proc.region_at(base)
        if header_region is None:
            raise UnmappedAddress(base)
        header = bytes(header_region.data[base - header_region.base:])
        parsed = parse_headers(header)
        size = parsed.nt.size_of_image
        buf = bytearray(size)
        for r in proc.regions:
            lo = max(r.base, base)
            hi = min(r.end, base + size)
            if lo < hi:
                buf[lo - base:hi - base] = r.data[lo - r.base:hi - r.base]
        return bytes(buf)

    # ------------------------------------------------------------------
    # loader internals
    # ------------------------------------------------------------------

    def _parse_image(self, image: bytes) -> PeImage:
        """Parse ``image`` once per kernel; a failed parse is never stored."""
        key = bytes(image)
        parsed = self._images.get(key)
        if parsed is None:
            parsed = self._images[key] = parse_pe(key)
        return parsed

    def _map_image(self, proc: SimProcess, image: PeImage, name: str,
                   requested: int | None) -> int:
        size = image.nt.size_of_image
        base = requested if requested is not None else image.nt.image_base
        if base < 0 or base + size > ADDRESS_LIMIT:
            raise AddressSpaceExhausted(
                f"{name} ({size:#x} bytes) at {base:#x} leaves the address space")
        while not proc.span_free(base, size):
            base += REBASE_STEP
            if base + size > ADDRESS_LIMIT:
                raise AddressSpaceExhausted(f"no base for {name} ({size:#x} bytes)")
        mapped = assemble_mapped(image)
        if base != image.nt.image_base:
            if not image.relocations:
                raise CannotRelocate(f"{name} must rebase but has no relocations")
            mapped = bytearray(apply_relocations(mapped, base, image.nt.image_base,
                                                 image.relocations))
        first_va = min(s.virtual_address for s in image.sections)
        proc.add_region(MemoryRegion(
            base=base, data=mapped[:first_va],
            perms=PERM_R, tag=f"image:{name}"))
        for s in image.sections:
            span = min(s.virtual_span, size - s.virtual_address)
            if span <= 0:
                continue
            if s.executable:
                perms = PERM_RX
            elif s.characteristics & SCN_MEM_WRITE:
                perms = PERM_RW
            else:
                perms = PERM_R
            proc.add_region(MemoryRegion(
                base=base + s.virtual_address,
                data=mapped[s.virtual_address:s.virtual_address + span],
                perms=perms, tag=f"image:{name}"))
        return base

    # ------------------------------------------------------------------
    # event dispatch
    # ------------------------------------------------------------------

    def _emit(self, event: NotificationEvent) -> None:
        self._queue.append(event)
        if not self._dispatching:
            self._drain()

    def _drain(self) -> None:
        self._dispatching = True
        try:
            while self._queue:
                event = self._queue.popleft()
                self._run_init_waiters()
                for driver in list(self.drivers):
                    handler = driver.handlers.get(event.kind)
                    try:
                        if handler is not None:
                            handler(event)
                    except Exception as exc:  # one driver's fault stops no other
                        self._fault(driver, exc)
        finally:
            self._dispatching = False

    def _run_init_waiters(self) -> None:
        for waiter in list(self._init_waiters):
            driver, recheck = waiter
            try:
                done = recheck()
            except Exception as exc:  # a failed init is dropped, dispatch goes on
                self._fault(driver, exc)
                done = True
            if done:
                self._init_waiters.remove(waiter)

    def _fault(self, driver: Driver, exc: Exception) -> None:
        self.log_line(driver.name, f"! fault: {driver.name}: {type(exc).__name__}: {exc}")
