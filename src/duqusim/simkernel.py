"""Deterministic simulated OS substrate.

Processes own disjoint virtual-memory regions with R/W/X permissions, a
loader maps PE32 images (relocating on base collisions), and drivers
receive process-create / image-load / process-exit notifications in
registration order.  Each driver is a :class:`Driver`, and
:attr:`SimKernel.drivers` is the one list of them.  Dispatch is
synchronous and single-threaded: a notification emitted while another is
being dispatched queues behind it, so identical inputs always produce
identical event sequences and logs.  The log is the one record of a run.
Only dispatch turns a handler's or a deferred init step's exception into
a line, ``! fault: <driver>: <Type>: <message>``, and then goes on to the
later drivers and queued events.  Control flow follows simulated memory:
:meth:`SimKernel.run_entrypoint` decodes the entrypoint, and a hook there
runs the ``code`` of the region it targets.

Writes performed by an earlier-registered driver are visible to every
later-registered driver handling the same event; that asymmetry is the
whole point of the launch-order experiments.

A process works out each distinct image once: every kernel maps the same
bytes from one :class:`ImageCache` entry, a :class:`LoadPlan` holding the
parsed image and, per mapped span, its RVA, permissions and read-only
view of its bytes.  The cache finds a plan by the file's length and one
compare of its bytes; it never hashes them.  Every mapping reads as its
own and shares until written, as Windows maps an image copy-on-write: a
region starts as its span's view, and only :meth:`MemoryRegion.writable`
gives it bytes of its own.  The first rebase by a delta lays the image
out and relocates it (:func:`~duqusim.peformat.assemble_mapped`,
:func:`~duqusim.peformat.apply_relocations`), as the injector maps its
payload, and keeps read-only copies of just the spans whose bytes
changed; every mapping rebased by that delta, in any kernel, then shares
them.  No other load lays out a size_of_image buffer.  A map reads the
image's size, bases and checks from its plan, finds its base and its
place in the sorted regions by bisecting the process's sorted list of
region ends, once per region in the way (:meth:`SimProcess.free_base`),
and, after relocation succeeds, splices its regions and their ends in
there; a load that fails leaves nothing mapped and, for a new process,
no process.  Every address lookup is one bisect of those ends.

A finished run is freed by reference counting.  The kernel holds its
drivers, their devices, init waiters and region code, and nothing it
holds refers back to it strongly: the drivers hold it through a weak
proxy.  Dropping the last reference to a kernel frees its processes and
regions at once, and the image cache holds no kernel; only a driver
whose handlers are its own bound methods waits for the cyclic collector.
"""

from __future__ import annotations

import bisect
import enum
from collections import deque
from typing import Callable, Optional

from .peformat import (
    HOOK_LEN,
    SCN_MEM_WRITE,
    NotPe,
    PeImage,
    Reader,
    Record,
    _laid_out,
    apply_relocations,
    assemble_mapped,
    decode_entry_hook,
    mapped_spans,
    parse_pe,
    read_headers,
)

ADDRESS_LIMIT = 1 << 32
ALLOC_FLOOR = 0x000A0000     # lowest address handed out for fresh allocations
REBASE_STEP = 0x10000        # granularity when hunting for a free image base
PID_START = 0x910
PID_STEP = 4
PEB_START = 0x7FFD5000
SYSTEM_VERSION = "5.1.2600"
IMAGE_CACHE_BYTES = 8 << 20  # file bytes plus span and layout copies the image cache may hold


class Perm(enum.Flag):
    READ = 1
    WRITE = 2
    EXECUTE = 4

    # Every value, combined or not, is a cached singleton, so identity
    # hashes it, as it does EventKind.
    __hash__ = object.__hash__

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
_PERMS = tuple(map(Perm, range(PERM_RWX.value + 1)))
# needed -> every value that grants it: one set lookup, no Flag.__contains__.
_GRANTING = {needed: frozenset(p for p in _PERMS if needed in p) for needed in _PERMS}
_READABLE = _GRANTING[Perm.READ]


class EventKind(enum.Enum):
    PROCESS_CREATE = "PROCESS_CREATE"
    PROCESS_EXIT = "PROCESS_EXIT"
    IMAGE_LOAD = "IMAGE_LOAD"

    # The members are singletons, so identity hashes them; Enum.__hash__
    # runs in Python on every handler lookup.
    __hash__ = object.__hash__


class NotificationEvent(Record):
    __slots__ = _compared = ("kind", "pid", "module_name", "base")

    def __init__(self, kind: EventKind, pid: int, module_name: Optional[str] = None,
                 base: int = 0):
        self.kind = kind
        self.pid = pid
        self.module_name = module_name
        self.base = base


class DeviceRequest:
    def __init__(self, device: str, code: int, payload: bytes = b""):
        self.device = device
        self.code = code
        self.payload = payload


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


class MemoryRegion(Record):
    """A mapped span.  Slotted, as a run makes thousands of them; a weak
    reference shows when one is freed.  ``data`` is a bytearray of its
    own, or an image span's shared read-only view until the first write
    goes through :meth:`writable`; a write that skips it raises
    ``TypeError`` and so reaches no other mapping.  ``code`` is run with
    the pid on entry.  A region's length never changes, so its ``end`` is
    set once; ``==`` and repr leave it out."""
    _compared = ("base", "data", "perms", "tag", "code")
    __slots__ = _compared + ("end", "__weakref__")

    def __init__(self, base: int, data: bytearray | memoryview, perms: Perm, tag: str,
                 code: Optional[Callable[[int], None]] = None):
        self.base = base
        self.data = data
        self.perms = perms
        self.tag = tag
        self.code = code
        self.end = base + len(data)

    def writable(self) -> bytearray:
        """The region's bytes, made its own on the first call."""
        if type(self.data) is not bytearray:
            self.data = bytearray(self.data)
        return self.data


class Peb:
    def __init__(self, image_base_address: int):
        self.image_base_address = image_base_address


class SimProcess:
    def __init__(self, pid: int, name: str, peb_address: int):
        self.pid = pid
        self.name = name
        self.image_base = 0
        self.entry_point = 0
        self.peb = Peb(image_base_address=0)
        self.peb_address = peb_address
        # Sorted by base and pairwise disjoint, so their ends are sorted
        # too: ``ends[i]`` is ``regions[i].end``, and the region holding an
        # address, if any, is the first one ending past it.
        self.regions: list[MemoryRegion] = []
        self.ends: list[int] = []
        self.modules: list[tuple[str, int]] = []
        self.alive = True

    def region_at(self, addr: int) -> Optional[MemoryRegion]:
        i = bisect.bisect_right(self.ends, addr)
        if i < len(self.ends) and self.regions[i].base <= addr:
            return self.regions[i]
        return None

    def span_free(self, base: int, size: int) -> bool:
        # Every region before the first one ending past ``base`` ends by
        # ``base``, so that one alone decides whether the span is free.
        i = bisect.bisect_right(self.ends, base)
        return i == len(self.ends) or self.regions[i].base >= base + size

    def free_base(self, base: int, size: int, step: int) -> tuple[int, int]:
        """The lowest ``base + k * step`` (k >= 0) whose ``size``-byte span
        is free, and the index it goes in: the first region ending past the
        span's base either starts at or past its end, and the span goes
        before it, or moves the span past its own end, one bisect per
        region in the way.  The base may end past ``ADDRESS_LIMIT``."""
        regions, ends = self.regions, self.ends
        i = bisect.bisect_right(ends, base)
        while i < len(ends) and regions[i].base < base + size:
            base += (ends[i] - base + step - 1) // step * step
            i = bisect.bisect_right(ends, base, i + 1)
        return base, i

    def splice(self, i: int, base: int, size: int, regions: list[MemoryRegion]) -> None:
        """Insert ``regions``, sorted, disjoint and inside the free span
        ``[base, base + size)``, at :meth:`free_base`'s index ``i``.  The
        one place regions are added, so the one that keeps ``ends``."""
        assert self.span_free(base, size), "region overlap"
        self.regions[i:i] = regions
        self.ends[i:i] = [region.end for region in regions]


class Driver:
    """A registered driver: a name and its notification handlers."""

    def __init__(self, name: str):
        self.name = name
        self.handlers: dict[EventKind, Callable[[NotificationEvent], None]] = {}


class LoadPlan:
    """What every map of one file image repeats, worked out once.

    ``spans`` gives, per mapped span in RVA order, its RVA and its region's
    permissions, and ``views`` its mapped bytes, read-only and shared by
    every mapping: a slice of the file bytes or, for a span with a zero
    tail, one laid-out copy that holds the tail.  The spans are checked
    sorted, disjoint and inside ``size`` (``size_of_image``) here, once: no
    base changes that.  Each map tests ``preferred`` (the preferred base),
    ``headers_past`` (the headers end past the header span) and
    ``relocatable``.  ``layouts`` maps a delta, base minus preferred base,
    to the views :meth:`ImageCache.layout` made for it.  ``nbytes`` is the
    length of every copy, span and layout.  A plan holds no kernel.
    """

    def __init__(self, image: PeImage, spans: list[tuple[int, Perm]],
                 views: list[memoryview], nbytes: int, size: int, preferred: int,
                 headers_past: bool, relocatable: bool,
                 layouts: dict[int, list[memoryview]] | None = None):
        self.image, self.spans, self.views, self.nbytes = image, spans, views, nbytes
        self.size, self.preferred = size, preferred
        self.headers_past, self.relocatable = headers_past, relocatable
        self.layouts = {} if layouts is None else layouts

    @classmethod
    def build(cls, image: PeImage) -> LoadPlan:
        spans, views, nbytes = [], [], 0
        raw = memoryview(image.raw)
        end = 0  # the end of the last span checked
        for rva, span, offset, copy, section in mapped_spans(image):
            assert end <= rva, "span unsorted or overlapping"
            end = rva + span
            view = raw[offset:offset + copy]
            if copy < span:  # one allocation: the file bytes, then the zero tail
                view = memoryview(_laid_out(image, rva, span)).toreadonly()
                nbytes += span
            if section is not None and section.executable:
                perms = PERM_RX
            elif section is not None and section.characteristics & SCN_MEM_WRITE:
                perms = PERM_RW
            else:  # the headers, or a section neither executable nor writable
                perms = PERM_R
            spans.append((rva, perms))
            views.append(view)
        assert end <= image.nt.size_of_image, "span past the image"
        return cls(image, spans, views, nbytes, image.nt.size_of_image, image.nt.image_base,
                   image.headers_end > len(views[0]), bool(image.relocations))


class ImageCache:
    """File bytes -> load plan for every kernel, evicting the oldest first.
    A lookup takes the plans of its image's length from ``by_length``, in
    ``plans`` order, and compares their bytes, so it never hashes an
    image: the same bytes object is found by identity, and an equal one
    by one memcmp.  ``nbytes`` counts each key and its plan's copies
    against ``IMAGE_CACHE_BYTES``.  A failed parse is never stored, nor a
    plan over the bound, which is built again on each load; a relocated
    layout that does not fit, or of a plan not stored, serves its one
    mapping."""

    def __init__(self, plans: dict[bytes, LoadPlan] | None = None,
                 by_length: dict[int, list[LoadPlan]] | None = None, nbytes: int = 0):
        self.plans = {} if plans is None else plans
        self.by_length = {} if by_length is None else by_length
        self.nbytes = nbytes

    def plan(self, image: bytes) -> LoadPlan:
        for plan in self.by_length.get(len(image), ()):
            raw = plan.image.raw
            if raw is image or raw == image:
                return plan
        key = bytes(image)
        plan = LoadPlan.build(parse_pe(key))
        if len(key) + plan.nbytes <= IMAGE_CACHE_BYTES:
            self.plans[key] = plan
            self.by_length.setdefault(len(key), []).append(plan)
            self.nbytes += len(key) + plan.nbytes
            while self.nbytes > IMAGE_CACHE_BYTES:  # raw is the whole key
                old = self.plans.pop(next(iter(self.plans)))
                n = len(old.image.raw)
                del self.by_length[n][0]  # the oldest plan is the oldest of its length
                if not self.by_length[n]:
                    del self.by_length[n]
                self.nbytes -= n + old.nbytes
        return plan

    def layout(self, plan: LoadPlan, delta: int) -> list[memoryview]:
        """``plan.views`` rebased by ``delta``, a delta not in ``plan.layouts``:
        a span relocation changes is a read-only copy, cut from the image
        laid out and relocated whole; a bad fixup raises.  Kept in
        ``plan.layouts`` if it fits, so every later such map reads the same."""
        image, preferred = plan.image, plan.preferred
        layout = assemble_mapped(image)
        apply_relocations(layout, preferred + delta, preferred, image.relocations)
        views = []
        for (rva, _), view in zip(plan.spans, plan.views):
            span = layout[rva:rva + len(view)]
            views.append(view if span == view else memoryview(span).toreadonly())
        nbytes = sum(len(view) for view, own in zip(views, plan.views) if view is not own)
        if self.nbytes + nbytes <= IMAGE_CACHE_BYTES and self.plans.get(image.raw) is plan:
            plan.layouts[delta] = views
            plan.nbytes += nbytes
            self.nbytes += nbytes
        return views


image_cache = ImageCache()


class SimKernel:
    def __init__(self):
        self.mode = "normal"
        self.version = SYSTEM_VERSION
        self.drivers: list[Driver] = []
        self.devices: dict[str, Callable[[DeviceRequest], bytes]] = {}
        self.processes: dict[int, SimProcess] = {}
        self.log: list[tuple[str, str]] = []
        self._queue: deque[NotificationEvent] = deque()
        self._dispatching = False
        self._init_waiters: list[tuple[Driver, Callable[[], bool]]] = []
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

    def register_driver(self, driver: Driver) -> None:
        """Append a driver to the dispatch order."""
        if any(d.name == driver.name for d in self.drivers):
            raise DuplicateName(f"driver {driver.name!r} already registered")
        self.drivers.append(driver)

    def create_device(self, path: str, handler: Callable[[DeviceRequest], bytes]) -> None:
        if path in self.devices:
            raise DuplicateDevice(f"device {path!r} already exists")
        self.devices[path] = handler

    def send_device_request(self, request: DeviceRequest) -> bytes:
        if request.device not in self.devices:
            raise NoSuchDevice(f"no device {request.device!r}")
        return self.devices[request.device](request)

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
        plan = image_cache.plan(image)
        # The pid and PEB address are taken only once the image is mapped,
        # so a load that fails leaves no process behind.
        pid = self._next_pid
        proc = SimProcess(pid, name, self._next_peb)
        mapped_base = self._map_image(proc, plan, name, base)
        self._next_pid += PID_STEP
        self._next_peb += 0x1000
        self.processes[pid] = proc
        proc.image_base = mapped_base
        proc.entry_point = mapped_base + plan.image.nt.entry_point_rva
        proc.peb.image_base_address = mapped_base
        proc.modules.append((name, mapped_base))
        self.log_line("loader", f"* Created process {name} pid={pid:#x} *")
        self._emit(NotificationEvent(EventKind.PROCESS_CREATE, pid))
        if not proc.alive:  # a create handler terminated it: nothing was loaded
            return proc
        self.log_line("loader", f"* Loaded module {name} *")
        self._emit(NotificationEvent(EventKind.IMAGE_LOAD, pid, name, mapped_base))
        return proc

    def load_module(self, pid: int, name: str, image: bytes,
                    base: int | None = None) -> int:
        if self._dispatching:
            raise ReentrantCall("load_module called from a notification handler")
        proc = self.process(pid)
        mapped_base = self._map_image(proc, image_cache.plan(image), name, base)
        proc.modules.append((name, mapped_base))
        self.log_line("loader", f"* Loaded module {name} *")
        self._emit(NotificationEvent(EventKind.IMAGE_LOAD, pid, name, mapped_base))
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
        # Inside one readable region: one slice.  Any other read is walked,
        # so its error names the first address refused.
        region = proc.region_at(addr)
        if region is not None and addr + length <= region.end and region.perms in _READABLE:
            lo = addr - region.base
            return bytes(region.data[lo:lo + length])
        pieces = self._walk_span(proc, addr, length, Perm.READ)
        return b"".join(r.data[lo:hi] for r, lo, hi in pieces)

    def image_reader(self, pid: int, base: int) -> Reader:
        """``read(rva, n)`` over the module mapped at ``base`` in ``pid``."""
        return lambda rva, n: self.read_memory(pid, base + rva, n)

    def write_memory(self, pid: int, addr: int, data: bytes) -> None:
        proc = self.process(pid)
        pieces = self._walk_span(proc, addr, len(data), Perm.WRITE)
        pos = 0
        for r, lo, hi in pieces:
            r.writable()[lo:hi] = data[pos:pos + (hi - lo)]
            pos += hi - lo

    def _walk_span(self, proc: SimProcess, addr: int, length: int,
                   needed: Perm) -> list[tuple[MemoryRegion, int, int]]:
        """Resolve a span to region slices, checking permissions first.

        Nothing is returned (and so nothing can be mutated) unless the
        whole span is mapped with the needed permission.
        """
        pieces: list[tuple[MemoryRegion, int, int]] = []
        granting = _GRANTING[needed]
        cursor = addr
        end = addr + length
        while cursor < end:
            region = proc.region_at(cursor)
            if region is None:
                raise UnmappedAddress(cursor)
            if region.perms not in granting:
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
        base, i = proc.free_base(ALLOC_FLOOR, size, 1)
        if base + size > ADDRESS_LIMIT:
            raise AddressSpaceExhausted(f"no room for {size:#x} bytes")
        proc.splice(i, base, size, [MemoryRegion(base, bytearray(size), perms, "injected", code)])
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
        size = read_headers(self.image_reader(pid, base)).nt.size_of_image
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

    def _map_image(self, proc: SimProcess, plan: LoadPlan, name: str,
                   requested: int | None) -> int:
        if plan.headers_past:
            raise NotPe(f"{name}: headers end at {plan.image.headers_end:#x}, past the "
                        f"{len(plan.views[0]):#x}-byte mapped header span")
        size, preferred = plan.size, plan.preferred
        base = preferred if requested is None else requested
        if base < 0 or base + size > ADDRESS_LIMIT:
            raise AddressSpaceExhausted(
                f"{name} ({size:#x} bytes) at {base:#x} leaves the address space")
        base, i = proc.free_base(base, size, REBASE_STEP)
        if base + size > ADDRESS_LIMIT:
            raise AddressSpaceExhausted(f"no base for {name} ({size:#x} bytes)")
        if base == preferred:
            views = plan.views
        elif not plan.relocatable:
            raise CannotRelocate(f"{name} must rebase but has no relocations")
        else:  # a kept layout, or the first map by this delta builds one
            delta = base - preferred
            views = plan.layouts.get(delta) or image_cache.layout(plan, delta)
        tag = f"image:{name}"
        proc.splice(i, base, size, [MemoryRegion(base + rva, view, perms, tag)
                                    for (rva, perms), view in zip(plan.spans, views)])
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
                if self._init_waiters:
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
