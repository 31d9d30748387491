import random
import weakref
from typing import NamedTuple

import pytest

from duqusim.pebuild import CODE_SECTION, DATA_SECTION, PeSpec, SectionDef, build_pe32, reloc_block
from duqusim import simkernel
from duqusim.peformat import HOOK_LEN, NotMz, PeError, encode_entry_hook, parse_pe
from duqusim.simkernel import (
    PERM_R,
    PERM_RW,
    PERM_RWX,
    PERM_RX,
    REBASE_STEP,
    AccessViolation,
    AddressSpaceExhausted,
    CannotRelocate,
    DeviceRequest,
    Driver,
    DuplicateDevice,
    DuplicateName,
    EventKind,
    InvalidAllocation,
    MemoryRegion,
    NoSuchDevice,
    NoSuchProcess,
    NotSimulated,
    NotificationEvent,
    Perm,
    SimKernel,
    SimProcess,
    SpansRegions,
    UnmappedAddress,
)

from invariants import check_image_cache, check_kernel, recorded_parses, set_regions
from oracles import apply_relocations_oracle, assemble_mapped_oracle, loader_regions_oracle


def exe_fixture(base=0x01000000, entry=0x1000, relocs=False) -> bytes:
    text = bytearray(b"\x90" * 0x200)
    kwargs = {}
    if relocs:
        kwargs = dict(relocations=[reloc_block(0x1000, [0x10, 0x20])],
                      reloc_va=0x3000)
    return build_pe32(PeSpec(
        image_base=base, entry_rva=entry,
        sections=[SectionDef(".text", 0x1000, bytes(text), CODE_SECTION),
                  SectionDef(".data", 0x2000, b"\x00" * 0x100, DATA_SECTION)],
        **kwargs))


def dll_fixture(base=0x10000000) -> bytes:
    text = bytearray(b"\x90" * 0x200)
    text[0x10:0x14] = (base + 0x1100).to_bytes(4, "little")
    text[0x20:0x24] = (base + 0x2000).to_bytes(4, "little")
    return build_pe32(PeSpec(
        image_base=base, entry_rva=0x1000,
        sections=[SectionDef(".text", 0x1000, bytes(text), CODE_SECTION)],
        relocations=[reloc_block(0x1000, [0x10, 0x20])],
        reloc_va=0x2000, dll=True))


class TestDriverRegistration:
    def test_dispatch_order_is_registration_order(self):
        kernel = SimKernel()
        seen = []
        for name in ("sentinel", "duqu"):
            driver = Driver(name)
            driver.handlers[EventKind.PROCESS_CREATE] = (
                lambda _, evt, n=name: seen.append(n))
            kernel.register_driver(driver)
        kernel.create_process("a.exe", exe_fixture())
        assert seen == ["sentinel", "duqu"]

    def test_duplicate_name(self):
        kernel = SimKernel()
        kernel.register_driver(Driver("d"))
        with pytest.raises(DuplicateName):
            kernel.register_driver(Driver("d"))

    def test_duplicate_device(self):
        kernel = SimKernel()
        kernel.create_device("\\Device\\X", lambda req: b"")
        with pytest.raises(DuplicateDevice):
            kernel.create_device("\\Device\\X", lambda req: b"")

    def test_no_drivers_is_fine(self):
        kernel = SimKernel()
        proc = kernel.create_process("a.exe", exe_fixture())
        assert proc.alive


class TestProcessLifecycle:
    def test_create_maps_at_preferred_base(self, fixture_bytes):
        kernel = SimKernel()
        proc = kernel.create_process("services.exe", fixture_bytes("services.exe"),
                                     base=0x01000000)
        image = parse_pe(fixture_bytes("services.exe"))
        assert proc.image_base == 0x01000000
        assert proc.peb.image_base_address == 0x01000000
        entry = proc.image_base + image.nt.entry_point_rva
        assert entry == 0x01012475
        region = proc.region_at(entry)
        assert region.perms == PERM_RX

    def test_create_event_carries_pid_only(self):
        kernel = SimKernel()
        events = []
        driver = Driver("watch")
        driver.handlers[EventKind.PROCESS_CREATE] = lambda _, event: events.append(event)
        driver.handlers[EventKind.IMAGE_LOAD] = lambda _, event: events.append(event)
        kernel.register_driver(driver)
        proc = kernel.create_process("a.exe", exe_fixture())
        assert events[0].kind == EventKind.PROCESS_CREATE
        assert events[0].pid == proc.pid
        assert events[0].module_name is None and events[0].base == 0
        assert events[1].kind == EventKind.IMAGE_LOAD
        assert events[1].base == proc.image_base

    def test_occupied_base_relocates_with_oracle_confirmed_bytes(self):
        kernel = SimKernel()
        proc = kernel.create_process("a.exe", exe_fixture())
        data = dll_fixture(base=0x10000000)
        first = kernel.load_module(proc.pid, "one.dll", data)
        second = kernel.load_module(proc.pid, "two.dll", data)
        assert first == 0x10000000
        assert second != first
        image = parse_pe(data)
        expected = apply_relocations_oracle(bytes(assemble_mapped_oracle(image)),
                                            second, 0x10000000, image.relocations)
        text = kernel.read_memory(proc.pid, second + 0x1000, 0x200)
        assert text == expected[0x1000:0x1200]

    def test_exe_without_relocs_cannot_rebase(self):
        kernel = SimKernel()
        proc = kernel.create_process("a.exe", exe_fixture(base=0x01000000))
        with pytest.raises(CannotRelocate):
            kernel.load_module(proc.pid, "b.exe", exe_fixture(base=0x01000000))

    def test_empty_image_propagates_parse_error(self):
        kernel = SimKernel()
        with pytest.raises(NotMz):
            kernel.create_process("a.exe", b"")

    def test_load_module_events_match_requested_bases(self, fixture_bytes):
        kernel = SimKernel()
        events = []
        driver = Driver("watch")
        driver.handlers[EventKind.IMAGE_LOAD] = lambda _, event: events.append(event)
        kernel.register_driver(driver)
        proc = kernel.create_process("services.exe", fixture_bytes("services.exe"))
        kernel.load_module(proc.pid, "kernel32.dll", fixture_bytes("kernel32.dll"),
                           base=0x7C800000)
        kernel.load_module(proc.pid, "shell32.dll", fixture_bytes("shell32.dll"),
                           base=0x7C9D0000)
        assert (events[1].module_name, events[1].base) == ("kernel32.dll", 0x7C800000)
        assert (events[2].module_name, events[2].base) == ("shell32.dll", 0x7C9D0000)
        assert events[1].pid == proc.pid

    def test_load_into_dead_process(self):
        kernel = SimKernel()
        proc = kernel.create_process("a.exe", exe_fixture())
        kernel.terminate_process(proc.pid)
        with pytest.raises(NoSuchProcess):
            kernel.load_module(proc.pid, "x.dll", dll_fixture())

    def test_terminate(self):
        kernel = SimKernel()
        proc = kernel.create_process("a.exe", exe_fixture())
        kernel.terminate_process(proc.pid)
        assert not proc.alive
        with pytest.raises(NoSuchProcess):
            kernel.terminate_process(proc.pid)


class TestMemory:
    def make_proc(self):
        kernel = SimKernel()
        proc = kernel.create_process("a.exe", exe_fixture())
        return kernel, proc

    def test_write_at_rx_entrypoint_faults(self):
        kernel, proc = self.make_proc()
        entry = proc.image_base + 0x1000
        with pytest.raises(AccessViolation) as info:
            kernel.write_memory(proc.pid, entry, b"\xB8\x00\x00\x00\x00\xFF\xD0")
        assert info.value.missing == Perm.WRITE
        assert info.value.addr == entry

    def test_write_after_protect_rwx(self):
        kernel, proc = self.make_proc()
        entry = proc.image_base + 0x1000
        old = kernel.protect_memory(proc.pid, entry, 12, PERM_RWX)
        assert old == PERM_RX
        kernel.write_memory(proc.pid, entry, b"\xB8\x00\x00\x00\x00\xFF\xD0")
        assert kernel.read_memory(proc.pid, entry, 7) == b"\xB8\x00\x00\x00\x00\xFF\xD0"

    def test_zero_length_read(self):
        kernel, proc = self.make_proc()
        assert kernel.read_memory(proc.pid, proc.image_base, 0) == b""

    def test_unmapped(self):
        kernel, proc = self.make_proc()
        with pytest.raises(UnmappedAddress):
            kernel.read_memory(proc.pid, 0x50000000, 4)

    def test_partial_span_failure_mutates_nothing(self):
        kernel, proc = self.make_proc()
        rw = kernel.allocate_memory(proc.pid, 0x10, PERM_RW)
        r_only = kernel.allocate_memory(proc.pid, 0x10, PERM_R)
        assert r_only == rw + 0x10  # adjacent bump allocations
        before = kernel.read_memory(proc.pid, rw, 0x10)
        with pytest.raises(AccessViolation):
            kernel.write_memory(proc.pid, rw + 8, b"\xFF" * 16)
        assert kernel.read_memory(proc.pid, rw, 0x10) == before

    def test_allocate_exact_size_and_tag(self):
        kernel, proc = self.make_proc()
        base = kernel.allocate_memory(proc.pid, 57 + 0x60C, PERM_RWX)
        region = proc.region_at(base)
        assert len(region.data) == 57 + 0x60C
        assert region.tag == "injected"
        assert region.data == bytearray(len(region.data))

    def test_allocate_zero_rejected(self):
        kernel, proc = self.make_proc()
        with pytest.raises(InvalidAllocation):
            kernel.allocate_memory(proc.pid, 0, PERM_RW)

    def test_allocations_disjoint(self):
        kernel, proc = self.make_proc()
        a = kernel.allocate_memory(proc.pid, 0x100, PERM_RW)
        b = kernel.allocate_memory(proc.pid, 0x100, PERM_RW)
        assert a + 0x100 <= b or b + 0x100 <= a

    def test_allocation_exhaustion(self):
        kernel, proc = self.make_proc()
        with pytest.raises(AddressSpaceExhausted):
            kernel.allocate_memory(proc.pid, (1 << 32) - 0x1000, PERM_RW)

    def test_protect_restore_round_trip(self):
        kernel, proc = self.make_proc()
        entry = proc.image_base + 0x1000
        old = kernel.protect_memory(proc.pid, entry, 12, PERM_RWX)
        restored = kernel.protect_memory(proc.pid, entry, 12, old)
        assert restored == PERM_RWX
        assert proc.region_at(entry).perms == PERM_RX

    def test_protect_unmapped(self):
        kernel, proc = self.make_proc()
        with pytest.raises(UnmappedAddress):
            kernel.protect_memory(proc.pid, 0x60000000, 4, PERM_RW)

    def test_protect_across_regions(self):
        kernel, proc = self.make_proc()
        kernel.allocate_memory(proc.pid, 0x10, PERM_RW)
        kernel.allocate_memory(proc.pid, 0x10, PERM_RW)
        with pytest.raises(SpansRegions):
            kernel.protect_memory(proc.pid, 0xA0008, 0x10, PERM_RWX)


class TestDevices:
    def test_request_round_trip(self):
        kernel = SimKernel()
        kernel.create_device("\\Device\\X", lambda req: req.payload[::-1])
        out = kernel.send_device_request(DeviceRequest("\\Device\\X", 1, b"abc"))
        assert out == b"cba"

    def test_unknown_device(self):
        kernel = SimKernel()
        with pytest.raises(NoSuchDevice):
            kernel.send_device_request(DeviceRequest("\\Device\\Nope", 1, b""))


class TestDispatchSemantics:
    def scripted_run(self):
        kernel = SimKernel()
        order = []
        first, second = Driver("first"), Driver("second")
        first.handlers[EventKind.IMAGE_LOAD] = lambda _, e: order.append(("first", e.module_name))
        second.handlers[EventKind.IMAGE_LOAD] = lambda _, e: order.append(("second", e.module_name))
        kernel.register_driver(first)
        kernel.register_driver(second)
        proc = kernel.create_process("a.exe", exe_fixture())
        kernel.load_module(proc.pid, "x.dll", dll_fixture())
        return kernel, order

    def test_determinism(self):
        k1, o1 = self.scripted_run()
        k2, o2 = self.scripted_run()
        assert o1 == o2
        assert k1.log == k2.log
        assert [p.modules for p in k1.processes.values()] == \
            [p.modules for p in k2.processes.values()]

    def test_earlier_driver_writes_visible_to_later(self):
        kernel = SimKernel()
        observed = []

        writer, reader = Driver("writer"), Driver("reader")

        def write_marker(_, event):
            base = kernel.allocate_memory(event.pid, 4, PERM_RW)
            kernel.write_memory(event.pid, base, b"MARK")
            write_marker.base = base

        writer.handlers[EventKind.IMAGE_LOAD] = write_marker
        reader.handlers[EventKind.IMAGE_LOAD] = (
            lambda _, e: observed.append(kernel.read_memory(e.pid, write_marker.base, 4)))
        kernel.register_driver(writer)
        kernel.register_driver(reader)
        kernel.create_process("a.exe", exe_fixture())
        assert observed == [b"MARK"]

    def test_nested_events_queue_behind_current_dispatch(self):
        kernel = SimKernel()
        order = []
        killer, tail = Driver("killer"), Driver("tail")

        def kill(_, event):
            order.append("killer")
            kernel.terminate_process(event.pid)

        killer.handlers[EventKind.IMAGE_LOAD] = kill
        tail.handlers[EventKind.IMAGE_LOAD] = lambda _, e: order.append("tail")
        tail.handlers[EventKind.PROCESS_EXIT] = lambda _, e: order.append("exit")
        kernel.register_driver(killer)
        kernel.register_driver(tail)
        kernel.create_process("a.exe", exe_fixture())
        # tail still sees the image load before the queued exit dispatches
        assert order == ["killer", "tail", "exit"]


class TestReentrancy:
    def test_handler_cannot_create_processes(self):
        from duqusim.simkernel import ReentrantCall
        kernel = SimKernel()
        failures = []
        driver = Driver("rogue")

        def spawn(_, event):
            try:
                kernel.create_process("child.exe", exe_fixture())
            except ReentrantCall as exc:
                failures.append(exc)

        driver.handlers[EventKind.PROCESS_CREATE] = spawn
        kernel.register_driver(driver)
        kernel.create_process("a.exe", exe_fixture())
        assert len(failures) == 1

    def test_handler_cannot_load_modules(self):
        from duqusim.simkernel import ReentrantCall
        kernel = SimKernel()
        proc = kernel.create_process("a.exe", exe_fixture())
        failures = []

        def load(_, event):
            try:
                kernel.load_module(event.pid, "b.dll", exe_fixture(base=0x03000000))
            except ReentrantCall as exc:
                failures.append(str(exc))

        driver = Driver("rogue")
        driver.handlers[EventKind.IMAGE_LOAD] = load
        kernel.register_driver(driver)
        kernel.load_module(proc.pid, "c.dll", exe_fixture(base=0x02000000))
        assert failures == ["load_module called from a notification handler"]
        assert [name for name, _ in proc.modules] == ["a.exe", "c.dll"]


class TestPermissionFuzz:
    def test_against_shadow_model(self):
        # Half the spans start or end within a few bytes of a region's edge,
        # so reads that end exactly at a region's end, and reads that run one
        # byte past it into a neighbour, a gap or a region without READ, are
        # all drawn; each error must name the first byte the shadow refuses.
        rng = random.Random(1234)
        kernel = SimKernel()
        proc = kernel.create_process("a.exe", exe_fixture())
        shadow = {}  # addr -> (value, perms, end of its region)

        for region in proc.regions:
            for i in range(len(region.data)):
                shadow[region.base + i] = (region.data[i], region.perms, region.end)
        # Allocated one after another, so each of these abuts the next.
        for perms in (PERM_R, PERM_RW, Perm.WRITE, PERM_RX, PERM_RWX, Perm.EXECUTE):
            size = rng.randrange(1, 0x40)
            base = kernel.allocate_memory(proc.pid, size, perms)
            for i in range(size):
                shadow[base + i] = (0, perms, base + size)

        def first_fault(span, needed):
            for a in span:
                if a not in shadow:
                    return UnmappedAddress, a
                if needed not in shadow[a][1]:
                    return AccessViolation, a
            return None

        edges = sorted({r.base for r in proc.regions} | {r.end for r in proc.regions})
        lo = min(shadow) - 0x80
        hi = max(shadow) + 0x80
        drawn = dict.fromkeys(["ends at its region's end", "one past into a neighbour",
                               "one past into a gap", "one past into no READ"], 0)
        for _ in range(2000):
            length = rng.randrange(0, 0x30)
            if rng.random() < 0.5:
                near = rng.choice(edges) + rng.randrange(-2, 3)
                addr = near if rng.random() < 0.5 else near - length
            else:
                addr = rng.randrange(lo, hi)
            span = range(addr, addr + length)
            needed = Perm.READ if rng.random() < 0.5 else Perm.WRITE
            fault = first_fault(span, needed)
            if needed is Perm.READ:
                if length and addr in shadow and Perm.READ in shadow[addr][1]:
                    end = shadow[addr][2]
                    if addr + length == end:
                        drawn["ends at its region's end"] += 1
                    elif addr + length == end + 1:
                        drawn["one past into a gap" if end not in shadow
                              else "one past into a neighbour" if Perm.READ in shadow[end][1]
                              else "one past into no READ"] += 1
                try:
                    data = kernel.read_memory(proc.pid, addr, length)
                except (UnmappedAddress, AccessViolation) as exc:
                    assert (type(exc), exc.addr) == fault
                else:
                    assert fault is None
                    assert type(data) is bytes
                    assert list(data) == [shadow[a][0] for a in span]
            else:
                payload = bytes(rng.randrange(256) for _ in span)
                try:
                    kernel.write_memory(proc.pid, addr, payload)
                except (UnmappedAddress, AccessViolation) as exc:
                    assert (type(exc), exc.addr) == fault
                else:
                    assert fault is None
                    for a, value in zip(span, payload):
                        shadow[a] = (value, *shadow[a][1:])
        assert all(drawn.values()), drawn
        # no write ever landed on a WRITE-less region
        for region in proc.regions:
            if Perm.WRITE not in region.perms:
                for i in range(len(region.data)):
                    assert region.data[i] == shadow[region.base + i][0]

    def test_region_disjointness_preserved(self):
        rng = random.Random(99)
        kernel = SimKernel()
        proc = kernel.create_process("a.exe", exe_fixture())
        for _ in range(50):
            kernel.allocate_memory(proc.pid, rng.randrange(1, 0x200), PERM_RW)
        spans = sorted((r.base, r.end) for r in proc.regions)
        for (_, end1), (start2, _) in zip(spans, spans[1:]):
            assert end1 <= start2


ALL_PERMS = [Perm(value) for value in range(8)]


class TestPermissionTable:
    """For each of the eight permission sets, each access is refused
    exactly when the permission it needs is not in the set, and the fault
    names what is missing, ``needed & ~perms``."""

    @pytest.mark.parametrize("perms", ALL_PERMS, ids=lambda p: p.describe())
    def test_each_access_against_each_set(self, perms):
        kernel = SimKernel()
        proc = kernel.create_process("a.exe", exe_fixture())
        pid = proc.pid
        calls = []
        neighbour = kernel.allocate_memory(pid, 0x40, PERM_RWX)
        target = kernel.allocate_memory(pid, 0x40, PERM_RWX, code=calls.append)
        assert target == neighbour + 0x40
        kernel.protect_memory(pid, proc.entry_point, HOOK_LEN, PERM_RWX)
        kernel.write_memory(pid, proc.entry_point, encode_entry_hook(target + 0x10))
        assert kernel.protect_memory(pid, target, 0x40, perms) == PERM_RWX
        assert proc.region_at(target).perms == perms
        accesses = [  # (needed, access, the address a fault names)
            (Perm.READ, lambda: kernel.read_memory(pid, target + 0x10, 12), target + 0x10),
            (Perm.READ, lambda: kernel.read_memory(pid, target - 8, 16), target),  # walked
            (Perm.WRITE, lambda: kernel.write_memory(pid, target - 8, bytes(16)), target),
            (Perm.EXECUTE, lambda: kernel.run_entrypoint(pid), target + 0x10),
        ]
        for needed, access, at in accesses:
            if needed in perms:
                access()
            else:
                with pytest.raises(AccessViolation) as info:
                    access()
                assert info.value.missing == needed & ~perms
                assert info.value.addr == at
        assert calls == ([pid] if Perm.EXECUTE in perms else [])


class TestReadImage:
    def test_reassembles_mapped_view(self, fixture_bytes):
        kernel = SimKernel()
        proc = kernel.create_process("services.exe", fixture_bytes("services.exe"))
        from duqusim.peformat import assemble_mapped
        image = parse_pe(fixture_bytes("services.exe"))
        assert kernel.read_image(proc.pid, proc.image_base) == bytes(assemble_mapped(image))

    def test_unmapped_base(self):
        kernel = SimKernel()
        proc = kernel.create_process("a.exe", exe_fixture())
        with pytest.raises(UnmappedAddress, match="^address 0x7ff00000 is not mapped$"):
            kernel.read_image(proc.pid, 0x7FF00000)


def linear_region_at(regions, addr):
    """Reference lookup: the first region holding ``addr``."""
    for r in regions:
        if r.base <= addr < r.end:
            return r
    return None


def linear_span_free(regions, base, size):
    """Reference check: no region overlaps ``[base, base + size)``."""
    end = base + size
    return all(r.end <= base or r.base >= end for r in regions)


def linear_free_base(regions, base, size, step):
    """Reference search: step from ``base`` until the span is free."""
    while not linear_span_free(regions, base, size):
        base += step
    return base


def stepping_alloc_base(regions, size):
    """The allocator's former search: from the floor, past each region in
    the way, one region at a time."""
    base = simkernel.ALLOC_FLOOR
    for region in regions:
        if region.end <= base:
            continue
        if region.base >= base + size:
            break
        base = region.end
    return base


class TestRegionLookup:
    def random_process(self, rng):
        """A process holding 1-40 random disjoint regions, added out of order."""
        regions = []
        cursor = rng.randrange(0, 0x100)
        for _ in range(rng.randrange(1, 41)):
            cursor += rng.choice([0, 0, rng.randrange(1, 0x40)])
            size = rng.randrange(1, 0x40)
            regions.append(MemoryRegion(base=cursor, data=bytearray(size),
                                        perms=PERM_R, tag=f"r{cursor:x}"))
            cursor += size
        proc = SimProcess(0x910, "a.exe", 0x7FFD5000)
        for region in rng.sample(regions, len(regions)):
            base, i = proc.free_base(region.base, len(region.data), 1)
            assert base == region.base
            proc.splice(i, base, len(region.data), [region])
        assert proc.regions == regions
        return proc

    def probes(self, rng, regions):
        addrs = {0, max((r.end for r in regions), default=0) + 1}
        for r in regions:
            addrs.update((r.base, r.end - 1, r.end))
        addrs.update(rng.randrange(0, 0x1000) for _ in range(20))
        return sorted(addrs)

    def check_against_reference(self, rng, proc):
        addrs = self.probes(rng, proc.regions)
        for addr in addrs:
            assert proc.region_at(addr) is linear_region_at(proc.regions, addr)
            for size in (0, 1, rng.randrange(1, 0x80)):
                assert proc.span_free(addr, size) == \
                    linear_span_free(proc.regions, addr, size)
        for lo in addrs:
            hi = rng.choice(addrs)
            if hi >= lo:
                assert proc.span_free(lo, hi - lo) == \
                    linear_span_free(proc.regions, lo, hi - lo)

    def test_bisect_matches_linear_scan(self):
        rng = random.Random(20140101)
        for _ in range(300):
            proc = self.random_process(rng)
            self.check_against_reference(rng, proc)
            set_regions(proc, [r for r in proc.regions if rng.random() < 0.5])
            self.check_against_reference(rng, proc)

    @staticmethod
    def check_free_base(rng, proc, addrs):
        for base in addrs:
            for size, steps in ((1, (1, REBASE_STEP)),
                                (rng.randrange(2, 0x40), (1, rng.randrange(2, 0x40))),
                                (rng.randrange(0x40, 0x400), (rng.randrange(0x40, 0x400),
                                                              REBASE_STEP))):
                for step in steps:
                    expected = linear_free_base(proc.regions, base, size, step)
                    index = sum(r.end <= expected for r in proc.regions)
                    assert proc.free_base(base, size, step) == (expected, index), \
                        (base, size, step)

    def test_free_base_matches_stepping_search(self):
        rng = random.Random("free-base")
        for _ in range(80):
            proc = self.random_process(rng)
            addrs = self.probes(rng, proc.regions)
            self.check_free_base(rng, proc, rng.sample(addrs, min(len(addrs), 24)))

    def test_free_base_next_to_the_address_limit(self):
        rng = random.Random("free-base-top")
        for _ in range(40):
            proc = self.random_process(rng)
            top = simkernel.ADDRESS_LIMIT - proc.regions[-1].end
            for region in proc.regions:  # the same layout, ending at the limit
                region.base += top
                region.end += top
            set_regions(proc, proc.regions)
            addrs = [a + top for a in self.probes(rng, proc.regions) if a + top >= 0]
            self.check_free_base(rng, proc, addrs)
            assert proc.free_base(proc.regions[0].base, 1, 1)[0] >= proc.regions[0].end
            last, n = proc.regions[-1], len(proc.regions)
            assert proc.free_base(last.base, 1, REBASE_STEP) == (last.base + REBASE_STEP, n)
            assert proc.free_base(last.base, 1, 1) == (simkernel.ADDRESS_LIMIT, n)

    def test_allocations_land_where_the_stepping_search_put_them(self):
        rng = random.Random("alloc-base")
        for _ in range(20):
            kernel = SimKernel()
            proc = kernel.create_process("a.exe", exe_fixture())
            for i in range(rng.randrange(0, 4)):  # modules in the allocator's range
                kernel.load_module(proc.pid, f"m{i}.dll", dll_fixture(), base=rng.choice(
                    [simkernel.ALLOC_FLOOR + rng.randrange(0, 0x8000), None]))
            for _ in range(30):
                size = rng.choice([rng.randrange(1, 0x40), rng.randrange(0x40, 0x6000)])
                expected = stepping_alloc_base(proc.regions, size)
                assert kernel.allocate_memory(proc.pid, size, PERM_RW) == expected
                if rng.random() < 0.3:  # free a region to open a hole
                    gone = rng.choice(proc.regions[:-1] or proc.regions)
                    set_regions(proc, [r for r in proc.regions if r is not gone])


class Placed(NamedTuple):
    base: int
    end: int
    data: bytes
    perms: str
    tag: str


def placed(proc) -> list[Placed]:
    return [Placed(r.base, r.end, bytes(r.data), r.perms.describe(), r.tag)
            for r in proc.regions]


class TestPlacement:
    """Loads and allocations, interleaved, land where a linear search puts
    them: each load by stepping ``REBASE_STEP`` from its base until its
    span is free, each allocation by the allocator's former search, and
    each new region by sorted insertion."""

    NEAR_LIMIT = simkernel.ADDRESS_LIMIT - 0x40000

    @staticmethod
    def oracle_load(expected, data, name, requested):
        """``expected`` after loading ``data``, or the error the load raises."""
        image = parse_pe(data)
        size, preferred = image.nt.size_of_image, image.nt.image_base
        base = preferred if requested is None else requested
        if base < 0 or base + size > simkernel.ADDRESS_LIMIT:
            return AddressSpaceExhausted
        base = linear_free_base(expected, base, size, REBASE_STEP)
        if base + size > simkernel.ADDRESS_LIMIT:
            return AddressSpaceExhausted
        if base != preferred and not image.relocations:
            return CannotRelocate
        new = [Placed(at, at + len(mapped), mapped, perms, f"image:{name}")
               for at, mapped, perms in loader_regions_oracle(image, base)]
        return sorted(expected + new)

    def test_loads_and_allocations_match_the_linear_oracle(self):
        rng = random.Random("placement")
        images = [dll_fixture(), dll_fixture(0x10010000), dll_fixture(self.NEAR_LIMIT),
                  exe_fixture(base=0x10000000), exe_fixture(relocs=True)]
        sizes = {data: parse_pe(data).nt.size_of_image for data in images}
        for _ in range(12):
            kernel = SimKernel()
            proc = kernel.create_process("a.exe", exe_fixture())
            expected = placed(proc)
            for step in range(30):
                if rng.random() < 0.4:
                    n = rng.choice([rng.randrange(1, 0x40), rng.randrange(0x40, 0x2000)])
                    base = stepping_alloc_base(expected, n)
                    assert kernel.allocate_memory(proc.pid, n, PERM_RW) == base
                    expected = sorted(expected + [Placed(base, base + n, bytes(n), "RW",
                                                         "injected")])
                else:
                    data = rng.choice(images)
                    size = sizes[data]
                    requested = rng.choice([
                        None, None,  # the preferred base
                        simkernel.ALLOC_FLOOR + rng.randrange(4) * 0x800,  # among allocations
                        0x10000000 + rng.randrange(3) * REBASE_STEP,  # among the DLLs
                        simkernel.ADDRESS_LIMIT - size - rng.randrange(3) * REBASE_STEP,
                        simkernel.ADDRESS_LIMIT - size + rng.randrange(1, 3),  # past the limit
                    ])
                    name = f"m{step}.dll"
                    result = self.oracle_load(expected, data, name, requested)
                    if isinstance(result, list):
                        kernel.load_module(proc.pid, name, data, base=requested)
                        expected = result
                    else:
                        with pytest.raises(result):
                            kernel.load_module(proc.pid, name, data, base=requested)
                assert placed(proc) == expected, step
                check_kernel(kernel)


def image_regions(proc):
    return [(r.base, r.perms, r.tag, bytes(r.data)) for r in proc.regions]


def cached_size(image: bytes) -> int:
    """What an image counts against ``IMAGE_CACHE_BYTES``: its file bytes
    and its plan's span copies."""
    return len(image) + simkernel.LoadPlan(parse_pe(image)).nbytes


@pytest.fixture
def parsed(monkeypatch):
    """Every real parse the loader makes, into an empty image cache that is
    swapped out again afterwards."""
    monkeypatch.setattr(simkernel, "image_cache", simkernel.ImageCache())
    return recorded_parses(monkeypatch)


class TestImageReuse:
    def test_shared_image_maps_like_fresh_kernels(self):
        """Preferred base, rebased past an exe at that base, fixed base."""
        data = dll_fixture()
        kernel = SimKernel()
        plain = kernel.create_process("a.exe", exe_fixture())
        assert kernel.load_module(plain.pid, "x.dll", data) == 0x10000000
        first = image_regions(plain)
        blocked = kernel.create_process("b.exe", exe_fixture(base=0x10000000))
        rebased = kernel.load_module(blocked.pid, "x.dll", data)
        fixed = kernel.create_process("c.exe", exe_fixture())
        assert kernel.load_module(fixed.pid, "x.dll", data, base=0x20000000) == 0x20000000
        assert rebased not in (0x10000000, 0x20000000)
        assert image_regions(plain) == first

        fresh = SimKernel()
        proc = fresh.create_process("a.exe", exe_fixture())
        fresh.load_module(proc.pid, "x.dll", data)
        assert image_regions(proc) == first
        fresh = SimKernel()
        proc = fresh.create_process("b.exe", exe_fixture(base=0x10000000))
        fresh.load_module(proc.pid, "x.dll", data)
        assert image_regions(proc) == image_regions(blocked)
        fresh = SimKernel()
        proc = fresh.create_process("c.exe", exe_fixture())
        fresh.load_module(proc.pid, "x.dll", data, base=0x20000000)
        assert image_regions(proc) == image_regions(fixed)

    def test_each_distinct_image_parsed_once(self, parsed):
        """Each ``exe_fixture()`` is a new bytes object, and each copy of
        ``data`` too: an equal image finds the first one's plan."""
        data = dll_fixture()
        for _ in range(2):
            kernel = SimKernel()
            for name in ("a.exe", "b.exe", "c.exe"):
                proc = kernel.create_process(name, exe_fixture())
                kernel.load_module(proc.pid, "x.dll", data)
                kernel.load_module(proc.pid, "y.dll", bytearray(data))
                kernel.load_module(proc.pid, "z.dll", bytes(bytearray(data)))
        assert parsed == [exe_fixture(), data]
        assert simkernel.image_cache.plan(bytes(bytearray(data))) is \
            simkernel.image_cache.plans[data]

    def test_failed_parse_raises_in_every_kernel_and_is_never_kept(self, parsed):
        bad = b"ZM" + dll_fixture()[2:]
        for _ in range(2):
            kernel = SimKernel()
            proc = kernel.create_process("a.exe", exe_fixture())
            for _ in range(2):
                with pytest.raises(NotMz):
                    kernel.load_module(proc.pid, "bad.dll", bad)
                with pytest.raises(NotMz):
                    kernel.create_process("bad.exe", bad)
            assert list(kernel.processes) == [proc.pid]
        assert parsed == [exe_fixture()] + [bad] * 8
        assert list(simkernel.image_cache.plans) == [exe_fixture()]

    def test_bound_evicts_the_oldest_image_first(self, parsed, monkeypatch):
        images = [exe_fixture(base=0x01000000 + i * REBASE_STEP) for i in range(5)]
        assert len({cached_size(image) for image in images}) == 1
        bound = 3 * cached_size(images[0])
        monkeypatch.setattr(simkernel, "IMAGE_CACHE_BYTES", bound)
        cache = simkernel.image_cache
        kernel = SimKernel()
        for i, image in enumerate(images):
            kernel.create_process(f"p{i}.exe", image)
            assert cache.nbytes == sum(map(cached_size, cache.plans)) <= bound
            assert list(cache.plans) == images[max(0, i - 2):i + 1]
        kernel.create_process("again.exe", images[4])
        kernel.create_process("again.exe", images[0])
        assert parsed == images + [images[0]]
        assert list(cache.plans) == images[3:] + [images[0]]

    def test_images_of_one_length_each_get_their_own_plan(self, parsed, monkeypatch):
        images = [exe_fixture(base=0x01000000 + i * REBASE_STEP) for i in range(64)]
        assert len({len(image) for image in images}) == 1 and len(set(images)) == 64
        assert len({cached_size(image) for image in images}) == 1
        bound = 48 * cached_size(images[0])
        monkeypatch.setattr(simkernel, "IMAGE_CACHE_BYTES", bound)
        cache = simkernel.image_cache
        plans = [cache.plan(image) for image in images]
        assert [plan.image.raw for plan in plans] == images
        assert list(cache.plans) == images[16:] and cache.nbytes == bound
        check_image_cache()
        for image, plan in zip(images[16:], plans[16:]):  # kept: found from a copy
            assert cache.plan(bytes(bytearray(image))) is plan
        assert parsed == images
        again = cache.plan(bytes(bytearray(images[0])))  # evicted: parsed again
        assert again is not plans[0] and again.image.raw == images[0]
        assert parsed == images + [images[0]]
        assert list(cache.plans) == images[17:] + [images[0]]
        check_image_cache()

    def test_image_over_the_bound_loads_but_is_not_kept(self, parsed, monkeypatch):
        small = exe_fixture()
        bound = 2 * cached_size(small)
        big = exe_fixture(base=0x02000000) + bytes(bound)  # trailing overlay
        # file bytes within the bound, but not with the copy holding its zero tail
        tailed = build_pe32(PeSpec(
            image_base=0x03000000, entry_rva=0x1000,
            sections=[SectionDef(".text", 0x1000, b"\x90" * 0x200, CODE_SECTION,
                                 virtual_size=bound)]))
        assert len(tailed) < bound < cached_size(tailed)
        monkeypatch.setattr(simkernel, "IMAGE_CACHE_BYTES", bound)
        kernel = SimKernel()
        kernel.create_process("small.exe", small)
        for i in range(2):
            assert kernel.create_process(f"big{i}.exe", big).image_base == 0x02000000
            assert kernel.create_process(f"tailed{i}.exe", tailed).image_base == 0x03000000
        assert parsed == [small, big, tailed, big, tailed]
        assert list(simkernel.image_cache.plans) == [small]
        assert simkernel.image_cache.nbytes == cached_size(small)

    def test_bytearray_image_loads(self):
        data = dll_fixture()
        kernel = SimKernel()
        proc = kernel.create_process("a.exe", bytearray(exe_fixture()))
        kernel.load_module(proc.pid, "x.dll", bytearray(data))
        fresh = SimKernel()
        expected = fresh.create_process("a.exe", exe_fixture())
        fresh.load_module(expected.pid, "x.dll", data)
        assert image_regions(proc) == image_regions(expected)

    def test_malformed_image_fails_every_time(self):
        kernel = SimKernel()
        proc = kernel.create_process("a.exe", exe_fixture())
        bad = dll_fixture()[:0x100]
        for _ in range(3):
            with pytest.raises(PeError):
                kernel.load_module(proc.pid, "bad.dll", bad)
            with pytest.raises(PeError):
                kernel.create_process("bad.exe", bad)
        assert proc.modules == [("a.exe", proc.image_base)]


class TestAddressLimit:
    @pytest.mark.parametrize("base", [0xFFFFF000, -0x10000, -1])
    def test_requested_base_outside_address_space(self, base, monkeypatch):
        kernel = SimKernel()
        proc = kernel.create_process("a.exe", exe_fixture())
        before = image_regions(proc)
        layouts, relocations = [], []
        monkeypatch.setattr(simkernel, "assemble_mapped", layouts.append)
        monkeypatch.setattr(simkernel, "apply_relocations",
                            lambda *args: relocations.append(args))
        with pytest.raises(AddressSpaceExhausted):
            kernel.load_module(proc.pid, "x.dll", dll_fixture(), base=base)
        assert layouts == relocations == []
        assert image_regions(proc) == before
        assert [name for name, _ in proc.modules] == ["a.exe"]

    def test_preferred_base_outside_address_space(self):
        kernel = SimKernel()
        with pytest.raises(AddressSpaceExhausted):
            kernel.create_process("a.exe", exe_fixture(base=0xFFFFF000))

    def test_image_ending_at_the_limit_maps(self):
        kernel = SimKernel()
        proc = kernel.create_process("a.exe", exe_fixture())
        base = simkernel.ADDRESS_LIMIT - parse_pe(dll_fixture()).nt.size_of_image
        assert kernel.load_module(proc.pid, "x.dll", dll_fixture(), base=base) == base
        assert proc.region_at(base + 0x1000).perms == PERM_RX


class TestFaultIsolation:
    def test_raising_handler_neither_stops_dispatch_nor_strands_events(self):
        kernel = SimKernel()
        seen = []
        faulty, killer, recorder = Driver("faulty"), Driver("killer"), Driver("recorder")

        def boom(_, event):
            raise ValueError(f"bad {event.kind.value}")

        for kind in EventKind:
            faulty.handlers[kind] = boom
            recorder.handlers[kind] = lambda _, e: seen.append((e.kind, e.module_name))
        killer.handlers[EventKind.IMAGE_LOAD] = lambda _, e: kernel.terminate_process(e.pid)
        for driver in (faulty, killer, recorder):
            kernel.register_driver(driver)
        kernel.create_process("a.exe", exe_fixture())
        assert seen == [(EventKind.PROCESS_CREATE, None),
                        (EventKind.IMAGE_LOAD, "a.exe"),
                        (EventKind.PROCESS_EXIT, None)]
        assert not kernel._queue
        assert kernel._dispatching is False
        assert [entry for entry in kernel.log if "! fault:" in entry[1]] == [
            ("faulty", f"! fault: faulty: ValueError: bad {kind}")
            for kind in ("PROCESS_CREATE", "IMAGE_LOAD", "PROCESS_EXIT")]

    def test_raising_init_waiter_is_logged_once_and_dispatch_goes_on(self):
        kernel = SimKernel()
        seen, rechecks = [], []
        waiting, recorder = Driver("waiting"), Driver("recorder")

        def recheck():
            rechecks.append(len(seen))
            raise RuntimeError("init blew up")

        for kind in EventKind:
            recorder.handlers[kind] = lambda _, e: seen.append((e.kind, e.module_name))
        kernel.register_driver(waiting)
        kernel.register_driver(recorder)
        kernel.defer_init(waiting, recheck)
        kernel.create_process("a.exe", exe_fixture())
        assert seen == [(EventKind.PROCESS_CREATE, None), (EventKind.IMAGE_LOAD, "a.exe")]
        assert rechecks == [0]  # run before the first event, then dropped
        assert not kernel._queue and not kernel._init_waiters
        assert kernel._dispatching is False
        assert [entry for entry in kernel.log if "! fault:" in entry[1]] == [
            ("waiting", "! fault: waiting: RuntimeError: init blew up")]


class TestRunEntrypoint:
    def hook_entry(self, kernel, proc, target):
        entry = proc.entry_point
        kernel.protect_memory(proc.pid, entry, HOOK_LEN, PERM_RWX)
        kernel.write_memory(proc.pid, entry, encode_entry_hook(target))

    def test_entry_point_from_headers(self):
        kernel = SimKernel()
        proc = kernel.create_process("a.exe", exe_fixture(entry=0x1040))
        assert proc.entry_point == 0x01001040

    def test_plain_entrypoint_logs_start(self):
        kernel = SimKernel()
        proc = kernel.create_process("a.exe", exe_fixture())
        kernel.run_entrypoint(proc.pid)
        assert kernel.log[-1] == ("loader", "* Process a.exe pid=0x910 runs its entrypoint *")

    def test_hook_runs_code_of_target_region(self):
        kernel = SimKernel()
        proc = kernel.create_process("a.exe", exe_fixture())
        calls = []
        stub = kernel.allocate_memory(proc.pid, 0x40, PERM_RX, code=calls.append)
        self.hook_entry(kernel, proc, stub + 0x10)
        log_len = len(kernel.log)
        kernel.run_entrypoint(proc.pid)
        assert calls == [proc.pid]
        assert len(kernel.log) == log_len

    @pytest.mark.parametrize("make_target, error", [
        (lambda k, p: 0x00010000, UnmappedAddress),
        (lambda k, p: k.allocate_memory(p.pid, 0x40, PERM_RW, code=print), AccessViolation),
        (lambda k, p: p.entry_point + 0x20, NotSimulated),
    ])
    def test_bad_hook_targets_raise(self, make_target, error):
        kernel = SimKernel()
        proc = kernel.create_process("a.exe", exe_fixture())
        self.hook_entry(kernel, proc, make_target(kernel, proc))
        with pytest.raises(error):
            kernel.run_entrypoint(proc.pid)

    def test_dead_process_runs_nothing(self):
        kernel = SimKernel()
        proc = kernel.create_process("a.exe", exe_fixture())
        kernel.terminate_process(proc.pid)
        with pytest.raises(NoSuchProcess):
            kernel.run_entrypoint(proc.pid)


class TestRecords:
    @pytest.mark.parametrize("data", [bytearray(b"\x01\x02\x03"),
                                      memoryview(b"\x01\x02\x03").toreadonly()],
                             ids=["bytearray", "view"])
    def test_memory_region_end_eq_repr_and_weakref(self, data):
        region = MemoryRegion(0x1000, data, PERM_RX, "image:a.dll")
        assert region.end == 0x1003
        assert region == MemoryRegion(base=0x1000, data=bytearray(b"\x01\x02\x03"),
                                      perms=PERM_RX, tag="image:a.dll", code=None)
        assert region != MemoryRegion(0x1000, data, PERM_RX, "image:a.dll", print)
        assert region != MemoryRegion(0x1001, data, PERM_RX, "image:a.dll")
        assert repr(region) == (f"MemoryRegion(base=4096, data={data!r}, "
                                f"perms={PERM_RX!r}, tag='image:a.dll', code=None)")
        assert not hasattr(region, "__dict__")
        ref = weakref.ref(region)
        assert ref() is region
        del region
        assert ref() is None

    def test_perm_values_are_singletons_hashed_by_identity(self):
        assert Perm.__hash__ is object.__hash__
        for a in ALL_PERMS:
            assert Perm(a.value) is a and hash(a) == object.__hash__(a)
            for b in ALL_PERMS:
                assert a | b is Perm(a.value | b.value)
                assert a & ~b is Perm(a.value & ~b.value)

    def test_event_kind_hashes_by_identity(self):
        assert EventKind.__hash__ is object.__hash__
        assert hash(EventKind.IMAGE_LOAD) == object.__hash__(EventKind.IMAGE_LOAD)
        event = NotificationEvent(EventKind.IMAGE_LOAD, 4, "x", 5)
        assert not hasattr(event, "__dict__")
        assert repr(event) == ("NotificationEvent(kind=<EventKind.IMAGE_LOAD: 'IMAGE_LOAD'>, "
                               "pid=4, module_name='x', base=5)")

