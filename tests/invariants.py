"""Kernel invariants that must hold after every top-level call.

:func:`check_kernel` is run after every golden scenario and every fuzz
case; a failure names the invariant and the process it broke in.
:func:`recording_runs` collects the :class:`ScenarioResult` of every
``duqusim run`` made through :func:`duqusim.cli.main`, so a test can check
the kernel behind a transcript, and registers an
:class:`ImageLoadRecorder` in each of those kernels before any scenario
driver.  :func:`recorded_parses` lists every real parse the loader makes,
and :func:`recorded_export_decodes` every export directory
:func:`duqusim.peformat.read_module` decodes.  :func:`check_image_cache`
and :func:`check_export_memo` check the two caches a process keeps.
:func:`run_refs` and :func:`still_alive` check that a finished run is
freed by reference counting alone.  :func:`set_regions` is the one way a
test edits a process's regions in place.
"""

import gc
import operator
import weakref
from contextlib import contextmanager
from typing import NamedTuple

from duqusim import peformat, scenario, simkernel
from duqusim.sentinel import SentinelDriver
from duqusim.simkernel import ADDRESS_LIMIT, Driver, EventKind, SimKernel

from oracles import (
    _parse_exports_oracle,
    apply_relocations_oracle,
    assemble_mapped_oracle,
    ror13_oracle,
)


class ImageLoadRecorder(Driver):
    """A driver registered ahead of every other one.

    Dispatch hands it each ``IMAGE_LOAD`` first, so it sees the pid as the
    event starts dispatch; later drivers in the same round may still see
    the pid die.  It notes every event whose pid is not alive then; a fault
    raised from a handler would only be logged, so :func:`check_kernel`
    asserts instead.  Like the scenario drivers, it holds its kernel
    through a weak proxy, so it keeps no finished run alive.
    """

    def __init__(self, kernel):
        super().__init__("invariants")
        self.kernel = weakref.proxy(kernel)
        self.dead_loads: list[tuple[int, str]] = []
        self.handlers[EventKind.IMAGE_LOAD] = ImageLoadRecorder._on_image_load
        kernel.register_driver(self)

    def _on_image_load(self, event) -> None:
        proc = self.kernel.processes.get(event.pid)
        if proc is None or not proc.alive:
            self.dead_loads.append((event.pid, event.module_name))


def set_regions(proc, regions) -> None:
    """Give ``proc`` the sorted, disjoint ``regions`` and their ends, as
    :meth:`SimProcess.splice` keeps them; a test that drops or moves
    regions calls this after."""
    proc.regions = list(regions)
    proc.ends = [region.end for region in proc.regions]


def check_kernel(kernel) -> None:
    assert not kernel._queue, "events left queued"
    assert kernel._dispatching is False, "dispatch left running"
    for pid, proc in kernel.processes.items():
        assert proc.pid == pid
        end = 0
        for region in proc.regions:
            assert region.base >= end, f"pid {pid:#x}: region {region.base:#x} out of order"
            assert region.end == region.base + len(region.data), \
                f"pid {pid:#x}: region {region.base:#x} changed length"
            end = region.end
        assert end <= ADDRESS_LIMIT, f"pid {pid:#x}: region ends at {end:#x}"
        assert proc.ends == [region.end for region in proc.regions], \
            f"pid {pid:#x}: region ends out of step with its regions"
        assert proc.region_at(proc.image_base) is not None, \
            f"pid {pid:#x}: nothing mapped at its image base {proc.image_base:#x}"
    for driver in kernel.drivers:
        if isinstance(driver, ImageLoadRecorder):
            assert not driver.dead_loads, \
                f"IMAGE_LOAD dispatched for dead pids {driver.dead_loads}"
        if isinstance(driver, SentinelDriver):
            dead = [pid for pid in driver.records
                    if pid not in kernel.processes or not kernel.processes[pid].alive]
            assert not dead, f"sentinel records for dead pids {dead}"
    check_image_cache()
    check_export_memo()


def _holds_bytes(value) -> bool:
    if isinstance(value, (bytes, bytearray, memoryview)):
        return True
    return isinstance(value, (list, tuple)) and any(map(_holds_bytes, value))


class _Checked(NamedTuple):
    """A cached plan as its last passing content check saw it."""
    plan: object
    image: object
    spans: list
    views: list
    layouts: dict
    nbytes: int
    facts: tuple

    @classmethod
    def of(cls, plan) -> "_Checked":
        return cls(plan, plan.image, list(plan.spans), list(plan.views),
                   {delta: list(views) for delta, views in plan.layouts.items()}, plan.nbytes,
                   _facts(plan))

    def holds(self, plan) -> bool:
        """Whether ``plan`` is the same plan in the same state: the same
        image, view and layout view objects, and equal spans, ``nbytes``
        and image facts.  A view is read-only, so its bytes change only if
        it is replaced."""
        return (self.plan is plan and self.image is plan.image and self.spans == plan.spans
                and self.nbytes == plan.nbytes and self.facts == _facts(plan)
                and _same_objects(self.views, plan.views)
                and self.layouts.keys() == plan.layouts.keys()
                and all(_same_objects(views, plan.layouts[delta])
                        for delta, views in self.layouts.items()))


def _facts(plan) -> tuple:
    return plan.size, plan.preferred, plan.headers_past, plan.relocatable


def _same_objects(old: list, new: list) -> bool:
    return len(old) == len(new) and all(map(operator.is_, old, new))


# Key -> plan as its content checks last passed, for the cache last checked:
# a plan still in that state needs no second content check.
_checked: dict[bytes, _Checked] = {}


def check_image_cache() -> None:
    """The shared cache is within its bound, its length index lists
    exactly the stored plans, each under its key's length and in the
    cache's order, and it holds only plans of file images: each image keeps its own key as ``raw`` and no ``read`` into a
    kernel, and its views, its layouts' too, are read-only.  A plan that
    is new, or changed since it last passed, gets the content checks too:
    its spans hold no bytes, each view reads as the loader maps its span,
    the plan is the one its image builds, its size, preferred base,
    header-span and relocation facts are its image's, and ``nbytes``
    counts exactly the span and layout views that are copies.  Each layout is checked
    against the oracles' layout relocated by its delta: a layout view is
    the plan's own view if and only if relocation leaves that span's
    bytes unchanged, and otherwise a copy holding the relocated span."""
    cache = simkernel.image_cache
    assert cache.nbytes == sum(len(key) + plan.nbytes for key, plan in cache.plans.items()), \
        "cache byte count drifted"
    assert cache.nbytes <= simkernel.IMAGE_CACHE_BYTES, "cache over its bound"
    by_length = {}
    for key, plan in cache.plans.items():
        by_length.setdefault(len(key), []).append(plan)
    assert cache.by_length.keys() == by_length.keys() and all(
        _same_objects(cache.by_length[n], plans) for n, plans in by_length.items()), \
        "length index is not the cached plans by length, oldest first"
    checked = {}
    for key, plan in cache.plans.items():
        image = plan.image
        assert image.raw is key and image.layout == "file", "cached image is not its key"
        assert image.read is None, "cached image reads through a kernel"
        assert all(view.readonly for views in (plan.views, *plan.layouts.values())
                   for view in views), "cached view is writable"
        last = _checked.get(key)
        if last is not None and last.holds(plan):
            checked[key] = last
            continue
        assert not _holds_bytes(plan.spans), "cached plan spans hold bytes"
        spans = peformat.mapped_spans(image)
        assert [bytes(view) for view in plan.views] == [
            peformat.mapped_bytes(image, span.rva, span.span)
            for span in spans], "cached view is not the mapped span"
        assert plan.spans == simkernel.LoadPlan(image).spans, "cached plan drifted"
        assert _facts(plan) == (image.nt.size_of_image, image.nt.image_base,
                                image.headers_end > spans[0].span, bool(image.relocations)), \
            "cached plan facts are not its image's"
        mapped = bytes(assemble_mapped_oracle(image)) if plan.layouts else b""
        preferred = image.nt.image_base
        for delta, views in plan.layouts.items():
            assert 0 < abs(delta) < simkernel.ADDRESS_LIMIT and len(views) == len(plan.views), \
                "layout misshapen"
            layout = apply_relocations_oracle(mapped, preferred + delta, preferred,
                                              image.relocations)
            for span, view, own in zip(spans, views, plan.views):
                relocated = layout[span.rva:span.rva + span.span]
                if relocated != own:
                    assert view is not own and view.obj is not key and view == relocated, \
                        "layout view is not the relocated span"
                else:
                    assert view is own, "unchanged layout view is not the plan's own"
        copies = [view for view in plan.views if view.obj is not key]
        copies += [view for views in plan.layouts.values()
                   for view, own in zip(views, plan.views) if view is not own]
        assert plan.nbytes == sum(map(len, copies)), "span copies miscounted"
        checked[key] = _Checked.of(plan)
    _checked.clear()
    _checked.update(checked)


# Key -> (table, its entries, its hash index) as the content checks last
# passed them: a table still so needs no second content check.
_checked_exports: dict[tuple, tuple] = {}


def _export_state(table) -> tuple:
    by_hash = table.by_hash
    return (table, list(table.entries),
            None if by_hash is None else {h: list(v) for h, v in by_hash.items()})


def check_export_memo() -> None:
    """``read_module``'s memo is within its bound and holds only what its
    key decides: each kept table is an :class:`ExportTable` and nothing
    else, no reader and no kernel, its directory read is at most
    ``HEADER_MEMO_BLOCK`` bytes and its names total no more.  A table
    that is new, or changed since it last passed, gets the content checks
    too: it equals the oracle's decode of its key, read from the key's
    bytes alone, and its hash index, once built, holds each entry under
    its name's ror13 hash.  A caller that changed a shared table fails
    here."""
    memo = peformat._export_memo
    assert len(memo) <= peformat.HEADER_MEMO_ENTRIES, "export memo over its bound"
    checked = {}
    for key, table in memo.items():
        rva, size_of_image, span = key
        assert type(table) is peformat.ExportTable and vars(table).keys() <= {
            "entries", "by_hash"}, "kept export table holds more than its entries"
        assert type(span) is bytes and len(span) <= peformat.HEADER_MEMO_BLOCK, \
            "kept export directory too long"
        assert sum(len(name) for name, _ in table.entries) <= len(span), \
            "kept export names longer than their directory"
        last = _checked_exports.get(key)
        state = _export_state(table)
        if last is not None and last[0] is table and last[1:] == state[1:]:
            checked[key] = last
            continue

        def read(at: int, n: int) -> bytes:
            assert 0 <= at - rva <= len(span) - n, "kept export table read past its key"
            return span[at - rva:at - rva + n]

        nt = peformat.NtHeaders(0, 0, 0, 0, 0, 0, size_of_image, ((rva, len(span)),))
        assert table == _parse_exports_oracle(read, nt), "kept export table is not its key's"
        assert all(type(name) is bytes and type(va) is int for name, va in table.entries), \
            "kept export entry is not a name and an RVA"
        if table.by_hash is not None:
            expected: dict = {}
            for entry in table.entries:
                expected.setdefault(ror13_oracle(entry[0]), []).append(entry)
            assert table.by_hash == expected, "kept export hash index drifted"
        checked[key] = state
    _checked_exports.clear()
    _checked_exports.update(checked)


def recorded_export_decodes(monkeypatch) -> list[tuple[int, int, bytes]]:
    """The key of every export directory ``read_module`` decodes from now
    on, that is every read its memo misses.  ``parse_pe``'s decodes of
    file images are not listed."""
    decoded = []
    decode = peformat._decode_exports

    def recorded(read, *key):
        if getattr(read, "func", None) is not peformat._read_file:
            decoded.append(key)
        return decode(read, *key)

    monkeypatch.setattr(peformat, "_decode_exports", recorded)
    return decoded


def recorded_parses(monkeypatch) -> list[bytes]:
    """The bytes of every image the loader parses from now on, that is
    every load the shared image cache misses."""
    parsed = []
    monkeypatch.setattr(simkernel, "parse_pe",
                        lambda data: (parsed.append(data), peformat.parse_pe(data))[1])
    return parsed


def recorded_kernel() -> SimKernel:
    """A :class:`SimKernel` with an :class:`ImageLoadRecorder` registered."""
    kernel = SimKernel()
    ImageLoadRecorder(kernel)
    return kernel


def recording_runs(monkeypatch) -> list:
    """Results of the scenarios ``cli.main`` runs from now on, in order.

    Each of their kernels has an :class:`ImageLoadRecorder` registered first.
    """
    results = []
    original = scenario.run_scenario
    monkeypatch.setattr(scenario, "SimKernel", recorded_kernel)

    def run_and_record(path):
        result = original(path)
        assert isinstance(result.kernel.drivers[0], ImageLoadRecorder)
        results.append(result)
        return result

    monkeypatch.setattr(scenario, "run_scenario", run_and_record)
    return results


@contextmanager
def gc_disabled():
    """The cyclic garbage collector off: only reference counting frees."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def run_refs(kernel) -> list:
    """Weak references to ``kernel``, to each of its drivers and to every
    region it has mapped, each with what it names."""
    refs = [("kernel", weakref.ref(kernel))]
    refs += [(f"driver {d.name}", weakref.ref(d)) for d in kernel.drivers]
    for pid, proc in kernel.processes.items():
        refs += [(f"pid {pid:#x} region {r.base:#010x} {r.tag}", weakref.ref(r))
                 for r in proc.regions]
    return refs


def still_alive(refs) -> list[str]:
    """What of :func:`run_refs`' result is still alive."""
    return [what for what, ref in refs if ref() is not None]
