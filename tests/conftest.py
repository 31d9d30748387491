import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from duqusim.fixtures import write_fixture_set


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("fixtures")
    write_fixture_set(directory)
    (directory / "fleet_shaped.scenario").write_text(FLEET_SHAPED_SCENARIO, encoding="utf-8")
    return directory


@pytest.fixture(scope="session")
def fixture_bytes(fixture_dir):
    cache = {}

    def load(name: str) -> bytes:
        if name not in cache:
            cache[name] = (fixture_dir / name).read_bytes()
        return cache[name]

    return load


# The shipped relocatable DLLs loaded by several processes at their
# preferred base, at a requested base and over an occupied one, beside the
# sparse ntoskrnl.exe image and an image that cannot rebase.  Two of its
# processes are watched; its transcripts are pinned beside it in golden/.
FLEET_SHAPED_SCENARIO = (Path(__file__).parent / "golden"
                         / "fleet_shaped.scenario").read_text(encoding="utf-8")


def driver_named(result, name: str):
    """The driver ``name`` registered in a scenario result's kernel."""
    return next(d for d in result.kernel.drivers if d.name == name)


def encode_near_call(call_site: int, target: int) -> bytes:
    """``E8 rel32`` at ``call_site`` calling ``target``: the inverse of
    :func:`duqusim.peformat.resolve_near_call`."""
    return b"\xE8" + ((target - call_site - 5) & 0xFFFFFFFF).to_bytes(4, "little")


def small_image() -> bytes:
    """A valid PE32 whose 0x300-byte image holds its headers in 0x1a0 bytes."""
    from duqusim.pebuild import CODE_SECTION, PeSpec, SectionDef, build_pe32

    return build_pe32(PeSpec(
        image_base=0x01000000, entry_rva=0x200,
        sections=[SectionDef(".text", 0x200, b"\x90" * 0x100, CODE_SECTION,
                             virtual_size=0x100)],
        size_of_image=0x300, section_align=0x100))


def entry_in_gap_image() -> bytes:
    """A valid PE32 whose entrypoint, RVA 0x2800, lies in the unmapped gap
    after its one 0x100-byte section: it loads, but a monitor watching it
    cannot read its entrypoint at creation and terminates it there."""
    from duqusim.pebuild import CODE_SECTION, PeSpec, SectionDef, build_pe32

    return build_pe32(PeSpec(
        image_base=0x01000000, entry_rva=0x2800,
        sections=[SectionDef(".text", 0x1000, b"\x90" * 0x100, CODE_SECTION)],
        size_of_image=0x3000))


def displaced_headers_image() -> bytes:
    """:func:`small_image` with its NT headers and section table moved to file
    offset 0x400: the file parses, but the mapped 0x300-byte image has none."""
    data = bytearray(small_image()) + bytes(0x220)
    data[0x400:0x520] = data[0x80:0x1A0]
    data[0x80:0x1A0] = bytes(0x120)
    data[0x3C:0x40] = (0x400).to_bytes(4, "little")
    return bytes(data)


def entry_file_offset(image) -> int:
    """The file offset of the byte the loader maps at the entrypoint."""
    from duqusim.peformat import mapped_spans

    rva = image.nt.entry_point_rva
    span = next(s for s in mapped_spans(image) if s.rva <= rva < s.rva + s.copy)
    return span.offset + rva - span.rva


def boot_kernel(fixture_dir, *, sentinel_first=True, with_sentinel=True,
                with_duqu=True, mode="normal", duqu_kwargs=None):
    """Kernel with drivers registered and the boot modules loaded."""
    from duqusim.duqu import DuquDriver, Halted, IntegrityMask
    from duqusim.sentinel import SentinelDriver
    from duqusim.simkernel import SimKernel

    kernel = SimKernel()
    kernel.mode = mode
    drivers = {}

    def make_sentinel():
        drivers["sentinel"] = SentinelDriver(kernel)

    def make_duqu():
        kwargs = {
            "config_blob": (fixture_dir / "duqu_config.bin").read_bytes(),
            "stub1": (fixture_dir / "stub1.bin").read_bytes(),
            "stub2": (fixture_dir / "stub2.bin").read_bytes(),
            "mask": IntegrityMask.from_json(
                (fixture_dir / "maskspec.json").read_text()),
            "kernel_base": 0x00400000,
        }
        kwargs.update(duqu_kwargs or {})
        driver = DuquDriver(kernel, **kwargs)
        drivers["duqu"] = driver
        try:
            driver.boot_init()
        except Halted:
            pass

    steps = [make_sentinel, make_duqu] if sentinel_first else [make_duqu, make_sentinel]
    for step in steps:
        if step is make_sentinel and not with_sentinel:
            continue
        if step is make_duqu and not with_duqu:
            continue
        step()

    system = kernel.create_process("System", (fixture_dir / "system.bin").read_bytes())
    kernel.load_module(system.pid, "ntoskrnl.exe",
                       (fixture_dir / "ntoskrnl.exe").read_bytes(), base=0x00400000)
    kernel.load_module(system.pid, "hal.dll", (fixture_dir / "hal.dll").read_bytes())
    return kernel, drivers


def _page_align(value: int) -> int:
    return (value + 0xFFF) & ~0xFFF


def random_pe32(rng: random.Random) -> bytes:
    """Small randomized PE32 for parser and scanner soundness tests.

    Section contents are arbitrary bytes; the entry point is kept clear of
    the mov/call hook shape so a generated image never looks injected.
    """
    from duqusim.pebuild import (
        CODE_SECTION,
        DATA_SECTION,
        RODATA_SECTION,
        PeSpec,
        SectionDef,
        build_pe32,
        reloc_block,
    )

    n_sections = rng.randint(1, 3)
    sections = []
    va = 0x1000
    for i in range(n_sections):
        size = rng.randrange(0x40, 0x400)
        data = bytes(rng.randrange(256) for _ in range(size))
        characteristics = CODE_SECTION if i == 0 else rng.choice(
            [CODE_SECTION, DATA_SECTION, RODATA_SECTION])
        sections.append(SectionDef(f".s{i}", va, data, characteristics))
        va += _page_align(size) + rng.choice([0, 0x1000])
    entry_section = sections[0]
    entry_off = rng.randrange(0, max(1, len(entry_section.data) - 8))
    entry = bytearray(entry_section.data)
    if entry[entry_off] == 0xB8:
        entry[entry_off] = 0x90
    entry_section.data = bytes(entry)

    relocations = []
    reloc_va = 0
    if rng.random() < 0.5:
        page = entry_section.va & ~0xFFF
        offsets = sorted(rng.sample(range(0, min(0xFFC, len(entry_section.data))),
                                    k=rng.randint(1, 3)))
        relocations = [reloc_block(page, [entry_section.va - page + o for o in offsets
                                          if entry_section.va - page + o < 0x1000])]
        reloc_va = _page_align(va)
        va = reloc_va + 0x1000
    exports = None
    export_va = 0
    if rng.random() < 0.5:
        exports = [(f"Fn{i}_{rng.randrange(1000)}".encode(), rng.randrange(0x1000, va))
                   for i in range(rng.randint(1, 4))]
        export_va = _page_align(va)
    return build_pe32(PeSpec(
        image_base=rng.choice([0x00400000, 0x10000000, 0x01000000]),
        entry_rva=entry_section.va + entry_off,
        sections=sections,
        exports=exports,
        export_va=export_va,
        relocations=relocations,
        reloc_va=reloc_va,
        dll=rng.random() < 0.5,
    ))
