import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from duqusim.fixtures import write_fixture_set


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("fixtures")
    write_fixture_set(directory)
    return directory


@pytest.fixture(scope="session")
def fixture_bytes(fixture_dir):
    cache = {}

    def load(name: str) -> bytes:
        if name not in cache:
            cache[name] = (fixture_dir / name).read_bytes()
        return cache[name]

    return load


def small_image() -> bytes:
    """A valid PE32 whose 0x300-byte image holds its headers in 0x1a0 bytes."""
    from duqusim.pebuild import CODE_SECTION, PeSpec, SectionDef, build_pe32

    return build_pe32(PeSpec(
        image_base=0x01000000, entry_rva=0x200,
        sections=[SectionDef(".text", 0x200, b"\x90" * 0x100, CODE_SECTION,
                             virtual_size=0x100)],
        size_of_image=0x300, section_align=0x100))


def displaced_headers_image() -> bytes:
    """:func:`small_image` with its NT headers and section table moved to file
    offset 0x400: the file parses, but the mapped 0x300-byte image has none."""
    data = bytearray(small_image()) + bytes(0x220)
    data[0x400:0x520] = data[0x80:0x1A0]
    data[0x80:0x1A0] = bytes(0x120)
    data[0x3C:0x40] = (0x400).to_bytes(4, "little")
    return bytes(data)


def boot_kernel(fixture_dir, *, sentinel_first=True, with_sentinel=True,
                with_duqu=True, mode="normal", duqu_kwargs=None):
    """Kernel with drivers registered and the boot modules loaded."""
    from duqusim.duqu import DuquDriver, Halted, IntegrityMask
    from duqusim.sentinel import SentinelDriver
    from duqusim.simkernel import SimKernel

    kernel = SimKernel(mode=mode)
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
