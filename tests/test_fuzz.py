"""Seeded fuzz regressions: malformed input ends in a result, never a traceback.

``scan_pe`` gets the shipped fixtures with mutated header bytes and may only
raise ``PeError``.  ``duqusim run`` gets the shipped scenarios with lines
dropped, duplicated, swapped and inserted, and must exit 0, 1 or 2.  It
also gets the shipped fixtures with mutated header bytes, loaded through
``process`` and ``module`` lines with and without ``base=``: every case
exits 0, 1 or 2, and every image the loader accepts is laid out as the
reference layout says.  ``MAX_IMAGE_SIZE`` bounds what a mutated
``size_of_image`` can make the loader allocate.  The kernel invariants are
checked after every scenario case.
"""

import random

import pytest

from duqusim.cli import main
from duqusim.fixtures import poc_scenario_text, unopposed_scenario_text, write_fixture_set
from duqusim.peformat import PeError, parse_pe
from duqusim.scan import scan_pe

from conftest import small_image
from invariants import check_kernel, recording_runs
from oracles import loader_regions_oracle

PE_FIXTURES = ("services.exe", "ntoskrnl.exe", "kernel32.dll", "hal.dll", "ntdll.dll",
               "shell32.dll", "stub1.bin", "stub2.bin", "system.bin")
HEADER_SPAN = 0x400
EXTREME_DWORDS = (b"\x00\x00\x00\x00", b"\xff\xff\xff\xff", b"\x00\x00\x00\x80",
                  b"\xff\xff\xff\x7f", b"\x01\x00\x00\x00")
SCAN_CASES = 4500
SCENARIO_CASES = 200
LOADER_CASES = 400

PIDS = ("services.exe", "System", "tiny.exe", "0x910", "0x914")
MODULE_NAMES = ("kernel32.dll", "ntdll.dll", "shell32.dll", "x.dll")
MODULE_FILES = ("kernel32.dll", "ntdll.dll", "shell32.dll", "hal.dll", "tiny.exe")


def mutate_header(rng: random.Random, data: bytes) -> bytes:
    buf = bytearray(data)
    span = min(HEADER_SPAN, len(buf))
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(span)
        piece = (rng.choice(EXTREME_DWORDS) if rng.random() < 0.3
                 else bytes([rng.randrange(256)]))[:span - at]
        buf[at:at + len(piece)] = piece
    return bytes(buf)


def test_header_mutations_raise_only_pe_error(fixture_bytes):
    rng = random.Random("scan-header-fuzz")
    outcomes = {"report": 0, "PeError": 0}
    for _ in range(SCAN_CASES):
        data = mutate_header(rng, fixture_bytes(rng.choice(PE_FIXTURES)))
        try:
            scan_pe(data, anchor_export="ZwAllocateVirtualMemory")
            outcomes["report"] += 1
        except PeError:
            outcomes["PeError"] += 1
    assert min(outcomes.values()) > 0, outcomes


def inserted_line(rng: random.Random) -> str:
    return rng.choice((
        lambda: f"run {rng.choice(PIDS)}",
        lambda: (f"module {rng.choice(PIDS)} {rng.choice(MODULE_NAMES)} "
                 f"{rng.choice(MODULE_FILES)}"),
        lambda: f"set-mode {rng.choice(('normal', 'debug', 'failsafe'))}",
        lambda: "driver sentinel report-only=1",
        lambda: "driver sentinel watch=tiny.exe,services.exe",
        lambda: "process tiny.exe tiny.exe",
    ))()


def mutate_scenario(rng: random.Random, text: str) -> str:
    lines = text.splitlines()
    for _ in range(rng.randint(1, 4)):
        op = rng.choice(("drop", "duplicate", "swap", "insert", "insert"))
        if op == "insert" or not lines:
            lines.insert(rng.randrange(len(lines) + 1), inserted_line(rng))
        elif op == "drop":
            lines.pop(rng.randrange(len(lines)))
        elif op == "duplicate":
            i = rng.randrange(len(lines))
            lines.insert(i, lines[i])
        else:
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("base", ["poc", "unopposed"])
def test_scenario_mutations_exit_cleanly(tmp_path, capsys, monkeypatch, base):
    write_fixture_set(tmp_path)
    (tmp_path / "tiny.exe").write_bytes(small_image())
    text = poc_scenario_text() if base == "poc" else unopposed_scenario_text()
    rng = random.Random(f"scenario-fuzz:{base}")
    runs = recording_runs(monkeypatch)
    codes = set()
    for case in range(SCENARIO_CASES // 2):
        scenario = tmp_path / "case.scenario"
        scenario.write_text(mutate_scenario(rng, text), encoding="utf-8")
        runs.clear()
        code = main(["run", str(scenario)])
        assert code in (0, 1, 2), (case, scenario.read_text())
        codes.add(code)
        for result in runs:
            check_kernel(result.kernel, result.drivers.values())
        capsys.readouterr()
    assert codes == {0, 1, 2}


def loader_case(rng: random.Random) -> tuple[str, dict[str, str]]:
    """A scenario loading ``mutant.bin`` as a process or as modules, at the
    preferred base, a requested one or an occupied one; returns its text
    and the file each loaded name maps."""
    def base() -> str:
        return rng.choice(("", "", " base=0x20000000", f" base={rng.randrange(1 << 32):#x}"))

    lines = ["driver sentinel watch=host.exe,mutant.exe"]
    if rng.random() < 0.5:
        lines.append(f"process mutant.exe mutant.bin{base()}")
        files = {"mutant.exe": "mutant.bin"}
    else:
        lines.append("process host.exe services.exe")
        files = {"host.exe": "services.exe"}
    # By pid, so a process the loader refused is a runtime error, not a bad line.
    for i in range(rng.randint(1, 3)):
        lines.append(f"module 0x910 m{i}.dll mutant.bin{base()}")
        files[f"m{i}.dll"] = "mutant.bin"
    lines.append("run 0x910")
    return "\n".join(lines) + "\n", files


def test_loader_header_mutations_exit_cleanly(tmp_path, capsys, monkeypatch):
    write_fixture_set(tmp_path)
    rng = random.Random("loader-header-fuzz")
    runs = recording_runs(monkeypatch)
    mapped = {"process": 0, "module": 0, "rebased": 0}
    for case in range(LOADER_CASES):
        fixture = rng.choice(PE_FIXTURES)
        data = mutate_header(rng, (tmp_path / fixture).read_bytes())
        (tmp_path / "mutant.bin").write_bytes(data)
        text, files = loader_case(rng)
        scenario = tmp_path / "case.scenario"
        scenario.write_text(text, encoding="utf-8")
        runs.clear()
        code = main(["run", str(scenario)])
        assert code in (0, 1, 2), (case, fixture, text)
        capsys.readouterr()
        [result] = runs
        kernel = result.kernel
        check_kernel(kernel, result.drivers.values())
        for proc in kernel.processes.values():
            for name, at in proc.modules:
                image = parse_pe((tmp_path / files[name]).read_bytes())
                regions = sorted((r.base, bytes(r.data), r.perms.describe())
                                 for r in proc.regions if r.tag == f"image:{name}")
                assert regions == loader_regions_oracle(image, at), (case, fixture, text)
                if files[name] == "mutant.bin":
                    mapped["process" if name == proc.name else "module"] += 1
                    mapped["rebased"] += at != image.nt.image_base
    assert min(mapped.values()) > 0, mapped
