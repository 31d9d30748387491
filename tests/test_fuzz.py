"""Seeded fuzz regressions: malformed input ends in a result, never a traceback.

``scan_pe`` gets the shipped fixtures with mutated header bytes and may only
raise ``PeError``.  ``duqusim run`` gets the shipped scenarios with lines
dropped, duplicated, swapped and inserted, and must exit 0, 1 or 2.  It
also gets the shipped fixtures with mutated header bytes, loaded through
``process`` and ``module`` lines with and without ``base=``: every case
exits 0, 1 or 2, and every image the loader accepts is laid out as the
reference layout says.  ``MAX_IMAGE_SIZE`` bounds what a mutated
``size_of_image`` can make the loader allocate.  The kernel invariants are
checked after every scenario case, and the shared parsed-image cache is
still within its bound after all of them.  Each mutated scenario is also
run one line at a time, with the invariants checked after every line,
and, with the cyclic garbage collector off, every finished run must be
freed once dropped.  Every header mutant that ``parse_pe`` accepts and the
loader maps decodes the same from the file and from the mapping.  Over
mutated scenarios and lines, ``parse_scenario`` returns what a plainer
reference loop returns: the same commands or the same first error.
"""

import random

import pytest

from duqusim import peformat, simkernel
from duqusim.cli import main
from duqusim.fixtures import poc_scenario_text, unopposed_scenario_text, write_fixture_set
from duqusim.peformat import PeError, parse_pe, read_module
from duqusim.scan import scan_pe
from duqusim.scenario import ScenarioError, ScenarioRunner, parse_scenario
from duqusim.simkernel import SimError, SimKernel

from conftest import entry_in_gap_image, small_image
from invariants import (check_export_memo, check_image_cache, check_kernel, gc_disabled,
                        recording_runs, run_refs, still_alive)
from oracles import loader_regions_oracle, parse_scenario_oracle

PE_FIXTURES = ("services.exe", "ntoskrnl.exe", "kernel32.dll", "hal.dll", "ntdll.dll",
               "shell32.dll", "stub1.bin", "stub2.bin", "system.bin")
HEADER_SPAN = 0x400
EXTREME_DWORDS = (b"\x00\x00\x00\x00", b"\xff\xff\xff\xff", b"\x00\x00\x00\x80",
                  b"\xff\xff\xff\x7f", b"\x01\x00\x00\x00")
SCAN_CASES = 4500
SCENARIO_CASES = 200
LOADER_CASES = 400
DIFFERENTIAL_CASES = 3000
PARSER_CASES = 2000

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


def test_header_mutants_decode_alike_from_file_and_mapping(fixture_bytes, monkeypatch):
    # read_module over the mapping at the preferred base is what both
    # drivers decode; parse_pe of the file is what the loader and the
    # scanner decode.  The mutants' plans go to a cache of their own, so
    # later tests do not check them at every kernel invariant check; so do
    # their export tables.
    monkeypatch.setattr(simkernel, "image_cache", simkernel.ImageCache())
    monkeypatch.setattr(peformat, "_export_memo", {})
    rng = random.Random("differential")
    mapped = 0
    for case in range(DIFFERENTIAL_CASES):
        fixture = rng.choice(PE_FIXTURES)
        data = mutate_header(rng, fixture_bytes(fixture))
        try:
            image = parse_pe(data)
            kernel = SimKernel()
            proc = kernel.create_process("mutant.exe", data)
        except (PeError, SimError):
            continue
        mapped += 1
        read = kernel.image_reader(proc.pid, proc.image_base)
        try:
            got = read_module(read)
        except (PeError, SimError) as exc:
            raise AssertionError(f"case {case} ({fixture}): mapping reads {exc!r}") from None
        assert ((got.nt, got.sections, got.exports, got.relocations)
                == (image.nt, image.sections, image.exports, [])), (case, fixture)
    assert mapped > DIFFERENTIAL_CASES // 2, mapped
    check_export_memo()


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


STRAY_OPTIONS = ("base=0x20000000", "base=", "=0x1000", "x=y", "a=b=c", "watch=tiny.exe",
                 "report-only=1", "config=c.bin", "stub1=s1", "stub2=s2", "mask=m.json",
                 "kernel-base=0x400000")


def mutate_line(rng: random.Random, line: str) -> str:
    """``line`` with tabs for spaces, a stray ``=`` in a word, an option
    added or repeated, every ``=`` taken out, or a word dropped or
    replaced."""
    words = line.split(" ")
    i = rng.randrange(len(words))
    how = rng.randrange(7)
    if how == 0:
        return line.replace(" ", rng.choice(("\t", " \t", "\t\t")), rng.randint(1, 3))
    if how == 1:
        at = rng.randint(0, len(words[i]))
        words[i] = words[i][:at] + "=" + words[i][at:]
    elif how == 2:
        words.insert(rng.randint(1, len(words)), rng.choice(STRAY_OPTIONS))
    elif how == 3:
        words.append(rng.choice([w for w in words if "=" in w] or STRAY_OPTIONS))
    elif how == 4:
        return line.replace("=", rng.choice((" ", "")))
    elif how == 5:
        del words[i]
    else:
        words[i] = rng.choice(("spy", "Sentinel", "DUQU", "debug", "bogus", "set-mode", "expect"))
    return " ".join(words)


# The monitor terminates gap.exe in its create handler, so no IMAGE_LOAD
# may follow for it.
CREATE_KILL_SCENARIO = """\
driver sentinel watch=gap.exe,services.exe
process gap.exe gap.exe
module gap.exe kernel32.dll kernel32.dll
process services.exe services.exe
module services.exe kernel32.dll kernel32.dll
run services.exe
expect -> Terminating gap.exe
"""
BASE_SCENARIOS = {"poc": poc_scenario_text, "unopposed": unopposed_scenario_text,
                  "create_kill": lambda: CREATE_KILL_SCENARIO}


def run_line_by_line(directory, text: str) -> ScenarioRunner | None:
    """Run ``text`` one command at a time, checking the kernel invariants
    after each; None if it does not parse.  A failed check names the line."""
    try:
        commands = parse_scenario(text)
    except ScenarioError:
        return None
    lines = text.splitlines()
    runner = ScenarioRunner(directory)
    for cmd in commands:
        stop = False
        try:
            runner.execute([cmd])
        except ScenarioError:  # `duqusim run` exits 2 at this line
            stop = True
        try:
            check_kernel(runner.kernel)
        except AssertionError as exc:
            raise AssertionError(f"after line {cmd.line_no} "
                                 f"{lines[cmd.line_no - 1]!r}: {exc}") from None
        if stop:
            break
    return runner


@pytest.mark.parametrize("base", sorted(BASE_SCENARIOS))
def test_scenario_mutations_exit_cleanly(tmp_path, capsys, monkeypatch, base):
    write_fixture_set(tmp_path)
    (tmp_path / "tiny.exe").write_bytes(small_image())
    (tmp_path / "gap.exe").write_bytes(entry_in_gap_image())
    text = BASE_SCENARIOS[base]()
    rng = random.Random(f"scenario-fuzz:{base}")
    runs = recording_runs(monkeypatch)
    codes = set()
    with gc_disabled():
        for case in range(SCENARIO_CASES // 2):
            mutated = mutate_scenario(rng, text)
            runner = run_line_by_line(tmp_path, mutated)
            scenario = tmp_path / "case.scenario"
            scenario.write_text(mutated, encoding="utf-8")
            runs.clear()
            code = main(["run", str(scenario)])
            assert code in (0, 1, 2), (case, mutated)
            codes.add(code)
            refs = []
            for result in runs:
                check_kernel(result.kernel)
                assert result.lines == runner.kernel.log, (case, mutated)
                refs += run_refs(result.kernel)
            if runner is not None:
                refs += run_refs(runner.kernel)
            result = runner = None
            runs.clear()
            assert still_alive(refs) == [], (case, mutated)
            capsys.readouterr()
    assert codes == {0, 1, 2}


def parsed_or_error(parse, text: str):
    try:
        return parse(text)
    except ScenarioError as exc:
        return str(exc)


def test_parser_matches_the_reference_loop():
    rng = random.Random("parser-differential")
    texts = [text() for text in BASE_SCENARIOS.values()]
    outcomes = {"parsed": 0, "error": 0}
    for case in range(PARSER_CASES):
        lines = mutate_scenario(rng, rng.choice(texts)).splitlines()
        for _ in range(rng.randint(0, 3)):
            i = rng.randrange(len(lines))
            lines[i] = mutate_line(rng, lines[i])
        text = "\n".join(lines) + "\n"
        got = parsed_or_error(parse_scenario, text)
        assert got == parsed_or_error(parse_scenario_oracle, text), (case, text)
        outcomes["error" if isinstance(got, str) else "parsed"] += 1
    assert min(outcomes.values()) > PARSER_CASES // 10, outcomes


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
        check_kernel(kernel)
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
    check_image_cache()
    check_export_memo()
