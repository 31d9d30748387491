"""Byte-for-byte gate on the shipped PoC transcripts and scanner output.

``tests/golden/`` holds the plain and JSON output of ``duqusim run`` for
both generated PoC scenarios.  Any change to what the simulator logs, or
to how a log line is rendered, shows up here first.  It also holds
``scan_fixtures.txt``: ``duqusim scan`` of every file ``make-fixtures``
writes, with and without an anchor export, so a change to the parser's
section reads shows up in the scanner's findings.  And it holds
``region_maps.txt``: every region left in memory after both PoC scenarios
and a fleet-shaped one, with the SHA-256 of its bytes, so a change to
what the loader lays down shows up even where no log line reads it.  The
kernel invariants are checked after every golden scenario.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from duqusim.cli import main
from duqusim.fixtures import write_fixture_set
from duqusim.scenario import run_scenario

from invariants import check_kernel, recording_runs

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("scenario", ["poc_duqu_attack", "duqu_unopposed"])
@pytest.mark.parametrize("fmt, suffix", [("plain", "txt"), ("json", "jsonl")])
def test_run_matches_golden_transcript(fixture_dir, capsys, monkeypatch,
                                       scenario, fmt, suffix):
    monkeypatch.setenv("SENTINEL_LOG_FORMAT", fmt)
    runs = recording_runs(monkeypatch)
    assert main(["run", str(fixture_dir / f"{scenario}.scenario")]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (GOLDEN / f"{scenario}.{suffix}").read_bytes()
    [result] = runs
    check_kernel(result.kernel, result.drivers.values())


# The shipped relocatable DLLs loaded by several processes at their
# preferred base, at a requested base and over an occupied one, beside the
# sparse ntoskrnl.exe image and an image that cannot rebase.
FLEET_SHAPED_SCENARIO = """\
driver sentinel watch=a.exe,b.exe
process a.exe services.exe
process b.exe services.exe base=0x01000000
process c.exe system.bin
module a.exe kernel32.dll kernel32.dll
module a.exe kernel32b.dll kernel32.dll
module a.exe ntdll.dll ntdll.dll base=0x20000000
module a.exe hal.dll hal.dll
module b.exe shell32.dll shell32.dll base=0x7c9d0000
module b.exe ntdll.dll ntdll.dll
module b.exe kernel32.dll kernel32.dll base=0x7c9d0000
module b.exe hal.dll hal.dll base=0x20000000
module b.exe hal2.dll hal.dll base=0x20000000
module c.exe stub1.bin stub1.bin
module c.exe stub1b.bin stub1.bin base=0x10000000
module c.exe ntoskrnl.exe ntoskrnl.exe
module c.exe shell32.dll shell32.dll base=0x00301000
module c.exe system2.bin system.bin base=0x30000000
"""
REGION_SCENARIOS = ("poc_duqu_attack", "duqu_unopposed", "fleet_shaped")


def region_maps(directory: Path) -> str:
    """Run each of ``REGION_SCENARIOS`` in ``directory``; then one line per
    region: pid, base, length, perms, tag and the SHA-256 of its bytes."""
    out = []
    for name in REGION_SCENARIOS:
        result = run_scenario(directory / f"{name}.scenario")
        check_kernel(result.kernel, result.drivers.values())
        out.append(f"# {name}\n")
        for pid, proc in result.kernel.processes.items():
            for r in proc.regions:
                out.append(f"{pid:#x} {r.base:#010x} {len(r.data):#x} {r.perms.describe()} "
                           f"{r.tag} {hashlib.sha256(r.data).hexdigest()}\n")
    return "".join(out)


def test_region_maps_match_golden(tmp_path):
    write_fixture_set(tmp_path)
    (tmp_path / "fleet_shaped.scenario").write_text(FLEET_SHAPED_SCENARIO, encoding="utf-8")
    golden = (GOLDEN / "region_maps.txt").read_text(encoding="utf-8")
    assert region_maps(tmp_path) == golden


SCAN_ANCHOR = "ZwAllocateVirtualMemory"


def scan_transcript(names: list[str]) -> str:
    """Every ``duqusim scan`` of ``names`` (relative to the working directory),
    without and with ``--anchor-export``: command, stdout, stderr, exit code."""
    out = []
    for name in sorted(names):
        for extra in ([], ["--anchor-export", SCAN_ANCHOR]):
            argv = ["scan", *extra, name]
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main(argv)
            out.append(f"$ duqusim {' '.join(argv)}\n{stdout.getvalue()}"
                       f"{stderr.getvalue()}exit {code}\n")
    return "".join(out)


def test_scan_matches_golden(tmp_path, monkeypatch):
    names = write_fixture_set(tmp_path)
    monkeypatch.chdir(tmp_path)
    golden = (GOLDEN / "scan_fixtures.txt").read_text(encoding="utf-8")
    assert scan_transcript(names) == golden
