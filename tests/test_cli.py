import errno
import json
import os
import struct
import subprocess
import sys

import pytest

from duqusim.cli import main
from duqusim.fixtures import write_fixture_set
from duqusim.pebuild import CODE_SECTION, DATA_SECTION, PeSpec, SectionDef, build_pe32
from duqusim.peformat import parse_pe
from duqusim.scan import ENTRY_HOOK, OBFUSCATED_PE_CONST, ZWPROTECT_PATTERN, scan_pe

from conftest import entry_file_offset
from oracles import ror13_oracle

HOOK_BYTES = bytes([0xB8, 0xBD, 0x18, 0x0A, 0x00, 0xFF, 0xD0])


def hooked_services(fixture_bytes) -> bytes:
    data = bytearray(fixture_bytes("services.exe"))
    image = parse_pe(bytes(data))
    off = entry_file_offset(image)
    data[off:off + 7] = HOOK_BYTES
    return bytes(data)


ENTRY_HOOK_BYTES = bytes.fromhex("B8001040 00FFD0")  # mov eax, 0x00401000 / call eax


def virtual_tail_image() -> bytes:
    """``.text`` holds 0x200 raw bytes in a 0x1000-byte virtual span and the
    entrypoint sits in its zero-filled tail at RVA 0x1800.  Past the raw
    data, that RVA's file offset is ``.data``'s offset 0x600, which holds an
    entrypoint hook's bytes."""
    data = bytearray(0x800)
    data[0x600:0x607] = ENTRY_HOOK_BYTES
    return build_pe32(PeSpec(
        image_base=0x00400000, entry_rva=0x1800,
        sections=[SectionDef(".text", 0x1000, b"\x90" * 0x200, CODE_SECTION,
                             virtual_size=0x1000),
                  SectionDef(".data", 0x2000, bytes(data), DATA_SECTION)]))


class TestScan:
    def test_entry_in_virtual_tail_reads_as_mapped(self, tmp_path, capsys):
        # The loader maps zeros at the entrypoint, so there is no hook to report.
        (tmp_path / "tail.exe").write_bytes(virtual_tail_image())
        assert main(["scan", str(tmp_path / "tail.exe")]) == 0
        assert capsys.readouterr().out.endswith("tail.exe: clean\n")
        scenario = tmp_path / "tail.scenario"
        scenario.write_text("process tail.exe tail.exe\nrun tail.exe\n"
                            "expect * Process tail.exe pid=0x910 runs its entrypoint *\n")
        assert main(["run", str(scenario)]) == 0
        # The same bytes inside the raw data are a hook to both.
        text = bytearray(b"\x90" * 0x200)
        text[0x100:0x107] = ENTRY_HOOK_BYTES
        report = scan_pe(build_pe32(PeSpec(
            image_base=0x00400000, entry_rva=0x1100,
            sections=[SectionDef(".text", 0x1000, bytes(text), CODE_SECTION,
                                 virtual_size=0x1000)])))
        assert [(f.kind, f.address) for f in report.findings] == [(ENTRY_HOOK, 0x00401100)]

    def test_entry_hook_finding(self, fixture_bytes):
        report = scan_pe(hooked_services(fixture_bytes), path="victim")
        kinds = {f.kind: f for f in report.findings}
        assert ENTRY_HOOK in kinds
        assert kinds[ENTRY_HOOK].address == 0x01012475
        assert "0x000a18bd" in kinds[ENTRY_HOOK].detail

    def test_clean_fixture_is_clean(self, fixture_bytes):
        assert scan_pe(fixture_bytes("services.exe")).clean

    def test_protect_pattern_with_anchor(self, fixture_bytes):
        report = scan_pe(fixture_bytes("ntoskrnl.exe"),
                         anchor_export="ZwAllocateVirtualMemory")
        kinds = {f.kind: f for f in report.findings}
        assert ZWPROTECT_PATTERN in kinds
        assert kinds[ZWPROTECT_PATTERN].address == 0x004ED1EA
        assert "0x00406882" in kinds[ZWPROTECT_PATTERN].detail

    def test_no_anchor_no_pattern_finding(self, fixture_bytes):
        report = scan_pe(fixture_bytes("ntoskrnl.exe"))
        assert all(f.kind != ZWPROTECT_PATTERN for f in report.findings)

    def test_obfuscated_constant_in_code(self, fixture_bytes):
        data = bytearray(fixture_bytes("services.exe"))
        image = parse_pe(bytes(data))
        section = image.sections[0]
        struct.pack_into("<I", data, section.raw_offset + 0x40, 0x00004550)
        report = scan_pe(bytes(data))
        kinds = {f.kind: f for f in report.findings}
        assert OBFUSCATED_PE_CONST in kinds
        assert kinds[OBFUSCATED_PE_CONST].address == \
            image.nt.image_base + section.virtual_address + 0x40


class TestCliCommands:
    def test_make_fixtures_idempotent(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        names = write_fixture_set(a)
        write_fixture_set(b)
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_run_poc_exit_zero(self, fixture_dir, capsys):
        code = main(["run", str(fixture_dir / "poc_duqu_attack.scenario")])
        out = capsys.readouterr().out
        assert code == 0
        assert "-> Checksum error !!!!" in out
        assert "-> Terminating services.exe" in out

    def test_run_writes_log_file(self, fixture_dir, tmp_path, capsys):
        log_path = tmp_path / "run.log"
        code = main(["run", str(fixture_dir / "duqu_unopposed.scenario"),
                     "--log", str(log_path)])
        assert code == 0
        assert log_path.read_text() == capsys.readouterr().out

    def test_run_unmet_expectation_exit_one(self, fixture_dir, tmp_path, capsys):
        scenario = tmp_path / "x.scenario"
        scenario.write_text(
            f"process a.exe {fixture_dir / 'services.exe'}\nexpect nope\n")
        assert main(["run", str(scenario)]) == 1
        assert "unmet expectation: nope" in capsys.readouterr().err

    def test_run_missing_scenario_exit_two(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "none.scenario")]) == 2

    def test_run_bad_option_value_exit_two(self, fixture_dir, tmp_path, capsys):
        scenario = tmp_path / "bad.scenario"
        scenario.write_text("driver sentinel report-only=ture\n")
        assert main(["run", str(scenario)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 1: bad report-only 'ture'")
        assert err.count("\n") == 1

    def test_run_unknown_option_key_exit_two(self, tmp_path, capsys):
        scenario = tmp_path / "typo.scenario"
        scenario.write_text("driver sentinel reportonly=1\n")
        assert main(["run", str(scenario)]) == 2
        assert capsys.readouterr().err == "error: line 1: unknown option 'reportonly'\n"

    def test_run_repeated_option_key_exit_two(self, tmp_path, capsys):
        scenario = tmp_path / "twice.scenario"
        scenario.write_text("driver sentinel report-only=1 report-only=0\n"
                            "process services.exe services.exe\n")
        assert main(["run", str(scenario)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 1: repeated option 'report-only'\n"

    def test_run_grammar_error_before_any_line_runs(self, tmp_path, capsys):
        # Line 1 would fail on its missing fixture if it ran first.
        scenario = tmp_path / "grammar.scenario"
        scenario.write_text("process a.exe missing.exe\ndriver duqu config=c\n")
        assert main(["run", str(scenario)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 2: driver duqu needs stub1=<path>\n"

    def test_run_non_utf8_scenario_exit_two(self, tmp_path, capsys):
        scenario = tmp_path / "bad.scenario"
        scenario.write_bytes(b"process a\xff.exe x.bin\n")
        assert main(["run", str(scenario)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: scenario {str(scenario)!r} is not UTF-8: ")
        assert "0xff" in captured.err and captured.err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["directory", "fifo", "nul"])
    def test_run_fixture_that_is_no_file_exit_two(self, tmp_path, kind):
        # In a child process with a timeout: a FIFO must be refused, not waited on.
        if kind == "directory":
            (tmp_path / "thing.bin").mkdir()
        elif kind == "fifo":
            if not hasattr(os, "mkfifo"):
                pytest.skip("no FIFOs on this platform")
            os.mkfifo(tmp_path / "thing.bin")
        name = "thing\x00.bin" if kind == "nul" else "thing.bin"
        scenario = tmp_path / "nofile.scenario"
        scenario.write_text(f"process a.exe {name}\n", encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "duqusim", "run", str(scenario)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: line 1: fixture {name!r} not found\n"

    @pytest.mark.parametrize("kind", ["directory", "fifo"])
    def test_run_scenario_that_is_no_file_exit_two(self, tmp_path, kind):
        scenario = tmp_path / "odd.scenario"
        if kind == "directory":
            scenario.mkdir()
        else:
            if not hasattr(os, "mkfifo"):
                pytest.skip("no FIFOs on this platform")
            os.mkfifo(scenario)
        proc = subprocess.run([sys.executable, "-m", "duqusim", "run", str(scenario)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == f"error: scenario {str(scenario)!r} not found\n"

    @pytest.mark.parametrize("command", ["scan", "hash"])
    @pytest.mark.parametrize("kind", ["missing", "directory", "fifo"])
    def test_input_that_is_no_file_exit_two(self, tmp_path, command, kind):
        # In a child process with a timeout: a FIFO must be refused, not waited on.
        path = tmp_path / "thing.bin"
        if kind == "directory":
            path.mkdir()
        elif kind == "fifo":
            if not hasattr(os, "mkfifo"):
                pytest.skip("no FIFOs on this platform")
            os.mkfifo(path)
        proc = subprocess.run([sys.executable, "-m", "duqusim", command, str(path)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: file {str(path)!r} not found\n"

    def test_run_unreadable_fixture_exit_two(self, fixture_dir, tmp_path, capsys,
                                             monkeypatch):
        # A permission error is no missing file: it reaches main as an OSError.
        original = os.open

        def deny(path, *args):
            if os.path.basename(path) == "services.exe":
                raise PermissionError(errno.EACCES, "Permission denied", path)
            return original(path, *args)

        scenario = tmp_path / "denied.scenario"
        scenario.write_text(f"process a.exe {fixture_dir / 'services.exe'}\n")
        monkeypatch.setattr(os, "open", deny)
        assert main(["run", str(scenario)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno 13] Permission denied")
        assert captured.err.count("\n") == 1

    def test_run_json_format(self, fixture_dir, capsys, monkeypatch):
        monkeypatch.setenv("SENTINEL_LOG_FORMAT", "json")
        assert main(["run", str(fixture_dir / "poc_duqu_attack.scenario")]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        doc = json.loads(first)
        assert doc["seq"] == 0 and doc["source"] == "loader"

    def test_run_bad_format_env(self, fixture_dir, capsys, monkeypatch):
        monkeypatch.setenv("SENTINEL_LOG_FORMAT", "xml")
        assert main(["run", str(fixture_dir / "poc_duqu_attack.scenario")]) == 2

    def test_scan_clean_exit_zero(self, fixture_dir, capsys):
        assert main(["scan", str(fixture_dir / "services.exe")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_scan_hooked_exit_one(self, fixture_dir, fixture_bytes, tmp_path, capsys):
        victim = tmp_path / "victim.exe"
        victim.write_bytes(hooked_services(fixture_bytes))
        assert main(["scan", str(victim)]) == 1
        assert "ENTRY_HOOK" in capsys.readouterr().out

    def test_scan_anchor_export_cli(self, fixture_dir, capsys):
        code = main(["scan", str(fixture_dir / "ntoskrnl.exe"),
                     "--anchor-export", "ZwAllocateVirtualMemory"])
        out = capsys.readouterr().out
        assert code == 1
        assert "ZWPROTECT_PATTERN 0x004ed1ea" in out

    @pytest.mark.parametrize("anchor", ["Zw\u20ac", "Zw\udcff"])
    def test_scan_non_ascii_anchor_exit_two(self, fixture_dir, capsys, anchor):
        code = main(["scan", "--anchor-export", anchor, str(fixture_dir / "ntoskrnl.exe")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: anchor export {anchor!r} is not ASCII\n"

    def test_run_deeply_nested_mask_exit_two(self, tmp_path):
        # json.loads raises RecursionError here: a bad mask, not a traceback.
        write_fixture_set(tmp_path)
        (tmp_path / "maskspec.json").write_bytes(b"[" * 200_000)
        proc = subprocess.run([sys.executable, "-m", "duqusim", "run",
                               str(tmp_path / "poc_duqu_attack.scenario")],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1
        assert "bad mask 'maskspec.json': JSON nested too deeply" in proc.stderr

    def test_scan_garbage_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"not a pe at all")
        assert main(["scan", str(bad)]) == 2

    def test_hash_subcommand(self, tmp_path, capsys):
        target = tmp_path / "name.txt"
        target.write_bytes(b"services.exe")
        assert main(["hash", str(target)]) == 0
        out = capsys.readouterr().out.strip()
        assert out == f"{ror13_oracle(b'services.exe'):#010x}" == "0x983ce711"

    def test_module_invocation(self, fixture_dir):
        proc = subprocess.run(
            [sys.executable, "-m", "duqusim", "run",
             str(fixture_dir / "poc_duqu_attack.scenario")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "-> Terminating services.exe" in proc.stdout


def imported_modules(fixture_dir, argv: list[str]) -> set[str]:
    """Every module a child ``python argv`` imports, as ``-X importtime``
    lists them; a fixture name in ``argv`` becomes its path."""
    argv = [str(fixture_dir / arg) if arg.endswith((".exe", ".scenario")) else arg
            for arg in argv]
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize("argv, loads", [
    (["-c", "import duqusim.scan, duqusim.sentinel"], "duqusim.sentinel"),
    (["-m", "duqusim", "scan", "ntoskrnl.exe"], "duqusim.scan"),
])
def test_defensive_tooling_never_imports_the_attacker(fixture_dir, argv, loads):
    """The monitor and the scanner, and ``duqusim scan``, load no
    ``duqusim.duqu``."""
    imported = imported_modules(fixture_dir, argv)
    assert loads in imported and "duqusim.peformat" in imported
    assert "duqusim.duqu" not in imported


@pytest.mark.parametrize("argv, loads", [
    (["-m", "duqusim", "run", "poc_duqu_attack.scenario"], "duqusim.scenario"),
    (["-m", "duqusim", "scan", "ntoskrnl.exe"], "duqusim.scan"),
    (["-m", "duqusim", "hash", "services.exe"], "duqusim.cli"),
    (["-c", "import duqusim.scenario, duqusim.scan, duqusim.fixtures"], "duqusim.fixtures"),
])
def test_no_module_loads_dataclasses(fixture_dir, argv, loads):
    """Every record class is written out by hand: building one with
    ``dataclasses`` generates and compiles its methods at import."""
    imported = imported_modules(fixture_dir, argv)
    assert loads in imported and "dataclasses" not in imported
