import json
import struct
import subprocess
import sys

from duqusim.cli import main
from duqusim.fixtures import write_fixture_set
from duqusim.peformat import parse_pe, rva_to_offset
from duqusim.scan import ENTRY_HOOK, OBFUSCATED_PE_CONST, ZWPROTECT_PATTERN, scan_pe

from oracles import ror13_oracle

HOOK_BYTES = bytes([0xB8, 0xBD, 0x18, 0x0A, 0x00, 0xFF, 0xD0])


def hooked_services(fixture_bytes) -> bytes:
    data = bytearray(fixture_bytes("services.exe"))
    image = parse_pe(bytes(data))
    off = rva_to_offset(image, image.nt.entry_point_rva)
    data[off:off + 7] = HOOK_BYTES
    return bytes(data)


class TestScan:
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
