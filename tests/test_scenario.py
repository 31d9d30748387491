import json
import os
import re

import pytest

from duqusim.duqu import IntegrityMask
from duqusim.scenario import (
    DRIVERS,
    Command,
    ScenarioError,
    ScenarioResult,
    ScenarioRunner,
    match_expectations,
    parse_scenario,
    run_scenario,
)

from conftest import driver_named


def write_scenario(fixture_dir, name, text):
    path = fixture_dir / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParsing:
    def test_comments_and_blanks_skipped(self):
        commands = parse_scenario("# a comment\n\nprocess a.exe a.bin\n")
        assert len(commands) == 1
        assert commands[0].op == "process"

    def test_base_option(self):
        cmd = parse_scenario("process a.exe a.bin base=0x7C800000")[0]
        assert cmd.options["base"] == "0x7C800000"

    def test_unknown_command(self):
        with pytest.raises(ScenarioError):
            parse_scenario("teleport a.exe")

    def test_bad_mode(self):
        with pytest.raises(ScenarioError):
            parse_scenario("set-mode sideways")

    def test_expect_needs_pattern(self):
        with pytest.raises(ScenarioError):
            parse_scenario("expect")

    def test_expect_keeps_spaces(self):
        cmd = parse_scenario("expect -> Checksum error !!!!")[0]
        assert cmd.args == ["-> Checksum error !!!!"]


class TestMatching:
    def test_matches_in_order(self):
        lines = ["alpha", "beta", "gamma"]
        assert match_expectations(["alpha", "gamma"], lines) == []

    def test_order_violation_is_unmet(self):
        lines = ["alpha", "beta"]
        assert match_expectations(["beta", "alpha"], lines) == ["alpha"]

    def test_substring_semantics(self):
        assert match_expectations(["OK!"], ["-> OK!"]) == []


class TestRunner:
    def test_driverless_scenario_has_only_loader_lines(self, fixture_dir):
        path = write_scenario(fixture_dir, "plain.scenario",
                              "process services.exe services.exe base=0x01000000\n"
                              "expect * Loaded module services.exe *\n")
        result = run_scenario(path)
        assert result.ok
        assert {src for src, _ in result.lines} == {"loader"}

    def test_unmet_expectation_fails(self, fixture_dir):
        path = write_scenario(fixture_dir, "unmet.scenario",
                              "process services.exe services.exe\n"
                              "expect never-appears\n")
        result = run_scenario(path)
        assert not result.ok
        assert result.exit_code == 1
        assert result.unmet == ["never-appears"]

    def test_missing_fixture_is_scenario_error(self, fixture_dir):
        path = write_scenario(fixture_dir, "missing.scenario",
                              "process a.exe no-such-file.bin\n")
        with pytest.raises(ScenarioError):
            run_scenario(path)

    def test_missing_fixture_names_its_line(self, fixture_dir):
        path = write_scenario(fixture_dir, "missing-module.scenario",
                              "process a.exe services.exe\n"
                              "module a.exe x.dll no-such-file.dll\n")
        with pytest.raises(ScenarioError, match="^line 2: fixture 'no-such-file.dll'"):
            run_scenario(path)

    def test_each_fixture_read_once(self, fixture_dir, monkeypatch):
        # Every file the runner reads, it reads through one os.open.
        opens = []
        original = os.open
        monkeypatch.setattr(os, "open", lambda path, *args: (
            opens.append(os.path.basename(path)), original(path, *args))[1])
        path = write_scenario(fixture_dir, "reuse.scenario",
                              "process a.exe services.exe\n"
                              "process b.exe services.exe\n"
                              "module a.exe k.dll kernel32.dll\n"
                              "module b.exe k.dll kernel32.dll\n"
                              "module b.exe k2.dll kernel32.dll\n"
                              "expect * Loaded module k2.dll *\n")
        assert run_scenario(path).ok
        assert sorted(opens) == ["kernel32.dll", "reuse.scenario", "services.exe"]

    @pytest.mark.parametrize("base", ["-10000", "FFFFF000"])
    def test_base_outside_address_space_logged(self, fixture_dir, base):
        path = write_scenario(fixture_dir, "outside.scenario",
                              "process a.exe services.exe\n"
                              f"module a.exe k.dll kernel32.dll base={base}\n"
                              "expect ! error: AddressSpaceExhausted: k.dll\n")
        result = run_scenario(path)
        assert result.ok, result.text_lines()
        assert [name for name, _ in result.kernel.process(0x910).modules] == ["a.exe"]

    def test_missing_scenario_file(self, fixture_dir):
        with pytest.raises(ScenarioError):
            run_scenario(fixture_dir / "does-not-exist.scenario")

    def test_debug_mode_halts_injector(self, fixture_dir):
        path = write_scenario(
            fixture_dir, "halted.scenario",
            "set-mode debug\n"
            "driver duqu config=duqu_config.bin stub1=stub1.bin stub2=stub2.bin\n"
            "process services.exe services.exe base=0x01000000\n"
            "expect DuquDriver: halted (debug mode)\n")
        result = run_scenario(path)
        assert result.ok
        assert result.kernel.devices == {}

    def test_run_step_without_hook_logs_plain_start(self, fixture_dir):
        path = write_scenario(fixture_dir, "runstep.scenario",
                              "process services.exe services.exe\n"
                              "run services.exe\n"
                              "expect runs its entrypoint\n")
        assert run_scenario(path).ok

    def test_module_into_dead_pid_logged_not_fatal(self, fixture_dir):
        path = write_scenario(fixture_dir, "dead.scenario",
                              "process a.exe services.exe\n"
                              "module 0xFFFF x.dll ntdll.dll\n"
                              "expect ! error: NoSuchProcess\n")
        assert run_scenario(path).ok

    def test_bad_hex_pid_ref(self, fixture_dir):
        path = write_scenario(fixture_dir, "badref.scenario",
                              "process a.exe services.exe\nrun 0xZZ\n")
        with pytest.raises(ScenarioError, match="^line 2: bad pid '0xZZ'$"):
            run_scenario(path)

    def test_pid_ref_hex_literal(self, fixture_dir):
        path = write_scenario(fixture_dir, "hexref.scenario",
                              "process a.exe services.exe\n"
                              "module 0x910 k.dll kernel32.dll\n"
                              "expect * Loaded module k.dll *\n")
        assert run_scenario(path).ok

    def test_duplicate_driver_rejected(self, fixture_dir):
        path = write_scenario(fixture_dir, "dup.scenario",
                              "driver sentinel\ndriver sentinel\n")
        with pytest.raises(ScenarioError):
            run_scenario(path)

    def test_duqu_requires_config(self, fixture_dir):
        path = write_scenario(fixture_dir, "noconfig.scenario", "driver duqu\n")
        with pytest.raises(ScenarioError):
            run_scenario(path)


def duqu_line(fixture_dir, extra=""):
    """A ``driver duqu`` line over the shipped fixtures plus ``extra``."""
    return (f"driver duqu config={fixture_dir / 'duqu_config.bin'} "
            f"stub1={fixture_dir / 'stub1.bin'} stub2={fixture_dir / 'stub2.bin'} "
            f"{extra}\n")


class TestDriverOptions:
    @pytest.mark.parametrize("value", ["zz", "0x", "4OOOOO"])
    def test_bad_kernel_base(self, fixture_dir, tmp_path, value):
        path = write_scenario(tmp_path, "kb.scenario",
                              duqu_line(fixture_dir, f"kernel-base={value}"))
        with pytest.raises(ScenarioError, match=f"bad kernel-base '{value}'"):
            run_scenario(path)

    @pytest.mark.parametrize("value", ["ture", "", "2", "y", "enabled"])
    def test_bad_report_only(self, tmp_path, value):
        path = write_scenario(tmp_path, "ro.scenario",
                              f"driver sentinel report-only={value}\n")
        with pytest.raises(ScenarioError, match="bad report-only"):
            run_scenario(path)

    @pytest.mark.parametrize("value, expected", [
        ("1", True), ("TRUE", True), ("Yes", True), ("on", True),
        ("0", False), ("False", False), ("NO", False), ("oFF", False)])
    def test_report_only_spellings(self, tmp_path, value, expected):
        path = write_scenario(tmp_path, "ro.scenario",
                              f"driver sentinel report-only={value}\n")
        assert driver_named(run_scenario(path), "sentinel").report_only is expected

    @pytest.mark.parametrize("name, content", [
        ("latin1.json", b"\xff\xfe{}"),
        ("text.json", b"not json at all"),
        ("list.json", b"[1, 2]"),
        ("nomask.json", json.dumps({"reference": "00" * 32}).encode()),
        ("noref.json", json.dumps({"mask": "00" * 32}).encode()),
        ("number.json", json.dumps({"mask": 7, "reference": "00" * 32}).encode()),
        ("badhex.json", json.dumps({"mask": "zz" * 32, "reference": "00" * 32}).encode()),
        ("short.json", json.dumps({"mask": "00" * 31, "reference": "00" * 32}).encode()),
        ("deep.json", b"[" * 200_000),
    ])
    def test_bad_mask_file(self, fixture_dir, tmp_path, name, content):
        (tmp_path / name).write_bytes(content)
        path = write_scenario(tmp_path, "mask.scenario",
                              duqu_line(fixture_dir, f"mask={tmp_path / name}"))
        with pytest.raises(ScenarioError, match="bad mask") as info:
            run_scenario(path)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("line, key", [
        ("set-mode normal quiet=1", "quiet"),
        ("process a.exe a.bin bse=0x1000", "bse"),
        ("module a.exe b.dll b.bin base=0x1000 at=0x2000", "at"),
        ("driver sentinel reportonly=1", "reportonly"),
        ("driver Sentinel watch=a.exe base=0x1000", "base"),
        ("driver duqu config=c stub1=a stub2=b kernelbase=0x400000", "kernelbase"),
        ("driver duqu config=c stub1=a stub2=b window=64", "window"),
        ("run a.exe base=0x1000", "base"),
    ])
    def test_unknown_option_key(self, line, key):
        with pytest.raises(ScenarioError, match=f"^line 2: unknown option '{key}'$"):
            parse_scenario(f"# first\n{line}\n")

    @pytest.mark.parametrize("line, key", [
        ("driver sentinel report-only=1 report-only=0", "report-only"),
        ("driver sentinel watch=a.exe watch=services.exe", "watch"),
        ("process a.exe a.bin base=0x1000 base=0x1000", "base"),
        ("driver duqu config=c stub1=a stub2=b stub1=a", "stub1"),
    ])
    def test_repeated_option_key(self, line, key):
        with pytest.raises(ScenarioError, match=f"^line 2: repeated option '{key}'$"):
            parse_scenario(f"# first\n{line}\n")

    @pytest.mark.parametrize("text, error", [
        pytest.param("# first\ndriver spy", "line 2: unknown driver 'spy'", id="unknown"),
        pytest.param("# first\ndriver SPY reportonly=1", "line 2: unknown driver 'spy'",
                     id="unknown-before-key"),
        pytest.param("driver sentinel\ndriver Sentinel watch=a.exe",
                     "line 2: driver 'sentinel' declared twice", id="twice"),
        pytest.param("driver sentinel\ndriver sentinel reportonly=1",
                     "line 2: unknown option 'reportonly'", id="key-before-twice"),
        pytest.param("# first\ndriver duqu stub1=a stub2=b",
                     "line 2: driver duqu needs config=<path>", id="no-config"),
        pytest.param("# first\ndriver duqu config=c stub2=b",
                     "line 2: driver duqu needs stub1=<path>", id="no-stub1"),
        pytest.param("# first\ndriver duqu config=c stub1=a",
                     "line 2: driver duqu needs stub2=<path>", id="no-stub2"),
        pytest.param("# first\ndriver duqu kernelbase=0x0",
                     "line 2: unknown option 'kernelbase'", id="key-before-required"),
        pytest.param("driver duqu config=c stub1=a stub2=b\ndriver duqu",
                     "line 2: driver 'duqu' declared twice", id="twice-before-required"),
        pytest.param("driver duqu\ndriver duqu", "line 1: driver duqu needs config=<path>",
                     id="required-on-first-line"),
    ])
    def test_driver_grammar_error(self, text, error):
        with pytest.raises(ScenarioError, match=f"^{re.escape(error)}$"):
            parse_scenario(text)

    def test_first_error_in_line_order(self):
        # Line 2 breaks a driver rule, line 5 the command grammar; line order decides.
        text = ("driver sentinel\ndriver sentinel\nprocess a.exe a.bin\n"
                "process b.exe b.bin\nteleport a.exe\n")
        with pytest.raises(ScenarioError, match="^line 2: driver 'sentinel' declared twice$"):
            parse_scenario(text)

    def test_unknown_driver_still_named(self, tmp_path):
        path = write_scenario(tmp_path, "nodrv.scenario", "driver spy reportonly=1\n")
        with pytest.raises(ScenarioError, match="line 1: unknown driver 'spy'"):
            run_scenario(path)

    def test_shipped_mask_accepted(self, fixture_dir, tmp_path):
        mask = fixture_dir / "maskspec.json"
        path = write_scenario(tmp_path, "okmask.scenario",
                              duqu_line(fixture_dir, f"mask={mask}"))
        assert driver_named(run_scenario(path), "duqu").mask == \
            IntegrityMask.from_json(mask.read_text())


class RecordingOptions(dict):
    """Option mapping that records every key looked up in it."""

    def __init__(self, options):
        super().__init__(options)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


# A valid value, over the shipped fixtures, for every key a driver declares.
DRIVER_OPTIONS = {
    "sentinel": {"watch": "services.exe", "report-only": "1"},
    "duqu": {"config": "duqu_config.bin", "stub1": "stub1.bin", "stub2": "stub2.bin",
             "mask": "maskspec.json", "kernel-base": "00400000"},
}


@pytest.mark.parametrize("given", ["required", "all"])
@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_driver_reads_only_declared_keys(fixture_dir, name, given):
    syntax = DRIVERS[name]
    declared = set(syntax.optional + syntax.required)
    assert set(DRIVER_OPTIONS[name]) == declared
    keys = syntax.required if given == "required" else declared
    options = RecordingOptions({k: DRIVER_OPTIONS[name][k] for k in keys})
    runner = ScenarioRunner(fixture_dir)
    syntax.run(runner, Command("driver", [name], options, 1))
    assert [d.name for d in runner.kernel.drivers] == [name]
    assert options.read <= declared
    if given == "all":
        assert options.read == declared


class TestDriverRegistry:
    """A run's drivers are its kernel's own list, in dispatch order."""

    def swapped_poc(self, fixture_dir, prefix=""):
        lines = (fixture_dir / "poc_duqu_attack.scenario").read_text().splitlines()
        a, b = [i for i, line in enumerate(lines) if line.startswith("driver ")]
        lines[a], lines[b] = lines[b], lines[a]
        return write_scenario(fixture_dir, "swapped.scenario", prefix + "\n".join(lines))

    @staticmethod
    def names(result) -> list[str]:
        return [driver.name for driver in result.kernel.drivers]

    def test_dispatch_order(self, fixture_dir):
        result = run_scenario(fixture_dir / "poc_duqu_attack.scenario")
        assert self.names(result) == ["sentinel", "duqu"]
        result = run_scenario(self.swapped_poc(fixture_dir))
        assert self.names(result) == ["duqu", "sentinel"]

    def test_same_objects_as_the_kernel(self, fixture_dir):
        result = run_scenario(self.swapped_poc(fixture_dir))
        assert len(result.kernel.drivers) == 2
        for driver in result.kernel.drivers:
            assert driver_named(result, driver.name) is driver
            assert driver.kernel.processes is result.kernel.processes

    def test_halted_injector_is_registered_without_handlers(self, fixture_dir):
        result = run_scenario(self.swapped_poc(fixture_dir, "set-mode debug\n"))
        assert self.names(result) == ["duqu", "sentinel"]
        assert driver_named(result, "duqu").handlers == {}
        assert driver_named(result, "sentinel").handlers

    def test_result_lines_copy_the_kernel_log(self, fixture_dir):
        result = run_scenario(fixture_dir / "poc_duqu_attack.scenario")
        assert result.lines == result.kernel.log and result.lines is not result.kernel.log


class TestDeterminism:
    def test_identical_runs_render_identically(self, fixture_dir):
        path = fixture_dir / "poc_duqu_attack.scenario"
        first = run_scenario(path)
        second = run_scenario(path)
        assert first.render("plain") == second.render("plain")
        assert first.render("json") == second.render("json")
        assert first.lines == second.lines

    def test_json_render_shape(self, fixture_dir):
        result = run_scenario(fixture_dir / "poc_duqu_attack.scenario")
        lines = result.render("json").strip().splitlines()
        docs = [json.loads(line) for line in lines]
        assert [d["seq"] for d in docs] == list(range(len(docs)))
        assert all({"seq", "source", "text"} <= set(d) for d in docs)
        assert docs[0]["source"] == "loader"

    def test_json_render_equals_json_dumps(self):
        texts = ["plain", "caf\u00e9 \u2603 \U0001f600", 'say "hi"', "back\\slash",
                 "tab\tnew\nline\rcr\x00nul\x1f\x7f", "</script> \u2028 \ud800", ""]
        result = ScenarioResult(lines=[(f"src{i} \u00e9\"\\", text)
                                       for i, text in enumerate(texts)])
        rendered = result.render("json")
        assert rendered.endswith("\n")
        assert rendered.split("\n")[:-1] == [
            json.dumps({"seq": i, "source": src, "text": text})
            for i, (src, text) in enumerate(result.lines)]
        assert rendered.isascii()


class TestShippedScenarios:
    def test_poc_attack(self, fixture_dir):
        result = run_scenario(fixture_dir / "poc_duqu_attack.scenario")
        assert result.ok, result.unmet

    def test_unopposed_attack(self, fixture_dir):
        result = run_scenario(fixture_dir / "duqu_unopposed.scenario")
        assert result.ok, result.unmet
