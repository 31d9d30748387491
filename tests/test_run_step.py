"""The scenario ``run`` step follows the bytes at the entrypoint.

The kernel decodes the entrypoint: a ``mov eax, imm32 / call eax`` hook
runs the code of the region it targets, anything else is the image's own
code.  Nothing outside simulated memory decides which happens.
"""

import ast
import re
from pathlib import Path

import pytest

from duqusim.fixtures import poc_scenario_text, unopposed_scenario_text
from duqusim.peformat import HOOK_LEN, encode_entry_hook
from duqusim.scenario import ScenarioRunner, parse_scenario, run_scenario
from duqusim.simkernel import PERM_RW, PERM_RWX

SRC = Path(__file__).resolve().parent.parent / "src" / "duqusim"
PLAIN_START = "* Process services.exe pid=0x914 runs its entrypoint *"


def run_text(fixture_dir, name, text):
    path = fixture_dir / name
    path.write_text(text, encoding="utf-8")
    return run_scenario(path)


def errors(result):
    return [t for t in result.text_lines() if t.startswith("! error:")]


class TestDoubleRun:
    def test_second_run_starts_restored_entrypoint(self, fixture_dir):
        result = run_text(fixture_dir, "double-run.scenario",
                          unopposed_scenario_text() + "run services.exe\n")
        lines = result.text_lines()
        assert result.ok and errors(result) == []
        assert lines.count("* PAYLOAD_STARTED pid=0x914 *") == 1
        assert sum("stub: payload mapped at" in t for t in lines) == 1
        assert lines[-1] == PLAIN_START
        injected = [r for r in result.kernel.process(0x914).regions if r.tag == "injected"]
        assert len(injected) == 4  # stub2, stub1, payload blob, mapped payload

    def test_report_only_poc_run_twice(self, fixture_dir):
        text = poc_scenario_text().replace("driver sentinel\n",
                                           "driver sentinel report-only=1\n")
        result = run_text(fixture_dir, "report-only-twice.scenario",
                          text + "run services.exe\nrun services.exe\n")
        lines = result.text_lines()
        assert "-> Flagged services.exe (report-only)" in lines
        assert errors(result) == []
        assert lines.count("* PAYLOAD_STARTED pid=0x914 *") == 1
        assert lines[-1] == PLAIN_START
        assert lines[-2] == "DuquDriver: control returned to original entrypoint of pid=0x914"


def test_run_after_termination_runs_nothing(fixture_dir):
    result = run_text(fixture_dir, "run-dead.scenario",
                      poc_scenario_text() + "run services.exe\n"
                      "expect ! error: NoSuchProcess: no live process 0x914\n")
    assert result.ok, result.unmet
    assert not any("stub:" in t for t in result.text_lines())


class TestHandWrittenHooks:
    """A hook written straight into memory is followed like the injector's."""

    def run_hooked(self, fixture_dir, make_target):
        runner = ScenarioRunner(fixture_dir)
        runner.execute(parse_scenario("process services.exe services.exe base=0x01000000"))
        kernel = runner.kernel
        proc = kernel.process(0x910)
        kernel.protect_memory(proc.pid, proc.entry_point, HOOK_LEN, PERM_RWX)
        kernel.write_memory(proc.pid, proc.entry_point,
                            encode_entry_hook(make_target(kernel, proc)))
        return runner.execute(parse_scenario("run services.exe"))

    @pytest.mark.parametrize("make_target, expected", [
        (lambda k, p: 0x00010000,
         "! error: UnmappedAddress: address 0x00010000 is not mapped"),
        (lambda k, p: k.allocate_memory(p.pid, 0x100, PERM_RW),
         "! error: AccessViolation: access violation at 0x000a0000, missing X"),
        (lambda k, p: 0x01001000,
         "! error: NotSimulated: no simulated code at 0x01001000"),
    ], ids=["unmapped", "rw-region", "image-code"])
    def test_target_error_is_one_line(self, fixture_dir, make_target, expected):
        result = self.run_hooked(fixture_dir, make_target)
        assert errors(result) == [expected]
        assert result.text_lines()[-1] == expected


class TestLayering:
    @pytest.mark.parametrize("module", ["scan", "sentinel", "simkernel", "peformat"])
    def test_imports_neither_attacker_nor_runner(self, module):
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add((node.module or "").rsplit(".", 1)[-1])
                if node.module in (None, "duqusim"):
                    imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(a.name.rsplit(".", 1)[-1] for a in node.names)
        assert not imported & {"duqu", "scenario"}

    def test_hook_bytes_spelled_only_in_peformat(self):
        # Byte-literal or int-list spellings of "call eax" (FF D0).
        spelled = re.compile(r"\\x[fF]{2}\\x[dD]0|0x[fF]{2}\s*,\s*0x[dD]0")
        offenders = [p.name for p in SRC.glob("*.py")
                     if p.name != "peformat.py" and spelled.search(p.read_text(encoding="utf-8"))]
        assert offenders == []
        assert spelled.search((SRC / "peformat.py").read_text(encoding="utf-8"))
