"""Line-oriented scenario files and their runner.

Grammar (one command per line, ``#`` starts a comment):

    set-mode <normal|debug|failsafe>
    driver <sentinel|duqu> [key=value ...]
    process <name> <fixture-path> [base=0x...]
    module <pid-ref> <name> <fixture-path> [base=0x...]
    run <pid-ref>
    expect <log-substring>

``pid-ref`` is a process name from an earlier ``process`` line or a
``0x...`` pid literal.  Fixture paths are resolved relative to the
scenario file, and a runner reads each one once.

:data:`COMMANDS` declares each command's arguments and option keys, and
:data:`DRIVERS` each driver's required and optional keys; the README gives
their values.  :func:`parse_scenario` checks every line against them before
any line runs, so the first line that breaks the grammar raises a
:class:`ScenarioError`; a malformed option value or a missing fixture
raises one when its line runs.
``expect`` lines must match produced log lines as substrings, in order.
"""

from __future__ import annotations

import os
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, NamedTuple

from .duqu import (
    DEFAULT_KERNEL_BASE,
    DuquDriver,
    DuquError,
    Halted,
    IntegrityMask,
)
from .peformat import PeError, Record, read_regular_file
from .sentinel import SentinelDriver
from .simkernel import SimError, SimKernel

MODES = ("normal", "debug", "failsafe")


class ScenarioError(Exception):
    """Malformed scenario file or unusable fixture reference."""

    def __init__(self, message: str, line_no: int = 0):
        prefix = f"line {line_no}: " if line_no else ""
        super().__init__(prefix + message)
        self.line_no = line_no


class Command(Record):
    _compared = ("op", "args", "options", "line_no")

    def __init__(self, op: str, args: list[str], options: dict[str, str], line_no: int):
        self.op = op
        self.args = args
        self.options = options
        self.line_no = line_no


class ScenarioResult:
    def __init__(self, lines: list[tuple[str, str]] | None = None,
                 unmet: list[str] | None = None, kernel: SimKernel | None = None):
        self.lines = [] if lines is None else lines
        self.unmet = [] if unmet is None else unmet
        self.kernel = kernel

    @property
    def ok(self) -> bool:
        return not self.unmet

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def text_lines(self) -> list[str]:
        return [text for _, text in self.lines]

    def render(self, fmt: str = "plain") -> str:
        if fmt == "json":
            # json.dumps({"seq": i, "source": src, "text": text}), byte for byte.
            enc = encode_basestring_ascii
            return "\n".join(
                f'{{"seq": {i}, "source": {enc(src)}, "text": {enc(text)}}}'
                for i, (src, text) in enumerate(self.lines)) + "\n"
        return "\n".join(self.text_lines()) + "\n"


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _parse_int(options: dict[str, str], key: str, line_no: int,
               default: int | None = None) -> int | None:
    """Hex option ``key``, or ``default`` when absent; malformed is an error."""
    if key not in options:
        return default
    value = options[key]
    try:
        return int(value, 16)
    except ValueError as exc:
        raise ScenarioError(f"bad {key} {value!r}", line_no) from exc


def _parse_bool(options: dict[str, str], key: str, line_no: int) -> bool:
    value = options.get(key, "0")
    if value.lower() not in _BOOLS:
        raise ScenarioError(f"bad {key} {value!r}: use 1/0, true/false, "
                            f"yes/no or on/off", line_no)
    return _BOOLS[value.lower()]


class ScenarioRunner:
    def __init__(self, base_dir: str | os.PathLike):
        self.base_dir = base_dir
        self.kernel = SimKernel()
        self.pids: dict[str, int] = {}
        self._fixtures: dict[str, bytes] = {}

    def _read_fixture(self, rel: str, line_no: int) -> bytes:
        """Bytes of the fixture at ``rel``, read from disk on first use only."""
        data = self._fixtures.get(rel)
        if data is None:
            data = read_regular_file(os.path.join(self.base_dir, rel))
            if data is None:
                raise ScenarioError(f"fixture {rel!r} not found", line_no)
            self._fixtures[rel] = data
        return data

    def _resolve_pid(self, ref: str, line_no: int) -> int:
        if ref.lower().startswith("0x"):
            try:
                return int(ref, 16)
            except ValueError as exc:
                raise ScenarioError(f"bad pid {ref!r}", line_no) from exc
        if ref not in self.pids:
            raise ScenarioError(f"unknown process {ref!r}", line_no)
        return self.pids[ref]

    def _set_mode(self, cmd: Command) -> None:
        self.kernel.mode = cmd.args[0]

    def _driver(self, cmd: Command) -> None:
        DRIVERS[cmd.args[0].lower()].run(self, cmd)

    def _sentinel(self, cmd: Command) -> None:
        watch = tuple(cmd.options.get("watch", "services.exe").split(","))
        SentinelDriver(self.kernel, watch=watch,
                       report_only=_parse_bool(cmd.options, "report-only", cmd.line_no))

    def _duqu(self, cmd: Command) -> None:
        opts, line_no = cmd.options, cmd.line_no
        mask = None
        if "mask" in opts:
            mask_bytes = self._read_fixture(opts["mask"], line_no)
            try:
                mask = IntegrityMask.from_json(mask_bytes.decode("utf-8"))
            except ValueError as exc:
                raise ScenarioError(f"bad mask {opts['mask']!r}: {exc}", line_no) from exc
        driver = DuquDriver(
            self.kernel,
            config_blob=self._read_fixture(opts["config"], line_no),
            stub1=self._read_fixture(opts["stub1"], line_no),
            stub2=self._read_fixture(opts["stub2"], line_no),
            mask=mask,
            kernel_base=_parse_int(opts, "kernel-base", line_no, DEFAULT_KERNEL_BASE),
        )
        try:
            driver.boot_init()
        except Halted:
            pass  # already logged; the driver stays inert

    def _process(self, cmd: Command) -> None:
        name, fixture = cmd.args
        image = self._read_fixture(fixture, cmd.line_no)
        self.pids[name] = self.kernel.create_process(
            name, image, base=_parse_int(cmd.options, "base", cmd.line_no)).pid

    def _module(self, cmd: Command) -> None:
        ref, name, fixture = cmd.args
        pid = self._resolve_pid(ref, cmd.line_no)
        image = self._read_fixture(fixture, cmd.line_no)
        self.kernel.load_module(pid, name, image,
                                base=_parse_int(cmd.options, "base", cmd.line_no))

    def _run(self, cmd: Command) -> None:
        self.kernel.run_entrypoint(self._resolve_pid(cmd.args[0], cmd.line_no))

    def execute(self, commands: list[Command]) -> ScenarioResult:
        expectations: list[str] = []
        for cmd in commands:
            if cmd.op == "expect":
                expectations.append(cmd.args[0])
                continue
            try:
                COMMANDS[cmd.op].run(self, cmd)
            except (SimError, PeError, DuquError) as exc:
                # Runtime faults are part of the observable transcript.
                self.kernel.log_line("runner", f"! error: {type(exc).__name__}: {exc}")
        result = ScenarioResult(list(self.kernel.log), kernel=self.kernel)
        result.unmet = match_expectations(expectations, result.text_lines())
        return result


class Syntax(NamedTuple):
    """A command, or a driver: the runner method that runs it, its argument
    count and what it takes (commands only), and its option keys."""
    run: Callable[[ScenarioRunner, Command], None]
    nargs: int = 0
    usage: str = ""
    optional: tuple[str, ...] = ()
    required: tuple[str, ...] = ()


COMMANDS = {
    "set-mode": Syntax(ScenarioRunner._set_mode, 1, "one of " + "|".join(MODES)),
    "driver": Syntax(ScenarioRunner._driver, 1, "a single driver name"),
    "process": Syntax(ScenarioRunner._process, 2, "<name> <fixture-path>", ("base",)),
    "module": Syntax(ScenarioRunner._module, 3, "<pid-ref> <name> <fixture-path>", ("base",)),
    "run": Syntax(ScenarioRunner._run, 1, "<pid-ref>"),
}
DRIVERS = {
    "sentinel": Syntax(ScenarioRunner._sentinel, optional=("watch", "report-only")),
    "duqu": Syntax(ScenarioRunner._duqu, optional=("mask", "kernel-base"),
                   required=("config", "stub1", "stub2")),
}


def parse_scenario(text: str) -> list[Command]:
    """The commands of a scenario file; the first line, in line order, that
    breaks the grammar raises a :class:`ScenarioError`."""
    commands: list[Command] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        op, _, rest = line.partition(" ")
        op = op.lower()
        if op == "expect":
            if not rest.strip():
                raise ScenarioError("expect needs a pattern", line_no)
            commands.append(Command(op, [rest.strip()], {}, line_no))
            continue
        args = rest.split()
        options: dict[str, str] = {}
        if "=" in rest:
            parts, args = args, []
            for part in parts:
                key, eq, value = part.partition("=")
                if not eq:
                    args.append(part)
                elif key in options:
                    raise ScenarioError(f"repeated option {key!r}", line_no)
                else:
                    options[key] = value
        syntax = COMMANDS.get(op)
        if syntax is None:
            raise ScenarioError(f"unknown command {op!r}", line_no)
        if len(args) != syntax.nargs or op == "set-mode" and args[0] not in MODES:
            raise ScenarioError(f"{op} takes {syntax.usage}", line_no)
        if op == "driver":
            name = args[0].lower()
            syntax = DRIVERS.get(name)
            if syntax is None:
                raise ScenarioError(f"unknown driver {name!r}", line_no)
        for key in options:
            if key not in syntax.optional and key not in syntax.required:
                raise ScenarioError(f"unknown option {key!r}", line_no)
        if op == "driver":
            if any(c.op == op and c.args[0].lower() == name for c in commands):
                raise ScenarioError(f"driver {name!r} declared twice", line_no)
            for key in syntax.required:
                if key not in options:
                    raise ScenarioError(f"driver {name} needs {key}=<path>", line_no)
        commands.append(Command(op, args, options, line_no))
    return commands


def match_expectations(expectations: list[str], lines: list[str]) -> list[str]:
    """Ordered substring matching; returns the expectations left unmet."""
    cursor = 0
    unmet = []
    for pattern in expectations:
        for i in range(cursor, len(lines)):
            if pattern in lines[i]:
                cursor = i + 1
                break
        else:
            unmet.append(pattern)
    return unmet


def run_scenario(path: str | Path) -> ScenarioResult:
    """Parse and execute a scenario file."""
    data = read_regular_file(path)
    if data is None:
        raise ScenarioError(f"scenario {str(Path(path))!r} not found")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario {str(Path(path))!r} is not UTF-8: {exc}") from exc
    return ScenarioRunner(os.path.dirname(path)).execute(parse_scenario(text))
