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
scenario file, and a runner reads each one once.  Driver options:

    sentinel: watch=<name[,name...]> report-only=<1|0|true|false|yes|no|on|off>
    duqu:     config=<blob> stub1=<pe> stub2=<pe> [mask=<json>]
              [kernel-base=0x...] [window=N]

An option key the command does not read, a key given twice, or a
malformed option value is a :class:`ScenarioError`; ``set-mode`` and
``run`` take no options.
``expect`` lines must match produced log lines as substrings, in order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .duqu import (
    DEFAULT_KERNEL_BASE,
    DuquDriver,
    DuquError,
    Halted,
    IntegrityMask,
)
from .peformat import DEFAULT_SCAN_WINDOW, PeError, read_regular_file
from .sentinel import SentinelDriver
from .simkernel import SimError, SimKernel

MODES = ("normal", "debug", "failsafe")

# The option keys each command reads; any other key is a ScenarioError.
OPTION_KEYS = {"set-mode": (), "run": (), "process": ("base",), "module": ("base",),
               "driver sentinel": ("watch", "report-only"),
               "driver duqu": ("config", "stub1", "stub2", "mask", "kernel-base", "window")}


class ScenarioError(Exception):
    """Malformed scenario file or unusable fixture reference."""

    def __init__(self, message: str, line_no: int = 0):
        prefix = f"line {line_no}: " if line_no else ""
        super().__init__(prefix + message)
        self.line_no = line_no


@dataclass
class Command:
    op: str
    args: list[str]
    options: dict[str, str]
    line_no: int


@dataclass
class ScenarioResult:
    lines: list[tuple[str, str]] = field(default_factory=list)
    expectations: list[str] = field(default_factory=list)
    unmet: list[str] = field(default_factory=list)
    drivers: dict[str, object] = field(default_factory=dict)
    kernel: SimKernel | None = None

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


def parse_scenario(text: str) -> list[Command]:
    commands = []
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
        parts = rest.split()
        args = [p for p in parts if "=" not in p]
        options: dict[str, str] = {}
        for key, _, value in (p.partition("=") for p in parts if "=" in p):
            if key in options:
                raise ScenarioError(f"repeated option {key!r}", line_no)
            options[key] = value
        if op == "set-mode":
            if len(args) != 1 or args[0] not in MODES:
                raise ScenarioError("set-mode takes one of normal|debug|failsafe", line_no)
        elif op == "driver":
            if len(args) != 1:
                raise ScenarioError("driver takes a single driver name", line_no)
        elif op == "process":
            if len(args) != 2:
                raise ScenarioError("process takes <name> <fixture-path>", line_no)
        elif op == "module":
            if len(args) != 3:
                raise ScenarioError("module takes <pid-ref> <name> <fixture-path>", line_no)
        elif op == "run":
            if len(args) != 1:
                raise ScenarioError("run takes <pid-ref>", line_no)
        else:
            raise ScenarioError(f"unknown command {op!r}", line_no)
        # An unknown driver name is left for the runner to report.
        allowed = OPTION_KEYS.get(f"driver {args[0].lower()}" if op == "driver" else op,
                                  options)
        for key in options:
            if key not in allowed:
                raise ScenarioError(f"unknown option {key!r}", line_no)
        commands.append(Command(op, args, options, line_no))
    return commands


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _parse_int(options: dict[str, str], key: str, line_no: int,
               default: int | None = None, radix: int = 10,
               minimum: int | None = None) -> int | None:
    """Integer option ``key``, or ``default`` when absent; malformed is an error."""
    if key not in options:
        return default
    value = options[key]
    try:
        number = int(value, radix)
    except ValueError as exc:
        raise ScenarioError(f"bad {key} {value!r}", line_no) from exc
    if minimum is not None and number < minimum:
        raise ScenarioError(f"bad {key} {value!r}: must be >= {minimum}", line_no)
    return number


def _parse_bool(options: dict[str, str], key: str, default: bool,
                line_no: int) -> bool:
    value = options.get(key)
    if value is None:
        return default
    if value.lower() not in _BOOLS:
        raise ScenarioError(f"bad {key} {value!r}: use 1/0, true/false, "
                            f"yes/no or on/off", line_no)
    return _BOOLS[value.lower()]


class ScenarioRunner:
    def __init__(self, base_dir: str | os.PathLike):
        self.base_dir = base_dir
        self.kernel = SimKernel()
        self.pids: dict[str, int] = {}
        self.drivers: dict[str, object] = {}
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

    def _make_driver(self, cmd: Command) -> None:
        name = cmd.args[0].lower()
        opts = cmd.options
        if name in self.drivers:
            raise ScenarioError(f"driver {name!r} declared twice", cmd.line_no)
        if name == "sentinel":
            watch = tuple(opts.get("watch", "services.exe").split(","))
            self.drivers[name] = SentinelDriver(
                self.kernel, watch=watch,
                report_only=_parse_bool(opts, "report-only", False, cmd.line_no))
            return
        if name == "duqu":
            for key in ("config", "stub1", "stub2"):
                if key not in opts:
                    raise ScenarioError(f"driver duqu needs {key}=<path>", cmd.line_no)
            mask = None
            if "mask" in opts:
                mask_bytes = self._read_fixture(opts["mask"], cmd.line_no)
                try:
                    mask = IntegrityMask.from_json(mask_bytes.decode("utf-8"))
                except ValueError as exc:
                    raise ScenarioError(f"bad mask {opts['mask']!r}: {exc}",
                                        cmd.line_no) from exc
            driver = DuquDriver(
                self.kernel,
                config_blob=self._read_fixture(opts["config"], cmd.line_no),
                stub1=self._read_fixture(opts["stub1"], cmd.line_no),
                stub2=self._read_fixture(opts["stub2"], cmd.line_no),
                mask=mask,
                kernel_base=_parse_int(opts, "kernel-base", cmd.line_no,
                                       DEFAULT_KERNEL_BASE, radix=16),
                window=_parse_int(opts, "window", cmd.line_no,
                                  DEFAULT_SCAN_WINDOW, minimum=0),
            )
            self.drivers[name] = driver
            try:
                driver.boot_init()
            except Halted:
                pass  # already logged; the driver stays inert
            return
        raise ScenarioError(f"unknown driver {name!r}", cmd.line_no)

    def execute(self, commands: list[Command]) -> ScenarioResult:
        result = ScenarioResult(kernel=self.kernel)
        for cmd in commands:
            if cmd.op == "expect":
                result.expectations.append(cmd.args[0])
                continue
            try:
                if cmd.op == "set-mode":
                    self.kernel.mode = cmd.args[0]
                elif cmd.op == "driver":
                    self._make_driver(cmd)
                elif cmd.op == "process":
                    name, fixture = cmd.args
                    image = self._read_fixture(fixture, cmd.line_no)
                    proc = self.kernel.create_process(
                        name, image, base=_parse_int(cmd.options, "base", cmd.line_no, radix=16))
                    self.pids[name] = proc.pid
                elif cmd.op == "module":
                    ref, name, fixture = cmd.args
                    pid = self._resolve_pid(ref, cmd.line_no)
                    image = self._read_fixture(fixture, cmd.line_no)
                    self.kernel.load_module(pid, name, image,
                                            base=_parse_int(cmd.options, "base",
                                                            cmd.line_no, radix=16))
                elif cmd.op == "run":
                    self.kernel.run_entrypoint(self._resolve_pid(cmd.args[0], cmd.line_no))
            except (SimError, PeError, DuquError) as exc:
                # Runtime faults are part of the observable transcript.
                self.kernel.log_line("runner",
                                     f"! error: {type(exc).__name__}: {exc}")
        result.lines = list(self.kernel.log)
        result.drivers = dict(self.drivers)
        result.unmet = match_expectations(result.expectations, result.text_lines())
        return result


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
    commands = parse_scenario(text)
    return ScenarioRunner(os.path.dirname(path)).execute(commands)
