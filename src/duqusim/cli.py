"""Command-line front end.

Subcommands:

    run <scenario> [--log PATH]      execute a scenario, print the log
    scan <pe> [--anchor-export N]    static signature scan of a PE32 file
    make-fixtures <dir>              emit the PoC fixture set
    hash <file>                      print the ror13 hash of a file's bytes

Exit codes: 0 success / clean, 1 unmet expectation or findings, 2 input
error.  SENTINEL_LOG_FORMAT={plain,json} selects the log stream shape.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .peformat import PeError, read_regular_file, ror13_hash

# Each handler imports the modules its subcommand needs, so ``scan`` and
# ``hash`` never load the attacking driver.


def _cmd_run(args: argparse.Namespace) -> int:
    from .scenario import ScenarioError, run_scenario

    try:
        fmt = os.environ.get("SENTINEL_LOG_FORMAT", "plain")
        if fmt not in ("plain", "json"):
            raise ScenarioError(f"SENTINEL_LOG_FORMAT must be plain or json, not {fmt!r}")
        result = run_scenario(args.scenario)
    except ScenarioError as exc:  # an input error, as main reports the others
        sys.stderr.write(f"error: {exc}\n")
        return 2
    rendered = result.render(fmt)
    sys.stdout.write(rendered)
    if args.log:
        Path(args.log).write_text(rendered, encoding="utf-8")
    for pattern in result.unmet:
        sys.stderr.write(f"unmet expectation: {pattern}\n")
    return result.exit_code


def _cmd_scan(args: argparse.Namespace) -> int:
    from .scan import scan_file

    if args.anchor_export and not args.anchor_export.isascii():
        sys.stderr.write(f"error: anchor export {args.anchor_export!r} is not ASCII\n")
        return 2
    report = scan_file(args.pe, anchor_export=args.anchor_export)
    sys.stdout.write(report.render())
    return 0 if report.clean else 1


def _cmd_make_fixtures(args: argparse.Namespace) -> int:
    from .fixtures import write_fixture_set

    written = write_fixture_set(args.directory)
    for name in written:
        sys.stdout.write(f"{name}\n")
    return 0


def _cmd_hash(args: argparse.Namespace) -> int:
    data = read_regular_file(args.file)
    if data is None:
        raise FileNotFoundError(f"file {args.file!r} not found")
    sys.stdout.write(f"{ror13_hash(data):#010x}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duqusim",
        description="Deterministic replay of a driver-level process-injection "
                    "attack and the checksum monitor that catches it.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--log", help="also write the rendered log to this path")
    p_run.set_defaults(func=_cmd_run)

    p_scan = sub.add_parser("scan", help="scan a PE32 file for hook signatures")
    p_scan.add_argument("pe")
    p_scan.add_argument("--anchor-export",
                        help="export name anchoring the call/push/call pattern")
    p_scan.set_defaults(func=_cmd_scan)

    p_fix = sub.add_parser("make-fixtures", help="emit the PoC fixture set")
    p_fix.add_argument("directory")
    p_fix.set_defaults(func=_cmd_make_fixtures)

    p_hash = sub.add_parser("hash", help="print the ror13 hash of a file")
    p_hash.add_argument("file")
    p_hash.set_defaults(func=_cmd_hash)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
