"""Byte-for-byte gate on the shipped PoC transcripts and scanner output.

``tests/golden/`` holds the plain and JSON output of ``duqusim run`` for
both generated PoC scenarios.  Any change to what the simulator logs, or
to how a log line is rendered, shows up here first.  It also holds
``scan_fixtures.txt``: ``duqusim scan`` of every file ``make-fixtures``
writes, with and without an anchor export, so a change to the parser's
section reads shows up in the scanner's findings.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from duqusim.cli import main
from duqusim.fixtures import write_fixture_set

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("scenario", ["poc_duqu_attack", "duqu_unopposed"])
@pytest.mark.parametrize("fmt, suffix", [("plain", "txt"), ("json", "jsonl")])
def test_run_matches_golden_transcript(fixture_dir, capsys, monkeypatch,
                                       scenario, fmt, suffix):
    monkeypatch.setenv("SENTINEL_LOG_FORMAT", fmt)
    assert main(["run", str(fixture_dir / f"{scenario}.scenario")]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (GOLDEN / f"{scenario}.{suffix}").read_bytes()


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
