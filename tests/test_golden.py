"""Byte-for-byte gate on the shipped PoC transcripts.

``tests/golden/`` holds the plain and JSON output of ``duqusim run`` for
both generated PoC scenarios.  Any change to what the simulator logs, or
to how a log line is rendered, shows up here first.
"""

from pathlib import Path

import pytest

from duqusim.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("scenario", ["poc_duqu_attack", "duqu_unopposed"])
@pytest.mark.parametrize("fmt, suffix", [("plain", "txt"), ("json", "jsonl")])
def test_run_matches_golden_transcript(fixture_dir, capsys, monkeypatch,
                                       scenario, fmt, suffix):
    monkeypatch.setenv("SENTINEL_LOG_FORMAT", fmt)
    assert main(["run", str(fixture_dir / f"{scenario}.scenario")]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (GOLDEN / f"{scenario}.{suffix}").read_bytes()
