"""The paper's claim as a matrix: the diverted driver detects the injection.

The PoC scenario, without its expectations and with the target's
entrypoint run last, is varied over every combination of four knobs the
runner already has: driver order, kernel mode, the monitor's
``report-only`` and whether the target is watched.  That is 24 runs.
``tests/golden/detection_matrix.txt`` pins one row per run: the verdicts
in order, the target's fate, whether the hook was written, whether the
payload started, and the SHA-256 of the plain transcript.
"""

import hashlib
from itertools import product
from pathlib import Path

import pytest

from duqusim.fixtures import poc_scenario_text, write_fixture_set
from duqusim.scenario import run_scenario

from conftest import driver_named
from invariants import check_kernel

GOLDEN = Path(__file__).parent / "golden" / "detection_matrix.txt"
TARGET = "services.exe"

ORDERS = ("sentinel-first", "duqu-first")
MODES = ("normal", "debug", "failsafe")
REPORT_ONLY = ("0", "1")
WATCHES = (TARGET, "none.exe")
KNOBS = list(product(ORDERS, MODES, REPORT_ONLY, WATCHES))
HEADER = "# order mode report-only watch | verdicts | target | hook | payload | sha256\n"


def matrix_scenario(order: str, mode: str, report_only: str, watch: str) -> str:
    """The PoC scenario text for one combination of the four knobs."""
    lines = [line for line in poc_scenario_text().splitlines()
             if line and not line.startswith(("#", "expect "))]
    sentinel = lines.index("driver sentinel")
    duqu = next(i for i, line in enumerate(lines) if line.startswith("driver duqu"))
    lines[sentinel] += f" report-only={report_only} watch={watch}"
    if order == "duqu-first":
        lines[sentinel], lines[duqu] = lines[duqu], lines[sentinel]
    return "\n".join([f"set-mode {mode}", *lines, f"run {TARGET}"]) + "\n"


def matrix_row(directory: Path, knobs: tuple[str, str, str, str]) -> dict:
    scenario = directory / "matrix.scenario"
    scenario.write_text(matrix_scenario(*knobs), encoding="utf-8")
    result = run_scenario(scenario)
    check_kernel(result.kernel)
    lines = result.text_lines()
    if f"-> Terminating {TARGET}" in lines:
        fate = "terminated"
    elif f"-> Flagged {TARGET} (report-only)" in lines:
        fate = "flagged"
    else:
        fate = "neither"
    return {
        "knobs": knobs,
        "verdicts": [verdict for _, verdict in driver_named(result, "sentinel").verdicts],
        "fate": fate,
        "hook": any("entrypoint hook written at" in line for line in lines),
        "payload": any("PAYLOAD_STARTED" in line for line in lines),
        "sha256": hashlib.sha256(result.render("plain").encode("utf-8")).hexdigest(),
    }


def render_row(row: dict) -> str:
    return (f"{' '.join(row['knobs'])} | {' '.join(row['verdicts']) or '-'} | "
            f"{row['fate']} | {'hook' if row['hook'] else 'no-hook'} | "
            f"{'payload' if row['payload'] else 'no-payload'} | {row['sha256']}\n")


@pytest.fixture(scope="module")
def rows(tmp_path_factory) -> list[dict]:
    directory = tmp_path_factory.mktemp("matrix")
    write_fixture_set(directory)
    return [matrix_row(directory, knobs) for knobs in KNOBS]


def test_matrix_matches_golden(rows):
    assert len(rows) == 24
    assert HEADER + "".join(map(render_row, rows)) == GOLDEN.read_text(encoding="utf-8")


def test_a_written_hook_on_a_watched_target_is_detected(rows):
    watched_hooks = [row for row in rows if row["hook"] and row["knobs"][3] == TARGET]
    assert len(watched_hooks) == 4  # normal mode, both orders, both report-only values
    for row in watched_hooks:
        assert "MISMATCH" in row["verdicts"], row["knobs"]
        assert row["fate"] == ("flagged" if row["knobs"][2] == "1" else "terminated")


def test_a_terminated_target_never_runs_the_payload(rows):
    assert any(row["fate"] == "terminated" for row in rows)
    for row in rows:
        if row["fate"] == "terminated":
            assert not row["payload"], row["knobs"]
