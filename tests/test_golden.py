"""Byte-for-byte gate on the shipped PoC transcripts and scanner output.

``tests/golden/`` holds the plain and JSON output of ``duqusim run`` for
both generated PoC scenarios and for the fleet-shaped one, whose two
watched processes each re-verify their own entrypoint on every load.  Any
change to what the simulator logs, or to how a log line is rendered, shows
up here first.  It also holds
``scan_fixtures.txt``: ``duqusim scan`` of every file ``make-fixtures``
writes, with and without an anchor export, so a change to the parser's
section reads shows up in the scanner's findings.  And it holds
``region_maps.txt``: every region left in memory after both PoC scenarios
and a fleet-shaped one, with the SHA-256 of its bytes, so a change to
what the loader lays down shows up even where no log line reads it.  The
kernel invariants are checked after every golden scenario.  Both PoC
transcripts are also checked from an empty parsed-image cache and export
memo, and from ones that other runs have filled.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from duqusim import duqu, peformat, simkernel
from duqusim.cli import main
from duqusim.fixtures import write_fixture_set
from duqusim.scenario import run_scenario

from conftest import FLEET_SHAPED_SCENARIO
from invariants import check_kernel, recorded_export_decodes, recorded_parses, recording_runs
from test_detection_matrix import KNOBS, matrix_row

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("scenario", ["poc_duqu_attack", "duqu_unopposed", "fleet_shaped"])
@pytest.mark.parametrize("fmt, suffix", [("plain", "txt"), ("json", "jsonl")])
def test_run_matches_golden_transcript(fixture_dir, capsys, monkeypatch,
                                       scenario, fmt, suffix):
    monkeypatch.setenv("SENTINEL_LOG_FORMAT", fmt)
    runs = recording_runs(monkeypatch)
    assert main(["run", str(fixture_dir / f"{scenario}.scenario")]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (GOLDEN / f"{scenario}.{suffix}").read_bytes()
    [result] = runs
    check_kernel(result.kernel)


def test_transcripts_do_not_depend_on_event_kind_hashes(fixture_dir, capsys, monkeypatch):
    """``EventKind`` hashes by identity, so a set of kinds may iterate in a
    different order in each process.  Both orders give the pinned output."""
    kinds = list(simkernel.EventKind)
    orders = []
    for ranks in (kinds, kinds[::-1]):
        monkeypatch.setattr(simkernel.EventKind, "__hash__",
                            lambda kind, ranks=ranks: ranks.index(kind) + 1)
        orders.append(list(set(kinds)))
        for scenario in ("poc_duqu_attack", "duqu_unopposed", "fleet_shaped"):
            monkeypatch.setenv("SENTINEL_LOG_FORMAT", "plain")
            assert main(["run", str(fixture_dir / f"{scenario}.scenario")]) == 0
            assert capsys.readouterr().out.encode("utf-8") == (
                GOLDEN / f"{scenario}.txt").read_bytes(), (scenario, orders[-1])
    assert orders[0] != orders[1]


@pytest.mark.parametrize("scenario, other", [("poc_duqu_attack", "duqu_unopposed"),
                                             ("duqu_unopposed", "poc_duqu_attack")])
def test_transcripts_match_golden_cold_and_warm(fixture_dir, tmp_path, capsys, monkeypatch,
                                                scenario, other):
    """Each format once from an empty image cache and export memo, then
    again after the other PoC scenario and the 24 detection-matrix runs
    filled them: the warm runs map every image they share with those runs
    from the same entries, parse no stub and decode no export directory."""
    def transcripts(cold: bool) -> None:
        for fmt, suffix in (("plain", "txt"), ("json", "jsonl")):
            if cold:
                monkeypatch.setattr(simkernel, "image_cache", simkernel.ImageCache())
                monkeypatch.setattr(peformat, "_export_memo", {})
            monkeypatch.setenv("SENTINEL_LOG_FORMAT", fmt)
            assert main(["run", str(fixture_dir / f"{scenario}.scenario")]) == 0
            out = capsys.readouterr().out.encode("utf-8")
            assert out == (GOLDEN / f"{scenario}.{suffix}").read_bytes(), (fmt, cold)

    transcripts(cold=True)
    monkeypatch.setattr(simkernel, "image_cache", simkernel.ImageCache())
    monkeypatch.setattr(peformat, "_export_memo", {})
    run_scenario(fixture_dir / f"{other}.scenario")
    write_fixture_set(tmp_path)
    for knobs in KNOBS:
        matrix_row(tmp_path, knobs)
    cached = dict(simkernel.image_cache.plans)
    assert cached and all(plan.image.spans is not None for plan in cached.values())
    kept = dict(peformat._export_memo)
    assert kept
    parsed = recorded_parses(monkeypatch)
    decoded = recorded_export_decodes(monkeypatch)
    injector_parses = []
    monkeypatch.setattr(duqu, "parse_pe", lambda data: (injector_parses.append(data),
                                                        peformat.parse_pe(data))[1])
    transcripts(cold=False)
    # Only ntdll.dll, which no warm-up run loads, is parsed, and only once.
    fresh = ["ntdll.dll"] if scenario == "duqu_unopposed" else []
    assert parsed == [(fixture_dir / name).read_bytes() for name in fresh]
    assert all(simkernel.image_cache.plans[key] is plan for key, plan in cached.items())
    # The injector parses only the payload it reads back out of memory.
    stubs = [(fixture_dir / name).read_bytes() for name in ("stub1.bin", "stub2.bin")]
    assert not any(data in stubs for data in injector_parses)
    assert decoded == [] and peformat._export_memo == kept
    assert all(peformat._export_memo[key] is table for key, table in kept.items())


REGION_SCENARIOS = ("poc_duqu_attack", "duqu_unopposed", "fleet_shaped")


def region_maps(directory: Path) -> str:
    """Run each of ``REGION_SCENARIOS`` in ``directory``; then one line per
    region: pid, base, length, perms, tag and the SHA-256 of its bytes."""
    out = []
    for name in REGION_SCENARIOS:
        result = run_scenario(directory / f"{name}.scenario")
        check_kernel(result.kernel)
        out.append(f"# {name}\n")
        for pid, proc in result.kernel.processes.items():
            for r in proc.regions:
                out.append(f"{pid:#x} {r.base:#010x} {len(r.data):#x} {r.perms.describe()} "
                           f"{r.tag} {hashlib.sha256(r.data).hexdigest()}\n")
    return "".join(out)


def test_region_maps_match_golden(tmp_path):
    write_fixture_set(tmp_path)
    (tmp_path / "fleet_shaped.scenario").write_text(FLEET_SHAPED_SCENARIO, encoding="utf-8")
    golden = (GOLDEN / "region_maps.txt").read_text(encoding="utf-8")
    assert region_maps(tmp_path) == golden


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
