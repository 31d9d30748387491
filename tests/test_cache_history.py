"""No cache history changes a transcript.

The loader's image cache (``simkernel.image_cache``) and the header and
export memos (``peformat._header_memo``, ``peformat._export_memo``) live as
long as the process.  A scenario must still give the transcript it gives
from empty caches, whatever ran before it in the same process and however
small the caches' bounds.  The three golden scenarios and the 24
detection-matrix scenarios run in a seeded shuffle and in reverse, each
order from fresh caches, under every pair of bounds below;
:func:`~invariants.check_kernel`, which checks both caches, runs after
every run.
"""

import random
from pathlib import Path

import pytest

from duqusim import peformat, simkernel
from duqusim.fixtures import write_fixture_set
from duqusim.scenario import run_scenario

from conftest import FLEET_SHAPED_SCENARIO
from invariants import check_kernel
from test_detection_matrix import KNOBS, matrix_scenario

GOLDEN_SCENARIOS = ("poc_duqu_attack", "duqu_unopposed", "fleet_shaped")


@pytest.fixture(scope="module")
def scenarios(tmp_path_factory) -> list[Path]:
    """The golden scenarios, then the detection-matrix ones, in one
    directory with the fixtures they load."""
    directory = tmp_path_factory.mktemp("history")
    write_fixture_set(directory)
    (directory / "fleet_shaped.scenario").write_text(FLEET_SHAPED_SCENARIO, encoding="utf-8")
    paths = [directory / f"{name}.scenario" for name in GOLDEN_SCENARIOS]
    for i, knobs in enumerate(KNOBS):
        paths.append(directory / f"matrix_{i:02d}.scenario")
        paths[-1].write_text(matrix_scenario(*knobs), encoding="utf-8")
    return paths


def fresh_caches(monkeypatch) -> None:
    monkeypatch.setattr(simkernel, "image_cache", simkernel.ImageCache())
    monkeypatch.setattr(peformat, "_header_memo", {})
    monkeypatch.setattr(peformat, "_export_memo", {})


def transcript(path: Path) -> str:
    result = run_scenario(path)
    check_kernel(result.kernel)
    return result.render("plain")


@pytest.fixture(scope="module")
def from_empty(scenarios) -> dict[Path, str]:
    """Each scenario's plain transcript, run from empty caches under the
    shipped bounds."""
    transcripts = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        for path in scenarios:
            fresh_caches(monkeypatch)
            transcripts[path] = transcript(path)
    return transcripts


def cache_bound(name: str, directory: Path) -> int:
    """``IMAGE_CACHE_BYTES`` by name; "one-image" holds services.exe and
    its plan's copies, and no more."""
    if name == "one-image":
        data = (directory / "services.exe").read_bytes()
        return len(data) + simkernel.LoadPlan(peformat.parse_pe(data)).nbytes
    return {"0": 0, "1": 1, "8MiB": 8 << 20}[name]


@pytest.mark.parametrize("memo_entries", [1, 64])
@pytest.mark.parametrize("cache_bytes", ["0", "1", "one-image", "8MiB"])
def test_no_cache_history_changes_a_transcript(scenarios, from_empty, monkeypatch,
                                               cache_bytes, memo_entries):
    monkeypatch.setattr(simkernel, "IMAGE_CACHE_BYTES",
                        cache_bound(cache_bytes, scenarios[0].parent))
    monkeypatch.setattr(peformat, "HEADER_MEMO_ENTRIES", memo_entries)
    shuffled = list(scenarios)
    random.Random(1).shuffle(shuffled)
    for order in (shuffled, scenarios[::-1]):
        fresh_caches(monkeypatch)
        for i, path in enumerate(order):
            assert transcript(path) == from_empty[path], (path.name, i, order is shuffled)
