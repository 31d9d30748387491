"""A finished run is freed by reference counting alone.

The kernel holds its drivers, their devices, their init waiters and the
injector's region code; the drivers reach the kernel only through a weak
proxy, and their handlers are plain functions, not methods bound to them.
So with the cyclic garbage collector off, dropping a run's result must
free its kernel, its drivers and every region the kernel mapped, and leave
the collector nothing to find.  Each run is made with the parsed-image
cache already holding its images, so the images every kernel shares keep
no run alive.  ``test_fuzz.py`` checks the same after every mutated
scenario.
"""

import gc
import inspect

import pytest

from duqusim.duqu import DuquDriver
from duqusim.fixtures import poc_scenario_text, unopposed_scenario_text, write_fixture_set
from duqusim.scenario import run_scenario
from duqusim.sentinel import SentinelDriver
from duqusim.simkernel import EventKind

from conftest import FLEET_SHAPED_SCENARIO
from invariants import gc_disabled, recorded_parses, run_refs, still_alive


def variant(text: str, swap: bool = False, report_only: bool = False,
            debug: bool = False) -> str:
    """``text`` without comments and expectations; with its two drivers
    swapped, the monitor in report-only mode or the kernel in debug mode."""
    lines = [line for line in text.splitlines()
             if line and not line.startswith(("#", "expect "))]
    if swap:
        a, b = [i for i, line in enumerate(lines) if line.startswith("driver ")]
        lines[a], lines[b] = lines[b], lines[a]
    if report_only:
        lines = [line + " report-only=1" if line == "driver sentinel" else line
                 for line in lines]
    if debug:
        lines.insert(0, "set-mode debug")
    return "\n".join(lines) + "\n"


def fleet_shaped() -> str:
    """The PoC, its monitor also watching the processes of
    ``FLEET_SHAPED_SCENARIO``, which load after it."""
    watch, fleet = FLEET_SHAPED_SCENARIO.split("\n", 1)
    return variant(poc_scenario_text()).replace(
        "driver sentinel\n", f"{watch},services.exe\n") + fleet


# name -> (scenario text, what one line of the run must hold)
CASES = {
    "poc": (poc_scenario_text, "-> Terminating services.exe"),
    "unopposed": (unopposed_scenario_text, "* PAYLOAD_STARTED pid=0x914 *"),
    "poc-swapped": (lambda: variant(poc_scenario_text(), swap=True),
                    "! error: NoSuchProcess"),
    "poc-report-only": (lambda: variant(poc_scenario_text(), report_only=True),
                        "-> Flagged services.exe (report-only)"),
    "poc-swapped-report-only": (
        lambda: variant(poc_scenario_text(), swap=True, report_only=True),
        "-> Flagged services.exe (report-only)"),
    "poc-debug": (lambda: variant(poc_scenario_text(), debug=True),
                  "DuquDriver: halted (debug mode)"),
    "unopposed-debug": (lambda: variant(unopposed_scenario_text(), debug=True),
                        "DuquDriver: halted (debug mode)"),
    "fleet-shaped": (fleet_shaped, "-> Terminating services.exe"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_dropped_result_frees_its_run(tmp_path, monkeypatch, name):
    write_fixture_set(tmp_path)
    text, marker = CASES[name]
    scenario = tmp_path / "case.scenario"
    scenario.write_text(text(), encoding="utf-8")
    run_scenario(scenario)
    parsed = recorded_parses(monkeypatch)
    with gc_disabled():
        gc.collect()
        result = run_scenario(scenario)
        assert result.ok and any(marker in line for line in result.text_lines())
        assert parsed == [], "the run parsed an image the cache should hold"
        refs = run_refs(result.kernel)
        assert len(refs) > 10 and any(what.startswith("driver ") for what, _ in refs)
        del result
        assert still_alive(refs) == []
        assert gc.collect() == 0, "the run left cyclic garbage"


def test_driver_outliving_its_kernel_has_none_to_act_on(fixture_dir):
    result = run_scenario(fixture_dir / "poc_duqu_attack.scenario")
    drivers = list(result.kernel.drivers)
    del result
    for driver in drivers:
        with pytest.raises(ReferenceError):
            driver.kernel.processes


def test_no_handler_is_a_bound_method(fixture_dir):
    """The monitor's handlers, and the injector's once its boot init has
    run, are their classes' functions: no driver holds itself."""
    result = run_scenario(fixture_dir / "poc_duqu_attack.scenario")
    drivers = {type(driver): driver for driver in result.kernel.drivers}
    sentinel, duqu = drivers[SentinelDriver], drivers[DuquDriver]
    assert sentinel.handlers == {EventKind.PROCESS_CREATE: SentinelDriver.on_process_create,
                                 EventKind.IMAGE_LOAD: SentinelDriver.on_image_load,
                                 EventKind.PROCESS_EXIT: SentinelDriver._on_process_exit}
    assert duqu.handlers == {EventKind.IMAGE_LOAD: DuquDriver._on_image_load}
    assert not any(map(inspect.ismethod, [*sentinel.handlers.values(),
                                          *duqu.handlers.values()]))
