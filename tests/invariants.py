"""Kernel invariants that must hold after every top-level call.

:func:`check_kernel` is run after every golden scenario and every fuzz
case; a failure names the invariant and the process it broke in.
:func:`recording_runs` collects the :class:`ScenarioResult` of every
``duqusim run`` made through :func:`duqusim.cli.main`, so a test can check
the kernel behind a transcript.
"""

from duqusim import cli
from duqusim.sentinel import SentinelDriver
from duqusim.simkernel import ADDRESS_LIMIT


def check_kernel(kernel, drivers=()) -> None:
    assert not kernel._queue, "events left queued"
    assert kernel._dispatching is False, "dispatch left running"
    for pid, proc in kernel.processes.items():
        assert proc.pid == pid
        end = 0
        for region in proc.regions:
            assert region.base >= end, f"pid {pid:#x}: region {region.base:#x} out of order"
            end = region.end
        assert end <= ADDRESS_LIMIT, f"pid {pid:#x}: region ends at {end:#x}"
        assert proc.region_at(proc.image_base) is not None, \
            f"pid {pid:#x}: nothing mapped at its image base {proc.image_base:#x}"
    for driver in drivers:
        if isinstance(driver, SentinelDriver):
            dead = [pid for pid in driver.records
                    if pid not in kernel.processes or not kernel.processes[pid].alive]
            assert not dead, f"sentinel records for dead pids {dead}"


def recording_runs(monkeypatch) -> list:
    """Results of the scenarios ``cli.main`` runs from now on, in order."""
    results = []
    original = cli.run_scenario

    def run_and_record(path):
        result = original(path)
        results.append(result)
        return result

    monkeypatch.setattr(cli, "run_scenario", run_and_record)
    return results
