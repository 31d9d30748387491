"""The traced benchmark run rebinds names in ``duqusim``; a name it reads
that is gone fails here, in seconds, instead of only in the benchmark.

``perfbench/run.py`` is loaded read-only, and its ``load_duqusim`` imports
the package afresh, as a benchmark run does.  The modules and ``sys.path``
entries this adds are removed again afterwards.  Each workload's dispatch
counts are pinned, so the handlers the tracer rebinds are still the ones
the kernel calls, and so are its parse counts and free-span probes, so a
loader that parses the same image again, or probes for a free base step
by step, fails here.  Its layouts and relocations are pinned in both
passes, so the loader's rebases stay where the traced metrics see them.
The warm-up then runs a second time, over warm caches, and its parses
and name hashes are pinned too, so an injector that parses its stubs or
decodes kernel32's exports on every run fails here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Traced warm-up on seed 1: handler calls, events, monitor verifies and
# device requests.
DISPATCH = ("simkernel.handler.calls", "simkernel.events",
            "sentinel.on_image_load.calls", "duqu.device_requests")
DISPATCH_COUNTS = {
    "replay": (60, 57, 29, 2),
    "fleet": (250, 138, 116, 0),
    "scan": (0, 0, 0, 0),
}
# Traced warm-up on seed 1: real PE parses.  The import is fresh, so the
# parsed-image cache starts empty; a loader that parses an image once per
# kernel rather than once per process reads 52 on replay and 28 on fleet.
# The injector takes its stubs from that cache, so each is parsed once, not
# once per injection (18 on replay and 16 on fleet when it parsed them
# itself); the one payload replay maps is parsed where it is read.
PARSE_COUNTS = {"replay": 10, "fleet": 14, "scan": 4}
# Traced warm-up on seed 1: ``SimProcess.span_free`` probes, one per splice
# of new regions.  A loader probing once per ``REBASE_STEP`` while it hunts
# for a free base reads 98 on replay and 336 on fleet.
SPAN_FREE_COUNTS = {"replay": 57, "fleet": 122, "scan": 0}
# Traced warm-up on seed 1: ``SimProcess.region_at`` lookups.  Memory reads
# and writes find each region through it, so the traced count still
# measures them; a read that bisected the regions itself would not count.
# The injector reads no relocation directory of a mapped module; reading
# ntoskrnl's and kernel32's reads 162 on replay and 186 on fleet.
REGION_AT_COUNTS = {"replay": 157, "fleet": 184, "scan": 0}
# The same warm-up run again, after the first: real PE parses other than
# the payload's (one per ``run_stub``), then ``ror13_hash`` calls and bytes.
# Every image, stub and kernel32 export table is decoded already, so only
# the monitor's entrypoint checksums hash.  An injector that re-decodes
# kernel32's exports on every run reads 70 / 775 on replay and 40 / 454 on
# fleet; one that parses its stubs on every run, 10 and 4 parses.  Scan
# files never go through a cache.
WARM_COUNTS = {"replay": (0, 5, 60), "fleet": (0, 14, 168), "scan": (4, 0, 0)}
# Traced warm-up on seed 1, first pass then second: ``assemble_mapped`` and
# ``apply_relocations`` calls.  Replay's are the injector's: five staged
# injections each relocate their first stub, and the one payload that runs
# is laid out and relocated; the loader makes no rebase there.  Fleet's
# first pass adds the loader's 43 rebases by a new (image, delta), each
# laid out and relocated once, to its two first stubs; the second pass
# finds every layout kept, so only the first stubs relocate.
RELOCATION_COUNTS = {
    "replay": ((1, 6), (1, 6)),
    "fleet": ((43, 45), (0, 2)),
    "scan": ((0, 0), (0, 0)),
}
RELOCATION = ("peformat.assemble_mapped.calls", "peformat.apply_relocations.calls")


@pytest.fixture
def bench(monkeypatch):
    """``perfbench/run.py`` as a module; ``sys.modules`` is restored after."""
    saved = dict(sys.modules)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(run)
        yield run
    finally:
        for name in set(sys.modules) - set(saved):
            del sys.modules[name]
        sys.modules.update(saved)


@pytest.mark.parametrize("workload", ["replay", "fleet", "scan"])
def test_traced_warmup_on_fresh_import(bench, tmp_path, workload):
    dq = bench.load_duqusim()
    tracer = bench.Tracer(dq)
    work = bench.WORKLOADS[workload](dq, tmp_path, 1)

    def warm_up() -> None:
        for spec in work.warmup:
            ok, _, _ = work.check(spec, work.run(spec))
            assert ok, spec

    with tracer.installed():
        dq.fixtures.write_fixture_set(tmp_path / "traced_fixtures")
        warm_up()
        op = "scan.scan_pe" if workload == "scan" else "scenario.execute"
        counts = tracer.counts
        assert counts[f"{op}.calls"] == len(work.warmup)
        assert counts["fixtures.write_fixture_set.calls"] == 1
        assert set(tracer.self_ms()) <= bench.KNOWN_PER_LAYER
        assert tuple(counts[name] for name in DISPATCH) == DISPATCH_COUNTS[workload]
        assert counts["peformat.parse_pe.calls"] == PARSE_COUNTS[workload]
        assert counts["simkernel.span_free.calls"] == SPAN_FREE_COUNTS[workload]
        assert counts["simkernel.region_at.calls"] == REGION_AT_COUNTS[workload]
        first = tuple(counts[name] for name in RELOCATION)
        tracer.reset()
        warm_up()
    assert tuple(counts[name] for name in DISPATCH) == DISPATCH_COUNTS[workload]
    assert (first, tuple(counts[name] for name in RELOCATION)) == RELOCATION_COUNTS[workload]
    assert (counts["peformat.parse_pe.calls"] - counts["duqu.run_stub.calls"],
            counts["peformat.ror13_hash.calls"],
            counts["peformat.ror13_hash.bytes"]) == WARM_COUNTS[workload]
