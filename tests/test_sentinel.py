import pytest

from duqusim.cli import main
from duqusim.fixtures import SERVICES_ENTRY_BYTES
from duqusim.sentinel import HASH_SPAN, SentinelDriver
from duqusim.simkernel import (
    PERM_RWX,
    Driver,
    EventKind,
    NotificationEvent,
    Perm,
    SimKernel,
)

from conftest import boot_kernel, displaced_headers_image, small_image
from oracles import ror13_oracle


def watched_process(fixture_dir, **sentinel_kwargs):
    kernel = SimKernel()
    sentinel = SentinelDriver(kernel, **sentinel_kwargs)
    proc = kernel.create_process("services.exe",
                                 (fixture_dir / "services.exe").read_bytes(),
                                 base=0x01000000)
    return kernel, sentinel, proc


class TestMemorization:
    def test_record_fields(self, fixture_dir):
        kernel, sentinel, proc = watched_process(fixture_dir)
        record = sentinel.records[proc.pid]
        assert record.entrypoint == 0x01012475
        assert record.first8 == bytes([0x6A, 0x70, 0x68, 0xE0, 0x15, 0x00, 0x01, 0xE8])
        assert record.baseline_hash == ror13_oracle(SERVICES_ENTRY_BYTES)

    def test_unwatched_name_ignored(self, fixture_dir):
        kernel = SimKernel()
        sentinel = SentinelDriver(kernel)
        proc = kernel.create_process("calc.exe",
                                     (fixture_dir / "services.exe").read_bytes())
        assert proc.pid not in sentinel.records

    def test_watch_list_configurable(self, fixture_dir):
        kernel = SimKernel()
        sentinel = SentinelDriver(kernel, watch=("calc.exe",))
        proc = kernel.create_process("calc.exe",
                                     (fixture_dir / "services.exe").read_bytes())
        assert proc.pid in sentinel.records


class TestVerification:
    def test_clean_load_verifies_ok(self, fixture_dir):
        kernel, sentinel, proc = watched_process(fixture_dir)
        kernel.load_module(proc.pid, "kernel32.dll",
                           (fixture_dir / "kernel32.dll").read_bytes(),
                           base=0x7C800000)
        assert sentinel.verdicts == [("services.exe", "OK"), ("kernel32.dll", "OK")]
        assert proc.alive

    def test_hooked_entry_terminates(self, fixture_dir):
        kernel, sentinel, proc = watched_process(fixture_dir)
        entry = sentinel.records[proc.pid].entrypoint
        kernel.protect_memory(proc.pid, entry, HASH_SPAN, PERM_RWX)
        kernel.write_memory(proc.pid, entry,
                            bytes([0xB8, 0xBD, 0x18, 0x0A, 0x00, 0xFF, 0xD0]))
        kernel.load_module(proc.pid, "shell32.dll",
                           (fixture_dir / "shell32.dll").read_bytes(),
                           base=0x7C9D0000)
        assert sentinel.verdicts[-1] == ("shell32.dll", "MISMATCH")
        assert not proc.alive
        texts = [t for _, t in kernel.log]
        assert "-> Checksum error !!!!" in texts
        assert "-> Terminating services.exe" in texts

    def test_unwatched_pid_load_does_not_read(self, fixture_dir, monkeypatch):
        kernel = SimKernel()
        sentinel = SentinelDriver(kernel, watch=("nothing.exe",))
        proc = kernel.create_process("services.exe",
                                     (fixture_dir / "services.exe").read_bytes())
        reads = []
        original = kernel.read_memory
        monkeypatch.setattr(kernel, "read_memory",
                            lambda *a, **k: (reads.append(a), original(*a, **k))[1])
        kernel.load_module(proc.pid, "kernel32.dll",
                           (fixture_dir / "kernel32.dll").read_bytes())
        assert reads == []
        assert sentinel.verdicts == []

    def test_unreadable_entrypoint_is_mismatch(self, fixture_dir):
        kernel, sentinel, proc = watched_process(fixture_dir)
        record = sentinel.records[proc.pid]
        proc.regions = [r for r in proc.regions
                        if not (r.base <= record.entrypoint < r.end)]
        event = NotificationEvent(EventKind.IMAGE_LOAD, proc.pid,
                                  module_name="ghost.dll", base=0x7C000000)
        sentinel.on_image_load(event)
        assert sentinel.verdicts[-1] == ("ghost.dll", "MISMATCH")
        assert not proc.alive

    def test_termination_finality(self, fixture_dir):
        kernel, sentinel, proc = watched_process(fixture_dir)
        entry = sentinel.records[proc.pid].entrypoint
        kernel.protect_memory(proc.pid, entry, HASH_SPAN, PERM_RWX)
        kernel.write_memory(proc.pid, entry, b"\xB8" * 4)
        kernel.load_module(proc.pid, "a.dll", (fixture_dir / "ntdll.dll").read_bytes())
        assert not proc.alive
        log_len = len(kernel.log)
        # further synthetic loads for this pid produce no reads or logs
        sentinel.on_image_load(NotificationEvent(EventKind.IMAGE_LOAD, proc.pid,
                                                 module_name="b.dll", base=0))
        assert len(kernel.log) == log_len
        assert len(sentinel.verdicts) == 2  # services.exe OK + a.dll MISMATCH

    def test_report_only_flags_without_terminating(self, fixture_dir):
        kernel, sentinel, proc = watched_process(fixture_dir, report_only=True)
        entry = 0x01012475
        kernel.protect_memory(proc.pid, entry, HASH_SPAN, PERM_RWX)
        kernel.write_memory(proc.pid, entry, b"\xCC")
        kernel.load_module(proc.pid, "x.dll", (fixture_dir / "ntdll.dll").read_bytes())
        assert sentinel.verdicts[-1] == ("x.dll", "MISMATCH")
        assert proc.alive
        assert any("report-only" in t for _, t in kernel.log)


class TestSensitivity:
    def test_single_byte_perturbations_sample(self, fixture_dir):
        # Full 12 x 255 sweep runs in the acceptance suite; spot-check here.
        kernel, sentinel, proc = watched_process(fixture_dir, report_only=True)
        record_entry = 0x01012475
        kernel.protect_memory(proc.pid, record_entry, HASH_SPAN, PERM_RWX)
        event = NotificationEvent(EventKind.IMAGE_LOAD, proc.pid,
                                  module_name="probe.dll", base=0x7C000000)
        for position in range(HASH_SPAN):
            original = SERVICES_ENTRY_BYTES[position]
            mutated = bytearray(SERVICES_ENTRY_BYTES)
            mutated[position] = original ^ 0x01
            kernel.write_memory(proc.pid, record_entry, bytes(mutated))
            sentinel.on_image_load(event)
            assert sentinel.verdicts[-1] == ("probe.dll", "MISMATCH")
            # restore record for the next round (mismatch drops it)
            kernel.write_memory(proc.pid, record_entry, SERVICES_ENTRY_BYTES)
            sentinel.on_process_create(NotificationEvent(EventKind.PROCESS_CREATE,
                                                         proc.pid))


class TestOrderingSensitivity:
    def test_sentinel_first_catches_on_shell32(self, fixture_dir, fixture_bytes):
        kernel, drivers = boot_kernel(fixture_dir, sentinel_first=True)
        services = kernel.create_process("services.exe",
                                         fixture_bytes("services.exe"),
                                         base=0x01000000)
        kernel.load_module(services.pid, "kernel32.dll",
                           fixture_bytes("kernel32.dll"), base=0x7C800000)
        assert services.alive
        kernel.load_module(services.pid, "shell32.dll",
                           fixture_bytes("shell32.dll"), base=0x7C9D0000)
        sentinel = drivers["sentinel"]
        assert ("kernel32.dll", "OK") in sentinel.verdicts
        assert ("shell32.dll", "MISMATCH") in sentinel.verdicts
        assert not services.alive

    def test_duqu_first_catches_on_kernel32(self, fixture_dir, fixture_bytes):
        kernel, drivers = boot_kernel(fixture_dir, sentinel_first=False)
        services = kernel.create_process("services.exe",
                                         fixture_bytes("services.exe"),
                                         base=0x01000000)
        kernel.load_module(services.pid, "kernel32.dll",
                           fixture_bytes("kernel32.dll"), base=0x7C800000)
        sentinel = drivers["sentinel"]
        assert ("kernel32.dll", "MISMATCH") in sentinel.verdicts
        assert ("kernel32.dll", "OK") not in sentinel.verdicts
        assert not services.alive


class TestFailClosedAtCreation:
    """Headers the monitor cannot read at creation are a mismatch, not a crash."""

    def create_small(self, **sentinel_kwargs):
        """tiny.exe behind a driver that drops READ on its header region
        before the monitor's create handler runs."""
        kernel = SimKernel()
        hider = Driver("hider")
        hider.handlers[EventKind.PROCESS_CREATE] = lambda e: kernel.protect_memory(
            e.pid, kernel.process(e.pid).image_base, 0x200, Perm(0))
        kernel.register_driver(hider)
        sentinel = SentinelDriver(kernel, watch=("tiny.exe",), **sentinel_kwargs)
        return kernel, sentinel

    def test_small_image_terminated(self):
        kernel, sentinel = self.create_small()
        proc = kernel.create_process("tiny.exe", small_image())
        texts = [t for _, t in kernel.log]
        assert ("ProcessImageInformation: headers unreadable (access violation at "
                "0x01000000, missing R)") in texts
        assert sentinel.verdicts == [("tiny.exe", "MISMATCH")]
        assert not proc.alive
        assert sentinel.records == {}
        assert "-> Terminating tiny.exe" in texts

    def test_small_image_flagged_in_report_only(self):
        kernel, sentinel = self.create_small(report_only=True)
        proc = kernel.create_process("tiny.exe", small_image())
        assert sentinel.verdicts == [("tiny.exe", "MISMATCH")]
        assert proc.alive
        assert "-> Flagged tiny.exe (report-only)" in [t for _, t in kernel.log]

    def test_small_image_with_readable_headers_verifies(self):
        kernel = SimKernel()
        sentinel = SentinelDriver(kernel, watch=("tiny.exe",))
        proc = kernel.create_process("tiny.exe", small_image())
        assert sentinel.verdicts == [("tiny.exe", "OK")]
        assert sentinel.records[proc.pid].entrypoint == 0x01000200
        assert sentinel.records[proc.pid].first8 == b"\x90" * 8
        assert proc.alive

    def test_monitor_reads_exactly_the_headers(self, monkeypatch):
        kernel = SimKernel()
        SentinelDriver(kernel, watch=("tiny.exe",))
        reads = []
        original = kernel.read_memory
        monkeypatch.setattr(kernel, "read_memory",
                            lambda pid, addr, n: (reads.append((addr, n)),
                                                  original(pid, addr, n))[1])
        kernel.create_process("tiny.exe", small_image())
        # DOS header, NT headers up to the optional header, the optional
        # header plus one section header, then the hashed entrypoint bytes.
        assert reads[:4] == [(0x01000000, 0x40), (0x01000040, 0x58),
                             (0x01000098, 0xE0 + 40), (0x01000200, 12)]

    def test_terminated_at_creation_is_never_loaded(self):
        kernel, _ = self.create_small()
        recorder, seen = Driver("recorder"), []
        for kind in EventKind:
            recorder.handlers[kind] = lambda e: seen.append((e.kind, e.pid))
        kernel.register_driver(recorder)
        proc = kernel.create_process("tiny.exe", small_image())
        assert kernel.log[-1] == ("loader", "* Process tiny.exe pid=0x910 exited *")
        assert "* Loaded module tiny.exe *" not in [t for _, t in kernel.log]
        assert seen == [(EventKind.PROCESS_CREATE, proc.pid),
                        (EventKind.PROCESS_EXIT, proc.pid)]

    def test_vanished_process_is_logged_and_skipped(self):
        kernel = SimKernel()
        sentinel = SentinelDriver(kernel)
        sentinel.on_process_create(NotificationEvent(EventKind.PROCESS_CREATE, 0x999))
        assert kernel.log[-1] == ("sentinel",
                                  "ProcessImageInformation: PEB unreadable for 0x999")
        assert sentinel.verdicts == [] and sentinel.records == {}

    @pytest.mark.parametrize("report_only", ["0", "1"])
    def test_cli_run_ends_without_traceback(self, tmp_path, capsys, report_only):
        """The loader refuses an image whose headers it would not map, so the
        monitor never sees a process: one error line and an unmet expect."""
        (tmp_path / "tiny.exe").write_bytes(displaced_headers_image())
        scenario = tmp_path / "tiny.scenario"
        scenario.write_text(f"driver sentinel watch=tiny.exe report-only={report_only}\n"
                            "process tiny.exe tiny.exe\n"
                            "expect -> Checksum error !!!!\n")
        assert main(["run", str(scenario)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ("! error: NotPe: tiny.exe: headers end at 0x520, past "
                                "the 0x200-byte mapped header span\n")
        assert captured.err == "unmet expectation: -> Checksum error !!!!\n"
        assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("sentinel_first", [False, True])
def test_injector_fault_is_logged_once_in_dispatch_order(fixture_dir, fixture_bytes,
                                                          sentinel_first):
    """A failing injector stage is one ``! fault:`` line; the monitor still runs."""
    kernel, drivers = boot_kernel(fixture_dir, sentinel_first=sentinel_first,
                                  duqu_kwargs={"versions": ("6.1.7601",)})
    services = kernel.create_process("services.exe", fixture_bytes("services.exe"),
                                     base=0x01000000)
    kernel.load_module(services.pid, "kernel32.dll",
                       fixture_bytes("kernel32.dll"), base=0x7C800000)
    texts = [t for _, t in kernel.log]
    faults = [i for i, t in enumerate(texts) if t.startswith("! fault:")]
    assert len(faults) == 1
    assert texts[faults[0]].startswith("! fault: duqu: VersionUnsupported: ")
    # the fault sits on the target's own load, before or after the monitor's check
    load = texts.index("* Loaded module services.exe *")
    verify = texts.index("-> Verify services.exe process:", load)
    assert load < faults[0] < texts.index("* Loaded module kernel32.dll *")
    assert (verify < faults[0]) == sentinel_first
    assert drivers["sentinel"].verdicts == [("services.exe", "OK"), ("kernel32.dll", "OK")]
    assert texts.count("-> OK!") == 2
    assert services.alive and drivers["duqu"].state.target_pid is None
