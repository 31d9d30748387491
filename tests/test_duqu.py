import random
import struct

import pytest

from duqusim.duqu import (
    CONFIG_MAGIC,
    CONTROL_DEVICE,
    DEVICE_GPD0,
    DEVICE_GPD1,
    DOSDEVICE_GPDDEV,
    RESTORE_ENTRYPOINT,
    RESTORE_PROTECTION,
    ConfigDecryptFailed,
    DuquDriver,
    InjectionConfig,
    IntegrityMask,
    NotStaged,
    PatternNotFound,
    PebMismatch,
    StubFault,
    decode_config,
    decrypt_blob,
    default_mask,
    encode_config,
    scan_call_push_call,
    validate_function,
)
from duqusim.fixtures import (
    CALL_TRAIN,
    PROTECT_CALL_SITE,
    SERVICES_ENTRY_BYTES,
    STUB1_EXPECTED_REGION,
    write_fixture_set,
)
from duqusim.pebuild import CODE_SECTION, PeSpec, SectionDef, build_pe32
from duqusim.peformat import encode_entry_hook, parse_pe
from duqusim.scenario import run_scenario
from duqusim.simkernel import (
    PERM_RWX,
    PERM_RX,
    EventKind,
    NotificationEvent,
    SimKernel,
)

from conftest import boot_kernel, driver_named, encode_near_call
from oracles import xor_stream_oracle


class TestDecryptBlob:
    def test_key_zero_uses_index_stream_only(self):
        assert decrypt_blob(bytes([0, 1, 2]), 0) == bytes([0, 0, 0])

    def test_involution(self):
        rng = random.Random(5)
        for _ in range(50):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 600)))
            key = rng.randrange(256)
            assert decrypt_blob(decrypt_blob(blob, key), key) == blob

    def test_matches_oracle(self):
        rng = random.Random(6)
        blob = bytes(rng.randrange(256) for _ in range(1000))
        assert decrypt_blob(blob, 0x5A) == xor_stream_oracle(blob, 0x5A)

    def test_poc_payload_decrypts_to_pe32(self, fixture_bytes):
        decrypted = xor_stream_oracle(fixture_bytes("netp191.pnf"), 0x5A)
        image = parse_pe(decrypted)
        assert image.nt.machine == 0x014C


class TestConfigBlob:
    def test_round_trip(self):
        config = InjectionConfig(target_process="services.exe",
                                 payload=b"\x01\x02\x03",
                                 registry_key="SYSTEM\\X")
        blob = encode_config(config, 0x41)
        decoded, key = decode_config(blob)
        assert key == 0x41
        assert decoded == config

    def test_bad_magic(self):
        with pytest.raises(ConfigDecryptFailed):
            decode_config(b"XXXX\x00rest")

    def test_truncated_fields(self):
        config = InjectionConfig("a", b"bb", "c")
        blob = encode_config(config, 7)
        with pytest.raises(ConfigDecryptFailed):
            decode_config(blob[:-3])

    @staticmethod
    def blob(fields: bytes) -> bytes:
        """A config blob over the plain ``fields`` bytes, with key 7."""
        return CONFIG_MAGIC + bytes([7]) + decrypt_blob(fields, 7)

    def test_length_past_the_blob(self):
        # The second field's length, 100, runs past the 10 bytes after it.
        fields = struct.pack("<I", 1) + b"a" + struct.pack("<I", 100) + b"b" * 10
        with pytest.raises(ConfigDecryptFailed, match="^truncated config field$"):
            decode_config(self.blob(fields))

    @pytest.mark.parametrize("target, registry", [(b"\xE9", b"b"), (b"a", b"\x80")])
    def test_fields_not_ascii(self, target, registry):
        fields = b"".join(struct.pack("<I", len(part)) + part
                          for part in (target, registry, b"payload"))
        with pytest.raises(ConfigDecryptFailed, match="^config fields not ASCII$"):
            decode_config(self.blob(fields))


def kernel_image_with_train(filler: bytes = b"\x90", train_offset: int = 0x1BC) -> bytes:
    """Synthetic kernel: exported anchor at 0x5DDC, train inside PAGE."""
    text = bytearray(filler * 0x5000)[:0x5000]
    page = bytearray(filler * 0x1000)[:0x1000]
    page[train_offset:train_offset + len(CALL_TRAIN)] = CALL_TRAIN
    return build_pe32(PeSpec(
        image_base=0x00400000, entry_rva=0x1000,
        sections=[SectionDef(".text", 0x1000, bytes(text), CODE_SECTION),
                  SectionDef("PAGE", 0xED000, bytes(page), CODE_SECTION)],
        exports=[("ZwAllocateVirtualMemory", 0x5DDC)],
        export_va=0x6000))


class TestLocateUnexported:
    def test_published_train_resolves(self):
        image = parse_pe(kernel_image_with_train())
        site, target = scan_call_push_call(image, "ZwAllocateVirtualMemory")
        assert site == PROTECT_CALL_SITE == 0x004ED1EA
        assert target == 0x00406882

    def test_missing_push_means_not_found(self):
        data = bytearray(kernel_image_with_train())
        push_at = data.find(bytes([0x68, 0x04, 0x01, 0x00, 0x00]))
        data[push_at:push_at + 5] = b"\x90" * 5
        with pytest.raises(PatternNotFound):
            scan_call_push_call(parse_pe(bytes(data)), "ZwAllocateVirtualMemory")

    def test_empty_code_section(self):
        data = build_pe32(PeSpec(
            image_base=0x00400000, entry_rva=0x1000,
            sections=[SectionDef(".text", 0x1000, b"\x90" * 0x100, CODE_SECTION)],
            exports=[("ZwAllocateVirtualMemory", 0x1000)], export_va=0x2000))
        with pytest.raises(PatternNotFound):
            scan_call_push_call(parse_pe(data), "ZwAllocateVirtualMemory")

    def test_target_independent_of_train_position(self):
        # Re-encode the train's two calls for each placement (near-call
        # displacements are position relative); the resolved target must
        # come out the same wherever the train sits, with random filler
        # around it that contains no competing anchor call.
        rng = random.Random(77)
        for offset in (0x000, 0x123, 0x7A0, 0xF00 - len(CALL_TRAIN)):
            filler = bytes(rng.choice([b for b in range(256) if b != 0xE8])
                           for _ in range(0x1000))
            page = bytearray(filler)
            train = bytearray(CALL_TRAIN)
            page_va = 0x00400000 + 0xED000
            train[2:7] = encode_near_call(page_va + offset + 2, 0x00405DDC)
            train[46:51] = encode_near_call(page_va + offset + 46, 0x00406882)
            page[offset:offset + len(train)] = train
            text = bytearray(b"\x90" * 0x5000)
            data = build_pe32(PeSpec(
                image_base=0x00400000, entry_rva=0x1000,
                sections=[SectionDef(".text", 0x1000, bytes(text), CODE_SECTION),
                          SectionDef("PAGE", 0xED000, bytes(page), CODE_SECTION)],
                exports=[("ZwAllocateVirtualMemory", 0x5DDC)],
                export_va=0x6000))
            site, target = scan_call_push_call(parse_pe(data),
                                               "ZwAllocateVirtualMemory")
            assert site == page_va + offset + 46
            assert target == 0x00406882

    def test_window_is_configurable(self):
        # push 104h sits 0x19 bytes past the anchor call; a 16-byte window
        # cannot reach it, the default 64-byte window can.
        image = parse_pe(kernel_image_with_train())
        with pytest.raises(PatternNotFound):
            scan_call_push_call(image, "ZwAllocateVirtualMemory", window=16)
        assert scan_call_push_call(image, "ZwAllocateVirtualMemory",
                                   window=64)[1] == 0x00406882

    def test_anchor_must_resolve_to_export(self):
        # Same train, but the export table points elsewhere: no anchor.
        text = bytearray(b"\x90" * 0x5000)
        page = bytearray(b"\x90" * 0x1000)
        page[0x1BC:0x1BC + len(CALL_TRAIN)] = CALL_TRAIN
        data = build_pe32(PeSpec(
            image_base=0x00400000, entry_rva=0x1000,
            sections=[SectionDef(".text", 0x1000, bytes(text), CODE_SECTION),
                      SectionDef("PAGE", 0xED000, bytes(page), CODE_SECTION)],
            exports=[("ZwAllocateVirtualMemory", 0x4000)],
            export_va=0x6000))
        with pytest.raises(PatternNotFound):
            scan_call_push_call(parse_pe(data), "ZwAllocateVirtualMemory")


class TestValidateFunction:
    def test_zero_mask_is_vacuous(self):
        mask = IntegrityMask(mask=bytes(32), reference=bytes(32))
        ok, reason = validate_function(0x80001000, b"\xCC" * 32, mask)
        assert ok and reason is None

    def test_below_kernel_range_rejected(self):
        mask = IntegrityMask(mask=bytes(32), reference=bytes(32))
        ok, reason = validate_function(0x00010000, b"\xCC" * 32, mask,
                                       kernel_base=0x00400000)
        assert not ok and reason == "range"

    def test_low_base_fixture_passes_with_configured_range(self):
        ok, _ = validate_function(0x00406882, bytes(32), IntegrityMask(bytes(32), bytes(32)),
                                  kernel_base=0x00400000)
        assert ok

    def test_prologue_mask(self):
        mask = default_mask()
        prologue = bytes([0xB8, 0x11, 0x00, 0x00, 0x00,
                          0xBA, 0x00, 0x03, 0xFE, 0x7F,
                          0xFF, 0x12, 0xC2, 0x18, 0x00]) + b"\x90" * 17
        ok, _ = validate_function(0x80001000, prologue, mask)
        assert ok
        tampered = b"\xE9" + prologue[1:]  # jmp where mov eax should be
        ok, reason = validate_function(0x80001000, tampered, mask)
        assert not ok and reason == "mask byte 0"


class TestBootInit:
    def test_debug_mode_halts_with_no_devices(self, fixture_dir):
        kernel, drivers = boot_kernel(fixture_dir, with_sentinel=False, mode="debug")
        duqu = drivers["duqu"]
        assert kernel.devices == {}
        assert duqu.handlers == {}
        # a full scenario's worth of events later, still nothing
        proc = kernel.process
        assert all(r.tag != "injected"
                   for p in kernel.processes.values() for r in p.regions)

    def test_failsafe_mode_halts(self, fixture_dir):
        kernel, drivers = boot_kernel(fixture_dir, with_sentinel=False, mode="failsafe")
        assert drivers["duqu"].handlers == {}
        assert kernel.devices == {}

    def test_normal_boot_creates_devices_and_callback(self, fixture_dir):
        kernel, drivers = boot_kernel(fixture_dir, with_sentinel=False)
        duqu = drivers["duqu"]
        for path in (CONTROL_DEVICE, DEVICE_GPD0, DOSDEVICE_GPDDEV, DEVICE_GPD1):
            assert path in kernel.devices
        assert EventKind.IMAGE_LOAD in duqu.handlers
        assert duqu.functions_valid
        alloc_va, protect_va = struct.unpack_from("<II", duqu.state.function_table, 0)
        assert (alloc_va, protect_va) == (0x00405DDC, 0x00406882)

    def test_hal_on_third_recheck(self, fixture_dir):
        kernel, drivers = boot_kernel(fixture_dir, with_sentinel=False,
                                      with_duqu=False)
        # fresh kernel to control the event count exactly
        kernel = SimKernel()
        duqu = DuquDriver(kernel,
                          config_blob=(fixture_dir / "duqu_config.bin").read_bytes(),
                          stub1=(fixture_dir / "stub1.bin").read_bytes(),
                          stub2=(fixture_dir / "stub2.bin").read_bytes(),
                          kernel_base=0x00400000)
        duqu.boot_init()
        assert EventKind.IMAGE_LOAD not in duqu.handlers
        proc = kernel.create_process("System",
                                     (fixture_dir / "system.bin").read_bytes())
        # rechecks so far: process-create, main-module load
        assert duqu._hal_retries == 2
        kernel.load_module(proc.pid, "hal.dll", (fixture_dir / "hal.dll").read_bytes())
        assert EventKind.IMAGE_LOAD in duqu.handlers
        assert duqu._hal_retries == 3

    def test_hal_never_loaded_after_200_requeues(self, fixture_dir):
        kernel = SimKernel()
        duqu = DuquDriver(kernel,
                          config_blob=(fixture_dir / "duqu_config.bin").read_bytes(),
                          stub1=(fixture_dir / "stub1.bin").read_bytes(),
                          stub2=(fixture_dir / "stub2.bin").read_bytes())
        duqu.boot_init()
        proc = kernel.create_process("System",
                                     (fixture_dir / "system.bin").read_bytes())
        module = (fixture_dir / "ntdll.dll").read_bytes()
        give_up = ("duqu", "DuquDriver: giving up on hal.dll after 200 requeues")
        for i in range(197):
            kernel.load_module(proc.pid, f"mod{i}.dll", module)
        assert duqu._hal_retries == 199
        assert give_up not in kernel.log
        kernel.load_module(proc.pid, "mod197.dll", module)  # recheck #200
        assert kernel.log.count(give_up) == 1
        assert duqu._hal_retries == 200
        assert EventKind.IMAGE_LOAD not in duqu.handlers
        assert DEVICE_GPD1 not in kernel.devices
        # even a late hal.dll no longer revives it
        kernel.load_module(proc.pid, "hal.dll", (fixture_dir / "hal.dll").read_bytes())
        assert EventKind.IMAGE_LOAD not in duqu.handlers

    def test_bad_config_blob(self, fixture_dir):
        kernel = SimKernel()
        duqu = DuquDriver(kernel, config_blob=b"JUNKJUNK",
                          stub1=(fixture_dir / "stub1.bin").read_bytes(),
                          stub2=(fixture_dir / "stub2.bin").read_bytes())
        with pytest.raises(ConfigDecryptFailed):
            duqu.boot_init()


def staged_kernel(fixture_dir, **kwargs):
    kernel, drivers = boot_kernel(fixture_dir, with_sentinel=False, **kwargs)
    services = kernel.create_process(
        "services.exe", (fixture_dir / "services.exe").read_bytes(),
        base=0x01000000)
    return kernel, drivers["duqu"], services


class TestFirstNotification:
    def test_staging_effects(self, fixture_dir):
        kernel, duqu, services = staged_kernel(fixture_dir)
        st = duqu.state
        assert st.target_pid == services.pid
        assert st.entry_va == 0x01012475
        assert st.stub1_base == STUB1_EXPECTED_REGION == 0x000A18BD
        injected = [r for r in services.regions if r.tag == "injected"]
        assert len(injected) == 3  # stub2, stub1, payload shim+dll
        entry_region = services.region_at(st.entry_va)
        assert entry_region.perms == PERM_RWX
        assert st.saved_perms == PERM_RX
        # stub1 was restored and relocated in place
        blob = kernel.read_memory(services.pid, st.stub1_base, 4)
        assert blob[:2] == b"MZ"

    def test_payload_region_sized_57_plus_dll(self, fixture_dir):
        kernel, duqu, services = staged_kernel(fixture_dir)
        st = duqu.state
        region = services.region_at(st.payload_base)
        assert len(region.data) == 57 + st.payload_len
        payload = kernel.read_memory(services.pid, st.payload_base + 57, st.payload_len)
        assert payload == xor_stream_oracle(duqu.state.config.payload, 0x5A)
        assert parse_pe(payload).nt.machine == 0x014C

    def test_non_target_module_untouched(self, fixture_dir):
        kernel, drivers = boot_kernel(fixture_dir, with_sentinel=False)
        notepad = kernel.create_process(
            "notepad.exe", (fixture_dir / "services.exe").read_bytes())
        assert drivers["duqu"].state.target_pid is None
        assert all(r.tag != "injected" for r in notepad.regions)
        assert all(r.perms != PERM_RWX for r in notepad.regions)

    def test_forged_peb_aborts(self, fixture_dir):
        kernel, drivers = boot_kernel(fixture_dir, with_sentinel=False)
        duqu = drivers["duqu"]
        proc = kernel.create_process("victim.exe",
                                     (fixture_dir / "services.exe").read_bytes())
        proc.peb.image_base_address = 0x02000000
        event = NotificationEvent(EventKind.IMAGE_LOAD, proc.pid,
                                  module_name="services.exe", base=proc.image_base)
        with pytest.raises(PebMismatch):
            duqu.on_image_load_first(event)
        assert all(r.tag != "injected" for r in proc.regions)

    def test_unsupported_version_aborts(self, fixture_dir):
        kernel, drivers = boot_kernel(fixture_dir, with_sentinel=False)
        kernel.version = "6.1.7601"
        kernel.create_process("services.exe",
                              (fixture_dir / "services.exe").read_bytes())
        duqu = drivers["duqu"]
        faults = [t for _, t in kernel.log if t.startswith("! fault:")]
        assert faults == ["! fault: duqu: VersionUnsupported: "
                          "version 6.1.7601 not supported"]
        assert duqu.state.target_pid is None


def expected_stage(state, target: str, alive: bool, pid: int, module: str) -> str | None:
    """Which stage a load runs, from the load alone: in a live process, the
    first when the module's basename is the target (case-blind) and
    nothing is staged, the second when it is kernel32.dll in the staged
    pid and the hook is not yet written."""
    name = module.rsplit("\\", 1)[-1].lower()
    if not alive:
        return None
    if name == target.lower() and state.target_pid is None:
        return "first"
    if name == "kernel32.dll" and pid == state.target_pid and not state.hooked:
        return "second"
    return None


class TestImageLoadStates:
    """The injector's IMAGE_LOAD handler, in each of its states (before
    staging, staged in pid A, hooked), against each kind of load, runs the
    stage the rule above names and no other."""

    @pytest.mark.parametrize("staged, hooked", [(False, False), (True, False), (True, True)],
                             ids=["unstaged", "staged", "hooked"])
    def test_each_state_against_each_load(self, fixture_dir, monkeypatch, staged, hooked):
        kernel, drivers = boot_kernel(fixture_dir, with_sentinel=False)
        duqu = drivers["duqu"]
        image = (fixture_dir / "services.exe").read_bytes()
        a, b, dead = (kernel.create_process(name, image) for name in ("a.exe", "b.exe", "c.exe"))
        kernel.terminate_process(dead.pid)
        st = duqu.state
        st.target_pid = a.pid if staged else None
        st.hooked = hooked
        ran = []
        monkeypatch.setattr(duqu, "on_image_load_first", lambda event: ran.append("first"))
        monkeypatch.setattr(duqu, "on_image_load_second", lambda event: ran.append("second"))
        target = st.config.target_process
        loads = [(proc, module) for proc in (a, b, dead)
                 for module in (target, target.upper(), f"C:\\x\\{target}", "kernel32.dll",
                                "C:\\WINDOWS\\system32\\KERNEL32.DLL", "ntdll.dll", "")]
        seen = set()
        for proc, module in loads:
            ran.clear()
            duqu._on_image_load(NotificationEvent(EventKind.IMAGE_LOAD, proc.pid, module,
                                                  proc.image_base))
            expected = expected_stage(st, target, proc.alive, proc.pid, module)
            assert ran == ([expected] if expected else []), (proc.name, module)
            seen.add(expected)
        assert seen == {(False, False): {None, "first"}, (True, False): {None, "second"},
                        (True, True): {None}}[staged, hooked]


class TestSecondNotification:
    def hooked(self, fixture_dir):
        kernel, duqu, services = staged_kernel(fixture_dir)
        kernel.load_module(services.pid, "kernel32.dll",
                           (fixture_dir / "kernel32.dll").read_bytes(),
                           base=0x7C800000)
        return kernel, duqu, services

    def test_hook_bytes(self, fixture_dir):
        kernel, duqu, services = self.hooked(fixture_dir)
        st = duqu.state
        assert st.hooked
        entry = kernel.read_memory(services.pid, st.entry_va, 12)
        assert entry[:7] == bytes([0xB8, 0xBD, 0x18, 0x0A, 0x00, 0xFF, 0xD0])
        assert entry[7] == 0xE8  # original byte past the 7-byte hook
        assert entry[0] == 0xB8 and entry[5:7] == b"\xFF\xD0"
        target = struct.unpack_from("<I", entry, 1)[0]
        assert target == st.stub1_base
        assert st.saved_entry_bytes == SERVICES_ENTRY_BYTES

    def test_zero_stub_address_encodes_zero_immediate(self, fixture_dir):
        kernel, duqu, services = staged_kernel(fixture_dir)
        duqu.state.stub1_base = 0
        kernel.load_module(services.pid, "kernel32.dll",
                           (fixture_dir / "kernel32.dll").read_bytes(),
                           base=0x7C800000)
        entry = kernel.read_memory(services.pid, duqu.state.entry_va, 7)
        assert entry == bytes([0xB8, 0, 0, 0, 0, 0xFF, 0xD0])

    def test_resolved_imports_match_mapped_base(self, fixture_dir):
        kernel, duqu, services = self.hooked(fixture_dir)
        imports = duqu.state.kernel32_imports
        assert len(imports) == 10
        for name_hash, va in imports:
            assert 0x7C800000 <= va < 0x7C800000 + 0x4000

    def test_missing_hashed_export_is_atomic(self, fixture_dir):
        from duqusim.pebuild import reloc_block
        kernel, duqu, services = staged_kernel(fixture_dir)
        # nine of the ten names only
        names = ["LoadLibraryA", "GetProcAddress", "VirtualAlloc",
                 "VirtualProtect", "VirtualFree", "CreateFileA", "ReadFile",
                 "WriteFile", "CloseHandle"]
        text = bytearray(b"\x90" * 0x400)
        text[0x3F0:0x3F4] = (0x7C801000).to_bytes(4, "little")
        partial = build_pe32(PeSpec(
            image_base=0x7C800000, entry_rva=0x1000,
            sections=[SectionDef(".text", 0x1000, bytes(text), CODE_SECTION,
                                 virtual_size=0x1000)],
            exports=[(n, 0x1000 + 4 * i) for i, n in enumerate(names)],
            export_va=0x2000,
            relocations=[reloc_block(0x1000, [0x3F0])], reloc_va=0x3000,
            dll=True))
        before = kernel.read_memory(services.pid, duqu.state.entry_va, 12)
        kernel.load_module(services.pid, "kernel32.dll", partial, base=0x7C800000)
        assert any(t.startswith("! fault: duqu: HashNotFound: ") for _, t in kernel.log)
        assert not duqu.state.hooked
        assert kernel.read_memory(services.pid, duqu.state.entry_va, 12) == before

    def test_kernel32_without_exports_faults_and_writes_no_hook(self, tmp_path):
        write_fixture_set(tmp_path)
        (tmp_path / "kernel32.dll").write_bytes(build_pe32(PeSpec(
            image_base=0x7C800000, entry_rva=0x1000,
            sections=[SectionDef(".text", 0x1000, b"\x90" * 0x100, CODE_SECTION,
                                 virtual_size=0x1000)])))
        result = run_scenario(tmp_path / "duqu_unopposed.scenario")
        lines = result.text_lines()
        assert lines[lines.index("* Loaded module kernel32.dll *"):] == [
            "* Loaded module kernel32.dll *",
            "! fault: duqu: NoExportTable: image has no export directory",
            "* Loaded module ntdll.dll *",
            "* Process services.exe pid=0x914 runs its entrypoint *"]
        assert not driver_named(result, "duqu").state.hooked

    def test_direct_call_without_staging(self, fixture_dir):
        kernel, drivers = boot_kernel(fixture_dir, with_sentinel=False)
        event = NotificationEvent(EventKind.IMAGE_LOAD, 0x999,
                                  module_name="kernel32.dll", base=0x7C800000)
        with pytest.raises(NotStaged):
            drivers["duqu"].on_image_load_second(event)


class TestRunStub:
    def full_chain(self, fixture_dir):
        kernel, duqu, services = staged_kernel(fixture_dir)
        kernel.load_module(services.pid, "kernel32.dll",
                           (fixture_dir / "kernel32.dll").read_bytes(),
                           base=0x7C800000)
        kernel.load_module(services.pid, "ntdll.dll",
                           (fixture_dir / "ntdll.dll").read_bytes(),
                           base=0x7C900000)
        return kernel, duqu, services

    def test_event_order(self, fixture_dir):
        kernel, duqu, services = self.full_chain(fixture_dir)
        duqu.run_stub(services.pid)
        pid = services.pid
        wanted = (f"* PAYLOAD_STARTED pid={pid:#x} *",
                  f"DuquDriver: RESTORE_ENTRYPOINT pid={pid:#x} ",
                  f"DuquDriver: RESTORE_PROTECTION pid={pid:#x} ")
        marks = [w for _, t in kernel.log for w in wanted if t.startswith(w)]
        assert marks == list(wanted)

    def test_entry_bytes_and_perms_fully_restored(self, fixture_dir):
        kernel, duqu, services = self.full_chain(fixture_dir)
        duqu.run_stub(services.pid)
        st = duqu.state
        assert kernel.read_memory(services.pid, st.entry_va, 12) == SERVICES_ENTRY_BYTES
        assert services.region_at(st.entry_va).perms == PERM_RX

    def test_stub2_restored_and_ntdll_recorded(self, fixture_dir):
        kernel, duqu, services = self.full_chain(fixture_dir)
        duqu.run_stub(services.pid)
        st = duqu.state
        assert kernel.read_memory(services.pid, st.stub2_base, 2) == b"MZ"
        assert st.ntdll_handle == 0x7C900000
        table = st.function_table
        for i, (_, va) in enumerate(st.kernel32_imports):
            assert struct.unpack_from("<I", table, 8 + 4 * i)[0] == va

    def test_payload_mapped_with_relocations(self, fixture_dir):
        from oracles import apply_relocations_oracle, assemble_mapped_oracle
        kernel, duqu, services = self.full_chain(fixture_dir)
        duqu.run_stub(services.pid)
        st = duqu.state
        payload = kernel.read_memory(services.pid, st.payload_base + 57, st.payload_len)
        image = parse_pe(payload)
        expected = apply_relocations_oracle(bytes(assemble_mapped_oracle(image)),
                                            st.payload_image_base, image.nt.image_base,
                                            image.relocations)
        mapped = kernel.read_memory(services.pid, st.payload_image_base,
                                    image.nt.size_of_image)
        assert mapped == expected

    def test_run_before_hook_rejected(self, fixture_dir):
        kernel, duqu, services = staged_kernel(fixture_dir)
        with pytest.raises(NotStaged):
            duqu.run_stub(services.pid)

    def test_corrupted_payload_faults(self, fixture_dir):
        kernel, duqu, services = self.full_chain(fixture_dir)
        st = duqu.state
        kernel.write_memory(services.pid, st.payload_base + 57, b"\x00" * 64)
        with pytest.raises(StubFault):
            duqu.run_stub(services.pid)


class TestDeviceChannel:
    def test_restore_requests(self, fixture_dir):
        from duqusim.simkernel import DeviceRequest
        kernel, duqu, services = TestRunStub().full_chain(fixture_dir)
        st = duqu.state
        pid_blob = struct.pack("<I", services.pid)
        out = kernel.send_device_request(
            DeviceRequest(CONTROL_DEVICE, RESTORE_ENTRYPOINT, pid_blob))
        assert out == st.saved_entry_bytes
        assert kernel.read_memory(services.pid, st.entry_va, 12) == SERVICES_ENTRY_BYTES
        out = kernel.send_device_request(
            DeviceRequest(CONTROL_DEVICE, RESTORE_PROTECTION, pid_blob))
        assert out == b"RX"
        assert services.region_at(st.entry_va).perms == PERM_RX

    @pytest.mark.parametrize("code", [RESTORE_ENTRYPOINT, RESTORE_PROTECTION])
    def test_restore_before_anything_was_saved(self, fixture_dir, code):
        from duqusim.simkernel import DeviceRequest
        kernel, _ = boot_kernel(fixture_dir, with_sentinel=False)
        lines = len(kernel.log)
        out = kernel.send_device_request(
            DeviceRequest(CONTROL_DEVICE, code, struct.pack("<I", 0x910)))
        assert out == b"" and len(kernel.log) == lines

    @pytest.mark.parametrize("code", [RESTORE_ENTRYPOINT, RESTORE_PROTECTION])
    def test_restore_for_another_pid_changes_nothing(self, fixture_dir, code):
        from duqusim.simkernel import DeviceRequest
        kernel, duqu, services = TestRunStub().full_chain(fixture_dir)
        st = duqu.state
        lines = len(kernel.log)
        out = kernel.send_device_request(
            DeviceRequest(CONTROL_DEVICE, code, struct.pack("<I", services.pid + 4)))
        assert out == b"" and len(kernel.log) == lines
        hook = encode_entry_hook(st.stub1_base)
        assert kernel.read_memory(services.pid, st.entry_va, len(hook)) == hook
        assert services.region_at(st.entry_va).perms == PERM_RWX

    def test_unknown_code_is_ignored(self, fixture_dir):
        from duqusim.simkernel import DeviceRequest
        kernel, drivers = boot_kernel(fixture_dir, with_sentinel=False)
        out = kernel.send_device_request(DeviceRequest(CONTROL_DEVICE, 0xDEAD, b""))
        assert out == b""

    def test_access_points_answer_empty(self, fixture_dir):
        from duqusim.simkernel import DeviceRequest
        kernel, drivers = boot_kernel(fixture_dir, with_sentinel=False)
        for path in (DEVICE_GPD0, DEVICE_GPD1, DOSDEVICE_GPDDEV):
            assert kernel.send_device_request(DeviceRequest(path, 0, b"")) == b""
