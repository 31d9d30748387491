"""Replica of the injecting kernel driver.

Boot initialization (device creation, hal.dll wait loop, load-image
callback registration), stealthy discovery of the unexported protect
function through the call / push 104h / call opcode pattern, the
two-notification injection into the configured target, and the injected
stub's restore traffic over the driver's control device.

Like the original, the driver reads the modules it inspects where they are
mapped, through simulated memory: ntoskrnl's headers, exports and
executable sections, the target's headers, kernel32's exports.  It reads
them on every run, but each distinct export directory is decoded and
hashed once per process.  Its stubs' parsed images come from the loader's
image cache; the payload, read back out of memory, is parsed each time.

Stub execution is simulator-native: the byte-level effects (header
restore, payload mapping, entrypoint restore) are applied to simulated
memory, but the control flow is host code: ``run_stub``, the code of the
region the entrypoint hook jumps to.  The call-pop self-location trick is
modeled by handing the stub its own region base.
"""

from __future__ import annotations

import json
import struct
import weakref
from typing import Optional

from . import simkernel
from .peformat import (
    PatternNotFound,
    PeError,
    Record,
    apply_relocations,
    assemble_mapped,
    encode_entry_hook,
    find_export_by_hash,
    find_export_by_name,
    parse_pe,
    read_headers,
    read_module,
    restore_headers,
    ror13_hash,
    scan_call_push_call,
    strip_headers,
)
from .simkernel import (
    PERM_RWX,
    DeviceRequest,
    Driver,
    EventKind,
    NotificationEvent,
    SimError,
    SimKernel,
)

CONTROL_DEVICE = "\\Device\\{624409B3-4CEF-41c0-8B81-7634279A41E5}"
DEVICE_GPD0 = "\\Device\\Gpd0"
DEVICE_GPD1 = "\\Device\\Gpd1"
DOSDEVICE_GPDDEV = "\\DosDevices\\GpdDev"

# Control codes accepted on the control device (wire format doc: README).
RESTORE_ENTRYPOINT = 0x000D0001
RESTORE_PROTECTION = 0x000D0002

CONFIG_MAGIC = b"DQRC"
KERNEL_FILE_NAMES = ("ntoskrnl.exe", "ntkrnlpa.exe")
ANCHOR_EXPORT = b"ZwAllocateVirtualMemory"
HAL_MAX_RETRIES = 200
DEFAULT_KERNEL_BASE = 0x80000000
FUNCTION_TABLE_SIZE = 512
SAVED_ENTRY_LEN = 12
STUB_SHIM_SIZE = 57
MASK_LEN = 32
SUPPORTED_VERSIONS = (simkernel.SYSTEM_VERSION,)

# Ten loader/memory routines the injected code gets handed.  Only their
# ror13 hashes reach the driver, which resolves kernel32's exports by them;
# DEFAULT_IMPORT_HASHES holds them, hashed once at import.
DEFAULT_IMPORT_NAMES = (
    "LoadLibraryA",
    "GetProcAddress",
    "VirtualAlloc",
    "VirtualProtect",
    "VirtualFree",
    "CreateFileA",
    "ReadFile",
    "WriteFile",
    "CloseHandle",
    "GetModuleHandleA",
)
DEFAULT_IMPORT_HASHES = tuple(ror13_hash(n.encode("ascii")) for n in DEFAULT_IMPORT_NAMES)
# bytes(range(256)) as an int; XORed with the key byte it is the keystream.
_RAMP = int.from_bytes(bytes(range(256)), "little")


class DuquError(Exception):
    pass


class Halted(DuquError):
    """Debug or fail-safe mode; the driver refuses to initialize."""


class ConfigDecryptFailed(DuquError):
    pass


class VersionUnsupported(DuquError):
    pass


class PebMismatch(DuquError):
    """PEB image base disagrees with the notification; likely tampering."""


class NotStaged(DuquError):
    pass


class StubFault(DuquError):
    pass


def decrypt_blob(blob: bytes, key: int) -> bytes:
    """Rolling-XOR transform: out[i] = blob[i] ^ key ^ (i mod 256).

    Involutionary for a fixed key, so the same call encrypts.
    """
    n = len(blob)
    keystream = (_RAMP ^ int.from_bytes(bytes((key,)) * 256, "little")).to_bytes(
        256, "little") * (n // 256 + 1)
    return (int.from_bytes(blob, "little")
            ^ int.from_bytes(keystream[:n], "little")).to_bytes(n, "little")


class InjectionConfig(Record):
    """``payload`` is the encrypted DLL, decrypted only at injection time."""
    _compared = ("target_process", "payload", "registry_key")

    def __init__(self, target_process: str, payload: bytes, registry_key: str):
        self.target_process = target_process
        self.payload = payload
        self.registry_key = registry_key


def encode_config(config: InjectionConfig, key: int) -> bytes:
    """Serialize and encrypt a driver configuration blob."""
    fields = b""
    for part in (config.target_process.encode("ascii"),
                 config.registry_key.encode("ascii"),
                 config.payload):
        fields += struct.pack("<I", len(part)) + part
    return CONFIG_MAGIC + bytes([key]) + decrypt_blob(fields, key)


def decode_config(blob: bytes) -> tuple[InjectionConfig, int]:
    """Decrypt a configuration blob; returns the config and its key byte."""
    if len(blob) < 5 or blob[:4] != CONFIG_MAGIC:
        raise ConfigDecryptFailed("bad config magic")
    key = blob[4]
    fields = decrypt_blob(blob[5:], key)
    parts = []
    pos = 0
    for _ in range(3):
        if pos + 4 > len(fields):
            raise ConfigDecryptFailed("truncated config field")
        n = struct.unpack_from("<I", fields, pos)[0]
        pos += 4
        if pos + n > len(fields):
            raise ConfigDecryptFailed("truncated config field")
        parts.append(fields[pos:pos + n])
        pos += n
    try:
        target = parts[0].decode("ascii")
        registry = parts[1].decode("ascii")
    except UnicodeDecodeError as exc:
        raise ConfigDecryptFailed("config fields not ASCII") from exc
    return InjectionConfig(target_process=target, payload=parts[2],
                           registry_key=registry), key


class IntegrityMask(Record):
    """AND-mask plus reference bytes checked over a function prologue."""
    _compared = ("mask", "reference")

    def __init__(self, mask: bytes, reference: bytes):
        if len(mask) != MASK_LEN or len(reference) != MASK_LEN:
            raise ValueError("mask and reference must be exactly 32 bytes")
        self.mask = mask
        self.reference = reference

    def to_json(self) -> str:
        return json.dumps({"mask": self.mask.hex(), "reference": self.reference.hex()},
                          indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "IntegrityMask":
        """Parse ``to_json`` output; anything malformed raises ValueError."""
        try:
            doc = json.loads(text)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
        if not (isinstance(doc, dict)
                and all(isinstance(doc.get(k), str) for k in ("mask", "reference"))):
            raise ValueError('expected a JSON object with hex strings '
                             '"mask" and "reference"')
        return cls(mask=bytes.fromhex(doc["mask"]),
                   reference=bytes.fromhex(doc["reference"]))


# Canonical syscall-stub prologue: mov eax, imm32 / mov edx, 7FFE0300h /
# call [edx] / ret imm16.  Opcode bytes and the shared-page pointer are
# checked; syscall number and ret size float.
_PROLOGUE_REF = bytes([0xB8, 0, 0, 0, 0,
                       0xBA, 0x00, 0x03, 0xFE, 0x7F,
                       0xFF, 0x12, 0xC2]) + bytes(19)
_PROLOGUE_MASK = bytes([0xFF, 0, 0, 0, 0,
                        0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                        0xFF, 0xFF, 0xFF]) + bytes(19)


def default_mask() -> IntegrityMask:
    return IntegrityMask(mask=_PROLOGUE_MASK, reference=_PROLOGUE_REF)


def validate_function(addr: int, first_bytes: bytes, mask: IntegrityMask,
                      kernel_base: int = DEFAULT_KERNEL_BASE) -> tuple[bool, Optional[str]]:
    """Hook-avoidance check on a resolved function.

    Valid iff the address sits at or above the kernel range floor and the
    masked prologue bytes match the reference.  Returns (verdict, reason).
    """
    if addr < kernel_base:
        return False, "range"
    if len(first_bytes) < MASK_LEN:
        return False, "short read"
    for i in range(MASK_LEN):
        if (first_bytes[i] & mask.mask[i]) != (mask.reference[i] & mask.mask[i]):
            return False, f"mask byte {i}"
    return True, None


class SharedState:
    """What the driver shares with its injected code."""

    def __init__(self, function_table: bytearray | None = None,
                 config: Optional[InjectionConfig] = None,
                 kernel32_imports: list[tuple[int, int]] | None = None,
                 saved_entry_bytes: Optional[bytes] = None,
                 saved_perms: Optional[simkernel.Perm] = None,
                 target_pid: Optional[int] = None, entry_va: int = 0, stub1_base: int = 0,
                 stub2_base: int = 0, payload_base: int = 0, payload_len: int = 0,
                 ntdll_handle: int = 0, payload_image_base: int = 0, hooked: bool = False):
        self.function_table = (bytearray(FUNCTION_TABLE_SIZE) if function_table is None
                               else function_table)
        self.config = config
        self.kernel32_imports = [] if kernel32_imports is None else kernel32_imports
        self.saved_entry_bytes = saved_entry_bytes
        self.saved_perms = saved_perms
        self.target_pid = target_pid
        self.entry_va = entry_va
        self.stub1_base = stub1_base
        self.stub2_base = stub2_base
        self.payload_base = payload_base
        self.payload_len = payload_len
        self.ntdll_handle = ntdll_handle
        self.payload_image_base = payload_image_base
        self.hooked = hooked


class DuquDriver(Driver):
    """The reconstructed injector: a :class:`Driver` that registers itself
    with a :class:`SimKernel` as its last step of construction.  It has no
    handler until its boot init completes.

    The driver holds its kernel through a weak proxy.  The kernel holds
    the driver, its devices, its init waiter and the ``run_stub`` code of
    the region it allocates, so a strong reference would make a cycle that
    only the cyclic garbage collector could free; with the proxy, a
    finished run is freed as soon as its result is dropped.  A driver
    whose kernel nobody else holds raises ``ReferenceError``: it has no
    kernel left to act on.
    """

    def __init__(self, kernel: SimKernel, config_blob: bytes,
                 stub1: bytes, stub2: bytes,
                 mask: IntegrityMask | None = None,
                 kernel_base: int = DEFAULT_KERNEL_BASE):
        super().__init__("duqu")
        self.kernel = weakref.proxy(kernel)
        self.config_blob = config_blob
        self.stub1 = stub1
        self.stub2 = stub2
        self.mask = mask or default_mask()
        self.kernel_base = kernel_base
        self.state = SharedState()
        self.functions_valid = False
        self._hal_retries = 0
        self._key = 0
        kernel.register_driver(self)

    def _log(self, text: str) -> None:
        self.kernel.log_line(self.name, f"DuquDriver: {text}")

    # ------------------------------------------------------------------
    # boot
    # ------------------------------------------------------------------

    def boot_init(self) -> None:
        """Driver entry: shared table, config decrypt, devices, hal wait.

        In debug or fail-safe mode the driver halts before creating any
        device or registering any notification.
        """
        self.state = SharedState()
        config, key = decode_config(self.config_blob)
        self.state.config = config
        self._key = key
        if self.kernel.mode in ("debug", "failsafe"):
            self._log(f"halted ({self.kernel.mode} mode)")
            raise Halted(f"driver halts in {self.kernel.mode} mode")
        kernel = self.kernel
        kernel.create_device(CONTROL_DEVICE, self._on_device_request)
        kernel.create_device(DEVICE_GPD0, self._on_access_point)
        kernel.create_device(DOSDEVICE_GPDDEV, self._on_access_point)
        self._hal_retries = 0
        if self._hal_present():
            self._finish_init()
        else:
            kernel.defer_init(self, self._recheck_hal)

    def _hal_present(self) -> bool:
        return self.kernel.find_module(("hal.dll",)) is not None

    def _recheck_hal(self) -> bool:
        self._hal_retries += 1
        if self._hal_present():
            self._finish_init()
            return True
        if self._hal_retries >= HAL_MAX_RETRIES:
            self._log(f"giving up on hal.dll after {HAL_MAX_RETRIES} requeues")
            return True
        return False

    def _finish_init(self) -> None:
        self.kernel.create_device(DEVICE_GPD1, self._on_access_point)
        self.handlers[EventKind.IMAGE_LOAD] = self._on_image_load
        self._log(f"boot init complete (hal.dll seen after {self._hal_retries} requeues)")
        self._resolve_kernel_functions()

    def _resolve_kernel_functions(self) -> None:
        found = self.kernel.find_module(KERNEL_FILE_NAMES)
        if found is None:
            return
        pid, mod_name, base = found
        try:
            image = read_module(self.kernel.image_reader(pid, base))
            alloc_va = base + (find_export_by_name(image, ANCHOR_EXPORT) - image.nt.image_base)
            site, protect_va = scan_call_push_call(image, ANCHOR_EXPORT, base=base)
            prologues = [self._read_prologue(pid, va) for va in (alloc_va, protect_va)]
        except (PeError, SimError, PatternNotFound) as exc:
            self._log(f"kernel function discovery failed: {exc}")
            return
        self._log(f"anchor export at {alloc_va:#010x}; unexported neighbor "
                  f"{protect_va:#010x} via call site {site:#010x}")
        ok = True
        for va, first in zip((alloc_va, protect_va), prologues):
            valid, reason = validate_function(va, first, self.mask, self.kernel_base)
            self._log(f"function check {va:#010x}: "
                      + ("valid" if valid else f"rejected ({reason})"))
            ok = ok and valid
        self.functions_valid = ok
        if ok:
            struct.pack_into("<II", self.state.function_table, 0, alloc_va, protect_va)

    def _read_prologue(self, pid: int, va: int) -> bytes:
        """The bytes the mask checks at ``va``; none if they are unreadable."""
        try:
            return self.kernel.read_memory(pid, va, MASK_LEN)
        except SimError:
            return b""

    # ------------------------------------------------------------------
    # notifications
    # ------------------------------------------------------------------

    def _on_access_point(self, request: DeviceRequest) -> bytes:
        return b""

    def _on_image_load(self, event: NotificationEvent) -> None:
        st = self.state
        # Staged in another pid, or hooked: no load concerns the injection.
        if st.target_pid is not None and (st.hooked or event.pid != st.target_pid):
            return
        config = st.config
        proc = self.kernel.processes.get(event.pid)
        if config is None or proc is None or not proc.alive:
            return
        module = (event.module_name or "").rsplit("\\", 1)[-1].lower()
        if st.target_pid is None:
            if module == config.target_process.lower():
                self.on_image_load_first(event)
        elif module == "kernel32.dll":
            self.on_image_load_second(event)

    def on_image_load_first(self, event: NotificationEvent) -> None:
        """Target-module notification: verify, then stage the injection.

        Allocates the two stub regions (stripped), restores and relocates
        the first stub, flips the entrypoint page RX to RWX, and plants
        the decrypted payload after a 57-byte shim.
        """
        if self.kernel.version not in SUPPORTED_VERSIONS:
            raise VersionUnsupported(f"version {self.kernel.version} not supported")
        pid = event.pid
        peb = self.kernel.process(pid).peb
        if peb.image_base_address != event.base:
            raise PebMismatch(
                f"PEB base {peb.image_base_address:#010x} != {event.base:#010x}")
        if not self.functions_valid:
            self._log("injection skipped: kernel functions unresolved")
            return
        kernel = self.kernel
        entry_va = event.base + read_headers(
            kernel.image_reader(pid, event.base)).nt.entry_point_rva

        stub2_base = kernel.allocate_memory(pid, len(self.stub2), PERM_RWX)
        stub2_image = simkernel.image_cache.plan(self.stub2).image
        kernel.write_memory(pid, stub2_base, strip_headers(stub2_image))
        stub1_base = kernel.allocate_memory(pid, len(self.stub1), PERM_RWX,
                                            code=self.run_stub)
        stub1_image = simkernel.image_cache.plan(self.stub1).image
        kernel.write_memory(pid, stub1_base, strip_headers(stub1_image))

        blob = bytearray(restore_headers(kernel.read_memory(pid, stub1_base,
                                                            len(self.stub1))))
        apply_relocations(blob, stub1_base, stub1_image.nt.image_base,
                          stub1_image.relocations)
        kernel.write_memory(pid, stub1_base, blob)

        self.state.saved_perms = kernel.protect_memory(pid, entry_va, SAVED_ENTRY_LEN,
                                                       PERM_RWX)
        payload = decrypt_blob(self.state.config.payload, self._key)
        payload_base = kernel.allocate_memory(pid, STUB_SHIM_SIZE + len(payload),
                                              PERM_RWX)
        kernel.write_memory(pid, payload_base + STUB_SHIM_SIZE, payload)

        st = self.state
        st.target_pid = pid
        st.entry_va = entry_va
        st.stub1_base = stub1_base
        st.stub2_base = stub2_base
        st.payload_base = payload_base
        st.payload_len = len(payload)
        self._log(f"staged injection into pid={pid:#x} "
                  f"(stub1={stub1_base:#010x} stub2={stub2_base:#010x} "
                  f"payload={payload_base:#010x} entry={entry_va:#010x})")

    def on_image_load_second(self, event: NotificationEvent) -> None:
        """kernel32 notification: resolve imports by hash, write the hook.

        All ten hashes must resolve before anything is written; the saved
        12 entry bytes are replaced by mov eax, stub1 / call eax.
        """
        st = self.state
        if st.target_pid is None or event.pid != st.target_pid:
            raise NotStaged("no staged injection for this process")
        kernel = self.kernel
        image = read_module(kernel.image_reader(event.pid, event.base))
        resolved = []
        for name_hash in DEFAULT_IMPORT_HASHES:
            name, va = find_export_by_hash(image, name_hash)
            resolved.append((name_hash, event.base + (va - image.nt.image_base)))
        st.kernel32_imports = resolved
        st.saved_entry_bytes = kernel.read_memory(event.pid, st.entry_va, SAVED_ENTRY_LEN)
        kernel.write_memory(event.pid, st.entry_va, encode_entry_hook(st.stub1_base))
        st.hooked = True
        self._log(f"resolved {len(resolved)} kernel32 imports by hash")
        self._log(f"entrypoint hook written at {st.entry_va:#010x} "
                  f"-> {st.stub1_base:#010x}")

    # ------------------------------------------------------------------
    # injected code semantics
    # ------------------------------------------------------------------

    def run_stub(self, pid: int) -> None:
        """Everything that happens once the hooked entrypoint runs.

        The first stub self-locates, restores the second stub's headers,
        publishes the import table and an ntdll handle, and the second
        stub manually maps the payload image.  The payload announces
        itself and sends the two restore requests back to the driver.
        """
        st = self.state
        if not st.hooked or pid != st.target_pid:
            raise NotStaged("entrypoint hook is not in place")
        kernel = self.kernel
        self_base = st.stub1_base  # call-pop stand-in
        self._log(f"stub: self-located at {self_base:#010x}")
        try:
            blob2 = restore_headers(kernel.read_memory(pid, st.stub2_base, len(self.stub2)))
            kernel.write_memory(pid, st.stub2_base, blob2)
            for i, (_, va) in enumerate(st.kernel32_imports):
                struct.pack_into("<I", st.function_table, 8 + 4 * i, va)
            ntdll = next((base for name, base in kernel.process(pid).modules
                          if name.rsplit("\\", 1)[-1].lower() == "ntdll.dll"), 0)
            st.ntdll_handle = ntdll

            pe_bytes = kernel.read_memory(pid, st.payload_base + STUB_SHIM_SIZE,
                                          st.payload_len)
            payload_image = parse_pe(pe_bytes)
            dest = kernel.allocate_memory(pid, payload_image.nt.size_of_image, PERM_RWX)
            mapped = assemble_mapped(payload_image)
            apply_relocations(mapped, dest, payload_image.nt.image_base,
                              payload_image.relocations)
            kernel.write_memory(pid, dest, mapped)
            st.payload_image_base = dest
            entry = dest + payload_image.nt.entry_point_rva
            self._log(f"stub: payload mapped at {dest:#010x}, entry {entry:#010x}")
        except (PeError, SimError) as exc:
            raise StubFault(f"stub aborted: {exc}") from exc

        kernel.log_line(self.name, f"* PAYLOAD_STARTED pid={pid:#x} *")
        pid_blob = struct.pack("<I", pid)
        kernel.send_device_request(DeviceRequest(CONTROL_DEVICE, RESTORE_ENTRYPOINT,
                                                 pid_blob))
        kernel.send_device_request(DeviceRequest(CONTROL_DEVICE, RESTORE_PROTECTION,
                                                 pid_blob))
        self._log(f"control returned to original entrypoint of pid={pid:#x}")

    # ------------------------------------------------------------------
    # device channel
    # ------------------------------------------------------------------

    def _on_device_request(self, request: DeviceRequest) -> bytes:
        st = self.state
        if len(request.payload) >= 4:
            pid = struct.unpack_from("<I", request.payload)[0]
        else:
            pid = st.target_pid or 0
        if request.code == RESTORE_ENTRYPOINT:
            if st.saved_entry_bytes is None or pid != st.target_pid:
                return b""
            self.kernel.write_memory(pid, st.entry_va, st.saved_entry_bytes)
            self._log(f"RESTORE_ENTRYPOINT pid={pid:#x} "
                      f"({SAVED_ENTRY_LEN} bytes at {st.entry_va:#010x})")
            return st.saved_entry_bytes
        if request.code == RESTORE_PROTECTION:
            if st.saved_perms is None or pid != st.target_pid:
                return b""
            self.kernel.protect_memory(pid, st.entry_va, SAVED_ENTRY_LEN, st.saved_perms)
            self._log(f"RESTORE_PROTECTION pid={pid:#x} "
                      f"(perms {st.saved_perms.describe()})")
            return st.saved_perms.describe().encode("ascii")
        self._log(f"unknown control code {request.code:#010x}")
        return b""
