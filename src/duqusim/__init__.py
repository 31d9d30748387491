"""duqusim: deterministic replay of a driver-level injection and its monitor.

A bit-exact PE32 parser, a small simulated OS with permissioned virtual
memory and driver notifications, a replica of the injecting driver, the
checksum monitor that detects it, and a scenario runner that reproduces
the whole exchange as a stable text transcript.
"""

from .peformat import (
    PeError,
    PeImage,
    apply_relocations,
    encode_near_call,
    find_export_by_hash,
    find_export_by_name,
    parse_pe,
    resolve_near_call,
    restore_headers,
    ror13_hash,
    strip_headers,
)
from .simkernel import (
    DeviceRequest,
    Driver,
    EventKind,
    NotificationEvent,
    Perm,
    SimError,
    SimKernel,
)
from .duqu import DuquDriver, InjectionConfig, IntegrityMask, decrypt_blob
from .sentinel import IntegrityRecord, SentinelDriver
from .scenario import ScenarioResult, run_scenario
from .scan import ScanReport, scan_file, scan_pe
from .fixtures import write_fixture_set

__version__ = "0.1.0"

__all__ = [
    "PeError", "PeImage", "apply_relocations", "encode_near_call",
    "find_export_by_hash", "find_export_by_name", "parse_pe",
    "resolve_near_call", "restore_headers", "ror13_hash", "strip_headers",
    "DeviceRequest", "Driver", "EventKind", "NotificationEvent", "Perm",
    "SimError", "SimKernel",
    "DuquDriver", "InjectionConfig", "IntegrityMask", "decrypt_blob",
    "IntegrityRecord", "SentinelDriver",
    "ScenarioResult", "run_scenario",
    "ScanReport", "scan_file", "scan_pe",
    "write_fixture_set",
    "__version__",
]
