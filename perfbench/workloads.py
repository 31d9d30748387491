"""Seeded input generators, ops and output checks for the three workloads.

Each workload writes its inputs into a fresh directory from ``--seed``
alone, so the same seed gives byte-identical files, and exposes:

* ``cycle(rng)``   - one full, balanced round of op specs in seeded order
  (``scan`` writes a fresh corpus for each);
* ``run(spec)``    - the op itself, the only code that is timed;
* ``check(spec, out)`` - the benchmark's own verdict on the op's output,
  returning ``(ok, rendered line count, finding count)``;
* ``digest``       - SHA-256 over the files set-up generated;
* ``warmup``       - ops run untimed during set-up;
* ``summary()``    - measured properties of the generated inputs.

Every op of a cycle is drawn from a fixed ladder (variants, fleet shapes,
code sizes) so that two seeds give the same mix of work and the medians of
two runs compare; the seed varies order, layout and content.  ``replay``
runs the shipped fixtures and fixed variants of them in both formats every
cycle, so its seed varies the order of ops only.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path

from oracle import expected_findings

# SHA-256 of the two shipped PoC transcripts as rendered at the commit that
# introduced this benchmark.  They must never change (transcripts are the
# behavioural contract).
PINNED_TRANSCRIPTS = {
    ("poc", "plain"): "c829b5beb34dd42a5e15ccb322714cf8cdb4ae09f5e7953a022bc9bda7d8a0af",
    ("poc", "json"): "558c2b9885b2c280e1f2a567497bd7216f526b099fb45e2ae8e309af218cc656",
    ("unopposed", "plain"): "0841ca6625de996a7b84cb6c26ee14b31a95c3cc1ce9ac33945bf6b6533fd394",
    ("unopposed", "json"): "02509f931b536c8de449da53e6afaabe9c99f40fba0051b5cfcb0e60d7aa0bf9",
}

ENTRY_VA = 0x01012475
SERVICES_PID = 0x914


def tree_digest(directory: Path) -> str:
    """SHA-256 over every file name and its bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(path.relative_to(directory).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def rendered_lines(rendered: str, fmt: str) -> list[str]:
    lines = rendered.splitlines()
    if fmt == "json":
        return [json.loads(line)["text"] for line in lines]
    return lines


def expectations_met(expects: list[str], lines: list[str]) -> bool:
    """Ordered substring match, written independently of the runner's."""
    pos = 0
    for pattern in expects:
        while pos < len(lines) and pattern not in lines[pos]:
            pos += 1
        if pos == len(lines):
            return False
        pos += 1
    return True


def _expects(text: str) -> list[str]:
    return [line.strip()[len("expect "):].strip() for line in text.splitlines()
            if line.strip().startswith("expect ")]


def _image_bytes(text: str, directory: Path) -> int:
    """File bytes of every image a scenario loads (process and module lines)."""
    total = 0
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "process":
            total += (directory / parts[2]).stat().st_size
        elif parts and parts[0] == "module":
            total += (directory / parts[3]).stat().st_size
    return total


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    path: Path
    fmt: str
    input_bytes: int


class _Workload:
    specs: list
    inputs: dict

    def cycle(self, rng: random.Random) -> list:
        order = list(self.specs)
        rng.shuffle(order)
        return order

    def summary(self) -> dict:
        return dict(self.inputs)


class _ScenarioWorkload(_Workload):
    """Shared op for ``replay`` and ``fleet``: run a scenario, render it."""

    def __init__(self, dq):
        self.dq = dq
        self.seen_hashes: dict[tuple[str, str], str] = {}
        self.process_stats: dict[str, tuple[float, float, int]] = {}

    def run(self, spec: ScenarioSpec):
        result = self.dq.scenario.run_scenario(spec.path)
        return result, result.render(spec.fmt)

    def _transcript_stable(self, spec: ScenarioSpec, rendered: str) -> bool:
        digest = hashlib.sha256(rendered.encode("utf-8")).hexdigest()
        key = (spec.name, spec.fmt)
        pinned = PINNED_TRANSCRIPTS.get(key)
        if pinned is not None:
            return digest == pinned
        return self.seen_hashes.setdefault(key, digest) == digest

    def _record_processes(self, spec: ScenarioSpec, result) -> None:
        if spec.name in self.process_stats:
            return
        procs = list(result.kernel.processes.values())
        regions = [len(p.regions) for p in procs]
        modules = [len(p.modules) for p in procs]
        self.process_stats[spec.name] = (statistics.mean(regions),
                                         statistics.mean(modules), max(regions))

    def summary(self) -> dict:
        stats = list(self.process_stats.values())
        if not stats:
            return dict(self.inputs)
        return {
            **self.inputs,
            "regions_per_process_mean": round(statistics.mean(s[0] for s in stats), 2),
            "regions_per_process_max": max(s[2] for s in stats),
            "modules_per_process_mean": round(statistics.mean(s[1] for s in stats), 2),
        }


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------

_SWAPPED_EXPECTS = [
    "* Loaded module kernel32.dll *",
    f"DuquDriver: entrypoint hook written at {ENTRY_VA:#010x} -> 0x000a18bd",
    "-> Verify services.exe process:",
    f"Entrypoint bytes at {ENTRY_VA:#010x}: 0xb8 0xbd 0x18 0x0a 0x00 0xff 0xd0 0xe8",
    "-> Checksum error !!!!",
    "-> Terminating services.exe",
    f"* Process services.exe pid={SERVICES_PID:#x} exited *",
    "! error: NoSuchProcess",
]
_REPORT_ONLY_EXPECTS = [
    "* Loaded module shell32.dll *",
    "-> Checksum error !!!!",
    "-> Flagged services.exe (report-only)",
]
_SWAPPED_REPORT_ONLY_EXPECTS = [
    f"DuquDriver: entrypoint hook written at {ENTRY_VA:#010x}",
    "-> Checksum error !!!!",
    "-> Flagged services.exe (report-only)",
    "* Loaded module shell32.dll *",
]
_POC_DEBUG_EXPECTS = [
    "DuquDriver: halted (debug mode)",
    "* Loaded module kernel32.dll *",
    "-> OK!",
    "* Loaded module shell32.dll *",
    "-> OK!",
]
_UNOPPOSED_DEBUG_EXPECTS = [
    "DuquDriver: halted (debug mode)",
    f"* Process services.exe pid={SERVICES_PID:#x} runs its entrypoint *",
]

# name -> (shipped scenario, swap driver order, report-only, debug mode,
#          expectations, substrings that must not appear)
REPLAY_VARIANTS = {
    "poc": ("poc_duqu_attack.scenario", False, False, False, None, ()),
    "unopposed": ("duqu_unopposed.scenario", False, False, False, None, ()),
    "poc-swapped": ("poc_duqu_attack.scenario", True, False, False,
                    _SWAPPED_EXPECTS, ()),
    "poc-report-only": ("poc_duqu_attack.scenario", False, True, False,
                        _REPORT_ONLY_EXPECTS, ("-> Terminating", "exited")),
    "poc-swapped-report-only": ("poc_duqu_attack.scenario", True, True, False,
                                _SWAPPED_REPORT_ONLY_EXPECTS,
                                ("-> Terminating", "! error")),
    "poc-debug": ("poc_duqu_attack.scenario", False, False, True,
                  _POC_DEBUG_EXPECTS, ("Checksum error", "staged injection")),
    "unopposed-debug": ("duqu_unopposed.scenario", False, False, True,
                        _UNOPPOSED_DEBUG_EXPECTS, ("PAYLOAD_STARTED",)),
}


def _variant_text(shipped: str, swap: bool, report_only: bool, debug: bool,
                  expects: list[str]) -> str:
    lines = [line for line in shipped.splitlines()
             if line.strip() and not line.startswith(("#", "expect "))]
    drivers = [i for i, line in enumerate(lines) if line.startswith("driver ")]
    if swap:
        a, b = drivers[0], drivers[1]
        lines[a], lines[b] = lines[b], lines[a]
    if report_only:
        lines = [line + " report-only=true" if line == "driver sentinel" else line
                 for line in lines]
    if debug:
        lines.insert(0, "set-mode debug")
    return "\n".join(lines + [f"expect {e}" for e in expects]) + "\n"


class Replay(_ScenarioWorkload):
    """The two shipped PoC scenarios plus launch-order and mode variants."""

    def __init__(self, dq, directory: Path, seed: int):
        super().__init__(dq)
        fixtures = directory / "fixtures"
        dq.fixtures.write_fixture_set(fixtures)
        self.variants = {}
        self.specs = []
        for name, (src, swap, report, debug, expects, forbid) in REPLAY_VARIANTS.items():
            path = fixtures / src
            text = path.read_text(encoding="utf-8")
            if expects is not None:
                text = _variant_text(text, swap, report, debug, expects)
                path = fixtures / f"variant_{name}.scenario"
                path.write_text(text, encoding="utf-8")
            self.variants[name] = (_expects(text), forbid)
            size = _image_bytes(text, fixtures)
            self.specs += [ScenarioSpec(name, path, fmt, size) for fmt in ("plain", "json")]
        self.digest = tree_digest(directory)
        self.warmup = [s for s in self.specs if s.fmt == "plain"]
        self.inputs = {"variants": list(REPLAY_VARIANTS), "formats": ["plain", "json"],
                       "ops_per_cycle": len(self.specs)}

    def check(self, spec: ScenarioSpec, out) -> tuple[bool, int, int]:
        result, rendered = out
        lines = rendered_lines(rendered, spec.fmt)
        expects, forbid = self.variants[spec.name]
        self._record_processes(spec, result)
        ok = (result.ok and expectations_met(expects, lines)
              and not any(f in line for f in forbid for line in lines)
              and self._transcript_stable(spec, rendered))
        return ok, len(lines), 0

# ----------------------------------------------------------------------
# fleet
# ----------------------------------------------------------------------

# (processes, modules per process), one scenario each.  The shapes are
# fixed so every seed runs the same amount of work and two runs' medians
# compare: with seeded counts, p50, MB/s and peak RSS moved 6-14% between
# seeds.  The seed varies which processes are watched, where the target
# sits, which image each module maps, which modules load at a fixed base,
# and the DLL contents.
FLEET_SHAPES = ((10, 4), (6, 8), (12, 5), (8, 8), (14, 5), (10, 9),
                (7, 15), (16, 8), (9, 16), (20, 8), (12, 15), (18, 12))
FLEET_DLL_SIZES = (0x800, 0x1000, 0x1800, 0x2000, 0x1000, 0x1800)
FLEET_DLLS = len(FLEET_DLL_SIZES)
FLEET_DLL_BASE = 0x10000000
FLEET_FIXED_BASE = 0x20000000
WATCHED_SHARE = 0.75
FIXED_BASE_SHARE = 1 / 3

_DUQU_LINE = ("driver duqu config=duqu_config.bin stub1=stub1.bin stub2=stub2.bin "
              "mask=maskspec.json kernel-base=0x00400000")
_BOOT = ["process System system.bin",
         "module System ntoskrnl.exe ntoskrnl.exe base=0x00400000",
         "module System hal.dll hal.dll"]


def _fleet_dll(pebuild, rng: random.Random, index: int) -> bytes:
    """Relocatable DLL; every one prefers the same base, so most rebase."""
    size = FLEET_DLL_SIZES[index]
    text = bytearray(rng.randbytes(size))
    slots = sorted(rng.sample(range(0, min(size, 0x1000) - 4, 4), 4))
    for off in slots:
        text[off:off + 4] = (FLEET_DLL_BASE + 0x1000 + off).to_bytes(4, "little")
    top = 0x1000 + ((size + 0xFFF) & ~0xFFF)
    return pebuild.build_pe32(pebuild.PeSpec(
        image_base=FLEET_DLL_BASE,
        entry_rva=0x1000,
        sections=[pebuild.SectionDef(".text", 0x1000, bytes(text), pebuild.CODE_SECTION)],
        exports=[(f"Fleet{index}Fn{i}", 0x1000 + 0x40 * i) for i in range(4)],
        export_va=top,
        relocations=[pebuild.reloc_block(0x1000, slots)],
        reloc_va=top + 0x1000,
        dll=True,
    ))


@dataclass(frozen=True)
class FleetPlan:
    processes: int
    modules: int
    watched: int
    fixed: int
    ok_lines: int
    text: str


def _fleet_plan(rng: random.Random, procs: int, mods: int) -> FleetPlan:
    watched = set(rng.sample(range(procs), round(WATCHED_SHARE * procs)))
    names = [f"svc{i:02d}.exe" for i in range(procs)]
    order = list(names)
    order.insert(rng.randrange(procs + 1), "services.exe")
    watch = ",".join([names[i] for i in sorted(watched)] + ["services.exe"])
    lines = [f"# fleet: {procs} processes x {mods} modules, services.exe injected",
             f"driver sentinel watch={watch}", _DUQU_LINE, *_BOOT]
    for name in order:
        base = " base=0x01000000" if name == "services.exe" else ""
        lines.append(f"process {name} services.exe{base}")
    loads = procs * mods
    fixed = set(rng.sample(range(loads), round(FIXED_BASE_SHARE * loads)))
    dlls = [i % FLEET_DLLS for i in range(loads)]
    rng.shuffle(dlls)
    n = 0
    for j in range(mods):
        for name in order:
            if name == "services.exe":
                if j == 0:
                    lines.append("module services.exe kernel32.dll kernel32.dll base=0x7c800000")
                elif j == 1:
                    lines.append("module services.exe shell32.dll shell32.dll base=0x7c9d0000")
                continue
            base = f" base={FLEET_FIXED_BASE + j * 0x100000:#010x}" if n in fixed else ""
            lines.append(f"module {name} m{j:02d}.dll fleet{dlls[n]}.dll{base}")
            n += 1
    lines.append("expect -> Terminating services.exe")
    # Each watched process verifies its own image and every module; the
    # target verifies its image and kernel32, then fails on shell32.
    ok_lines = len(watched) * (1 + mods) + 2
    return FleetPlan(procs, mods, len(watched), len(fixed), ok_lines, "\n".join(lines) + "\n")


class Fleet(_ScenarioWorkload):
    """Many watched processes loading many modules; one injected target."""

    def __init__(self, dq, directory: Path, seed: int):
        super().__init__(dq)
        rng = random.Random(f"fleet:{seed}")
        fixtures = directory / "fixtures"
        dq.fixtures.write_fixture_set(fixtures)
        for i in range(FLEET_DLLS):
            (fixtures / f"fleet{i}.dll").write_bytes(_fleet_dll(dq.pebuild, rng, i))
        self.plans: dict[str, FleetPlan] = {}
        self.specs = []
        for k, (procs, mods) in enumerate(FLEET_SHAPES):
            plan = _fleet_plan(rng, procs, mods)
            path = fixtures / f"fleet_{k:02d}.scenario"
            path.write_text(plan.text, encoding="utf-8")
            name = path.stem
            self.plans[name] = plan
            self.specs.append(ScenarioSpec(name, path, "plain",
                                           _image_bytes(plan.text, fixtures)))
        self.digest = tree_digest(directory)
        self.warmup = self.specs[:2]
        plans = list(self.plans.values())
        module_lines = sum(p.processes * p.modules for p in plans)
        self.inputs = {
            "scenarios": len(plans),
            "processes": [p.processes for p in plans],
            "modules_per_process": [p.modules for p in plans],
            "watched_share": round(sum(p.watched for p in plans)
                                   / sum(p.processes for p in plans), 3),
            "fixed_base_share": round(sum(p.fixed for p in plans) / module_lines, 3),
            "distinct_dll_images": FLEET_DLLS,
        }

    def check(self, spec: ScenarioSpec, out) -> tuple[bool, int, int]:
        result, rendered = out
        lines = rendered.splitlines()
        plan = self.plans[spec.name]
        self._record_processes(spec, result)
        terminations = [line for line in lines if line.startswith("-> Terminating")]
        ok = (result.ok
              and terminations == ["-> Terminating services.exe"]
              and sum(line == "-> OK!" for line in lines) == plan.ok_lines
              and not any(line.startswith("! error") for line in lines)
              and self._transcript_stable(spec, rendered))
        return ok, len(lines), 0

# ----------------------------------------------------------------------
# scan
# ----------------------------------------------------------------------

SCAN_RUNGS_KIB = (4, 8, 16, 32, 64, 128, 256)
SCAN_FILES_PER_RUNG = 4
# Anchored scans cost more than plain ones of the same size.  The median op
# falls in the middle (32 KiB) rung; giving it one anchored file and three
# plain ones puts the median inside the plain files' cluster instead of on
# the edge between the two costs, where it would jump between runs.  The
# 4 KiB rung takes the extra anchored file, so exactly half are anchored.
SCAN_ANCHORED_PER_RUNG = (3, 2, 2, 1, 2, 2, 2)
ANCHOR = "ZwAllocateVirtualMemory"
_PUSH_104H = bytes([0x68, 0x04, 0x01, 0x00, 0x00])
_PROLOGUE = bytes([0x55, 0x8B, 0xEC])


@dataclass(frozen=True)
class ScanTraits:
    """What is planted in the file at one slot of the ladder."""
    body: str          # "random" opcodes or "nop" padding
    anchored: bool     # scanned with --anchor-export
    hooked: bool       # entrypoint starts with mov eax, imm32; call eax
    consts: int        # PE\0\0 dwords in the code section
    train: bool        # call anchor / push 104h / call train in the code
    data_const: bool   # PE\0\0 dword in the (non-executable) data section


def _scan_slots() -> list[tuple[int, ScanTraits]]:
    """(code KiB, traits) of every file of a corpus, the same for each corpus.

    The traits are a fixed function of the slot, so every corpus of every
    seed has the same properties, costs the same to scan and yields the same
    number of findings; seed and cycle vary the bytes and positions.
    """
    slots = []
    for r, (kib, n_anchored) in enumerate(zip(SCAN_RUNGS_KIB, SCAN_ANCHORED_PER_RUNG)):
        for i in range(SCAN_FILES_PER_RUNG):
            slots.append((kib, ScanTraits(
                body=("random", "nop")[i % 2],
                anchored=i < n_anchored,
                hooked=(r + i // 2) % 2 == 0,
                consts=(r + i) % 3,
                train=(r + i) % 2 == 0,
                data_const=(r + i // 2) % 2 == 1)))
    return slots


SCAN_SLOTS = _scan_slots()


def _filler(rng: random.Random, n: int) -> bytes:
    return bytes(rng.choice((0x50, 0x57, 0x8B, 0x45, 0x3B, 0xC3, 0x89, 0x4D))
                 for _ in range(n))


def _near_call(site: int, target: int) -> bytes:
    return b"\xE8" + ((target - site - 5) & 0xFFFFFFFF).to_bytes(4, "little")


@dataclass(frozen=True)
class ScanSpec:
    path: Path
    anchor: str | None
    expected: tuple
    input_bytes: int


class _Placer:
    """Non-overlapping spans inside one code section."""

    def __init__(self, rng: random.Random, size: int):
        self.rng = rng
        self.size = size
        self.taken: list[tuple[int, int]] = []

    def place(self, length: int, lo: int = 0, hi: int | None = None) -> int:
        hi = self.size - length if hi is None else hi
        while True:
            at = self.rng.randrange(lo, hi)
            if all(at + length <= a or at >= b for a, b in self.taken):
                self.taken.append((at, at + length))
                return at


def _scan_file(pebuild, rng: random.Random, kib: int,
               t: ScanTraits) -> tuple[bytes, int, list[tuple[str, int]]]:
    """One corpus file, its count of 0xE8 code bytes, and its planted findings."""
    size = kib * 1024
    if t.body == "random":
        text = bytearray(rng.randbytes(size))
        at = text.find(b"PE\x00\x00")
        while at != -1:
            text[at] = 0x51
            at = text.find(b"PE\x00\x00", at)
    else:
        text = bytearray(b"\x90" * size)
    image_base = rng.choice((0x00400000, 0x01000000, 0x10000000))
    code_va = 0x1000
    code = image_base + code_va
    planted = []
    place = _Placer(rng, size)
    anchor_off = place.place(16, 0, size // 8)
    entry_off = place.place(8, 0, size // 4)
    text[entry_off:entry_off + 7] = (
        b"\xB8" + rng.randbytes(4) + b"\xFF\xD0" if t.hooked else _PROLOGUE + b"\x90" * 4)
    if t.hooked:
        planted.append(("ENTRY_HOOK", code + entry_off))
    for _ in range(t.consts):
        at = place.place(4)
        text[at:at + 4] = b"PE\x00\x00"
        planted.append(("OBFUSCATED_PE_CONST", code + at))
    if t.train:
        gap1, gap2 = rng.randint(2, 20), rng.randint(0, 10)
        length = 5 + gap1 + 5 + gap2 + 5
        at = place.place(length, int(size * 0.6), int(size * 0.9) - length)
        second = code + at + 5 + gap1 + 5 + gap2
        text[at:at + length] = (_near_call(code + at, code + anchor_off)
                                + _filler(rng, gap1) + _PUSH_104H + _filler(rng, gap2)
                                + _near_call(second, code + rng.randrange(size)))
        if t.anchored:
            planted.append(("ZWPROTECT_PATTERN", second))
    data = bytearray(rng.randbytes(0x200))
    if t.data_const:
        data[0x40:0x44] = b"PE\x00\x00"
    data_va = code_va + ((size + 0xFFF) & ~0xFFF)
    pe = pebuild.build_pe32(pebuild.PeSpec(
        image_base=image_base,
        entry_rva=code_va + entry_off,
        sections=[pebuild.SectionDef(".text", code_va, bytes(text), pebuild.CODE_SECTION),
                  pebuild.SectionDef(".data", data_va, bytes(data), pebuild.DATA_SECTION)],
        exports=[(ANCHOR, code_va + anchor_off), ("ZwClose", code_va + anchor_off + 8)],
        export_va=data_va + 0x1000,
    ))
    return pe, text.count(0xE8), sorted(planted)


class Scan(_Workload):
    """A fresh corpus of distinct PE32 files each cycle, on a ladder of code sizes.

    Corpus ``k`` comes from ``Random(f"scan:{seed}:{k}")`` alone.  Set-up
    writes corpus 0 and warms up on it; every measured cycle (and every
    pass of the traced run) writes the next corpus, outside the timed ops,
    and deletes the one before.  So no file, path or buffer is scanned
    twice in a run after warm-up, and a cache keyed on any of them gets no
    reuse here.
    """

    def __init__(self, dq, directory: Path, seed: int):
        self.dq = dq
        self.directory = directory
        self.seed = seed
        self.cycle_digests: list[str] = []
        self.specs, e8 = self._corpus()
        self.digest = self.cycle_digests[0]
        self.warmup = [s for s in self.specs if s.path.name.startswith("s004k")]
        n = len(SCAN_SLOTS)

        def share(pred) -> float:
            return round(sum(1 for _, t in SCAN_SLOTS if pred(t)) / n, 3)

        def density(body: str) -> float:
            sel = [(e, kib) for e, (kib, t) in zip(e8, SCAN_SLOTS) if t.body == body]
            return round(sum(e for e, _ in sel) / sum(kib * 1024 for _, kib in sel), 6)

        self.inputs = {
            "files_per_cycle": n,
            "code_kib_ladder": list(SCAN_RUNGS_KIB),
            "e8_density_random": density("random"),
            "e8_density_nop": density("nop"),
            "anchored_share": share(lambda t: t.anchored),
            "entry_hook_share": share(lambda t: t.hooked),
            "code_pe_const_share": share(lambda t: t.consts > 0),
            "data_pe_const_share": share(lambda t: t.data_const),
            "train_share": share(lambda t: t.train),
            "anchored_with_train_share": share(lambda t: t.anchored and t.train),
            "corpus_bytes": sum(s.input_bytes for s in self.specs),
        }

    def _corpus(self) -> tuple[list[ScanSpec], list[int]]:
        """Write the next corpus; return its specs and each file's 0xE8 count."""
        k = len(self.cycle_digests)
        rng = random.Random(f"scan:{self.seed}:{k}")
        corpus = self.directory / f"corpus{k:04d}"
        corpus.mkdir(parents=True)
        specs, e8 = [], []
        for j, (kib, t) in enumerate(SCAN_SLOTS):
            pe, e8_bytes, planted = _scan_file(self.dq.pebuild, rng, kib, t)
            path = corpus / f"s{kib:03d}k_{j:02d}_{t.body}_{'a' if t.anchored else 'p'}.exe"
            path.write_bytes(pe)
            anchor = ANCHOR if t.anchored else None
            if planted != expected_findings(pe, anchor):
                raise RuntimeError(f"{path.name}: planted findings disagree "
                                   "with the independent finder")
            specs.append(ScanSpec(path, anchor, tuple(planted), len(pe)))
            e8.append(e8_bytes)
        self.cycle_digests.append(tree_digest(corpus))
        return specs, e8

    def cycle(self, rng: random.Random) -> list:
        shutil.rmtree(self.specs[0].path.parent)
        self.specs, _ = self._corpus()
        return super().cycle(rng)

    def summary(self) -> dict:
        return {**self.inputs, "cycle_sha256": [d[:16] for d in self.cycle_digests]}

    def run(self, spec: ScanSpec):
        return self.dq.scan.scan_file(spec.path, anchor_export=spec.anchor)

    def check(self, spec: ScanSpec, report) -> tuple[bool, int, int]:
        got = tuple(sorted((f.kind, f.address) for f in report.findings))
        return got == spec.expected, 0, len(got)

WORKLOADS = {"replay": Replay, "fleet": Fleet, "scan": Scan}
