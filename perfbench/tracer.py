"""In-process span tracer for the benchmark's traced run.

It rebinds module attributes and class methods of an imported duqusim, for
this process only and only while installed, so nothing under ``src/``
changes.  A *span* target records name, start, end, parent span and op id,
plus a call count and optionally the bytes it handled; a *count* target
only counts calls (used for the hottest, cheapest functions so the tracer
does not swamp them).  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from contextlib import contextmanager

SPAN, COUNT = "span", "count"
PARSE_REPEATS = "peformat.parse_pe.repeats"


def _arg0_len(args, kwargs, result) -> int:
    return len(args[0])


def _result_len(args, kwargs, result) -> int:
    return 0 if result is None else len(result)


def _exec_bytes(args, kwargs, result) -> int:
    """Code bytes a pattern scan walks: every executable section's data."""
    image = args[0]
    total = 0
    for s in image.sections:
        if s.executable:
            if image.layout == "mapped":
                lo, span = s.virtual_address, s.virtual_span
            else:
                lo, span = s.raw_offset, s.raw_size
            total += max(0, min(span, len(image.raw) - lo))
    return total


_HANDLER = "simkernel.handler.calls"

# (name, module, class or None, attribute, kind, bytes handled, extra counters)
# A span named N yields N.calls, N.self_ms and, with a bytes function,
# N.bytes; a count target's name is the metric itself.
TARGETS = (
    ("peformat.parse_pe", "peformat", None, "parse_pe", SPAN, _arg0_len, ()),
    ("peformat.parse_headers", "peformat", None, "parse_headers", SPAN, None, ()),
    ("peformat.assemble_mapped", "peformat", None, "assemble_mapped", SPAN, _result_len, ()),
    ("peformat.apply_relocations", "peformat", None, "apply_relocations", SPAN, None, ()),
    ("peformat.ror13_hash", "peformat", None, "ror13_hash", SPAN, _arg0_len, ()),
    ("peformat.find_export_by_hash", "peformat", None, "find_export_by_hash", SPAN, None, ()),
    ("peformat.strip_restore", "peformat", None, "strip_headers", SPAN, None, ()),
    ("peformat.strip_restore", "peformat", None, "restore_headers", SPAN, None, ()),
    ("simkernel.create_process", "simkernel", "SimKernel", "create_process", SPAN, None, ()),
    ("simkernel.load_module", "simkernel", "SimKernel", "load_module", SPAN, None, ()),
    ("simkernel.read_memory", "simkernel", "SimKernel", "read_memory", SPAN,
     lambda a, k, r: a[3], ()),
    ("simkernel.write_memory", "simkernel", "SimKernel", "write_memory", SPAN,
     lambda a, k, r: len(a[3]), ()),
    ("simkernel.read_image", "simkernel", "SimKernel", "read_image", SPAN, _result_len, ()),
    ("simkernel.allocate_memory.calls", "simkernel", "SimKernel", "allocate_memory", COUNT,
     None, ()),
    ("simkernel.protect_memory.calls", "simkernel", "SimKernel", "protect_memory", COUNT,
     None, ()),
    ("simkernel.span_free.calls", "simkernel", "SimProcess", "span_free", COUNT, None, ()),
    ("simkernel.region_at.calls", "simkernel", "SimProcess", "region_at", COUNT, None, ()),
    ("simkernel.events", "simkernel", "SimKernel", "_emit", COUNT, None, ()),
    ("duqu.boot_init", "duqu", "DuquDriver", "boot_init", SPAN, None, ()),
    ("duqu.scan_call_push_call", "duqu", None, "scan_call_push_call", SPAN, _exec_bytes, ()),
    ("duqu.decrypt_blob", "duqu", None, "decrypt_blob", SPAN, _arg0_len, ()),
    ("duqu.on_image_load_first", "duqu", "DuquDriver", "on_image_load_first", SPAN, None, ()),
    ("duqu.on_image_load_second", "duqu", "DuquDriver", "on_image_load_second", SPAN,
     None, ()),
    ("duqu.run_stub", "duqu", "DuquDriver", "run_stub", SPAN, None, ()),
    ("duqu.device_requests", "duqu", "DuquDriver", "_on_device_request", COUNT, None, ()),
    (_HANDLER, "duqu", "DuquDriver", "_on_image_load", COUNT, None, ()),
    ("sentinel.on_process_create", "sentinel", "SentinelDriver", "on_process_create", SPAN,
     None, (_HANDLER,)),
    ("sentinel.on_image_load", "sentinel", "SentinelDriver", "on_image_load", SPAN,
     None, (_HANDLER,)),
    (_HANDLER, "sentinel", "SentinelDriver", "_on_process_exit", COUNT, None, ()),
    ("sentinel.mismatches", "sentinel", "SentinelDriver", "_mismatch", COUNT, None, ()),
    ("scenario.parse_scenario", "scenario", None, "parse_scenario", SPAN, None, ()),
    ("scenario.execute", "scenario", "ScenarioRunner", "execute", SPAN, None, ()),
    ("scenario.render", "scenario", "ScenarioResult", "render", SPAN, None, ()),
    ("scan.scan_pe", "scan", None, "scan_pe", SPAN, _arg0_len, ()),
    ("fixtures.write_fixture_set", "fixtures", None, "write_fixture_set", SPAN, None, ()),
)


def metric_names() -> set[str]:
    """Every counter and self time the tracer can produce."""
    names = {PARSE_REPEATS}
    for name, _, _, _, kind, size, extra in TARGETS:
        if kind == COUNT:
            names.add(name)
        else:
            names.update({f"{name}.calls", f"{name}.self_ms"})
            if size is not None:
                names.add(f"{name}.bytes")
        names.update(extra)
    return names


class Tracer:
    def __init__(self, dq):
        self.dq = dq
        # [name, start, end, parent index, op id, children's tracer bookkeeping s]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()  # metric name -> calls or bytes
        self.op = -1
        self.bookkeeping_s = 0.0
        self._parsed: set[bytes] = set()
        self._patches = self._plan()

    def begin_op(self, op: int) -> None:
        self.op = op
        self._parsed.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.bookkeeping_s = 0.0
        self.begin_op(-1)

    def _note_parse(self, args, kwargs, result) -> int:
        """Bytes parsed; also counts a parse of a buffer seen earlier in the op."""
        digest = hashlib.sha1(args[0]).digest()
        if digest in self._parsed:
            self.counts[PARSE_REPEATS] += 1
        self._parsed.add(digest)
        return len(args[0])

    def _span(self, name, fn, size, extra):
        spans, stack, counts = self.spans, self.stack, self.counts
        calls, nbytes = f"{name}.calls", f"{name}.bytes"
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            enter = clock()
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, tracer.op, 0.0]
            stack.append(len(spans))
            spans.append(record)
            result = None
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                record[2] = clock()
                stack.pop()
                counts[calls] += 1
                for key in extra:
                    counts[key] += 1
                if size is not None:
                    counts[nbytes] += size(args, kwargs, result)
                # The wrapper's own work outside [start, end] (for parse_pe a
                # SHA-1 of the buffer) falls inside the parent's span; it is
                # the tracer's cost, not the parent's, so it is charged apart.
                bookkeeping = clock() - record[2] + record[1] - enter
                tracer.bookkeeping_s += bookkeeping
                if parent >= 0:
                    spans[parent][5] += bookkeeping
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every rebinding."""
        modules = list({id(m): m for m in vars(self.dq).values()}.values())
        patches = []
        for name, module, cls, attr, kind, size, extra in TARGETS:
            owner = getattr(self.dq, module)
            if cls is not None:
                owner = getattr(owner, cls)
            original = vars(owner)[attr]
            if name == "peformat.parse_pe":
                size = self._note_parse  # bytes, plus repeats within an op
            wrapper = (self._span(name, original, size, extra) if kind == SPAN
                       else self._count(name, original))
            if cls is not None:
                patches.append((owner, attr, original, wrapper))
                continue
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    patches.append((mod, attr, original, wrapper))
        return patches

    @contextmanager
    def installed(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def self_ms(self) -> Counter:
        """Per ``<span>.self_ms``: duration minus the time child spans cover,
        and minus the tracer's bookkeeping around those children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _, _, bookkeeping) in enumerate(self.spans):
            out[f"{name}.self_ms"] += (end - start - child[i] - bookkeeping) * 1e3
        return out

    def dump(self) -> list[dict]:
        t0 = self.spans[0][1] if self.spans else 0.0
        return [{"id": i, "name": name, "start_us": round((start - t0) * 1e6, 1),
                 "end_us": round((end - t0) * 1e6, 1), "parent": parent, "op": op,
                 "child_tracer_us": round(bookkeeping * 1e6, 1)}
                for i, (name, start, end, parent, op, bookkeeping) in enumerate(self.spans)]
