#!/usr/bin/env python3
"""duqusim benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {replay,fleet,scan} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  One single-threaded client drives the package in-process in a
closed loop: the next op starts when the previous one has returned.

The host's speed drifts, within a run and between runs, by more than the
regressions this benchmark must catch.  So after every op a fixed
pure-Python reference loop (``calib.py``) runs, and each op's time is
divided by the median of the reference loops run around it; the gated
timings are these ``_rel`` multiples.  Raw milliseconds are diagnostics.
Set-up (import, fixture and input generation, warm-up) is repeated
``SETUP_REPS`` times and calibrated against a reference of its own kind
(see ``set_up``).

An op stands for one independent run of the CLI (one scenario, one scan),
so the cyclic garbage earlier ops leave (dead kernels and drivers) is
collected between cycles, outside the timed region.  Left to build up,
it made peak RSS wander by 10% between runs of the same seed.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced passes, one cycle of ops each,
and reports the per-layer metrics.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it print every metric by name with its unit, plus diagnostics.
Every op's output is checked by the benchmark; a failed check is counted,
it does not stop the run.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

from calib import time_reference, time_setup_reference
from tracer import PARSE_REPEATS, Tracer, metric_names
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 15
SETUP_CAL_LOOPS = 4
SETUP_REF_NOMINAL_S = 0.01
CAL_WINDOW = 2   # an op is compared with the 2 * 2 + 1 reference loops around it
MODULES = ("peformat", "pebuild", "simkernel", "duqu", "sentinel", "scenario",
           "scan", "fixtures")
KNOWN_PER_LAYER = metric_names() | {
    "peformat.parse_pe.repeat_ratio", "scenario.lines", "scan.findings",
    "fixtures.write_fixture_set.self_ms", "bench.cal_p50_ms", "bench.op_p50_ms",
    "bench.op_p90_ms", "bench.trace_overhead_ratio"}


def load_duqusim() -> SimpleNamespace:
    """Import duqusim afresh from the checkout's ``src/``."""
    src = ROOT / "src"
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "duqusim" or n.startswith("duqusim.")]:
        del sys.modules[name]
    package = importlib.import_module("duqusim")
    if Path(package.__file__).resolve().parent != (src / "duqusim").resolve():
        raise SystemExit(f"perfbench: duqusim imported from {package.__file__}, not {src}")
    return SimpleNamespace(package=package,
                           **{m: importlib.import_module(f"duqusim.{m}") for m in MODULES})


def set_up(name: str, seed: int, scratch: Path) -> SimpleNamespace:
    """Set up ``SETUP_REPS`` times; the first workload is the one measured.

    Each set-up's wall time is divided by the median time of the set-up
    reference (``calib.time_setup_reference``) run right before and right
    after it, and scaled by ``SETUP_REF_NOMINAL_S``: ``setup_s`` is the
    median of these, the seconds set-up takes on a host where the set-up
    reference takes 10 ms.  Later set-ups only check that the seed gives
    the same inputs again, and are then deleted.
    """
    first, raw_s, scaled_s, digests = None, [], [], set()
    for _ in range(SETUP_REPS):
        directory = Path(tempfile.mkdtemp(dir=scratch))
        before = [time_setup_reference() for _ in range(SETUP_CAL_LOOPS)]
        t0 = time.perf_counter()
        workload = WORKLOADS[name](load_duqusim(), directory, seed)
        for spec in workload.warmup:
            workload.check(spec, workload.run(spec))
        seconds = time.perf_counter() - t0
        after = [time_setup_reference() for _ in range(SETUP_CAL_LOOPS)]
        ref_ms = statistics.median(before + after)
        raw_s.append(seconds)
        scaled_s.append(seconds * 1e3 / ref_ms * SETUP_REF_NOMINAL_S)
        digests.add(workload.digest)
        if first is None:
            first = workload
        else:
            shutil.rmtree(directory)
        gc.collect()
    return SimpleNamespace(workload=first, raw_s=raw_s, setup_s=statistics.median(scaled_s),
                           deterministic=len(digests) == 1)


class Tally:
    """Op outcomes and timings of a run."""

    def __init__(self):
        self.op_ms: list[float] = []
        self.cal_ms: list[float] = []
        self.input_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.lines = 0
        self.findings = 0

    def op(self, workload, spec, calibrate: bool) -> None:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = workload.run(spec)
        except Exception as exc:  # a raising op is a failed op, not a crash
            self.op_ms.append((time.perf_counter() - t0) * 1e3)
            self.failed += 1
            print(f"perfbench: op {spec} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        else:
            self.op_ms.append((time.perf_counter() - t0) * 1e3)
            ok, lines, findings = workload.check(spec, out)
            self.failed += not ok
            self.lines += lines
            self.findings += findings
            if not ok:
                print(f"perfbench: output check failed for {spec}", file=sys.stderr)
        self.input_bytes += spec.input_bytes
        if calibrate:
            self.cal_ms.append(time_reference())

    def pass_ms(self, start: int) -> float:
        return sum(self.op_ms[start:])

    def relative(self) -> list[float]:
        """Each op's time over the median of the reference loops run around it."""
        cal, k = self.cal_ms, CAL_WINDOW
        return [op / statistics.median(cal[max(0, i - k):i + k + 1])
                for i, op in enumerate(self.op_ms)]


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def workload_rng(seed: int) -> random.Random:
    """Seeded order of ops, separate from the input generators' streams."""
    return random.Random(f"order:{seed}")


def measure(workload, seed: int, seconds: float) -> tuple[Tally, int]:
    """Closed loop over whole cycles until ``seconds`` of them have passed."""
    rng = workload_rng(seed)
    tally = Tally()
    cycles = 0
    while cycles == 0 or sum(tally.op_ms) + sum(tally.cal_ms) < seconds * 1e3:
        for spec in workload.cycle(rng):
            tally.op(workload, spec, calibrate=True)
        cycles += 1
        gc.collect()
    return tally, cycles


def end_to_end(tally: Tally, setup_s: float) -> dict[str, float]:
    rel = tally.relative()
    return {
        "op_p50_rel": statistics.median(rel),
        "op_p90_rel": p90(rel),
        "throughput_rel": len(rel) / sum(rel),
        "input_MBps_rel": tally.input_bytes / 1e6 / sum(rel),
        "peak_rss_MB": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
        "setup_s": setup_s,
    }


def traced(workload, seed: int, seconds: float, scratch: Path) -> dict:
    """Alternate untraced and traced passes, one cycle of ops each.

    Every cycle has the same mix of work (see ``workloads.py``), so counts
    come from the first traced pass and must repeat exactly in every later
    one; self times are medians over the traced passes.
    """
    tracer = Tracer(workload.dq)
    with tracer.installed():
        workload.dq.fixtures.write_fixture_set(scratch / "traced_fixtures")
    fixtures_ms = tracer.self_ms()["fixtures.write_fixture_set.self_ms"]
    rng = workload_rng(seed)
    plain, traced_ops = Tally(), Tally()
    plain_pass, traced_pass, self_ms, counts, spans = [], [], [], [], None
    bookkeeping_ms = []
    t0 = time.perf_counter()
    while len(traced_pass) < 2 or time.perf_counter() - t0 < seconds:
        start = len(plain.op_ms)
        for spec in workload.cycle(rng):
            plain.op(workload, spec, calibrate=True)
        plain_pass.append(plain.pass_ms(start))
        gc.collect()

        tracer.reset()
        ops = workload.cycle(rng)
        start, lines, findings = len(traced_ops.op_ms), traced_ops.lines, traced_ops.findings
        with tracer.installed():
            for i, spec in enumerate(ops):
                tracer.begin_op(i)
                traced_ops.op(workload, spec, calibrate=False)
        traced_pass.append(traced_ops.pass_ms(start))
        self_ms.append(tracer.self_ms())
        bookkeeping_ms.append(tracer.bookkeeping_s * 1e3)
        counts.append({**tracer.counts,
                       "scenario.lines": traced_ops.lines - lines,
                       "scan.findings": traced_ops.findings - findings})
        if spans is None:
            spans = tracer.dump()
        gc.collect()

    values = {name: statistics.median(p[name] for p in self_ms)
              for name in set().union(*self_ms)}
    values.update(counts[0])
    parses = counts[0].get("peformat.parse_pe.calls", 0)
    values.update({
        "peformat.parse_pe.repeat_ratio": counts[0].get(PARSE_REPEATS, 0) / parses
        if parses else 0.0,
        "fixtures.write_fixture_set.self_ms": fixtures_ms,
        "bench.cal_p50_ms": statistics.median(plain.cal_ms),
        "bench.op_p50_ms": statistics.median(plain.op_ms),
        "bench.op_p90_ms": p90(plain.op_ms),
        "bench.trace_overhead_ratio": statistics.median(traced_pass)
        / statistics.median(plain_pass),
    })
    return {
        "values": values,
        "attempted": plain.attempted + traced_ops.attempted,
        "failed": plain.failed + traced_ops.failed,
        "counts_repeat": all(c == counts[0] for c in counts),
        "passes": len(traced_pass),
        "ops_per_pass": len(ops),
        "pass_ms": statistics.median(traced_pass),
        "bookkeeping_ms": statistics.median(bookkeeping_ms),
        "spans": spans,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "duqusim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no duqusim package under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    unknown = set(units) - KNOWN_PER_LAYER if args.trace else set()
    if unknown:
        raise SystemExit(f"perfbench: no tracer source for {sorted(unknown)}")
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        setups = set_up(args.workload, args.seed, scratch)
        if args.trace:
            run = traced(setups.workload, args.seed, args.seconds, scratch)
            metrics = {name: run["values"].get(name, 0) for name in units}
            attempted, failed = run["attempted"], run["failed"]
            correct = run["counts_repeat"]
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            dump = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            dump.write_text("".join(json.dumps(s) + "\n" for s in run["spans"]),
                            encoding="utf-8")
            print(f"perfbench: traced passes={run['passes']} ops/pass={run['ops_per_pass']} "
                  f"spans/pass={len(run['spans'])} dump={dump.relative_to(ROOT)} "
                  f"pass_ms={run['pass_ms']:.3f} "
                  f"tracer_bookkeeping_ms={run['bookkeeping_ms']:.3f} (in no self_ms) "
                  f"counts_repeat={'yes' if run['counts_repeat'] else 'NO'}")
        else:
            tally, cycles = measure(setups.workload, args.seed, args.seconds)
            metrics = end_to_end(tally, setups.setup_s)
            attempted, failed = tally.attempted, tally.failed
            correct = True
            print(f"perfbench: ops={len(tally.op_ms)} cycles={cycles} "
                  f"cal_p50_ms={statistics.median(tally.cal_ms):.4f} "
                  f"op_p50_ms={statistics.median(tally.op_ms):.4f} "
                  f"op_p90_ms={p90(tally.op_ms):.4f} "
                  f"setup_wall_s=[{', '.join(f'{s:.4f}' for s in setups.raw_s)}]")
        correct = correct and setups.deterministic and failed == 0
        print(f"perfbench: workload={args.workload} seed={args.seed} "
              f"inputs_sha256={setups.workload.digest} "
              f"same_inputs_each_setup={'yes' if setups.deterministic else 'NO'}")
        print("perfbench: inputs " + json.dumps(setups.workload.summary(), sort_keys=True))
        for name, unit in units.items():
            samples = f"  (n={attempted})" if name.startswith("op_p") else ""
            print(f"  {name:<42} {metrics[name]:>16.6f} {unit}{samples}")
        print(json.dumps({
            "correct": bool(correct),
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        }))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
