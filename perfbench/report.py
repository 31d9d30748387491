#!/usr/bin/env python3
"""Run every workload over ten seeds and print every metric.

    python3 perfbench/report.py [--baseline perfbench/baseline.json]

For each workload in ``BENCHMARK.json`` it runs ``run.py --trace 0`` once
per seed 1..10 and ``run.py --trace 1`` twice with seed 1, each for the
file's ``run_seconds``.  It prints each end-to-end metric's median,
quartiles and quartile spread as a share of the median next to the bound
in ``BENCHMARK.json`` (``WIDE`` marks a spread above a third of the bound),
and each per-layer metric of the first traced run.  It exits 1 if any run
failed, any output check failed, a generator produced different inputs for
the same seed, or the two traced runs' counts differ.  With ``--baseline``
it writes every run's result line and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_UNITS = ("count", "bytes")
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict | None, dict]:
    """One benchmark run; returns (result line, diagnostics parsed from stdout)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    info = {"returncode": proc.returncode}
    for line in lines:
        if line.startswith("perfbench: inputs "):
            info["inputs"] = json.loads(line[len("perfbench: inputs "):])
        elif "inputs_sha256=" in line:
            info["inputs_sha256"] = line.split("inputs_sha256=")[1].split()[0]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None, info
    return json.loads(lines[-1]), info


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()
    seconds = spec["run_seconds"]

    ok = True
    baseline = {"run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results, digests, inputs = [], {}, {}
        for seed in SEEDS:
            result, info = run_once(workload, seed, seconds, 0)
            inputs[seed] = info.get("inputs")
            digests[seed] = info.get("inputs_sha256")
            if result is None or not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: FAILED {result}")
                ok = False
            if result is not None:
                results.append(result)
        traced = [run_once(workload, 1, seconds, 1) for _ in range(2)]
        if any(r is None or not r["correct"] or r["failed"] for r, _ in traced):
            print(f"{workload} traced: FAILED")
            ok = False
        # Inputs made per cycle (scan's corpora) are compared over the
        # cycles all three seed-1 runs reached.
        cycles = [(inputs[1] or {}).get("cycle_sha256", [])]
        cycles += [(info.get("inputs") or {}).get("cycle_sha256", []) for _, info in traced]
        reached = min(map(len, cycles))
        if (any(info.get("inputs_sha256") != digests.get(1) for _, info in traced)
                or any(c[:reached] != cycles[0][:reached] for c in cycles)):
            print(f"{workload}: seed 1 generated different inputs in two processes")
            ok = False

        print(f"\n== {workload}: {len(results)} runs x {seconds} s, "
              f"seeds {SEEDS.start}..{SEEDS.stop - 1}")
        summary = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            if len(values) < 2:
                continue
            median, q1, q3, share = spread(values)
            flag = "WIDE" if share > metric["bound"] / 3 else ""
            summary[name] = {"unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                             "spread": share, "bound": metric["bound"]}
            print(f"  {name:<18} {median:>14.6f} {metric['unit']:<13} q1 {q1:.6f} "
                  f"q3 {q3:.6f} spread {share:.4f} bound {metric['bound']} {flag}")
        layer = {}
        first, second = (r["metrics"] if r else {} for r, _ in traced)
        for metric in spec["per_layer"]:
            name = metric["name"]
            if name not in first:
                continue
            value = first[name]["value"]
            layer[name] = value
            repeat = ""
            if metric["unit"] in EXACT_UNITS and second.get(name, {}).get("value") != value:
                repeat = "  COUNT DIFFERS BETWEEN TRACED RUNS"
                ok = False
            print(f"  {name:<40} {value:>16.6f} {metric['unit']}{repeat}")
        baseline["workloads"][workload] = {
            "seeds": list(SEEDS),
            "inputs_by_seed": inputs,
            "end_to_end": summary,
            "per_layer_seed1": layer,
            "runs": results,
        }
    if args.baseline:
        args.baseline.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    print("\nall output checks passed" if ok else "\nOUTPUT CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
