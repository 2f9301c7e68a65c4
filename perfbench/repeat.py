#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --runs 10 --out perfbench/baseline.json

Each run is a separate ``run.py`` process with its own seed (1, 2, ...).
For every end-to-end metric this prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median, next to the metric's bound in BENCHMARK.json.  With
``--trace`` it also makes one traced run per workload.  ``--out`` writes the
summary with the machine and Python it was measured on.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _summary(values: list[float], bound: float) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "values": values}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--trace", action="store_true",
                        help="also make one traced run per workload")
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    names = args.workload or [w["name"] for w in spec["workloads"]]
    result = {
        "machine": {"platform": platform.platform(), "cpu": _cpu_model(),
                    "cpus": os.cpu_count(), "python": platform.python_version()},
        "runs": args.runs, "seconds": args.seconds, "workloads": {},
    }
    for workload in names:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [_run(workload, seed, args.seconds, 0) for seed in seeds]
        entry = {"correct": all(r["correct"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "end_to_end": {}}
        print(f"{workload}: {args.runs} runs, correct={entry['correct']}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            s = _summary([r["metrics"][name]["value"] for r in runs], metric["bound"])
            entry["end_to_end"][name] = s
            print(f"  {name:14s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}  bound {s['bound']}")
        if args.trace:
            traced = _run(workload, args.first_seed, args.seconds, 1)
            entry["per_layer"] = {n: m["value"] for n, m in traced["metrics"].items()}
        result["workloads"][workload] = entry
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
