#!/usr/bin/env python3
"""One command for every metric: each workload untraced, then traced.

Run from the repository root::

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload NAME ...]

Reads the benchmark command and run length from ``BENCHMARK.json``, runs
every workload with ``--trace 0`` (end-to-end metrics) and ``--trace 1``
(per-layer metrics), prints every metric by name with its unit plus the
tracing overhead, and exits non-zero when any op failed its check or a run
failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(command: list[str], workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    argv = command + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    completed = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = completed.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        print(f"{workload} trace {trace}: no result (exit {completed.returncode})")
        print(completed.stderr[-2000:])
        return None
    result = json.loads(lines[-1])
    result["exit"] = completed.returncode
    if completed.returncode != 0:
        print("\n".join(line for line in lines if "FAILED" in line))
    return result


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)

    ok = True
    for workload in args.workload or names:
        results = {}
        for trace in (0, 1):
            result = run(spec["command"], workload, args.seed, args.seconds, trace)
            if result is None or result["exit"] != 0 or not result["correct"]:
                ok = False
            if result is None:
                continue
            results[trace] = result
            print(
                f"\n{workload} --trace {trace}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}"
            )
            for name, metric in result["metrics"].items():
                print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
        if len(results) == 2:
            untraced = results[0]["metrics"]["latency_p50_s"]["value"]
            traced = results[1]["metrics"]["trace.latency_p50_s"]["value"]
            print(f"  tracing overhead (traced p50 / untraced p50 - 1): {traced / untraced - 1:+.1%}")
    print("\nall ops passed their checks" if ok else "\nSOME OPS OR RUNS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
