#!/usr/bin/env python3
"""Benchmark entry point: run one workload and print its metrics.

Run from the repository root::

    python3 perfbench/run.py --ref-nominal-s 0.014 --workload paper_mixer \\
        --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``perfbench/README.md``).  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a results file with the host fingerprint, raw timings and (for
traced runs) every span goes to ``perfbench/out/``.  The exit code is 0 when
every op passed its check, 1 when any failed, 2 when the program under test
is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from catalogue import WORKLOADS
from common import BLAS_THREAD_VARS, pin_allocator, pin_cpu

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--ref-nominal-s",
        type=float,
        required=True,
        help="nominal reference-kernel time that host-adjusted timings are scaled to",
    )
    return parser.parse_args(argv)


def pin_environment() -> None:
    """One BLAS thread, no fault injection; must run before numpy is imported."""
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    os.environ.pop("REPRO_FAULT_PROFILE", None)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program under test is missing ({ROOT / 'src' / 'repro'})", file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(ROOT / "src"))
    allocator = pin_allocator()
    cpu = pin_cpu()
    import bench  # imports numpy: after the environment is pinned

    result = bench.run_workload(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        nominal_ref_s=args.ref_nominal_s,
        host_notes={"mallopt": allocator, "pinned_cpu": cpu},
    )
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result.document(), indent=1) + "\n", encoding="utf-8")
    print(bench.format_report(result))
    print(f"results file: {out_file.relative_to(ROOT)}")
    print(json.dumps(result.summary()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
