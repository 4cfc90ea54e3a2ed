"""Time `bloomlab optimize` and `sweep` cells on two source trees, in pairs.

    python3 bench/rate_source.py PARENT_TREE CHANGE_TREE [--pairs N] [--out FILE]
                                 [--cell CELL ...]

Each tree is a checkout of the repository (its `src/` is put first on
PYTHONPATH). Every cell runs as a fresh `python3 -m bloomlab.cli ...`
process per side and pair, timed by wall clock around the process; pair i
runs the parent first when i is even and the change first when it is odd.
Each run's stdout is digested (sha256), and the digests of the two sides
must agree. The result (default BENCH_rate_source.json) keeps every time,
the medians and the digests; it claims nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

CELLS = [
    "sweep --variable k --start 120 --end 145 --m 1024 --n 5 --outputs exact",
    "sweep --variable k --start 1 --end 400 --m 1024 --n 1 --outputs exact",
    "sweep --variable k --start 1 --end 120 --m 4096 --n 40 --outputs exact,efficiency",
    "sweep --variable k --start 1 --end 200 --m 16384 --n 100 --outputs exact",
    "optimize --m 65536 --n 1000 --variant standard",
    "optimize --m 65536 --n 1000 --variant classic",
    "optimize --m 16384 --p 1e-6",
    "optimize --m 2048 --n 1",
    "sweep --variable n --start 0 --end 64 --m 1024 --outputs "
    "kstar_classic,kstar_standard",
    "sweep --variable n --start 1 --end 64 --m 1024 --outputs "
    "kstar_est,kstar_classic,kstar_standard",
    "sweep --variable k --start 1 --end 50 --m 1024 --n 0",
]


def run(tree: Path, cell: str) -> tuple[float, str, int]:
    """(seconds, stdout sha256, exit code) of one fresh CLI process."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, "-m", "bloomlab.cli", *cell.split()]
    start = time.perf_counter()
    done = subprocess.run(argv, env=env, capture_output=True, timeout=900)
    seconds = time.perf_counter() - start
    return seconds, hashlib.sha256(done.stdout).hexdigest(), done.returncode


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--out", type=Path, default=Path("BENCH_rate_source.json"))
    parser.add_argument("--cell", action="append", choices=CELLS,
                        help="time only this cell (repeatable)")
    args = parser.parse_args()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    rows = []
    for cell in args.cell or CELLS:
        times = {"parent": [], "change": []}
        digests = {"parent": set(), "change": set()}
        codes = set()
        for pair in range(args.pairs):
            order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
            for side in order:
                seconds, digest, code = run(sides[side], cell)
                times[side].append(round(seconds, 3))
                digests[side].add(digest)
                codes.add(code)
        medians = {side: statistics.median(t) for side, t in times.items()}
        row = {
            "cell": cell,
            "parent_s": times["parent"],
            "change_s": times["change"],
            "parent_median_s": medians["parent"],
            "change_median_s": medians["change"],
            "ratio": round(medians["change"] / medians["parent"], 3),
            "exit_codes": sorted(codes),
            "stdout_sha256": sorted(digests["parent"] | digests["change"]),
            "digests_equal": digests["parent"] == digests["change"]
            and len(digests["parent"]) == 1,
        }
        rows.append(row)
        print(json.dumps(row), flush=True)
    args.out.write_text(json.dumps({"pairs": args.pairs, "cells": rows}, indent=1) + "\n")


if __name__ == "__main__":
    main()
