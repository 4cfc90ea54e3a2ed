"""Time the Tier-1 test suite on two source trees, in pairs.

    python3 bench/tier1.py PARENT_TREE CHANGE_TREE [--pairs N] [--out FILE]

Each tree is a checkout of the repository. The Tier-1 command (ROADMAP.md)
runs in the tree's root with its `src/` first on PYTHONPATH, plus
`--durations=0 --durations-min=0` so that pytest reports every test's
setup, call and teardown time. Pair i runs the parent first when i is even
and the change first when it is odd. Each run keeps its wall time (around
the whole process), its exit code, the counts of pytest's summary line and
each test's duration (the sum of its reported phases). The result (default
BENCH_tier1.json) claims nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
DURATIONS = ["--durations=0", "--durations-min=0"]
# "0.12s call     tests/test_x.py::TestY::test_z[param]"
DURATION_LINE = re.compile(r"^(\d+\.\d+)s (setup|call|teardown)\s+(\S.*)$")
# "449 passed, 2 warnings in 47.98s"; the counts come before " in "
COUNT = re.compile(r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed|deselected)")


def run(tree: Path) -> dict:
    """Wall time, exit code, summary counts and per-test seconds of one run."""
    path = [str(tree / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *TIER1, *DURATIONS], cwd=tree, env=env,
        capture_output=True, text=True, timeout=3600,
    )
    wall = time.perf_counter() - start
    tests: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = {}
    for line in done.stdout.splitlines():
        if match := DURATION_LINE.match(line):
            tests[match[3].strip()] += float(match[1])
        elif " in " in line and (found := COUNT.findall(line.split(" in ")[0])):
            counts = {{"errors": "error"}.get(name, name): int(c) for c, name in found}
    return {
        "wall_s": round(wall, 2),
        "exit_code": done.returncode,
        "counts": counts,
        "tests": {name: round(s, 3) for name, s in sorted(tests.items())},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--out", type=Path, default=Path("BENCH_tier1.json"))
    args = parser.parse_args()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for side in order:
            result = run(sides[side])
            runs[side].append(result)
            print(json.dumps({"pair": pair, "side": side, "wall_s": result["wall_s"],
                              "exit_code": result["exit_code"],
                              "counts": result["counts"]}), flush=True)
    summary = {
        side: {
            "wall_s": [r["wall_s"] for r in rs],
            "wall_median_s": statistics.median(r["wall_s"] for r in rs),
            "exit_codes": sorted({r["exit_code"] for r in rs}),
            "counts": [r["counts"] for r in rs],
        }
        for side, rs in runs.items()
    }
    names = sorted({name for rs in runs.values() for r in rs for name in r["tests"]})
    tests = {
        name: {f"{side}_s": [r["tests"].get(name) for r in rs] for side, rs in runs.items()}
        for name in names
    }
    command = ["python", *TIER1, *DURATIONS]
    args.out.write_text(json.dumps(
        {"pairs": args.pairs, "command": command, "summary": summary, "tests": tests},
        indent=1,
    ) + "\n")


if __name__ == "__main__":
    main()
