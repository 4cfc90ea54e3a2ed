"""Compare `bloomlab verify all` between two source trees.

    python3 bench/verify_diff.py PARENT_TREE CHANGE_TREE

Each tree is a checkout of the repository. In each, with the tree's `src/`
first on PYTHONPATH, `bloomlab verify all --out <tmpdir>` runs once. Timings
differ from run to run, so every "<digits>.<digits>s" in stdout reads "Xs"
before the two transcripts are diffed. The exit codes are compared, and so is
each CSV artifact, byte for byte. The script prints what differs (or that
nothing does) and exits 1 when anything differs, 0 otherwise.
"""

from __future__ import annotations

import argparse
import difflib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

TIMING = re.compile(r"[0-9]+\.[0-9]+s")


def run(tree: Path, out: Path) -> tuple[int, str, dict[str, bytes]]:
    """Exit code, masked stdout and artifacts of one `verify all` run."""
    path = [str(tree / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-m", "bloomlab.cli", "verify", "all", "--out", str(out)],
        cwd=tree, env=env, capture_output=True, text=True, timeout=3600,
    )
    if done.stderr:
        print(f"{tree}: stderr:\n{done.stderr}", file=sys.stderr)
    artifacts = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
    return done.returncode, TIMING.sub("Xs", done.stdout), artifacts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        parent = run(args.parent.resolve(), Path(tmp, "parent"))
        change = run(args.change.resolve(), Path(tmp, "change"))
    (code_p, out_p, csv_p), (code_c, out_c, csv_c) = parent, change
    differences = []
    if code_p != code_c:
        differences.append(f"exit code: parent {code_p}, change {code_c}")
    diff = list(difflib.unified_diff(
        out_p.splitlines(), out_c.splitlines(), "parent", "change", lineterm="",
    ))
    if diff:
        differences.append("stdout (timings masked):\n" + "\n".join(diff))
    for name in sorted(csv_p.keys() | csv_c.keys()):
        if csv_p.get(name) != csv_c.get(name):
            differences.append(f"artifact {name} differs (or is missing on one side)")
    if differences:
        print("\n".join(differences))
        sys.exit(1)
    print(f"same: exit code {code_p}, {len(out_p.splitlines())} stdout lines with "
          f"timings masked, artifacts {', '.join(sorted(csv_p)) or 'none'} "
          "byte-identical")


if __name__ == "__main__":
    main()
